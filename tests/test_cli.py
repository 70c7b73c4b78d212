"""Command-line driver: flags, exit codes, and stream formats."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scasp import cli
from scasp.cli import main
from scasp.compiler import RESERVED_NOTE

from helpers import run_child

PROGRAMS = Path(__file__).parent / "programs"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "data" / "golden"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def mask_time(s):
    return re.sub(r"\(in [0-9.]+ ms\)", "(in _ ms)", s)


def test_query_echo_answers_and_exhaustion(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a). p(b).")
    rc, out, err = run(capsys, path, "-q", "?- p(X).")
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "?- p(X)."
    assert lines[1] == ""
    assert out.count("Answer") == 2
    assert lines[-1] == "no"  # the search space was exhausted


def test_stopping_early_suppresses_the_no(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a). p(b).")
    rc, out, _ = run(capsys, path, "-q", "?- p(X).", "-n", "1")
    assert rc == 0
    assert out.count("Answer") == 1
    assert not out.rstrip().endswith("no")


def test_embedded_query_and_override(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a). q(b). ?- p(X).")
    rc, out, _ = run(capsys, path)
    assert rc == 0 and out.splitlines()[0] == "?- p(X)."
    rc, out, _ = run(capsys, path, "-q", "?- q(X).")
    assert rc == 0 and out.splitlines()[0] == "?- q(X)."


def test_multiple_files_merge(tmp_path, capsys):
    first = write(tmp_path, "facts.pl", "p(a).")
    second = write(tmp_path, "rules.pl", "q(X) :- p(X). ?- q(X).")
    rc, out, _ = run(capsys, first, second)
    assert rc == 0
    assert "X = a" in out


def test_exit_one_when_requested_answers_are_missing(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a).")
    rc, out, _ = run(capsys, path, "-q", "?- p(b).", "-n", "1")
    assert rc == 1
    assert out.rstrip().endswith("no")


def test_usage_errors(tmp_path, capsys):
    assert run(capsys, "--answers")[0] == 2  # missing value and files
    path = write(tmp_path, "p.pl", "p(a).")
    assert run(capsys, path, "-q", "?- p(a).", "-n", "-3")[0] == 2
    rc, _, err = run(capsys, str(tmp_path / "absent.pl"))
    assert rc == 2 and "absent.pl" in err


def test_help_exits_cleanly(capsys):
    assert run(capsys, "--help")[0] == 0


def test_missing_query_is_an_error(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a).")
    rc, _, err = run(capsys, path)
    assert rc == 2 and "query" in err


def test_reserved_name_error_location(tmp_path, capsys):
    path = write(tmp_path, "bad.pl", "not_p(a).")
    rc, _, err = run(capsys, path, "-q", "?- q.")
    assert rc == 2
    assert err.startswith(f"{path}:1:1:")
    assert "reserved" in err


def test_solver_restriction_reports_its_code(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a).")
    rc, _, err = run(capsys, path, "-q", "?- X \\= f(Y).")
    assert rc == 2
    assert "nonground_disequality" in err


def test_json_lines_stream(capsys):
    rc, out, err = run(capsys, str(PROGRAMS / "stream.pl"), "--json-lines")
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 3  # one record per answer, nothing else
    records = [json.loads(line) for line in lines]
    assert [r["answer"] for r in records] == [1, 2, 3]
    assert all("model" in r and "justification" in r for r in records)


def test_json_lines_respects_section_flags(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a).")
    rc, out, _ = run(
        capsys, path, "-q", "?- p(X).", "--json-lines", "--no-just", "--no-model"
    )
    assert rc == 0
    (record,) = [json.loads(line) for line in out.strip().splitlines()]
    assert record["bindings"] == {"X": "a"}
    assert "model" not in record and "justification" not in record


def test_text_section_flags(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a) :- q(a). q(a).")
    rc, out, _ = run(capsys, path, "-q", "?- p(a).", "--no-just")
    assert rc == 0
    assert ":-" not in out and "[ p(a), q(a), nmr_check ]" in out


def test_dump_compiled_is_a_fixed_point(tmp_path, capsys):
    cases = [
        ("p(0). p(X) :- q(X), not t(X,Y). q(1). t(1,2).", "% not p__1(A) :- A\\=0."),
        # An embedded query is part of the program: it dumps as written.
        ("r :- not s.  s :- not r.  ?- r, not p(X,_).", "?- r, not p(X,_)."),
    ]
    for text, line in cases:
        path = write(tmp_path, "p.pl", text)
        rc, dump1, _ = run(capsys, path, "--dump-compiled", "-q", "?- p.")
        assert rc == 0
        assert "% dual rules:" in dump1 and line in dump1.splitlines()
        again = write(tmp_path, "dump.pl", dump1)
        rc, dump2, _ = run(capsys, again, "--dump-compiled", "-q", "?- p.")
        assert rc == 0
        assert dump1 == dump2


def test_oracle_lists_stable_models(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "a :- not b. b :- not a.")
    rc, out, _ = run(capsys, path, "--oracle")
    assert rc == 0
    assert sorted(out.strip().splitlines()) == ["{ a }", "{ b }"]


def test_oracle_reports_no_models(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p :- q(a), not p. q(a).")
    rc, out, _ = run(capsys, path, "--oracle")
    assert rc == 1
    assert out.strip() == "no"


def test_oracle_rejects_constraints(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(X) :- X .<. 3.")
    rc, _, err = run(capsys, path, "--oracle")
    assert rc == 2
    assert "unsupported_constraint" in err


def test_runs_are_deterministic(capsys):
    rc1, out1, _ = run(capsys, str(PROGRAMS / "stream.pl"))
    rc2, out2, _ = run(capsys, str(PROGRAMS / "stream.pl"))
    assert rc1 == rc2 == 0
    assert mask_time(out1) == mask_time(out2)


def test_negated_query_goal_on_an_unknown_predicate_holds(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a).")
    rc, out, err = run(capsys, path, "-q", "?- not zz(a).")
    assert rc == 0 and err == ""
    assert mask_time(out) == (
        "?- not zz(a).\n\n"
        "Answer 1\t(in _ ms):\n\n"
        "not zz(a),\n"
        "nmr_check.\n\n"
        "[ nmr_check ]\n\n"
        "no\n"
    )


def test_a_repeated_negation_of_an_unknown_predicate_is_proved_once(tmp_path, capsys):
    # The first `not zz(a)` holds vacuously and enters the proved atoms, so
    # the second is a proved shortcut, as a negation of a mentioned
    # predicate is (`?- not q(a), not q(a).` on `p :- q(X).`).
    path = write(tmp_path, "r.pl", "r.")
    query = "?- not zz(a), not zz(a)."
    rc, out, err = run(capsys, path, "-q", query)
    assert rc == 0 and err == ""
    assert mask_time(out) == (
        f"{query}\n\n"
        "Answer 1\t(in _ ms):\n\n"
        "not zz(a),\n"
        "proved(not zz(a)),\n"
        "nmr_check.\n\n"
        "[ nmr_check ]\n\n"
        "no\n"
    )
    rc, out, err = run(capsys, path, "--json-lines", "-q", query)
    assert rc == 0 and err == ""
    record = json.loads(out)
    assert record["justification"] == [
        {"label": "not zz(a)"}, {"label": "proved(not zz(a))"}, {"label": "nmr_check"},
    ]
    assert record["model"] == ["nmr_check"] and record["bindings"] == {}


EVEN_LOOP = "p :- not q.\nq :- not p.\nr :- p.\n"


@pytest.mark.parametrize(
    "query, text",
    [
        ("?- r.", "r :-\n   p :-\n      not q :-\n         not q__1 :-\n            chs(p).\n"
                  "nmr_check.\n\n[ r, p, nmr_check ]\n"),
        ("?- not r.", "not r :-\n   not r__1 :-\n      not p :-\n         not p__1 :-\n"
                      "            q :-\n               chs(not p).\nnmr_check.\n\n[ q, nmr_check ]\n"),
    ],
)
def test_a_propositional_even_loop_prints_its_answer(tmp_path, capsys, query, text):
    # No clause of the program, its duals or nmr_check has a variable, so
    # each is used as it is, uncopied: the answer, its justification and
    # its model print as when every clause tried was renamed.
    path = write(tmp_path, "even.pl", EVEN_LOOP)
    rc, out, err = run(capsys, path, "-q", query)
    assert rc == 0 and err == ""
    assert mask_time(out) == f"{query}\n\nAnswer 1\t(in _ ms):\n\n{text}\nno\n"
    rc, out, err = run(capsys, path, "-q", "?- p, q.")
    assert rc == 0 and out == "?- p, q.\n\nno\n"


def test_a_clause_with_no_head_argument_renames_its_body_variables(tmp_path, capsys):
    # `not p`'s dual quantifies Y, p's body-only variable, in a forall, a
    # clause with no head argument; the second call of `not p`, inside the
    # first's forall, quantifies a fresh variable of its own (C), as every
    # clause with a variable is renamed when tried.
    path = write(tmp_path, "s.pl", "p :- q(Y), not s.\ns :- not p.\nq(a).\n")
    rc, out, err = run(capsys, path, "-q", "?- s.")
    assert rc == 0 and err == ""
    assert mask_time(out) == (
        "?- s.\n\nAnswer 1\t(in _ ms):\n\n"
        "s :-\n"
        "   not p :-\n"
        "      not p__1 :-\n"
        "         forall(A,not p__1_body(A)) :-\n"
        "            not p__1_body({B.\\=.[a]}) :-\n"
        "               not q({B.\\=.[a]}) :-\n"
        "                  not q__1({B.\\=.[a]}) :-\n"
        "                     {B.\\=.[a]}\\=a.\n"
        "            not p__1_body(a) :-\n"
        "               q(a),\n"
        "               s :-\n"
        "                  not p :-\n"
        "                     not p__1 :-\n"
        "                        forall(C,not p__1_body(C)) :-\n"
        "                           not p__1_body({D.\\=.[a]}) :-\n"
        "                              not q({D.\\=.[a]}) :-\n"
        "                                 not q__1({D.\\=.[a]}) :-\n"
        "                                    {D.\\=.[a]}\\=a.\n"
        "                           not p__1_body(a) :-\n"
        "                              proved(q(a)),\n"
        "                              chs(s).\n"
        "nmr_check.\n\n"
        "[ s, q(a), nmr_check ]\n\n"
        "no\n"
    )


def test_dual_labels_of_a_multi_arity_predicate_match_the_dump(tmp_path, capsys):
    path = write(
        tmp_path, "p.pl",
        "p(a). p(X,Y) :- q(X), not r(Y). q(a). r(b).\n"
        "w(Y) :- not p(Y), not p(Y, c).\n",
    )
    rc, out, _ = run(capsys, path, "-q", "?- w(b).")
    assert rc == 0
    rc, dump, _ = run(capsys, path, "--dump-compiled")
    assert rc == 0
    labels = set(re.findall(r"not \w+\(", out))
    assert {"not p(", "not q("} <= labels
    for label in labels:
        assert label in dump, label


@pytest.mark.parametrize("program", ["hanoi", "stream", "tsp", "yale"])
def test_dump_compiled_matches_the_golden_files(capsys, program):
    # The compiled form of the four showcase programs -- source rules, duals
    # and checks -- byte for byte, as frozen in tests/data/golden.
    rc, out, err = run(capsys, str(PROGRAMS / f"{program}.pl"), "--dump-compiled")
    assert rc == 0 and err == ""
    assert out == (GOLDEN / f"{program}.compiled.txt").read_text()


def test_internal_error_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # An exception the solver does not document is one line and exit 2,
    # never a traceback or "no answers".
    def overflow(program):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "compile_program", overflow)
    path = write(tmp_path, "p.pl", "p(a).")
    rc, out, err = run(capsys, path, "-q", "?- p(X).")
    assert rc == 2
    assert err.startswith("scasp: internal error: RecursionError: ")
    assert err.count("\n") == 1


def test_queries_may_not_call_generated_predicates(tmp_path, capsys):
    path = write(tmp_path, "p.pl", "p(a).")
    for query in ("?- not_p(b).", "?- nmr_check.", "?- p(a), chk_1.",
                  "?- not not_p(a).", "?- p__1(a)."):
        rc, out, err = run(capsys, path, "-q", query)
        assert rc == 2 and out == "", query
        assert err.startswith("<query>:1:1: predicate name") and "reserved" in err, query
    rc, out, err = run(capsys, path, "-q", "?- not q(X).")
    assert rc == 0 and err == ""
    assert "not q(A)" in out
    embedded = write(tmp_path, "q.pl", "p(a).\n?- not_p(b).")
    rc, out, err = run(capsys, embedded)
    assert rc == 2 and out == ""
    assert err.startswith(f"{embedded}:2:1: predicate name") and "reserved" in err


def _overflow(program):
    raise RecursionError("maximum recursion depth exceeded")


# Each documented way for the CLI to end: (files, arguments, exit code, the
# whole of stderr, the last line of stdout, trailing blank lines aside).
# "{p.pl}" stands for the path of file p.pl.
_ENDINGS = {
    "missing file": (
        {}, ["{absent.pl}"], 2,
        "scasp: [Errno 2] No such file or directory: '{absent.pl}'\n", "",
    ),
    "parse error": (
        {"bad.pl": "p(a).\nq(b)"}, ["{bad.pl}"], 2,
        "{bad.pl}:2:5: expected '.', found 'end of input'\n", "",
    ),
    "parse error mid-file": (
        {"bad.pl": "p(a).\nq(b)\nr(c)."}, ["{bad.pl}"], 2,
        "{bad.pl}:3:1: expected '.', found 'r'\n", "",
    ),
    "compile error": (
        {"bad.pl": "p(a).\nnot_p(a)."}, ["{bad.pl}", "-q", "?- p(X)."], 2,
        f"{{bad.pl}}:2:1: predicate name 'not_p' is reserved ({RESERVED_NOTE})\n", "",
    ),
    "parse error in -q": (
        {"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- p(X"], 2,
        "<query>:1:7: expected ')', found 'end of input'\n", "",
    ),
    "compile error in -q": (
        {"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- not_p(b)."], 2,
        f"<query>:1:1: predicate name 'not_p' is reserved ({RESERVED_NOTE})\n", "",
    ),
    "solver restriction": (
        {"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- X \\= f(Y)."], 2,
        "nonground_disequality: X \\= f(Y) needs a ground right-hand side\n", "?- X\\=f(Y).",
    ),
    "solver restriction under --oracle": (
        {"p.pl": "p(X) :- X .<. 3."}, ["{p.pl}", "--oracle"], 2,
        "unsupported_constraint: oracle input must be constraint-free, found .<.\n", "",
    ),
    "internal error": (
        {"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- p(X)."], 2,
        "scasp: internal error: RecursionError: maximum recursion depth exceeded\n", "",
    ),
    "usage error": (
        {"p.pl": "p(a)."}, ["{p.pl}", "-n", "-3"], 2, "scasp: -n must be >= 0\n", "",
    ),
    "no query": (
        {"p.pl": "p(a)."}, ["{p.pl}"], 2,
        "scasp: no query (use -q or an embedded ?- directive)\n", "",
    ),
    "no answers": ({"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- p(b).", "-n", "1"], 1, "", "no"),
    "answers": ({"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- p(X)."], 0, "", "no"),
    "-n 0 exhausted": ({"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- p(b).", "-n", "0"], 0, "", "no"),
    "exhausted": ({"p.pl": "p(a)."}, ["{p.pl}", "-q", "?- p(b)."], 0, "", "no"),
}


@pytest.mark.parametrize("ending", list(_ENDINGS))
def test_every_ending_has_its_exit_code_and_one_line(tmp_path, capsys, monkeypatch, ending):
    files, argv, code, err, last = _ENDINGS[ending]
    paths = {name: str(tmp_path / name) for name in ("absent.pl", *files)}
    for name, text in files.items():
        write(tmp_path, name, text)
    if ending == "internal error":
        monkeypatch.setattr(cli, "compile_program", _overflow)

    def fill(text):
        for name, path in paths.items():
            text = text.replace("{%s}" % name, path)
        return text

    rc, out, got = run(capsys, *map(fill, argv))
    assert (rc, got) == (code, fill(err))
    assert out.rstrip("\n").rsplit("\n", 1)[-1] == last


def test_argparse_usage_errors_exit_2(capsys):
    # argparse prints its usage, then one error line.  Two of the flags
    # that pick the output are an error, not one silently ignored.
    for argv in (
        ["--answers"], [], ["p.pl", "--no-such-flag"],
        ["p.pl", "--oracle", "--json-lines"],
        ["p.pl", "--oracle", "--dump-compiled"],
        ["p.pl", "--dump-compiled", "--json-lines"],
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2 and out == "", argv
        assert err.startswith("usage: scasp ") and err.splitlines()[-1].startswith("scasp: error: ")


def test_compile_errors_name_the_file_they_come_from(tmp_path, capsys):
    # Of two files, the second holds the fault, whether in parsing or in
    # compiling.
    first = write(tmp_path, "f1.pl", "p(a).")
    second = write(tmp_path, "f2.pl", "q(b).\nr(c).\nnot_q(a).")
    rc, _, err = run(capsys, first, second, "-q", "?- p(X).")
    assert rc == 2
    assert err == f"{second}:3:1: predicate name 'not_q' is reserved ({RESERVED_NOTE})\n"
    third = write(tmp_path, "f3.pl", "q(b).\nr(c) :- s(.")
    rc, _, err = run(capsys, first, third, "-q", "?- p(X).")
    assert rc == 2 and err.startswith(f"{third}:2:11: ")


@pytest.mark.parametrize(
    "unbuffered, shared",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-shared", "True-shared"],
)
@pytest.mark.parametrize("facts, read", [(20_000, 100), (2, 0)])
def test_a_closed_stdout_exits_2_with_one_line(tmp_path, unbuffered, shared, facts, read):
    # The reader takes `read` bytes and closes the pipe: mid-stream for many
    # answers, or before the first write for two (a buffered stdout then
    # meets the closed pipe only when it is flushed).  With stderr on the
    # same pipe, the error line meets the closed pipe too: only the exit
    # code is seen.
    path = write(tmp_path, "many.pl", "".join(f"p({i}).\n" for i in range(facts)))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "scasp.cli", path, "-q", "?- p(X)."],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT if shared else subprocess.PIPE, env=env,
    )
    proc.stdout.read(read)
    proc.stdout.close()
    if shared:
        assert proc.wait(timeout=120) == 2
        return
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2, err
    assert err == "scasp: [Errno 32] Broken pipe\n"


def test_deep_ground_terms_print(tmp_path):
    # In a child process, so that a crash of the interpreter fails this test
    # alone: the CLI answers and echoes a 16,000-deep query, and format_term
    # prints a 60,000-deep term.
    nat = "nat(" + "s(" * 16_000 + "z" + ")" * 16_000 + ")"
    code = (
        "import sys\n"
        "from scasp.cli import main\n"
        "from scasp.terms import Const, Struct, format_term\n"
        "n = 60_000\n"
        "t = Const('z')\n"
        "for _ in range(n):\n"
        "    t = Struct('s', (t,))\n"
        "assert format_term(t) == 's(' * n + 'z' + ')' * n\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    program = write(tmp_path, "nat.pl", "nat(z). nat(s(X)) :- nat(X).")
    done = run_child(program, "-q", f"?- {nat}.", "--no-just", "--no-model", code=code)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.splitlines()[0] == f"?- {nat}."
