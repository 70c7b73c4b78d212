"""Answer presentation: justification trees, models, bindings, JSON."""

import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scasp import terms
from scasp.cli import main
from scasp.compiler import compile_program
from scasp.engine import run_query
from scasp.parser import parse_program, parse_query
from scasp.render import Renderer, render_answer, render_answer_json, _name_for
from scasp.terms import (
    ARITH_OPS, NIL, Const, Struct, Var, format_term, fresh_var, list_parts, mk_list,
)

from helpers import run_child

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
PROGRAMS = Path(__file__).parent / "programs"


def first_answer(text, query):
    cp = compile_program(parse_program(text))
    for ans in run_query(cp, parse_query(query), 1):
        return cp, ans
    raise AssertionError("no answer")


def mask_time(s):
    return re.sub(r"\(in [0-9.]+ ms\)", "(in _ ms)", s)


def mask_json_time(s):
    return re.sub(r'"time_ms": [0-9.]+', '"time_ms": _', s)


@pytest.mark.parametrize("json_lines", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "program, n", [("stream", 0), ("yale", 0), ("tsp", 2), ("hanoi", 2)]
)
def test_showcase_output_matches_the_golden_files(capsys, program, n, json_lines):
    # Every answer the CLI prints for the four showcase programs, byte for
    # byte but for the times, as frozen in tests/data/golden.
    flags = ["--json-lines"] if json_lines else []
    rc = main([str(PROGRAMS / f"{program}.pl"), "-n", str(n), *flags])
    assert rc == 0
    got = mask_json_time(mask_time(capsys.readouterr().out))
    want = (DATA / "golden" / f"{program}.{'jsonl' if json_lines else 'txt'}").read_text()
    assert got == want


@pytest.mark.parametrize("program, n", [("stream", 0), ("tsp", 2)])
def test_showcase_output_does_not_depend_on_hash_order(program, n):
    # These answers carry sets of excluded terms, whose iteration order
    # follows string hashes: under two hash seeds the CLI still prints the
    # golden text.
    want = (DATA / "golden" / f"{program}.txt").read_text()
    for seed in ("1", "2"):
        done = run_child(PROGRAMS / f"{program}.pl", "-n", n, env={"PYTHONHASHSEED": seed})
        assert done.returncode == 0, done.stderr
        assert mask_time(done.stdout) == want, f"PYTHONHASHSEED={seed}"


def test_full_first_answer_matches_the_frozen_output(capsys):
    rc = main([str(PROGRAMS / "stream.pl"), "-n", "1"])
    assert rc == 0
    got = capsys.readouterr().out
    want = (DATA / "stream_answer1.txt").read_text()
    assert mask_time(got) == mask_time(want)


def test_tree_layout_marks_parents_and_closers():
    cp, ans = first_answer("p(a) :- q(a). q(a).", "?- p(a).")
    text = render_answer(ans, cp.pred_info, cp.shows)
    body = text.split("\n\n", 1)[1]
    assert body == "p(a) :-\n   q(a).\nnmr_check.\n\n[ p(a), q(a), nmr_check ]"


def test_variable_names_run_alphabetically():
    assert [_name_for(i) for i in (0, 1, 25, 26, 27, 51, 52)] == [
        "A", "B", "Z", "AA", "AB", "AZ", "BA",
    ]


def test_excluded_terms_render_sorted_inline():
    cp, ans = first_answer("q(X) :- X \\= b, X \\= a.", "?- q(X).")
    r = Renderer(ans, cp.pred_info, cp.shows)
    assert r.bindings_text() == "X = {A.\\=.[a,b]} ? "


def test_rational_constraints_render_inline_in_order():
    cp, ans = first_answer(
        "d(Y) :- Y .>. 1, Y .\\=. 2, Y .\\=. 3.", "?- d(X)."
    )
    r = Renderer(ans, cp.pred_info, cp.shows)
    assert r.bindings_text() == "X = {A.>.1, A.\\=.2, A.\\=.3} ? "


def test_exact_rationals_print_as_fractions():
    cp, ans = first_answer("d(31/10).", "?- d(X).")
    r = Renderer(ans, cp.pred_info, cp.shows)
    assert r.bindings_text() == "X = 31/10 ? "


def test_underscore_named_query_variables_are_not_reported():
    cp, ans = first_answer("p(a,b).", "?- p(_Hidden, X).")
    r = Renderer(ans, cp.pred_info, cp.shows)
    assert r.bindings_text() == "X = b ? "


def test_negated_goals_display_with_not():
    cp, ans = first_answer("p :- not q.", "?- p.")
    r = Renderer(ans, cp.pred_info, cp.shows)
    assert "not q" in r.justification_text()
    assert "not_q" not in r.justification_text()


def test_show_directive_filters_the_model():
    text = "#show p/1. p(a) :- q(a). q(a)."
    cp, ans = first_answer(text, "?- p(a).")
    r = Renderer(ans, cp.pred_info, cp.shows)
    assert r.model_text() == "[ p(a) ]"


def test_every_model_atom_appears_in_the_justification():
    cp, ans = first_answer(
        (PROGRAMS / "stream.pl").read_text(), "?- valid_stream(Pr, Data)."
    )
    r = Renderer(ans, cp.pred_info, cp.shows)
    tree = r.justification_text()
    for label in r.json_object()["model"]:
        assert label in tree


def test_json_of_a_deep_justification_is_written_whole():
    # A 1,000-rule chain nests its justification 2,000 levels deep, past
    # the C encoder's fixed limit from Python 3.12 on.
    n = 1000
    text = " ".join(f"p{i} :- p{i + 1}." for i in range(n)) + f" p{n}."
    cp, ans = first_answer(text, "?- p0.")
    r = Renderer(ans, cp.pred_info, cp.shows)

    def as_object(node):
        out = {"label": r._node_label(node)}
        if node.children:
            out["children"] = [as_object(kid) for kid in node.children]
        return out

    # The whole record as nested objects, for the pure-Python encoder.  Both
    # recurse once per level: the test raises the limit they need, and puts
    # the caller's back.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        obj = {**r.json_object(), "justification": [as_object(n) for n in ans.justification]}
        want = "".join(json.JSONEncoder().iterencode(obj))
    finally:
        sys.setrecursionlimit(limit)
    got = render_answer_json(ans, cp.pred_info, cp.shows)
    assert got == want
    assert got.count('"children"') == n


def test_json_record_round_trips():
    cp, ans = first_answer("q(X) :- X \\= a.", "?- q(X).")
    obj = json.loads(render_answer_json(ans, cp.pred_info, cp.shows))
    assert obj["answer"] == 1
    assert isinstance(obj["time_ms"], float)
    assert obj["bindings"] == {"X": "{A.\\=.[a]}"}
    assert obj["model"][-1] == "nmr_check"
    labels = {n["label"] for n in obj["justification"]}
    assert "nmr_check" in labels


def test_sections_can_be_suppressed():
    cp, ans = first_answer("p(a).", "?- p(X).")
    no_just = render_answer(ans, cp.pred_info, cp.shows, with_justification=False)
    assert ":-" not in no_just and "[ p(a)" in no_just
    no_model = render_answer(ans, cp.pred_info, cp.shows, with_model=False)
    assert "[ " not in no_model
    obj = json.loads(
        render_answer_json(ans, cp.pred_info, cp.shows, with_model=False)
    )
    assert "model" not in obj and "justification" in obj


# -- the text cache ---------------------------------------------------------------


def _reference_text(t, names, prec=0, right=False):
    """format_term's text by its rules, recursively and with no cache."""
    if isinstance(t, Var):
        return names.get(t.id) or (t.name if t.name != "_" else f"_G{t.id}")
    if isinstance(t, Const):
        if not t.is_number:
            return t.value
        q = t.value
        s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        return f"({s})" if prec > 0 and q < 0 else s
    items, tail = list_parts(t)
    if items:
        inner = ",".join(_reference_text(i, names) for i in items)
        return f"[{inner}]" if tail == NIL else f"[{inner}|{_reference_text(tail, names)}]"
    if t.functor in ARITH_OPS and len(t.args) == 2:
        p = {"+": 1, "-": 1, "*": 2, "/": 2}[t.functor]
        s = (_reference_text(t.args[0], names, p) + t.functor
             + _reference_text(t.args[1], names, p, True))
        return f"({s})" if p < prec or (p == prec and right) else s
    return f"{t.functor}({','.join(_reference_text(a, names) for a in t.args)})"


_NAMED = fresh_var("_")  # printed through the names map
_LEAVES = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=3).map(Const),
    st.sampled_from([Const("a"), Const("b"), NIL, fresh_var("X"), fresh_var("_"), _NAMED]),
)


def _compound(sub):
    return st.one_of(
        st.tuples(st.sampled_from(ARITH_OPS), sub, sub).map(lambda p: Struct(p[0], p[1:])),
        st.tuples(sub, sub).map(lambda p: Struct("f", p)),
        sub.map(lambda a: Struct("g", (a,))),
        st.lists(sub, max_size=3).map(mk_list),
        st.tuples(st.lists(sub, min_size=1, max_size=3), sub).map(lambda p: mk_list(*p)),
    )


_TERMS = st.recursive(_LEAVES, _compound, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_TERMS, _TERMS)
def test_cached_texts_agree_with_an_uncached_reference(t, u):
    # t is shared by places of every precedence and side; the whole term is
    # formatted twice, the second time from the texts the first one kept.
    names = {_NAMED.id: "A"}
    whole = Struct("h", (
        t, Struct("-", (u, t)), Struct("*", (t, u)), mk_list([t], t),
        Struct("/", (Struct("+", (t, u)), t)), Struct("-", (t, Struct("-", (t, u)))),
    ))
    for term in (t, whole, whole):
        assert format_term(term, names) == _reference_text(term, names)
    for prec, right in ((1, False), (1, True), (2, False), (2, True)):
        assert format_term(t, names, prec, right) == _reference_text(t, names, prec, right)


def test_cached_texts_keep_memory_linear_in_the_term():
    # Every level of a deep ground term has its own text, about 5 MB in all
    # here; only texts of at most TEXT_CACHE_MAX characters are kept.
    pad = Const("x" * 100)
    t = Const("z")
    for _ in range(300):
        t = Struct("f", (t, pad))
    tracemalloc.start()
    try:
        text = format_term(t)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(text) == 300 * 104 + 1
    assert kept < 2_000_000


def test_formatting_an_answer_is_linear_in_its_terms(monkeypatch):
    # nat(s^200(z)) proves nat of every level: each level's text is built
    # from the kept text of the level below, not formatted again.
    cp, ans = first_answer(
        "nat(z). nat(s(X)) :- nat(X).", "?- nat(" + "s(" * 200 + "z" + ")" * 200 + ")."
    )
    calls = [0]
    orig = terms.format_term

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(terms, "format_term", counting)
    render_answer(ans, cp.pred_info, cp.shows)
    assert calls[0] <= 2_000
