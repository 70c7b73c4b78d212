"""Parsing: surface syntax to terms, rules, queries, and directives."""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scasp.compiler import check_query, compile_program
import scasp
from scasp.errors import CompileError, ScaspError
from scasp.parser import ParseError, parse_program, parse_query
from scasp.terms import (
    CmpLit,
    Const,
    Lit,
    Struct,
    Var,
    format_rule,
    format_term,
    list_parts,
)

from helpers import alpha_eq_rule, run_child


def rule(text):
    prog = parse_program(text)
    assert len(prog.rules) == 1
    return prog.rules[0]


def test_fact_and_rule_shapes():
    r = rule("p(a).")
    assert r.head == Lit("p", (Const("a"),))
    assert r.body == ()
    r = rule("p(X) :- q(X), not r(X).")
    assert r.head.pred == "p"
    assert [g.pred for g in r.body] == ["q", "r"]
    assert [g.neg for g in r.body] == [False, True]
    x = r.head.args[0]
    assert isinstance(x, Var)
    assert r.body[0].args[0] is x and r.body[1].args[0] is x


def test_denial_has_no_head():
    r = rule(":- p(a), q(a).")
    assert r.head is None
    assert len(r.body) == 2


def test_numbers_parse_exactly():
    r = rule("d(31/10).")
    assert r.head.args[0] == Const(Fraction(31, 10))
    r = rule("d(3.1).")
    assert r.head.args[0] == Const(Fraction(31, 10))
    r = rule("d(10.5).")
    assert r.head.args[0] == Const(Fraction(21, 2))
    r = rule("d(-4).")
    assert r.head.args[0] == Const(Fraction(-4))


def test_constraint_operators():
    r = rule("p(X) :- X .<. 3, X .>=. 0, X .\\=. 1.")
    ops = [g.op for g in r.body]
    assert ops == [".<.", ".>=.", ".\\=."]
    assert all(isinstance(g, CmpLit) for g in r.body)
    r = rule("p(X, Y) :- X \\= Y.")
    assert r.body[0].op == "\\="
    r = rule("p(X) :- X = f(a).")
    assert r.body[0].op == "="
    assert r.body[0].rhs == Struct("f", (Const("a"),))


def test_arithmetic_terms():
    r = rule("p(X, Y) :- X .=. Y + 1.")
    add = r.body[0].rhs
    assert add == Struct("+", (r.head.args[1], Const(Fraction(1))))
    # Ground arithmetic folds to its value at parse time.
    r = rule("p(D) :- D .=. 2 * 3 + 1.")
    assert r.body[0].rhs == Const(Fraction(7))


def test_lists():
    r = rule("p([a, b | T]).")
    items, tail = list_parts(r.head.args[0])
    assert items == [Const("a"), Const("b")]
    assert isinstance(tail, Var) and tail.name == "T"
    r = rule("p([]).")
    assert r.head.args[0] == Const("[]")
    assert format_term(rule("p([1, 2, 3]).").head.args[0]) == "[1,2,3]"


def test_show_directive_and_comments():
    prog = parse_program(
        """% moves only
        #show move/3.
        p(a).  % trailing comment
        """
    )
    assert prog.shows == {("move", 3)}
    assert len(prog.rules) == 1


def test_embedded_query():
    prog = parse_program("p(a).\n?- p(X).")
    assert prog.query is not None
    assert prog.query.goals[0].pred == "p"
    names = [n for n, _ in prog.query.vars]
    assert names == ["X"]


def test_parse_query_vars_in_first_appearance_order():
    q = parse_query("?- p(B, A), q(A, C).")
    assert [n for n, _ in q.vars] == ["B", "A", "C"]


def test_underscore_vars_are_distinct_and_unlisted():
    r = rule("p(_, _).")
    a, b = r.head.args
    assert isinstance(a, Var) and isinstance(b, Var) and a.id != b.id
    q = parse_query("?- p(_, X).")
    assert [n for n, _ in q.vars] == ["X"]


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_program("p(a)\nq(b).", filename="bad.pl")
    msg = str(info.value)
    assert msg.startswith("bad.pl:2:")
    with pytest.raises(ParseError):
        parse_query("?- p(X")


def test_parse_and_compile_errors_are_one_kind_of_error():
    # Both are ScaspErrors carrying a file, a line and a column; parse_query
    # and parse_program stamp each query and rule with its file.
    assert scasp.ParseError is ParseError and issubclass(ParseError, ScaspError)
    with pytest.raises(ScaspError) as info:
        parse_program("p(a)\nq(b).", filename="bad.pl")
    assert isinstance(info.value, ParseError)
    assert (info.value.filename, info.value.line, info.value.col) == ("bad.pl", 2, 1)
    with pytest.raises(ScaspError) as info:
        compile_program(parse_program("p(a).\n  not_p(b).", filename="f.pl"))
    err = info.value
    assert isinstance(err, CompileError)
    assert (err.filename, err.line, err.col) == ("f.pl", 2, 3)
    assert str(err) == f"f.pl:2:3: {err.message}"
    assert str(CompileError("m", 1, 2)) == "<program>:1:2: m"
    prog = parse_program("p(a). ?- p(X).", filename="f.pl")
    assert prog.rules[0].file == prog.query.file == "f.pl"
    assert parse_query("?- p(X).").file == "<query>"
    # The file is where a clause came from, not what it is.
    assert prog.rules == parse_program("p(a).").rules


@pytest.mark.parametrize("err", [
    ParseError("m", "f.pl", 1, 2),
    CompileError("m", 1, 2, "f.pl"),
    CompileError("m"),
])
def test_source_errors_survive_a_pickle(err):
    # Errors cross process boundaries (multiprocessing) by pickle.
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is type(err) and str(copy) == str(err)
    assert (copy.message, copy.filename, copy.line, copy.col) == (
        err.message, err.filename, err.line, err.col)


@pytest.mark.parametrize("text, where, message", [
    # A zero divisor is reported at its own token.
    ("p(X) :- X .=. 1/0.", "1:17", "division by zero in rational literal"),
    ("p(X) :- X .=. (1+1)/0.", "1:21", "division by zero"),
    ("q :- not p .=. 1.", "1:6", "'not' cannot be applied to a constraint"),
    ("p(X) :- X .=. -Y.", "1:16", "'-' must be followed by a number"),
    ("#show p/1.5.", "1:9", "arity must be an integer"),
    ("?- .", "1:4", "query must contain at least one goal"),
    ("p :- X.", "1:7", "expected a constraint operator after expression"),
])
def test_parse_errors_point_at_the_offending_token(text, where, message):
    with pytest.raises(ParseError) as info:
        parse_program(text)
    assert str(info.value) == f"<program>:{where}: {message}"


def test_an_empty_query_and_a_show_list():
    with pytest.raises(ParseError) as info:
        parse_query("")
    assert str(info.value) == "<query>:1:1: query must contain at least one goal"
    assert parse_program("#show p/1, q/2.").shows == {("p", 1), ("q", 2)}


def test_deep_terms_parse_without_recursion():
    # In a child process, so that a crash of the interpreter fails this test
    # alone.  A 60,000-deep fact parses, compiles and answers, and a
    # 16,000-deep query parses.
    code = (
        "from scasp import Engine, compile_program, parse_program, parse_query\n"
        "def depth(t):\n"
        "    n = 0\n"
        "    while type(t).__name__ == 'Struct':\n"
        "        t, n = t.args[0], n + 1\n"
        "    return n\n"
        "deep = 's(' * 60_000 + 'z' + ')' * 60_000\n"
        "cp = compile_program(parse_program(f'p({deep}).'))\n"
        "answer = next(iter(Engine(cp).run_query(parse_query('?- p(X).'))))\n"
        "print(depth(dict(answer.bindings)['X']))\n"
        "q = parse_query('?- nat(' + 's(' * 16_000 + 'z' + ')' * 16_000 + ').')\n"
        "print(depth(q.goals[0].args[0]))\n"
    )
    done = run_child(code=code)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == "60000\n16000\n"


def test_round_trip_through_formatter():
    texts = [
        "p(a).",
        "p(X) :- q(X), not r(X, f(X)).",
        ":- p(X), X .<. 31/10.",
        "travel(A, D, [A | P]) :- D .=. D1 + 1, leg(A, B), travel(B, D1, P).",
        "p([a, b | T]) :- member(a, [a, b | T]).",
        "q(X) :- X \\= g(a, b).",
        ":- p(X), X .>. -3.",
    ]
    for text in texts:
        first = parse_program(text).rules[0]
        again = parse_program(format_rule(first)).rules[0]
        assert alpha_eq_rule(first, again), text


# -- fuzzing: malformed input fails with a parse or compile error ----------------
#
# Programs are drawn as token lists shaped like clauses (facts, rules,
# denials, queries, #show) over terms the parser special-cases, then edited
# by a few insertions and deletions of tokens, reserved names among them,
# and joined with or without spaces.

_NAMES = ["p", "q", "r", "s"]
_ATOMIC = ["X", "Y", "_", "_Z", "a", "0", "3", "2.5", "1/2", "-1", "[]"]
_OPS = ["=", "\\=", ".<.", ".>.", ".=<.", ".>=.", ".=.", ".\\=."]
_OTHER = [
    "not", "not_p", "nmr_check", "forall", "chk_1", "p__1", "1/0",
    "(", ")", "[", "]", "|", ",", ".", "+", "-", "*", "/", ":-", "?-", "#show",
]


def _join(parts, sep):
    out = []
    for i, part in enumerate(parts):
        out += ([sep] if i else []) + part
    return out


def _call(name, args):
    return [name] + (["("] + _join(args, ",") + [")"] if args else [])


def _list(items, tail):
    return ["["] + _join(items, ",") + (tail if items else []) + ["]"]


_terms = st.recursive(
    st.sampled_from(_ATOMIC).map(lambda t: [t]),
    lambda inner: st.one_of(
        st.builds(_call, st.sampled_from(_NAMES), st.lists(inner, min_size=1, max_size=3)),
        st.builds(
            _list,
            st.lists(inner, max_size=3),
            st.one_of(st.just([]), inner.map(lambda t: ["|"] + t)),
        ),
    ),
    max_leaves=6,
)
# Arithmetic is only valid on the two sides of a comparison.
_exprs = st.recursive(
    _terms,
    lambda inner: st.builds(lambda l, op, r: l + [op] + r, inner, st.sampled_from("+-*/"), inner),
    max_leaves=4,
)
_atoms = st.builds(_call, st.sampled_from(_NAMES), st.lists(_terms, max_size=3))
_goals = st.one_of(
    _atoms,
    _atoms.map(lambda a: ["not"] + a),
    st.builds(lambda l, op, r: l + [op] + r, _exprs, st.sampled_from(_OPS), _exprs),
)
_bodies = st.lists(_goals, min_size=1, max_size=3).map(lambda gs: _join(gs, ","))
_clauses = st.one_of(
    _atoms.map(lambda h: h + ["."]),
    st.builds(lambda h, b: h + [":-"] + b + ["."], _atoms, _bodies),
    _bodies.map(lambda b: [":-"] + b + ["."]),
    _bodies.map(lambda b: ["?-"] + b + ["."]),
    st.builds(
        lambda n, k: ["#show", n, "/", k, "."], st.sampled_from(_NAMES), st.sampled_from("012")
    ),
)
_edits = st.lists(
    st.tuples(st.integers(0, 60), st.none() | st.sampled_from(_NAMES + _ATOMIC + _OPS + _OTHER)),
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_clauses, min_size=1, max_size=4), _edits, st.sampled_from(["  ", " ", ""]))
def test_parse_and_compile_fail_only_with_their_own_errors(clauses, edits, sep):
    tokens = [tok for clause in clauses for tok in clause]
    for pos, tok in edits:
        i = pos % (len(tokens) + 1)
        if tok is None:
            del tokens[i:i + 1]
        else:
            tokens.insert(i, tok)
    text = sep.join(tokens)
    try:
        compile_program(parse_program(text))
    except (ParseError, CompileError):
        pass


# -- source positions: line:col against a reference computed from offsets ---------
#
# Programs are laid out from clause templates with whitespace, tabs, blank
# lines, '\r\n' and comments between tokens; every error planted in one must
# report the line and column of the offending token, counted from the
# offsets at which the layout put the tokens.

_GAPS = [" ", "  ", "\t", "\n", "\r\n", "\n\n", " % note\n", "\t%\r\n", "\n  % x y\n\t"]
# Each template's tokens, with the index of its head name (None for a
# denial, a query or a directive) and of the name of a body atom.
_TEMPLATES = [
    (["p", "(", "a", ")", "."], 0, None),
    (["q", "(", "X", ",", "f", "(", "Y", ")", ")", ":-", "p", "(", "X", ")", ",",
      "not", "r", "(", "Y", ")", "."], 0, 10),
    (["s", ":-", "X", "=", "[", "a", "|", "T", "]", ",", "t", "(", "T", ")", "."], 0, 10),
    ([":-", "p", "(", "X", ")", ",", "X", ".<.", "3", "."], None, 1),
    (["#show", "p", "/", "1", "."], None, None),
]
_QUERY = (["?-", "p", "(", "X", ")", ",", "not", "q", "(", "X", ",", "b", ")", "."], None, 1)


def _line_col(text, offset):
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _lay_out(draw, clauses):
    """The program text and, per clause, the offset of each of its tokens."""
    gap = st.sampled_from(_GAPS)
    text = draw(st.sampled_from(["", *_GAPS]))
    offsets = []
    for tokens in clauses:
        offs = []
        for i, tok in enumerate(tokens):
            if i:
                text += draw(gap)
            offs.append(len(text))
            text += tok
        offsets.append(offs)
        text += draw(gap)
    return text, offsets


_PLANTS = ["none", "bad_char", "missing_dot", "end_of_input", "head", "body", "query"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_errors_and_clauses_report_their_source_positions(data):
    draw = data.draw
    picks = draw(st.lists(st.sampled_from(_TEMPLATES), min_size=1, max_size=5))
    picks = [(list(toks), head, body) for toks, head, body in picks]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(picks)))
        picks.insert(at, (list(_QUERY[0]), _QUERY[1], _QUERY[2]))
    plant = draw(st.sampled_from(_PLANTS))
    want = None  # (ParseError or CompileError, the index of the clause, of its token)
    if plant == "bad_char":
        i = draw(st.integers(0, len(picks) - 1))
        j = draw(st.integers(0, len(picks[i][0]) - 1))
        picks[i][0].insert(j, "$")
        want = (ParseError, i, j)
    elif plant == "missing_dot":
        # Before a clause that starts with a head, the next token is the one
        # that finds no '.'; after the last clause it is the end of input.
        i = draw(st.integers(0, len(picks) - 1))
        nxt = i + 1 if i + 1 < len(picks) else None
        if nxt is None or picks[nxt][1] == 0:
            picks[i][0].pop()
            want = (ParseError, nxt, 0)
    elif plant == "end_of_input":
        i = draw(st.integers(0, len(picks) - 1))
        j = draw(st.integers(1, len(picks[i][0]) - 1))
        picks = picks[:i] + [(picks[i][0][:j], None, None)]
        want = (ParseError, None, 0)
    elif plant != "none":
        slot = {"head": 1, "body": 2, "query": 2}[plant]
        able = [
            i for i, (toks, *slots) in enumerate(picks)
            if slots[slot - 1] is not None and (plant == "query") == (toks[0] == "?-")
        ]
        if able:
            i = draw(st.sampled_from(able))
            picks[i][0][picks[i][slot]] = draw(st.sampled_from(["not_p", "chk_1", "p__1", "nmr_check"]))
            want = (CompileError, i, 0)
    text, offsets = _lay_out(draw, [toks for toks, _, _ in picks])

    if want is None:
        prog = parse_program(text)
        starts = [offs[0] for (toks, _, _), offs in zip(picks, offsets) if toks[0] not in ("#show", "?-")]
        assert [(r.line, r.col) for r in prog.rules] == [_line_col(text, s) for s in starts]
        queries = [offs[0] for (toks, _, _), offs in zip(picks, offsets) if toks[0] == "?-"]
        if queries:
            assert (prog.query.line, prog.query.col) == _line_col(text, queries[-1])
        compile_program(prog)
        return
    kind, i, j = want
    offset = len(text) if i is None else offsets[i][j]
    with pytest.raises(kind) as info:
        compile_program(parse_program(text, filename="t.pl"))
    err = info.value
    assert (err.line, err.col) == _line_col(text, offset), (text, plant)
    assert str(err) == f"t.pl:{err.line}:{err.col}: {err.message}"


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_query_alone_reports_its_source_position(data):
    # With or without its '?-', a query starts at its first token, and a
    # reserved name in it is reported there.
    tokens = list(_QUERY[0]) if data.draw(st.booleans()) else list(_QUERY[0][1:])
    reserved = data.draw(st.booleans())
    if reserved:
        tokens[tokens.index("p")] = "not_p"
    text, (offsets,) = _lay_out(data.draw, [tokens])
    q = parse_query(text)
    assert (q.line, q.col) == _line_col(text, offsets[0])
    if reserved:
        with pytest.raises(CompileError) as info:
            check_query(q)
        assert (info.value.line, info.value.col) == (q.line, q.col)
    else:
        check_query(q)
