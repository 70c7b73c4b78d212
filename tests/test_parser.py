"""Parsing: surface syntax to terms, rules, queries, and directives."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scasp.compiler import compile_program
from scasp.errors import CompileError
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

from helpers import alpha_eq_rule


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
