"""Parsing: surface syntax to terms, rules, queries, and directives."""

from fractions import Fraction

import pytest

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
