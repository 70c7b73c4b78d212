"""Universal quantification by iterative domain narrowing."""

import json
import random
from fractions import Fraction

import pytest

from scasp.engine import Engine
from scasp.parser import parse_query
from scasp.render import render_answer, render_answer_json
from scasp.store import TOP
from scasp.terms import Const, Forall, Lit, Query, fresh_var

from helpers import answers, compiled, sat_view_num


def run(text, query, n=0):
    """Evaluate on an inspectable engine; returns (engine, answers)."""
    e = Engine(compiled(text))
    return e, list(e.run_query(parse_query(query), n))


NARROWING = """
p(X) :- X .>=. 0, X .=<. 5.
p(X) :- X .>. 1.
p(X) :- X .<. 3.
p(X) :- X .<. 1.
"""


def lin(*entries):
    return ("lin", tuple((op, Fraction(v)) for op, v in entries))


def test_forall_narrows_through_both_negation_pieces():
    e = Engine(compiled(NARROWING))
    a = fresh_var("A")
    gen = e.solve((Forall((a,), Lit("p", (a,))),))
    next(gen)
    gen.close()
    assert [view for _, view in e.forall_trace] == [
        TOP,
        lin(("<", 0)),
        lin((">", 5)),
    ]


def test_forall_over_one_bounded_clause_fails():
    e = Engine(compiled("p(X) :- X .<. 3."))
    x = fresh_var("X")
    gen = e.solve((Forall((x,), Lit("p", (x,))),))
    assert list(gen) == []
    # The uncovered remainder {X >= 3} is exactly where the retry failed.
    assert [view for _, view in e.forall_trace] == [TOP, lin((">=", 3))]


def test_narrowing_program_really_covers_every_rational():
    rng = random.Random(7)
    for _ in range(100):
        v = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
        assert (0 <= v <= 5) or v > 1 or v < 3 or v < 1


def test_disequality_split_covers_the_domain():
    # p holds at a by the first clause and everywhere else by the second.
    text = "p :- not q(X). q(X) :- X = a. q(X) :- X \\= a."
    e, got = run(text, "?- not p.")
    assert len(got) == 1
    assert got[0].bindings == []
    views = [view for label, view in e.forall_trace]
    assert views == [TOP, ("neq", frozenset((Const("a"),)))]


def test_uncoverable_disequality_split_fails():
    text = "p :- not q(X). q(X) :- X = a."
    assert answers(text, "?- not p.") == []


def test_forall_success_views_satisfy_the_goal():
    e = Engine(compiled(NARROWING))
    a = fresh_var("A")
    gen = e.solve((Forall((a,), Lit("p", (a,))),))
    next(gen)
    gen.close()
    rng = random.Random(13)
    for _, view in e.forall_trace:
        for _ in range(30):
            v = Fraction(rng.randint(-60, 60), rng.randint(1, 9))
            if sat_view_num(view, v):
                assert (0 <= v <= 5) or v > 1 or v < 3 or v < 1


def test_body_variables_of_negated_rules_are_universal():
    # not p requires q to fail for every X.
    assert answers("p :- q(X). q(a).", "?- not p.") == []
    assert len(answers("p :- q(X). r(a).", "?- not p.")) == 1


def test_universal_denial_requires_a_universal_fact():
    # ':- not married(X).' demands married hold for every term.
    text = "married(john). :- not married(X)."
    assert answers(text, "?- married(john).") == []
    text_all = "married(john). married(X). :- not married(X)."
    # Both facts match the goal, so exhaustive search finds two derivations.
    assert len(answers(text_all, "?- married(john).")) == 2


def test_forall_covers_a_bound_with_a_symbolic_exclusion_in_either_order():
    # `Y \= a` says nothing about a rational-constrained Y, so the first
    # clause's answer is the bound alone and its dual is covered by the
    # second clause, whichever order the first clause's body has.
    for body in ("Y .>. 2, Y \\= a", "Y \\= a, Y .>. 2"):
        e = Engine(compiled(f"s(Y) :- {body}.  s(Y) :- Y .=<. 2."))
        x = fresh_var("X")
        gen = e.solve((Forall((x,), Lit("s", (x,))),))
        assert next(gen, "failed") is None, body
        gen.close()
        assert [view for _, view in e.forall_trace] == [TOP, lin(("<=", 2))], body


def test_nested_foralls_built_through_the_api_are_one_block():
    # forall(X, forall(Y, G)) is the block forall((X, Y), G): it answers
    # and prints as the flat one does, one forall(V, ...) per variable.
    cp = compiled("q(X, Y) :- X .>. 0.  q(X, Y) :- X .=<. 0, Y .>=. 1.  q(X, Y) :- Y .<. 1.")
    x, y = fresh_var("X"), fresh_var("Y")
    goal = Lit("q", (x, y))
    nested, flat = Forall((x,), Forall((y,), goal)), Forall((x, y), goal)
    assert nested == flat and nested.vars == (x, y) and nested.goal is goal
    printed = []
    for query in (Query((nested,)), Query((flat,))):
        (ans,) = Engine(cp).run_query(query)
        text = render_answer(ans, cp.pred_info, cp.shows).split("\n", 1)[1]
        record = json.loads(render_answer_json(ans, cp.pred_info, cp.shows))
        del record["time_ms"]
        printed.append((text, record))
    assert printed[0] == printed[1]
    assert printed[0][0].splitlines()[1] == "forall(A,forall(B,q(A,B))) :-"
    with pytest.raises(ValueError):
        Forall((), goal)
