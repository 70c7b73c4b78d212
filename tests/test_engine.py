"""Engine behavior: unification, disequality, loops, and consistency checks."""

import gc
import itertools
import pickle
import re
import sys
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from scasp import linear, store as store_mod
from scasp.compiler import compile_program
from scasp.engine import Engine, Node, _Frame
from scasp.errors import SolverError
from scasp.linear import LinearStore
from scasp.parser import parse_query
from scasp.render import Renderer, render_answer
from scasp.terms import (
    CmpLit,
    Const,
    Lit,
    Program,
    Query,
    Rule,
    Struct,
    Var,
    format_term,
    format_terms,
    fresh_var,
    goal_vars,
    rename_goal,
    rename_terms,
    term_vars,
)

from helpers import (
    alpha_eq_term,
    answers,
    binding,
    compiled,
    engine_for,
    num,
    run_child,
    traced_run,
)

ROOT = Path(__file__).resolve().parent.parent


def f(*args):
    return Struct("f", args)


# -- unification ---------------------------------------------------------------


def test_unify_binds_and_the_trail_undoes_it():
    e = engine_for()
    x = fresh_var("X")
    m = e.mark()
    assert e.unify(x, Const("a"))
    assert e.resolve(x) == Const("a")
    e.undo_to(m)
    assert isinstance(e.deref(x), Var)


def test_unify_is_symmetric_over_structure():
    e = engine_for()
    x, y = fresh_var("X"), fresh_var("Y")
    assert e.unify(f(x, Const("b")), f(Const("a"), y))
    assert e.resolve(x) == Const("a")
    assert e.resolve(y) == Const("b")


def test_unify_same_variable_is_a_noop():
    e = engine_for()
    x = fresh_var("X")
    m = e.mark()
    assert e.unify(x, x)
    assert e.mark() == m


def test_unify_occurs_check():
    e = engine_for()
    x = fresh_var("X")
    assert not e.unify(x, f(x))


def test_unify_clashes():
    e = engine_for()
    assert not e.unify(Const("a"), Const("b"))
    assert not e.unify(f(Const("a")), Struct("g", (Const("a"),)))
    assert not e.unify(f(Const("a")), f(Const("a"), Const("b")))
    assert e.unify(num(3), num("6/2"))


# -- disequality ---------------------------------------------------------------


def test_diseq_ground_terms():
    e = engine_for()
    assert len(list(e.assert_neq_term(Const("a"), Const("b")))) == 1
    assert list(e.assert_neq_term(Const("a"), Const("a"))) == []
    assert len(list(e.assert_neq_term(f(Const("a")), f(Const("b"))))) == 1
    assert list(e.assert_neq_term(f(Const("a")), f(Const("a")))) == []
    # Different functors or arities can never be equal.
    assert len(list(e.assert_neq_term(f(Const("a")), Const("a")))) == 1


def test_diseq_forbids_future_binding():
    e = engine_for()
    x = fresh_var("X")
    gen = e.assert_neq_term(x, Const("a"))
    next(gen)
    m = e.mark()
    assert not e.unify(x, Const("a"))
    e.undo_to(m)
    assert e.unify(x, Const("b"))
    e.undo_to(m)
    gen.close()


def test_diseq_is_idempotent():
    e = engine_for()
    x = fresh_var("X")
    g1 = e.assert_neq_term(x, Const("a"))
    next(g1)
    g2 = e.assert_neq_term(x, Const("a"))
    next(g2)
    assert e.dom[x.id] == frozenset((Const("a"),))
    g2.close()
    g1.close()


def test_diseq_between_two_bare_variables_fails_quietly():
    e = engine_for()
    assert list(e.assert_neq_term(fresh_var(), fresh_var())) == []


def test_diseq_same_variable_fails():
    e = engine_for()
    x = fresh_var("X")
    assert list(e.assert_neq_term(x, x)) == []


def test_diseq_over_structures_keeps_every_alternative():
    # f(X,Y) \= f(a,b) holds by X \= a or by Y \= b: two alternatives, so
    # its choice point stays after the first, unlike a determinate goal's.
    text = "p(X,Y) :- f(X,Y) \\= f(a,b), q(X), q(Y).  q(a). q(b)."
    got = [(binding(a, "X"), binding(a, "Y")) for a in answers(text, "?- p(X,Y).")]
    a, b = Const("a"), Const("b")
    assert got == [(b, a), (b, b), (a, a), (b, a)]


def test_diseq_against_nonground_term_is_a_restriction():
    e = engine_for()
    x = fresh_var("X")
    with pytest.raises(SolverError) as info:
        list(e.assert_neq_term(x, f(fresh_var())))
    assert info.value.code == "nonground_disequality"


def test_diseq_occurs_is_vacuously_true():
    e = engine_for()
    x = fresh_var("X")
    assert len(list(e.assert_neq_term(x, f(x)))) == 1


def test_diseq_compound_splits_per_argument():
    e = engine_for()
    x, y = fresh_var("X"), fresh_var("Y")
    seen = []
    for _ in e.assert_neq_term(f(x, Const("a")), f(Const("b"), y)):
        seen.append((e.dump(x), e.dump(y)))
    assert seen == [
        (("neq", frozenset((Const("b"),))), store_mod.TOP),
        (store_mod.TOP, ("neq", frozenset((Const("a"),)))),
    ]


def test_diseq_on_numeric_variable_joins_the_linear_store():
    ans = answers("d(Y) :- Y .>. 1, Y .\\=. 2.", "?- d(X).")
    assert len(ans) == 1
    x = binding(ans[0], "X")
    assert ans[0].views[x.id] == ("lin", ((">", Fraction(1)), ("!=", Fraction(2))))


ONE_VARIABLE_CONSTRAINTS = [
    "X \\= a", "X \\= b", "X \\= 3", "X \\= f(1)", "X .>. 2", "X .=<. 3",
    "X .<. 7/2", "X .\\=. 5/2", "X = 3", "X .=. 3", "X + 1 .>. X",
    "X = a", "X .=. X",
]


def _bindings_text(body):
    return [
        Renderer(a).bindings_text() for a in answers(f"p(X) :- {body}.", "?- p(X).")
    ]


def test_constraint_answers_do_not_depend_on_body_order():
    # A variable lives in one domain: every rational constraint on it makes
    # it rational, even one the store keeps no row for (X + 1 .>. X and
    # X .=. X), and its exclusions move into the store with it.  A rational
    # variable records no exclusion of a symbol or a structure and never
    # binds to one, so no order drops a bound or admits X = a.
    mismatches = [
        (c1, c2)
        for c1, c2 in itertools.permutations(ONE_VARIABLE_CONSTRAINTS, 2)
        if _bindings_text(f"{c1}, {c2}") != _bindings_text(f"{c2}, {c1}")
    ]
    assert mismatches == []
    assert _bindings_text("X .>. 2, X \\= a") == ["X = {A.>.2} ? "]
    # The store keeps no row for X .=. X, yet X stays a rational.
    assert answers("s(X) :- X .=. X.", "?- s(X), X = a.") == []


def _texts_in_any_order(constraints):
    """The distinct binding texts of p(X,Y) over every body order."""
    return {
        tuple(
            Renderer(a).bindings_text()
            for a in answers(f"p(X,Y) :- {', '.join(body)}.", "?- p(X,Y).")
        )
        for body in itertools.permutations(constraints)
    }


def test_equal_rational_variables_alias_in_any_body_order():
    # `=` between two rational variables binds one to the other, as when
    # only one is rational, so both print as the same variable.
    assert _texts_in_any_order(["X .>. 2", "Y .<. 4", "X = Y"]) == {
        ("X = {A.>.2, A.<.4},\nY = {A.>.2, A.<.4} ? ",)
    }
    # Whether X is rational does not depend on where `.=.` stands.
    assert len(_texts_in_any_order(["X \\= a", "X .=. Y", "X = Y"])) == 1


def test_a_rational_variable_differs_from_any_structure():
    # The store's variables are rationals, so `\\=` against a structure holds
    # without recording anything, even when the structure is not ground.
    assert _bindings_text("X .>. 2, X \\= f(Y)") == ["X = {A.>.2} ? "]
    # Before X is rational, the same disequality cannot be recorded.
    with pytest.raises(SolverError) as info:
        _bindings_text("X \\= f(Y), X .>. 2")
    assert info.value.code == "nonground_disequality"


def _two_positive_texts(goal):
    return [
        Renderer(a).bindings_text()
        for a in answers(f"p(X,Y) :- X .>. 0, Y .>. 0, {goal}.", "?- p(X,Y).")
    ]


def test_rational_variables_differ_wherever_they_stand():
    # `\\=` takes one walk per argument pair, so two rational variables
    # differ in the store inside structures and lists as they do alone.
    (alone,) = _two_positive_texts("X \\= Y")
    assert _two_positive_texts("f(X) \\= f(Y)") == [alone]
    assert _two_positive_texts("[X] \\= [Y]") == [alone]
    assert _two_positive_texts("f(X) \\= f(Y), X = Y") == []
    # One alternative per argument pair, as for symbols: the second holds
    # by 1 \\= 2 alone, so X = Y leaves it standing.
    assert _two_positive_texts("f(X,1) \\= f(Y,2)") == [alone, alone]
    assert _two_positive_texts("f(X,a) \\= f(Y,b)") == [alone, alone]
    assert _two_positive_texts("f(X,1) \\= f(Y,2), X = Y") == ["X = {A.>.0},\nY = {A.>.0} ? "]


def test_an_implicit_equality_binds_the_variable():
    # Y + Z is pinched to 0 although neither Y nor Z is.
    assert _bindings_text("X .=. Y + Z, Y + Z .>=. 0, Y + Z .=<. 0") == ["X = 0 ? "]


ARITHMETIC = """
dbl(X,Y) :- Y .=. 2*X.
half(X,Y) :- Y .=. X/4.
big(X,Y) :- Y .=. 3*X, X .>. 1.
par(X,Y) :- Y .=. (X+1)*2.
fold(X) :- X .=. (1+1)/4.
inv(Y) :- X .>. 0, Y .=. 2/X.
a(X,Y) :- X .>. 0, Y .<. 0, X = Y.
"""


@pytest.mark.parametrize("query, texts", [
    # Scaling by a constant and dividing by one, solved either way round.
    ("?- dbl(3,Y).", ["Y = 6 ? "]),
    ("?- dbl(X,5).", ["X = 5/2 ? "]),
    ("?- half(2,Y).", ["Y = 1/2 ? "]),
    ("?- big(X,Y).", ["X = {A.>.1},\nY = {B.>.3} ? "]),
    ("?- big(X,3).", []),
    # A parenthesised sum, and a quotient of two literals folded when read.
    ("?- par(2,Y).", ["Y = 6 ? "]),
    ("?- par(X,6).", ["X = 2 ? "]),
    ("?- fold(X).", ["X = 1/2 ? "]),
    # Two rational variables with disjoint bounds cannot alias.
    ("?- a(X,Y).", []),
    # Learning X = Y fixes both sides of X + Y .=. 2.
    ("?- X + Y .=. 2, X = Y.", ["X = 1,\nY = 1 ? "]),
])
def test_linear_arithmetic_by_constants(query, texts):
    assert [Renderer(a).bindings_text() for a in answers(ARITHMETIC, query)] == texts


def test_division_by_an_unknown_is_nonlinear():
    with pytest.raises(SolverError) as info:
        answers(ARITHMETIC, "?- inv(Y).")
    assert info.value.code == "nonlinear_constraint" and "2/X" in str(info.value)


def test_error_text_does_not_depend_on_earlier_programs():
    # Unnamed variables are numbered within each message, not by the
    # process-wide variable counter.
    failing = [
        ("p(X) :- X \\= f(_, Y, _). q(a).", "?- p(X).", "f(_G1,Y,_G2)"),
        ("p(X) :- X .>. _ * Y.", "?- p(X).", "_G1*Y"),
    ]

    def message(program, query):
        with pytest.raises(SolverError) as info:
            answers(program, query)
        return str(info.value)

    first = [message(program, query) for program, query, _ in failing]
    for _ in range(3):
        answers("q(X) :- r(X, _, _). r(a, b, c). r(Y, Y, _).", "?- q(Z).")
    assert [message(program, query) for program, query, _ in failing] == first
    for text, (_, _, part) in zip(first, failing):
        assert part in text

# -- binds that owe disequalities -------------------------------------------------
#
# Binding a variable with excluded terms to a non-ground term owes one
# disequality per excluded term, and each can be met in several ways: the
# one place where unification branches.

OWED = ROOT / "tests" / "data" / "owed_disequalities.txt"


def _owed_cases():
    # Each case is "%% program", "%% query", then the rendered answers.
    chunks = re.split(r"^%% ", OWED.read_text(), flags=re.M)[1:]
    for program, query in zip(chunks[::2], chunks[1::2]):
        query, _, text = query.partition("\n")
        yield pytest.param(program.strip(), query, text.rstrip("\n"), id=query)


@pytest.mark.parametrize("program, query, text", _owed_cases())
def test_owed_disequalities_keep_their_answers_and_order(program, query, text):
    cp = compiled(program)
    got = [
        re.sub(r"\(in [0-9.]+ ms\)", "(in _ ms)", render_answer(a, cp.pred_info, cp.shows))
        for a in Engine(cp).run_query(parse_query(query))
    ]
    assert "\n\n".join(got) == text


_Y, _Z = fresh_var("Y"), fresh_var("Z")
_SYMBOLS = (Const("a"), Const("b"))
# Every ground term of depth at most one over the vocabulary.
_DOMAIN = _SYMBOLS + tuple(f(x, y) for x in _SYMBOLS for y in _SYMBOLS)


def _terms(leaves, depth):
    leaf = st.sampled_from(leaves)
    if depth == 0:
        return leaf
    sub = _terms(leaves, depth - 1)
    return st.one_of(leaf, st.tuples(sub, sub).map(lambda p: f(*p)))


def _allows(view, value):
    if view[0] == "neq":
        return value not in view[1]
    return view == ("top",)


@settings(max_examples=150, deadline=None)
@given(st.lists(_terms(_SYMBOLS, 2), max_size=4), _terms(_SYMBOLS + (_Y, _Z), 2))
def test_owed_disequalities_cover_exactly_the_allowed_instances(excluded, t):
    # X excludes some ground terms and is bound to t: the views of t's
    # variables over all solutions must admit exactly the ground instances
    # of t outside the excluded set.
    e = engine_for()
    x = fresh_var("X")
    if excluded:
        assert e.apply(("neq", frozenset(excluded)), x)
    names = [v for v in (_Y, _Z) if e._occurs(v.id, t)]
    views = [[e.dump(v) for v in names] for _ in e.solve((CmpLit("=", x, t),))]
    for values in itertools.product(_DOMAIN, repeat=len(names)):
        (instance,) = rename_terms((t,), {v.id: val for v, val in zip(names, values)})
        covered = any(all(map(_allows, sol, values)) for sol in views)
        assert covered == (instance not in excluded), (instance, views)


# References for small cases that pay owed disequalities as nested
# generators, one Python frame level per owed pair, right after each `=`.
# The engine pays them as goals of its one loop, and a clause head pays
# after all its hidden `=` goals.


def _conj_ref(solve, items, i=0):
    """Solutions of the conjunction of solve(item) over items[i:]."""
    if i == len(items):
        yield
        return
    for _ in solve(items[i]):
        yield from _conj_ref(solve, items, i + 1)


def _equals_ref(e, c):
    """Solutions of a non-arithmetic `=`: unify, then pay what it owes."""
    m = e.mark()
    l, r = e._resolved((c.lhs, c.rhs), False)
    ok = e.unify(l, r)
    owed = e._take_owed()
    if ok:
        yield from _conj_ref(lambda pair: e.assert_neq_term(*pair), owed)
    e.undo_to(m)


def _views_of(e, xs):
    """The view of each variable left in xs, by first occurrence."""
    found, seen = [], set()
    for t in e._resolved(tuple(xs), False):
        term_vars(t, found, seen)
    return [e.dump(v) for v in found]


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.lists(_terms(_SYMBOLS, 2), max_size=3), _terms(_SYMBOLS + (_Y, _Z), 2)),
    min_size=1, max_size=3,
))
def test_owed_disequalities_are_paid_in_the_order_of_the_nested_generators(cases):
    # Each X_i excludes some ground terms and equals t_i, as `=` goals of
    # Engine.solve or as a clause head's hidden `=` goals: the solutions
    # come in the reference's order, with the same views at each.
    xs = [fresh_var(f"X{i}") for i in range(len(cases))]
    cp = compiled("p(" + ", ".join(format_terms(*(t for _, t in cases))) + ").")
    rule = cp.rules[("p", len(xs))][0]

    def engine():
        e = Engine(cp)
        for x, (excluded, _) in zip(xs, cases):
            if excluded:
                assert e.apply(("neq", frozenset(excluded)), x)
        return e

    goals = tuple(CmpLit("=", x, t) for x, (_, t) in zip(xs, cases))
    e, ref = engine(), engine()
    want = [_views_of(ref, xs) for _ in _conj_ref(lambda c: _equals_ref(ref, c), goals)]
    assert [_views_of(e, xs) for _ in e.solve(goals)] == want
    # The clause p(t_1, ...) renames its body with its head's variables
    # standing for xs, as a call does.
    mapping = {v.id: x for v, x in zip(rule.head.args, xs)}
    hidden = tuple(rename_goal(g, mapping) for g in rule.body[: rule.hide_prefix])
    e, ref = engine(), engine()
    want = [_views_of(ref, xs) for _ in _conj_ref(lambda c: _equals_ref(ref, c), hidden)]
    assert [_views_of(e, xs) for _ in e.solve((Lit("p", tuple(xs)),))] == want


def test_owed_disequalities_are_paid_without_nesting():
    # A loop check that meets an ancestor pays the first solution of 1,500
    # owed disequalities under a recursion limit far below 1,500 frames.
    e = engine_for()
    x, y = fresh_var("X"), fresh_var("Y")
    assert e.apply(("neq", frozenset(f(Const(f"c{i}")) for i in range(1500))), x)
    m = e.mark()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        ok = e._unifiable_args((x,), (f(y),))
    finally:
        sys.setrecursionlimit(limit)
    assert ok and e.mark() == m and e.deref(x) is x


# -- loops ----------------------------------------------------------------------


EVEN_LOOP = "p(X) :- not q(X). q(X) :- not p(X). q(b)."


def test_even_loop_succeeds_by_assumption():
    assert len(answers(EVEN_LOOP, "?- p(a).")) == 1


def test_even_loop_respects_facts():
    assert answers(EVEN_LOOP, "?- p(b).") == []
    # q(b) has two derivations (the fact, and the loop rule through not p(b));
    # each yields an answer, and both agree that q(b) holds.
    got = answers(EVEN_LOOP, "?- q(b).")
    assert len(got) == 2
    for ans in got:
        assert ("q", (Const("b"),)) in ans.model_atoms()


def test_positive_loop_fails_finitely():
    assert answers("p :- p.", "?- p.") == []


def test_negation_over_positive_loop_succeeds():
    assert len(answers("p :- p.", "?- not p.")) == 1


def test_a_call_to_a_predicate_without_rules_fails():
    # q has no rules, so q fails and p with it, and not p holds by not q.
    text = "p :- q."
    assert answers(text, "?- p.") == [] and answers(text, "?- q.") == []
    cp = compiled(text)
    (ans,) = answers(text, "?- not p.")
    assert Renderer(ans, cp.pred_info, cp.shows).justification_text() == (
        "not p :-\n   not p__1 :-\n      not q.\nnmr_check."
    )


def test_odd_loop_blocks_the_trigger():
    assert answers("p :- q(a), not p. q(a).", "?- q(a).") == []


def test_completed_proofs_stay_in_force():
    text = "a :- not b. b :- not a. q :- a, b."
    assert len(answers(text, "?- a.")) == 1
    assert answers(text, "?- q.") == []


def test_denial_gates_the_query():
    assert answers("q(a). :- q(a).", "?- q(a).") == []
    assert len(answers("q(a).", "?- q(a).")) == 1


def test_denial_on_a_fact_leaves_no_model_at_all():
    text = "q(a). q(b). :- q(a)."
    assert answers(text, "?- q(a).") == []
    assert answers(text, "?- q(b).") == []


def test_denial_only_blocks_offending_worlds():
    text = "q(a) :- not s. s :- not q(a). q(b). :- q(a)."
    assert answers(text, "?- q(a).") == []
    assert len(answers(text, "?- q(b).")) == 1
    assert len(answers(text, "?- s.")) == 1


def test_recursion_over_free_variable_fails_finitely():
    text = "nat(0). nat(X) :- nat(Y), X .=. Y + 1."
    assert answers(text, "?- nat(X), X .=. 2.") == []


def test_grounded_recursion_still_counts():
    text = "nat(0). nat(X) :- nat(Y), X .=. Y + 1."
    ans = answers(text, "?- nat(X).", n=1)
    assert binding(ans[0], "X") == num(0)


def test_ancestor_bound_after_its_call_still_stops_a_variant():
    # p(X) is called with X unbound; q(X) then binds it, so the inner p(a)
    # is a variant of its ancestor and fails: only the second clause answers.
    text = "p(X) :- q(X), p(a). p(Y) :- r(Y). q(a). r(a)."
    got = answers(text, "?- p(X).")
    assert len(got) == 1
    assert got[0].model_atoms() == [("p", (Const("a"),)), ("r", (Const("a"),))]


def test_registry_entry_bound_after_its_proof_is_reused():
    (ans,) = answers("p(X).", "?- p(X), X = a, p(a).")
    assert [node.kind for node in ans.justification] == ["atom", "constraint", "proved", "atom"]


@pytest.mark.parametrize(
    "text, query, kinds",
    [
        ("p(Y).", "?- p(f(X)), X = a, p(f(a)).", ["atom", "constraint", "proved", "atom"]),
        ("p(Z,W).", "?- p(a,X), X = b, p(a,b).", ["atom", "constraint", "proved", "atom"]),
        ("p(Z).", "?- p(X), Y .>. 0, p(Y).", ["atom", "constraint", "atom", "atom"]),
    ],
    ids=["bound_below_a_structure", "bound_beside_a_constant", "fresh_constrained_call"],
)
def test_registry_skips_no_entry_that_is_still_a_variant(text, query, kinds):
    # The registry skips an open entry by its first unbound variable and its
    # first constant or functor; a bound variable or an unchanged functor
    # must still reach the term walk, and a constrained call must not.
    (ans,) = answers(text, query)
    assert [node.kind for node in ans.justification] == kinds


def test_constrained_variable_is_not_a_variant_of_a_fresh_one():
    # p(X) is proved with X .>. 1; p(Y) must be solved again, not reused,
    # so that Y carries its own bound.
    (ans,) = answers("p(X) :- X .>. 1.", "?- p(X), p(Y).")
    assert [node.kind for node in ans.justification] == ["atom", "atom", "atom"]
    y = binding(ans, "Y")
    assert ans.views[y.id] == ("lin", ((">", Fraction(1)),))


def test_odd_loop_fails_against_a_proved_complement():
    # a(c) leaves not b(c) proved; b(c) then contradicts the registry.
    text = "a(X) :- not b(X). b(X) :- not a(X). q(X) :- a(X), b(X)."
    assert len(answers(text, "?- a(c).")) == 1
    assert answers(text, "?- q(c).") == []
    assert answers(text, "?- q(X).") == []


def test_a_variant_renames_variables_one_to_one():
    # p(A,W) is not a variant of the proved p(A,A): reusing it would claim
    # p(a,b).
    assert answers("p(X,X). q(b).", "?- p(A,A), p(A,W), A = a, q(W).") == []


def test_a_call_with_a_repeated_variable_is_not_a_variant_of_one_without():
    # p(A,W) under p(A,A) is a new call, not a positive loop: every A with
    # p(A,A) is found, not only A = b.
    got = answers("p(X,b). p(X,X) :- p(X,W), W = b.", "?- p(A,A).", n=3)
    assert len(got) == 3


_VARIANT_VARS = tuple(fresh_var(n) for n in "ABC")


def _alpha_equal(xs, ys):
    m = {}
    return all(alpha_eq_term(x, y, m) for x, y in zip(xs, ys))


_VARIANT_TERMS = _terms(_SYMBOLS + _VARIANT_VARS, 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_VARIANT_TERMS, _VARIANT_TERMS), min_size=1, max_size=3))
def test_variant_check_is_equality_up_to_a_bijective_renaming(pairs):
    xs, ys = zip(*pairs)
    assert engine_for()._variant_args(xs, ys) == _alpha_equal(xs, ys)


_REG_VARS = tuple(fresh_var(n) for n in "ABCD")
_REG_LEAVES = st.sampled_from(_SYMBOLS + (num(1),) + _REG_VARS)
_REG_TERMS = st.one_of(_REG_LEAVES, _REG_LEAVES.map(lambda t: Struct("f", (t,))))
_REG_ARGS = st.tuples(_REG_TERMS, _REG_TERMS)
_REG_STEPS = st.one_of(
    st.tuples(st.just("register"), _REG_ARGS),
    st.tuples(st.just("bind"), st.sampled_from(_REG_VARS), _REG_TERMS),
    st.tuples(st.just("exclude"), st.sampled_from(_REG_VARS), st.sampled_from(_SYMBOLS)),
    st.tuples(st.just("linear"), st.sampled_from(_REG_VARS), st.sampled_from((">", "="))),
)


def _apply_step(e, step):
    """One registry or constraint step through the engine's own methods;
    a step that fails or owes disequalities is undone whole.  A registry
    step enters a call to p as solve_call does and proves it through solve's
    exit step, whose one trail entry unregisters the atom on an undo."""
    if step[0] == "register":
        goal = Lit("p", step[1])
        fr = _Frame(goal, e.cp.pred_info["p"])
        fr.gkey = e._resolved(goal.args, True)
        e.trail.append(("atom", goal, fr))
        e._push(fr)
        next(e.solve(((goal, fr),)))
        return
    m = e.mark()
    var = e.deref(step[1])
    if step[0] == "bind":
        ok = e.unify(var, step[2]) and not e._take_owed()
    elif not isinstance(var, Var):
        return
    elif step[0] == "exclude":
        ok = e._exclude(var, frozenset((step[2],)))
    else:
        ok = e._assert_linear(step[2], var, num(1))
    if not ok:
        e._take_owed()
        e.undo_to(m)


def _variant_by_scan(e, args):
    gkey = e._resolved(args, True)
    if gkey is not None and ("p", gkey) in e._proved_keys:
        return True
    return any(e._variant_args(args, entry[0]) for entry in e._proved_open.get(("p", 2), ()))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_REG_STEPS, min_size=1, max_size=12),
    st.lists(st.one_of(_REG_ARGS, st.integers(min_value=0)), min_size=1, max_size=3),
    st.integers(min_value=0),
)
def test_proved_lookup_agrees_with_a_scan_of_every_entry(steps, calls, back):
    # The registry's lookup skips open entries without walking them; it
    # must answer as a full scan would, also after part of the trail is
    # undone.  A call given as an integer repeats a registered atom's
    # arguments, so that variants are common.
    e = engine_for("p(a, a).")
    marks = []
    for step in steps:
        marks.append(e.mark())
        _apply_step(e, step)
    registered = [step[1] for step in steps if step[0] == "register"] or [(num(1), num(1))]
    for undo in (False, True):
        if undo:
            e.undo_to(marks[back % len(marks)])
        for args in calls:
            if isinstance(args, int):
                args = registered[args % len(registered)]
            gkey = e._resolved(args, True)
            assert e._proved_variant(("p", 2), args, gkey) == _variant_by_scan(e, args)


CNT = "cnt(0). cnt(N) :- N .>. 0, M .=. N-1, cnt(M)."


@pytest.mark.parametrize(
    "text, query, limit",
    [
        (CNT, "?- cnt(300).", 300),
        ((ROOT / "tests" / "programs" / "hanoi.pl").read_text(), "?- hanoi(7, T).", 2000),
        ((ROOT / "tests" / "programs" / "tsp.pl").read_text(), "?- D.<.10, travel_path(b,D,Cycle).", 1000),
    ],
    ids=["cnt300", "hanoi7", "tsp"],
)
def test_loop_check_compares_terms_only_for_open_entries(monkeypatch, text, query, limit):
    # Ground calls are looked up by key; a term-by-term variant check runs
    # only against frames and proofs that were not ground when recorded.
    calls = []
    orig = Engine._variant_args

    def counting(self, xs, ys):
        calls.append(1)
        return orig(self, xs, ys)

    monkeypatch.setattr(Engine, "_variant_args", counting)
    assert len(answers(text, query, n=1)) == 1
    assert len(calls) <= limit


@pytest.mark.parametrize(
    "program, query, counted, limit",
    [
        (CNT, "?- cnt(200).", "_normalize", 0),
        ((ROOT / "tests" / "programs" / "hanoi.pl").read_text(), "?- hanoi(5,T).", "_normalize", 0),
        ((ROOT / "tests" / "programs" / "yale.pl").read_text(), None, "_fm_sat", 180),
        ((ROOT / "tests" / "programs" / "stream.pl").read_text(), None, "_fm_step", 125),
    ],
    ids=["cnt200", "hanoi5", "yale", "stream"],
)
def test_linear_asserts_eliminate_only_where_the_store_can_change(
    monkeypatch, program, query, counted, limit
):
    # A countdown step fixes a variable no row mentions, so the store needs
    # no re-normalising (without the shortcut: 200 and 46 runs).  Rows that
    # hold strictly together take one elimination, not one more per weak
    # row (yale: 210 without it, 218 with neither).  A projection reads the
    # points a disequality forces off two spans instead of verifying each
    # candidate (stream: 149 steps when each was verified).
    calls = []
    orig = getattr(linear, counted)

    def counting(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(linear, counted, counting)
    assert answers(program, query)
    assert len(calls) <= limit


def test_countdown_keeps_no_fixed_value_in_the_substitution(monkeypatch):
    # Each step fixes M; a fixed value leaves the store's substitution, so
    # later asserts do not copy and rewrite one row per earlier step.
    rows = []
    orig = LinearStore.assert_constraint

    def recording(self, op, lhs, rhs):
        res = orig(self, op, lhs, rhs)
        if res is not None:
            rows.append(len(res[0].subst))
        return res

    monkeypatch.setattr(LinearStore, "assert_constraint", recording)
    assert len(answers(CNT, "?- cnt(300).")) == 1
    assert len(rows) >= 300
    assert max(rows) <= 5


def test_countdown_store_does_not_grow_with_the_count(monkeypatch):
    # The store hands each value it fixes back to the engine's binding and
    # forgets the variable, so the store a step leaves behind mentions a
    # constant number of variables however long the countdown is.
    orig = LinearStore.assert_constraint

    def largest_store(n):
        sizes = []

        def recording(self, op, lhs, rhs):
            res = orig(self, op, lhs, rhs)
            if res is not None:
                store, determined = res
                assert not store.vars() & {vid for vid, _ in determined}
                sizes.append(len(store.vars()))
            return res

        monkeypatch.setattr(LinearStore, "assert_constraint", recording)
        assert len(answers(CNT, f"?- cnt({n}).")) == 1
        assert len(sizes) >= n
        return max(sizes)

    small, large = largest_store(300), largest_store(1200)
    assert large <= 3
    assert large == small


def test_deep_ground_argument_is_shared_not_copied(monkeypatch):
    # nat(s^200(z)) renames one s(X) per call; ground keys, frames, the
    # registry and the answer snapshot share the query's term, and the
    # occurs check and the resolving of each hidden `=` step over it
    # without a walk.
    cp = compiled("nat(z). nat(s(X)) :- nat(X).")
    query = parse_query("?- nat(" + "s(" * 200 + "z" + ")" * 200 + ").")
    built, walked = [], []
    init = Struct.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    def counting(method):
        def step(self, *args):
            walked.append(1)
            return method(self, *args)
        return step

    monkeypatch.setattr(Struct, "__init__", counting_init)
    for name in ("_occurs", "_resolved"):
        monkeypatch.setattr(Engine, name, counting(getattr(Engine, name)))
    (ans,) = Engine(cp).run_query(query)
    assert len(ans.model) == 202
    assert len(built) <= 1000
    assert len(walked) <= 2000


def test_substitution_shares_ground_arguments():
    # forall renames its variable to a fresh one once per piece; a ground
    # argument comes back as the same object.
    x, nv = fresh_var("X"), fresh_var("_")
    ground = f(Const("a"), f(num(1)))
    (out,) = rename_terms((f(x, ground),), {x.id: nv})
    assert out.args[0] is nv and out.args[1] is ground
    assert rename_terms((ground,), {x.id: nv})[0] is ground


def _stack_depth():
    """The number of Python frames below the caller's."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return depth


def test_renaming_a_deep_term_keeps_the_python_stack_flat():
    # forall renames its goal, which may hold a call's deep argument: the
    # copy runs at one Python depth, however deep the variable lies.
    depths = []

    class Probe(dict):
        def get(self, key, default=None):
            depths.append(_stack_depth())
            return dict.get(self, key, default)

    for n in (10, 2000):
        x = fresh_var("X")
        t = x
        for _ in range(n):
            t = f(t)
        (out,) = rename_terms((t,), Probe())
        for _ in range(n):
            out = out.args[0]
        assert isinstance(out, Var) and out.id != x.id
    assert depths[0] == depths[1]


def test_a_disequality_between_deep_structures_keeps_the_python_stack_flat(monkeypatch):
    # s^n(A) \= s^n(b) has one alternative, A \= b, reached through n
    # argument pairs without nesting a generator per pair.
    depths = []
    orig = Engine._exclude

    def measuring(self, var, terms):
        depths.append(_stack_depth())
        return orig(self, var, terms)

    monkeypatch.setattr(Engine, "_exclude", measuring)
    for n in (10, 2000):
        e, x = engine_for(), fresh_var("A")
        a, b = x, Const("b")
        for _ in range(n):
            a, b = Struct("s", (a,)), Struct("s", (b,))
        assert sum(1 for _ in e.assert_neq_term(a, b)) == 1
    assert depths[0] == depths[1]


def test_exclusions_grow_in_place():
    # Each X \= c<i> adds one term to X's one set of exclusions, and the
    # trail keeps only the terms added.  A copy of the set per \= peaked
    # at 332 MB.
    query = "?- " + ", ".join(f"X \\= c{i}" for i in range(4000)) + ", X = f(Y)."
    tracemalloc.start()
    try:
        (ans,) = answers("seed_fact.", query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert Renderer(ans).bindings_text() == "X = f(A),\nY = A ? "
    assert peak < 50_000_000


def _deep(inner, n=2000):
    return "s(" * n + inner + ")" * n


@pytest.mark.parametrize("json_lines", [False, True], ids=["text", "json"])
@pytest.mark.parametrize(
    "text, want",
    [
        # not r(...) runs a forall whose goal holds the 2,000-deep argument,
        # and each of its pieces renames that goal.
        (
            "r(X) :- t(X, Y).\nt(X, Y) :- Y .>. 0, u(X).\n?- not r(" + _deep("Z") + ").\n",
            ("Z = A ? ", '"bindings": {"Z": "A"}'),
        ),
        # The disequality resolves both sides, then walks 2,000 argument pairs.
        (
            "p(X) :- X \\= " + _deep("b") + ".\n?- p(" + _deep("A") + ").\n",
            ("A = {A.\\=.[b]} ? ", '"bindings": {"A": "{A.\\\\=.[b]}"}'),
        ),
        # A linear form 3,000 operators deep.
        (
            "p(X,Y) :- X .=. " + "+".join(["Y"] * 3000) + ", Y .>. 0.\n?- p(X, Y).\n",
            ("X = {A.>.0},\nY = {B.>.0} ? ", '"bindings": {"X": "{A.>.0}", "Y": "{B.>.0}"}'),
        ),
        # A constraint side in 2,000 parentheses, read without recursion.
        (
            "p(1).\n?- X .=. " + "(" * 2000 + "1" + ")" * 2000 + ", p(X).\n",
            ("X = 1 ? ", '"bindings": {"X": "1"}'),
        ),
        # A sum nested 2,000 deep to the right: Y + (Y + (... + Y)).
        (
            "p(X,Y) :- X .=. " + "Y + (" * 2000 + "Y" + ")" * 2000 + ", Y .>. 0.\n"
            "?- p(X, Y).\n",
            ("X = {A.>.0},\nY = {B.>.0} ? ", '"bindings": {"X": "{A.>.0}", "Y": "{B.>.0}"}'),
        ),
        # A fact whose head has 1,500 constants: as many hidden `=` goals.
        (
            "w(" + ", ".join(f"c{i}" for i in range(1500)) + ").\n"
            "?- w(" + ", ".join(f"X{i}" for i in range(1500)) + ").\n",
            ("X0 = c0,\nX1 = c1,", '"bindings": {"X0": "c0", "X1": "c1",'),
        ),
        # Binding X, which excludes 1,500 constants, owes 1,500 disequalities.
        (
            "p(X) :- " + ", ".join(f"X \\= c{i}" for i in range(1500)) + ", X = f(Y).\n"
            "?- p(X).\n",
            ("X = f(A) ? ", '"bindings": {"X": "f(A)"}'),
        ),
    ],
    ids=["dual", "disequality", "sum", "parentheses", "nested-sum", "wide-head", "many-owed"],
)
def test_a_deep_term_answers_through_the_cli_under_the_default_recursion_limit(
    tmp_path, text, want, json_lines
):
    # No term walk of the solver recurses, nor does matching a wide head or
    # paying many owed disequalities: the CLI answers with the
    # interpreter's default recursion limit put back after import.
    path = tmp_path / "deep.pl"
    path.write_text(text)
    flags = ["--json-lines"] if json_lines else []
    done = run_child(path, "--no-just", "--no-model", *flags, limit=1000)
    assert done.returncode == 0, done.stderr[-2000:]
    assert want[json_lines] in done.stdout


def test_a_dual_with_many_body_variables_dumps_under_the_default_recursion_limit(tmp_path):
    # The dual quantifies each of the 2,000 body-only variables in its own
    # forall; printing the nest peels it in a loop.  (--dump-compiled has
    # no JSON form.)
    path = tmp_path / "wide.pl"
    path.write_text("p :- q(" + ",".join(f"X{i}" for i in range(2000)) + ").\n")
    done = run_child(path, "--dump-compiled", limit=1000)
    assert done.returncode == 0, done.stderr[-2000:]
    (line,) = [ln for ln in done.stdout.splitlines() if ln.startswith("% not p__1 :- ")]
    assert line.count("forall(") == 2000 and line.endswith(")" * 2000 + ".")


# -- the term walks against recursive references ------------------------------
#
# Each walk of the engine is one explicit-stack loop; these references are
# the plain recursive walks they replaced, for small terms.


def _resolved_ref(e, args, ground, memo=None):
    out = None
    for i, a in enumerate(args):
        t = e.deref(a)
        if isinstance(t, Var):
            if ground:
                return None
        elif isinstance(t, Struct) and not t.ground:
            r = memo.get(id(t)) if memo is not None else None
            if r is None:
                sub = _resolved_ref(e, t.args, ground, memo)
                if sub is None:
                    return None
                r = t if sub is t.args else Struct(t.functor, sub)
                if memo is not None:
                    memo[id(t)] = r
            t = r
        if out is None:
            if t is a:
                continue
            out = list(args[:i])
        out.append(t)
    return args if out is None else tuple(out)


def _unify_ref(e, a, b):
    a, b = e.deref(a), e.deref(b)
    if isinstance(a, Var):
        return (isinstance(b, Var) and a.id == b.id) or e._bind(a, b)
    if isinstance(b, Var):
        return e._bind(b, a)
    if isinstance(a, Struct) and isinstance(b, Struct) and a.key == b.key:
        if a.ground and b.ground:
            return a == b
        return all(_unify_ref(e, x, y) for x, y in zip(a.args, b.args))
    return isinstance(a, Const) and isinstance(b, Const) and a == b


def _form_ref(t):
    if isinstance(t, Const):
        return linear.form_const(t.value) if t.is_number else None
    if isinstance(t, Var):
        return linear.form_var(t.id)
    if not (t.functor in ("+", "-", "*", "/") and len(t.args) == 2):
        return None
    lf, rf = _form_ref(t.args[0]), _form_ref(t.args[1])
    if lf is None or rf is None:
        return None
    if t.functor == "+":
        return linear.form_add(lf, rf)
    if t.functor == "-":
        return linear.form_sub(lf, rf)
    if t.functor == "*":
        if not lf[1]:
            return linear.form_scale(rf, lf[0])
        if not rf[1]:
            return linear.form_scale(lf, rf[0])
        text = f"product of two unknowns in {format_terms(t)[0]}"
        raise SolverError("nonlinear_constraint", text)
    if rf[1] or rf[0] == 0:
        text = f"division by a non-constant or zero in {format_terms(t)[0]}"
        raise SolverError("nonlinear_constraint", text)
    return linear.form_scale(lf, 1 / rf[0])


_WALK_VARS = [fresh_var(f"W{i}") for i in range(5)]
_WALK_LEAVES = st.one_of(
    st.sampled_from(_WALK_VARS),
    st.sampled_from([Const("a"), Const("b"), num(0), num(2), num(-1)]),
)
_WALK_TERMS = st.recursive(
    _WALK_LEAVES,
    lambda kids: st.one_of(
        st.builds(lambda x: Struct("f", (x,)), kids),
        st.builds(lambda op, x, y: Struct(op, (x, y)), st.sampled_from("g+-*/"), kids, kids),
    ),
    max_leaves=8,
)
# Variable i is bound to a term over variables after it only, so the
# bindings have no cycle; an excluded term makes a binding owe.
_WALK_STATE = st.tuples(
    st.lists(st.one_of(st.none(), _WALK_TERMS), min_size=5, max_size=5),
    st.lists(st.sampled_from([None, Const("a"), Struct("f", (Const("b"),))]), min_size=5, max_size=5),
)


def _walk_engine(state):
    e = engine_for()
    values, excluded = state
    for i, (v, t) in enumerate(zip(_WALK_VARS, values)):
        if t is not None and all(w.id > v.id for w in term_vars(t)):
            e._bind_raw(v.id, t)
        elif t is None and excluded[i] is not None:
            e._exclude(v, (excluded[i],))
    return e


def _old_objects(ts, e):
    """The ids of every structure that exists before a walk runs."""
    ids, todo = set(), list(ts) + list(e.cells.values())
    while todo:
        t = todo.pop()
        if isinstance(t, Struct):
            ids.add(id(t))
            todo += t.args
    return ids


def _shared(t, old):
    """The old structures a walk's result reaches, in pre-order."""
    if not isinstance(t, Struct):
        return []
    if id(t) in old:
        return [id(t)]
    return [i for a in t.args for i in _shared(a, old)]


@settings(max_examples=300, deadline=None)
@given(_WALK_STATE, st.lists(_WALK_TERMS, min_size=1, max_size=3), st.booleans())
def test_resolving_walks_as_the_recursive_reference(state, ts, ground):
    e = _walk_engine(state)
    ts = tuple(ts)
    old = _old_objects(ts, e)
    got, want = e._resolved(ts, ground), _resolved_ref(e, ts, ground)
    assert got == want
    if want is not None:
        assert (got is ts) == (want is ts)
        assert [_shared(t, old) for t in got] == [_shared(t, old) for t in want]
    if ground:
        return
    memo, memo_ref = {}, {}
    got = e._resolved(ts, False, memo)
    assert got == _resolved_ref(e, ts, False, memo_ref)
    assert memo.keys() == memo_ref.keys()
    assert all(_shared(memo[k], old) == _shared(memo_ref[k], old) for k in memo)
    # A second walk with the same memo reuses each copy it made.
    again = e._resolved(ts, False, memo)
    assert all(x is y for x, y in zip(again, got) if isinstance(x, Struct) and not x.ground)


@settings(max_examples=300, deadline=None)
@given(_WALK_STATE, _WALK_TERMS, _WALK_TERMS)
def test_unify_walks_as_the_recursive_reference(state, a, b):
    e, ref = _walk_engine(state), _walk_engine(state)
    assert e.unify(a, b) == _unify_ref(ref, a, b)
    assert e.trail == ref.trail
    assert e.owed == ref.owed


@settings(max_examples=300, deadline=None)
@given(_WALK_TERMS)
def test_linear_forms_walk_as_the_recursive_reference(t):
    def outcome(form_of):
        try:
            return form_of(t)
        except SolverError as err:
            return (err.code, str(err))

    assert outcome(linear.form_of) == outcome(_form_ref)


def _chain(n):
    return "".join(f"p{i} :- p{i + 1}. " for i in range(n)) + f"p{n}."


NESTED_NEGATION = "a(z). a(s(X)) :- not b(X). b(X) :- c(X,Y), not a(X). c(X,k)."


def _max_frame_depth(monkeypatch, text, query):
    """The deepest Python stack seen at a loop check while answering."""
    depths = [0]
    orig = Engine.classify_loop

    def measuring(self, goal):
        depths.append(_stack_depth())
        return orig(self, goal)

    monkeypatch.setattr(Engine, "classify_loop", measuring)
    assert len(answers(text, query, n=1)) == 1
    return max(depths)


def test_the_python_stack_does_not_grow_with_the_derivation(monkeypatch):
    # Resolution is one loop over a stack of choice points, so a call made
    # thousands of steps deep runs at the same Python depth as the first.
    chain = [_max_frame_depth(monkeypatch, _chain(n), "?- p0.") for n in (200, 2000)]
    assert chain[0] == chain[1]
    cnt = [_max_frame_depth(monkeypatch, CNT, f"?- cnt({n}).") for n in (100, 1000)]
    assert cnt[0] == cnt[1]
    # Each not b(...) is a forall over Y whose piece calls a(...) again:
    # nested foralls are choice points of the same loop.
    nested = [
        _max_frame_depth(monkeypatch, NESTED_NEGATION, "?- a(" + "s(" * n + "z" + ")" * n + ").")
        for n in (25, 50)
    ]
    assert nested[0] == nested[1]


def test_ground_structures_unify_by_equality(monkeypatch):
    # Two ground structures unify when they are equal, so the loop check's
    # scan of open `not a(...)` frames compares each pair at once instead
    # of walking both terms.
    calls = [0]
    orig = Engine.unify

    def counting(self, a, b):
        calls[0] += 1
        return orig(self, a, b)

    monkeypatch.setattr(Engine, "unify", counting)
    n = 100
    assert len(answers(NESTED_NEGATION, "?- a(" + "s(" * n + "z" + ")" * n + ").")) == 1
    assert calls[0] <= 20_000
    # Equal but separately built terms, deeper than comparing nested
    # tuples can go on Python 3.12, unify and bind nothing.
    e = engine_for()
    deep = []
    for leaf in ("z", "z", "y"):
        t = Const(leaf)
        for _ in range(2_000):
            t = Struct("s", (t,))
        deep.append(t)
    m = e.mark()
    assert e.unify(deep[0], deep[1]) and e.mark() == m
    assert not e.unify(deep[0], deep[2])


def _held_at_first_answer(text, query):
    """Live solve_call generators at a query's first answer, and the growth
    of the collector's tracked objects from before the query to then."""
    e = engine_for(text)
    q = parse_query(query)
    gc.collect()
    before = len(gc.get_objects())
    running = e.run_query(q)
    next(running)
    gc.collect()
    objects = gc.get_objects()
    code = Engine.solve_call.__code__
    live = sum(type(o) is types.GeneratorType and o.gi_code is code for o in objects)
    running.close()
    return live, len(objects) - before


@pytest.mark.parametrize(
    "text, query",
    [
        (_chain(1000), "?- p0."),
        (CNT, "?- cnt(1000)."),
        ("nat(z). nat(s(X)) :- nat(X).", "?- nat(" + "s(" * 500 + "z" + ")" * 500 + ")."),
    ],
    ids=["chain1000", "cnt1000", "nat500"],
)
def test_determinate_calls_leave_no_choice_point(text, query):
    # Each call here takes its last clause, so it keeps no choice point: the
    # choice point below undoes it.  A choice point per call would hold
    # 1,002, 1,002 and 502 suspended generators.
    live, _ = _held_at_first_answer(text, query)
    assert live <= 3


def test_a_countdown_holds_few_objects_per_step():
    # What a countdown step leaves for the collector to scan: 32 tracked
    # objects with a choice point per call, 19 without.
    _, grown = _held_at_first_answer(CNT, "?- cnt(1000).")
    assert grown / 1000 <= 25


def test_a_twenty_thousand_rule_chain_answers_through_the_cli(tmp_path):
    # In a child process, so that a crash of the interpreter fails this test
    # alone.  The justification would print 20,000 nested levels: omit it.
    path = tmp_path / "chain.pl"
    path.write_text(_chain(20_000))
    done = run_child(path, "-q", "?- p0.", "-n", "1", "--no-just")
    assert done.returncode == 0, done.stderr
    assert "p20000" in done.stdout


def test_a_sixteen_thousand_deep_term_answers_through_the_api():
    # In a child process, so that a crash of the interpreter fails this test
    # alone.  Building the term, its flags and its hash must not recurse
    # once per level.
    code = (
        "from scasp import Engine, compile_program, parse_program\n"
        "from scasp.terms import Const, Lit, Query, Struct\n"
        "cp = compile_program(parse_program('nat(z). nat(s(X)) :- nat(X).'))\n"
        "t = Const('z')\n"
        "for _ in range(16_000):\n"
        "    t = Struct('s', (t,))\n"
        "print(len(list(Engine(cp).run_query(Query((Lit('nat', (t,)),))))))\n"
    )
    done = run_child(code=code)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "1\n"


def test_the_model_snapshot_walks_a_deep_proof_without_recursion():
    # A log nested deeper than the recursion limit: the snapshot's model
    # still lists its atoms in pre-order, first derivation first.
    # The log is the trail's event entries; its other entries are skipped.
    e = engine_for("q(X) :- q(X). q(a).")
    depth = sys.getrecursionlimit() + 10
    e.trail = [("atom", Lit("q", (Const(i),)), None) for i in range(depth)]
    e.trail += [("bind", 0), ("chs", Lit("q", (Const(0),)))]
    e.trail += [("exit", None)] * (depth - 1)
    e.trail += [("atom", Lit("q", (Const("b"),)), None), ("exit", None), ("exit", None)]
    try:
        model = e._snapshot(Query(()), 1, time.perf_counter()).model
    except RecursionError:
        model = None  # asserted outside the handler: a short report
    assert model is not None, "the snapshot recursed once per proof level"
    assert [lit.args[0].value for lit in model[:-1]] == list(range(depth)) + ["b"]
    assert model[-1] == Lit("nmr_check")


def _variables_by_walk(ans):
    """Unbound variables by first occurrence: justification (pre-order),
    then model, then bindings -- the order answers name them in."""
    found, seen = [], set()
    stack = ans.justification[::-1]
    while stack:
        node = stack.pop()
        goal_vars(node.goal, found, seen)
        stack.extend(reversed(node.children))
    for lit in ans.model:
        goal_vars(lit, found, seen)
    for _, t in ans.bindings:
        term_vars(t, found, seen)
    return found


def _model_by_walk(ans, pred_info):
    """The model as a pre-order walk of the justification lists it."""
    out, seen = [], set()
    stack = ans.justification[::-1]
    while stack:
        node = stack.pop()
        lit = node.goal
        if node.kind in ("atom", "chs") and not lit.neg:
            info = pred_info.get(lit.pred)
            if info is not None and info.kind == "user" and (lit.pred, lit.args) not in seen:
                seen.add((lit.pred, lit.args))
                out.append(lit)
        stack.extend(reversed(node.children))
    return out + [Lit("nmr_check")]


@pytest.mark.parametrize("program, n", [("stream", 0), ("yale", 0), ("tsp", 2), ("hanoi", 2)])
def test_one_walk_of_the_log_gives_the_documented_orders(program, n):
    # The snapshot builds tree, model and variable order in one walk of the
    # log: the variables come in the order a walk of the justification,
    # model and bindings finds them, and the model in the pre-order of the
    # justification.
    cp = compiled((ROOT / "tests" / "programs" / f"{program}.pl").read_text())
    got = list(Engine(cp).run_query(cp.query, n))
    assert got
    for ans in got:
        assert list(ans.views) == [v.id for v in _variables_by_walk(ans)]
        assert ans.model == _model_by_walk(ans, cp.pred_info)


@pytest.mark.parametrize(
    "text, query, limit",
    [
        ((ROOT / "tests" / "programs" / "hanoi.pl").read_text(), "?- hanoi(5,T).", 100),
        (
            "nat(z). nat(s(X)) :- nat(X).",
            "?- nat(" + "s(" * 200 + "z" + ")" * 200 + ").",
            250,
        ),
    ],
    ids=["hanoi5", "nat200"],
)
def test_clause_heads_bind_by_substitution(monkeypatch, text, query, limit):
    # A head's variables stand for the call's arguments, so trying a clause
    # binds nothing until a hidden `=` or a body goal does.
    binds = []
    orig = Engine._bind_raw

    def counting(self, vid, t):
        binds.append(1)
        orig(self, vid, t)

    monkeypatch.setattr(Engine, "_bind_raw", counting)
    assert len(answers(text, query, n=1)) == 1
    assert len(binds) <= limit


def test_structures_keep_their_hash_and_flags_out_of_pickles():
    x = fresh_var("X")
    three = Struct("+", (num(1), num(2)))
    t = f(Const("a"), f(three))
    assert (t.ground, t.arith) == (True, True)
    assert (f(x).ground, f(x).arith, f(x, three).arith) == (False, False, True)
    assert hash(t) == hash(f(Const("a"), f(three)))
    # A formatted structure keeps its text, but pickles without it.
    assert format_term(t) == "f(a,f(1+2))" and t._text == "f(a,f(1+2))"
    assert pickle.dumps(t) == pickle.dumps(f(Const("a"), f(three)))
    copy = pickle.loads(pickle.dumps(t))
    assert copy == t and hash(copy) == hash(t)
    assert not hasattr(copy, "_text")
    assert (copy.ground, copy.arith, copy.key) == (True, True, ("f", 2))
    # String hashes differ between processes, so a term pickled under one
    # hash seed must hash, unpickled under another, as an equal term built
    # there: a pickle that carried a cached hash would fail this.
    build = (
        "import pickle, sys; from fractions import Fraction as F;"
        "from scasp.terms import Const, Lit, Struct, Var;"
        "f = lambda *a: Struct('f', a);"
        "t = Lit('p', (f(Const('a'), f(Struct('+', (Const(F(1)), Const(F(2)))))), Var(7, 'X')));"
    )
    check = (
        "u = pickle.loads(bytes.fromhex(sys.argv[1]));"
        "print(u == t, hash(u) == hash(t), hash(u.args[0]) == hash(t.args[0]),"
        " u.key, u.args[0].ground, u.args[0].arith, u.args[0].args[0].is_number)"
    )

    def run(code, seed, *argv):
        done = run_child(*argv, code=build + code, env={"PYTHONHASHSEED": seed}, timeout=60)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    dumped = run("print(hash(t.args[0]), pickle.dumps(t).hex())", "1").split()
    assert run("print(hash(t.args[0]))", "2") != dumped[0]  # the seeds differ
    assert run(check, "2", dumped[1]) == "True True True ('p', 2) True True False"


# -- the benchmark's tracer ------------------------------------------------------


def test_benchmark_tracing_hooks_the_engine():
    # hanoi(5) reaches the loop checks; the stream query reaches the layers
    # hanoi(5) does not: forall, the projection of rational stores, and the
    # view algebra.
    traced_run(
        "hanoi", "?- hanoi(5, T).", spans=("classify_loop",),
        counts=("engine.loop.continue", "engine.loop.succeed_coinductive"),
    )
    traced_run("stream", spans=("forall", "linear.project", "store.lin_canon", "store.dual"))


def test_benchmark_tracing_counts_the_solver_and_undoes_its_patches():
    # The tsp query reaches resolution, forall and the rational store; the
    # tracer and its client read the engine attributes checked at the end
    # (the client reads forall_trace after each query).
    engine = traced_run(
        "tsp", bound=1, spans=("linear.assert",), counts=("engine.calls", "forall.calls")
    )
    for name in ("proved", "frames", "trail", "forall_trace"):
        assert hasattr(engine, name), name
    assert engine.forall_trace


# -- first-argument clause selection ------------------------------------------------


def _selected(cp, query):
    """Answers of query, with the rendered text checked against a run that
    tries every clause (the first-argument index emptied)."""
    def run():
        got = list(Engine(cp).run_query(query))
        texts = [
            re.sub(r"in [0-9.]+ ms", "", render_answer(a, cp.pred_info, cp.shows))
            for a in got
        ]
        return got, texts

    got, texts = run()
    index = dict(cp.first_arg)
    cp.first_arg.clear()
    try:
        assert run()[1] == texts
    finally:
        cp.first_arg.update(index)
    return got


def _bindings(cp, query, name):
    return [binding(a, name) for a in _selected(cp, parse_query(query))]


def test_mixed_heads_keep_source_order():
    cp = compiled("p(a,1). p(X,2). p(b,3). p(a,4).")
    rules = cp.rules[("p", 2)]
    by_key, wild = cp.first_arg[("p", 2)]
    assert by_key.get(Const("a")) == (rules[0], rules[1], rules[3])
    assert by_key.get(Const("b")) == (rules[1], rules[2])
    assert by_key.get(Const("c")) is None and wild == (rules[1],)
    assert _bindings(cp, "?- p(a,N).", "N") == [num(1), num(2), num(4)]
    assert _bindings(cp, "?- p(c,N).", "N") == [num(2)]
    got = _selected(cp, parse_query("?- p(Y,N)."))
    assert [binding(a, "N") for a in got] == [num(1), num(2), num(3), num(4)]
    assert binding(got[2], "Y") == Const("b")
    assert isinstance(binding(got[1], "Y"), Var)


def test_rational_literal_hits_a_numeric_key():
    cp = compiled("q(3). q(a).")
    assert len(cp.first_arg[("q", 1)][0].get(num(3))) == 1
    assert len(_selected(cp, parse_query("?- q(6/2)."))) == 1
    assert _selected(cp, parse_query("?- q(7/2).")) == []


def test_first_argument_determined_by_the_linear_store():
    cp = compiled("r(0). r(N) :- N .>. 0.")
    assert _bindings(cp, "?- X .=. 2-2, r(X).", "X") == [num(0)]
    assert _bindings(cp, "?- X .=. 1, r(X).", "X") == [num(1)]
    # Constrained but unbound: no key, every clause is tried.
    (ans,) = _selected(cp, parse_query("?- X .>. 0, r(X)."))
    x = binding(ans, "X")
    assert ans.views[x.id] == ("lin", ((">", Fraction(0)),))


def test_structure_keys_and_constant_keys_stay_apart():
    cp = compiled("s(f(a)). s(a). s(f(b,c)). s(g(a)). s(f(d)).")
    assert _bindings(cp, "?- s(f(X)).", "X") == [Const("a"), Const("d")]
    assert len(_selected(cp, parse_query("?- s(a)."))) == 1
    assert len(_selected(cp, parse_query("?- s(f(X,Y))."))) == 1
    assert len(_selected(cp, parse_query("?- s(X)."))) == 5
    assert _selected(cp, parse_query("?- s(h(a)).")) == []


def test_arithmetic_structures_are_wildcards():
    # Heads and goals built through the API may hold arithmetic, which the
    # parser never puts in a plain term: q(1+2) matches any first argument
    # that equals 3, and q(f(1+2)) is keyed on f/1 but never unifies.
    three = Struct("+", (num(1), num(2)))
    program = Program(rules=[
        Rule(Lit("q", (three,))),
        Rule(Lit("q", (Const("a"),))),
        Rule(Lit("q", (Struct("f", (three,)),))),
        Rule(Lit("q", (num(3),))),
    ])
    cp = compile_program(program)
    by_key, wild = cp.first_arg[("q", 1)]
    assert wild == (cp.rules[("q", 1)][0],)
    assert {k for run in by_key.runs if isinstance(run, dict) for k in run} == {
        Const("a"), ("f", 1), num(3)
    }

    def count(arg):
        return len(_selected(cp, Query((Lit("q", (arg,)),))))

    assert count(num(3)) == 2
    assert count(Const("a")) == 1
    assert count(three) == 2
    assert count(Struct("f", (num(3),))) == 0
    assert count(Struct("f", (three,))) == 0


def test_interleaved_wildcards_are_stored_once():
    # Keyed facts then wildcard rules: a key's clauses are its fact and
    # every rule, but each clause is held once, not once per key.
    text = "".join(f"p(c{i}). " for i in range(2000))
    text += "".join(f"p(X) :- q{i}(X). " for i in range(2000)) + "q7(c7)."
    cp = compiled(text)
    rules = cp.rules[("p", 1)]
    by_key, wild = cp.first_arg[("p", 1)]
    held = len(wild)
    for run in by_key.runs:
        held += sum(map(len, run.values())) if isinstance(run, dict) else len(run)
    assert held <= 3 * len(rules)
    assert by_key.get(Const("c7")) == (rules[7], *rules[2000:])
    assert wild == tuple(rules[2000:])
    assert len(_selected(cp, parse_query("?- p(c7)."))) == 2
    assert len(_selected(cp, parse_query("?- p(c1999)."))) == 1
    assert _selected(cp, parse_query("?- p(d).")) == []


def test_a_point_query_tries_a_handful_of_clauses(monkeypatch):
    # Each clause tried renames its one body goal, the hidden `=` that
    # matches the head's constant; without the index all 1,000 facts would
    # be renamed and unified.
    cp = compiled("".join(f"f(c{i}). " for i in range(1000)))
    calls = []

    def counting(g, mapping):
        calls.append(1)
        return rename_goal(g, mapping)

    monkeypatch.setattr("scasp.engine.rename_goal", counting)
    assert len(list(Engine(cp).run_query(parse_query("?- f(c500).")))) == 1
    assert len(calls) <= 5


# -- queries and answers ---------------------------------------------------------


def test_constraint_only_query_reports_views():
    ans = answers("seed.", "?- X .>. 1, X .<. 3.")
    assert len(ans) == 1
    x = binding(ans[0], "X")
    assert isinstance(x, Var)
    assert ans[0].views[x.id] == ("lin", ((">", Fraction(1)), ("<", Fraction(3))))


def test_max_answers_stops_enumeration():
    text = "p(a). p(b). p(c)."
    assert len(answers(text, "?- p(X).", n=2)) == 2
    got = answers(text, "?- p(X).")
    assert [binding(a, "X") for a in got] == [Const("a"), Const("b"), Const("c")]


def test_answers_are_numbered_from_one():
    got = answers("p(a). p(b).", "?- p(X).")
    assert [a.number for a in got] == [1, 2]


def test_model_collects_positive_atoms():
    got = answers("p(a) :- q(a). q(a).", "?- p(a).")
    assert got[0].model_atoms() == [("p", (Const("a"),)), ("q", (Const("a"),))]
    preds = [lit.pred for lit in got[0].model]
    assert preds[-1] == "nmr_check"
