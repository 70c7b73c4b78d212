"""Engine behavior: unification, disequality, loops, and consistency checks."""

import importlib.util
import re
from fractions import Fraction
from pathlib import Path

import pytest

from scasp.engine import Engine
from scasp.errors import SolverError
from scasp.parser import parse_query
from scasp.render import render_answer
from scasp.terms import Const, Struct, Var, fresh_var

from helpers import answers, binding, compiled, engine_for, num

ROOT = Path(__file__).resolve().parent.parent


def f(*args):
    return Struct("f", args)


# -- unification ---------------------------------------------------------------


def test_unify_binds_and_the_trail_undoes_it():
    e = engine_for()
    x = fresh_var("X")
    m = e.mark()
    gen = e.unify(x, Const("a"))
    next(gen)
    assert e.resolve(x) == Const("a")
    gen.close()
    e.undo_to(m)
    assert isinstance(e.deref(x), Var)


def test_unify_is_symmetric_over_structure():
    e = engine_for()
    x, y = fresh_var("X"), fresh_var("Y")
    gen = e.unify(f(x, Const("b")), f(Const("a"), y))
    next(gen)
    assert e.resolve(x) == Const("a")
    assert e.resolve(y) == Const("b")
    gen.close()


def test_unify_same_variable_is_a_noop():
    e = engine_for()
    x = fresh_var("X")
    assert len(list(e.unify(x, x))) == 1


def test_unify_occurs_check():
    e = engine_for()
    x = fresh_var("X")
    assert list(e.unify(x, f(x))) == []


def test_unify_clashes():
    e = engine_for()
    assert list(e.unify(Const("a"), Const("b"))) == []
    assert list(e.unify(f(Const("a")), Struct("g", (Const("a"),)))) == []
    assert list(e.unify(f(Const("a")), f(Const("a"), Const("b")))) == []
    assert len(list(e.unify(num(3), num("6/2")))) == 1


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
    assert list(e.unify(x, Const("a"))) == []
    assert len(list(e.unify(x, Const("b")))) == 1
    gen.close()


def test_diseq_is_idempotent():
    e = engine_for()
    x = fresh_var("X")
    g1 = e.assert_neq_term(x, Const("a"))
    next(g1)
    g2 = e.assert_neq_term(x, Const("a"))
    next(g2)
    assert e.forbid[x.id] == frozenset((Const("a"),))
    g2.close()
    g1.close()


def test_diseq_between_two_bare_variables_fails_quietly():
    e = engine_for()
    assert list(e.assert_neq_term(fresh_var(), fresh_var())) == []


def test_diseq_same_variable_fails():
    e = engine_for()
    x = fresh_var("X")
    assert list(e.assert_neq_term(x, x)) == []


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
        seen.append((e.forbid.get(x.id), e.forbid.get(y.id)))
    assert seen == [
        (frozenset((Const("b"),)), None),
        (None, frozenset((Const("a"),))),
    ]


def test_diseq_on_numeric_variable_joins_the_linear_store():
    ans = answers("d(Y) :- Y .>. 1, Y .\\=. 2.", "?- d(X).")
    assert len(ans) == 1
    x = binding(ans[0], "X")
    assert ans[0].views[x.id] == ("lin", ((">", Fraction(1)), ("!=", Fraction(2))))


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


CNT = "cnt(0). cnt(N) :- N .>. 0, M .=. N-1, cnt(M)."


@pytest.mark.parametrize(
    "text, query, limit",
    [
        (CNT, "?- cnt(300).", 300),
        ((ROOT / "tests" / "programs" / "hanoi.pl").read_text(), "?- hanoi(7, T).", 2000),
    ],
    ids=["cnt300", "hanoi7"],
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


def _rendered(cp, query):
    return [
        re.sub(r"in [0-9.]+ ms", "", render_answer(a, cp.pred_info, cp.shows))
        for a in Engine(cp).run_query(parse_query(query))
    ]


def test_benchmark_tracing_hooks_the_engine():
    # perfbench/tracing.py patches Engine methods and store/linear functions
    # by name and reads engine attributes; renaming one must fail here, not
    # only in a traced run.
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def traced_run(program, query):
        cp = compiled((ROOT / "tests" / "programs" / program).read_text())
        plain = _rendered(cp, query)
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced = _rendered(cp, query)
        finally:
            undo()
        assert traced == plain and plain
        return tracer

    tracer = traced_run("hanoi.pl", "?- hanoi(5, T).")
    counts = tracer.counts
    assert counts["engine.loop.continue"] > 0
    assert counts["engine.loop.succeed_coinductive"] > 0
    assert tracer.self_s["classify_loop"] > 0
    # The stream query reaches the layers hanoi(5) does not: forall, the
    # projection of rational stores, and the view algebra.
    tracer = traced_run("stream.pl", "?- valid_stream(Pr, Data).")
    for span in ("forall", "linear.project", "store.lin_canon", "store.dual"):
        assert tracer.calls[span] >= 1, span


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
