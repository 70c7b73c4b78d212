"""Brute-force reference semantics for small ground programs."""

from fractions import Fraction

import pytest

from scasp.errors import SolverError
from scasp.oracle import ground, stable_models
from scasp.parser import parse_program
from scasp.terms import Const, Forall, Lit, Program, Rule, Struct, fresh_var

from helpers import run_child


def ga(pred, *vals):
    args = tuple(
        Const(Fraction(v)) if isinstance(v, int) else Const(v) for v in vals
    )
    return (pred, args)


def models(text):
    return set(stable_models(ground(parse_program(text))))


def test_choice_between_two_atoms():
    got = models("a :- not b. b :- not a.")
    assert got == {frozenset({ga("a")}), frozenset({ga("b")})}


def test_facts_override_the_loop():
    got = models("p(X) :- not q(X). q(X) :- not p(X). q(b).")
    assert got == {frozenset({ga("q", "b")})}


def test_two_constants_make_independent_choices():
    got = models("p(X) :- not q(X). q(X) :- not p(X). q(b). r(a).")
    assert got == {
        frozenset({ga("q", "b"), ga("r", "a"), ga("p", "a")}),
        frozenset({ga("q", "b"), ga("r", "a"), ga("q", "a")}),
    }


def test_two_clause_program_has_one_model():
    got = models("p(0). p(X) :- q(X), not t(X,Y). q(1). t(1,2).")
    assert got == {
        frozenset({ga("p", 0), ga("p", 1), ga("q", 1), ga("t", 1, 2)})
    }


def test_self_blocking_rule_has_no_model():
    assert models("p :- q(a), not p. q(a).") == set()


def test_denial_filters_models():
    base = "q(a). q(b) :- not s. s :- not q(b)."
    assert models(base) == {
        frozenset({ga("q", "a"), ga("q", "b")}),
        frozenset({ga("q", "a"), ga("s")}),
    }
    assert models(base + " :- q(b).") == {frozenset({ga("q", "a"), ga("s")})}


def test_denial_with_negative_body():
    assert models("a :- not b. b :- not a. :- not a.") == {frozenset({ga("a")})}


def test_ground_structures_act_as_constants():
    got = models("p(f(a)). q(X) :- p(X).")
    f_a = Struct("f", (Const("a"),))
    assert got == {frozenset({("p", (f_a,)), ("q", (f_a,))})}


def test_universe_enumerates_the_signature():
    gp = ground(parse_program("p(0). p(X) :- q(X), not t(X,Y). q(1). t(1,2)."))
    assert len(gp.universe) == 15  # p/1 and q/1 over 3 constants, t/2 over 9
    preds = {pred for pred, _ in gp.universe}
    assert preds == {"p", "q", "t"}


def test_stable_models_are_an_antichain():
    for text in [
        "a :- not b. b :- not a.",
        "q(a). q(b) :- not s. s :- not q(b).",
        "p(X) :- not q(X). q(X) :- not p(X). q(b). r(a).",
    ]:
        got = list(models(text))
        for m in got:
            for other in got:
                assert not (m < other), "a stable model contained another"


def test_unsafe_rule_without_constants():
    with pytest.raises(SolverError) as info:
        ground(parse_program("p(X) :- q(X)."))
    assert info.value.code == "unsafe_rule"


def test_constraints_are_out_of_scope():
    with pytest.raises(SolverError) as info:
        ground(parse_program("p(X) :- X .<. 3."))
    assert info.value.code == "unsupported_constraint"
    quant = Program(
        rules=(
            Rule(
                Lit("p"),
                (Forall((fresh_var("X"),), Lit("q", (fresh_var("X"),))),),
            ),
        ),
        shows=set(),
        query=None,
    )
    with pytest.raises(SolverError):
        ground(quant)


def test_oversized_universe_is_refused():
    with pytest.raises(SolverError) as info:
        ground(parse_program("p(a,b). q(b,c). r(a)."))
    assert info.value.code == "universe_too_large"
    # Too many ground instances: 27 of the first rule over three constants.
    text = "p(X,Y,Z) :- q(X), q(Y), q(Z). q(a). q(b). q(c)."
    with pytest.raises(SolverError) as info:
        ground(parse_program(text), max_instances=10)
    assert str(info.value) == "universe_too_large: too many ground instances"


def test_a_deep_term_is_grounded_under_the_default_recursion_limit(tmp_path):
    # The oracle's term walks keep explicit stacks, like the solver's: it
    # grounds a rule over a 2,000-deep structure with the interpreter's
    # default recursion limit put back after import.
    deep = "s(" * 2000 + "{}" + ")" * 2000
    path = tmp_path / "deep.pl"
    path.write_text(f"q(X) :- p({deep.format('X')}).\np({deep.format('z')}).\nr(z).\n")
    done = run_child(path, "--oracle", limit=1000)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.startswith("{ p(s(s(") and done.stdout.endswith("), q(z), r(z) }\n")
