"""Synthesis of the negative program: duals, umbrellas, and global checks."""

import re
from fractions import Fraction

import pytest

from scasp import compiler
from scasp.engine import Engine
from scasp.errors import CompileError
from scasp.parser import parse_program, parse_query
from scasp.terms import CmpLit, Const, Forall, Lit, Query, Var, fresh_var

from helpers import answers, compiled, perfbench_module


# -- name and structure canonicalization -----------------------------------------


def canon_pred(name):
    m = re.fullmatch(r"not_(.+?)__(\d+)_body", name)
    if m:
        return ("subbody", m.group(1), int(m.group(2)))
    m = re.fullmatch(r"not_(.+?)__(\d+)", name)
    if m:
        return ("sub", m.group(1), int(m.group(2)))
    m = re.fullmatch(r"not_(.+)", name)
    if m:
        return ("umb", m.group(1))
    m = re.fullmatch(r"chk_(\d+)", name)
    if m:
        return ("chk", int(m.group(1)))
    return ("user", name)


def canon_term(t, names):
    if isinstance(t, Var):
        if t.id not in names:
            names[t.id] = len(names)
        return ("v", names[t.id])
    if isinstance(t, Const):
        return ("c", t.value)
    return ("s", t.functor) + tuple(canon_term(a, names) for a in t.args)


def canon_goal(g, names):
    if isinstance(g, Lit):
        assert not g.neg, "compiled bodies must call duals, not use 'not'"
        return (canon_pred(g.pred),) + tuple(canon_term(a, names) for a in g.args)
    if isinstance(g, CmpLit):
        return ("cmp", g.op, canon_term(g.lhs, names), canon_term(g.rhs, names))
    return ("forall", canon_term(g.var, names), canon_goal(g.goal, names))


def canon_clause(rule):
    names = {}
    head = canon_goal(rule.head, names)
    return (head, tuple(canon_goal(g, names) for g in rule.body))


def clauses_of(cp, kinds):
    out = []
    for (name, _arity), rules in cp.rules.items():
        info = cp.pred_info.get(name)
        if info is not None and info.kind in kinds:
            out.extend(canon_clause(r) for r in rules)
    return out


def lit(pred, *args):
    return (pred,) + args


V0, V1 = ("v", 0), ("v", 1)
ZERO, ONE, TWO = ("c", Fraction(0)), ("c", Fraction(1)), ("c", Fraction(2))


# -- the two-clause/fact program and its ten hand-checked negative clauses --------

TWO_CLAUSE_PROGRAM = "p(0). p(X) :- q(X), not t(X,Y). q(1). t(1,2)."

EXPECTED_DUALS = {
    (lit(("umb", "p"), V0), (lit(("sub", "p", 1), V0), lit(("sub", "p", 2), V0))),
    (lit(("sub", "p", 1), V0), (("cmp", "\\=", V0, ZERO),)),
    (
        lit(("sub", "p", 2), V0),
        (("forall", V1, lit(("subbody", "p", 2), V0, V1)),),
    ),
    (lit(("subbody", "p", 2), V0, V1), (lit(("umb", "q"), V0),)),
    (
        lit(("subbody", "p", 2), V0, V1),
        (lit(("user", "q"), V0), lit(("user", "t"), V0, V1)),
    ),
    (lit(("umb", "q"), V0), (lit(("sub", "q", 1), V0),)),
    (lit(("sub", "q", 1), V0), (("cmp", "\\=", V0, ONE),)),
    (lit(("umb", "t"), V0, V1), (lit(("sub", "t", 1), V0, V1),)),
    (lit(("sub", "t", 1), V0, V1), (("cmp", "\\=", V0, ONE),)),
    (
        lit(("sub", "t", 1), V0, V1),
        (("cmp", "=", V0, ONE), ("cmp", "\\=", V1, TWO)),
    ),
}


def test_two_clause_program_produces_the_ten_negative_clauses():
    cp = compiled(TWO_CLAUSE_PROGRAM)
    got = clauses_of(cp, {"umbrella", "dual"})
    assert len(got) == 10
    assert set(got) == EXPECTED_DUALS


def test_positive_prefix_guards_each_negated_literal():
    # In the clause negating the second body literal, the first (positive)
    # literal is re-asserted before it so already-refuted branches are skipped.
    cp = compiled(TWO_CLAUSE_PROGRAM)
    got = clauses_of(cp, {"dual"})
    with_prefix = [
        body
        for head, body in got
        if head[0] == ("subbody", "p", 2) and len(body) == 2
    ]
    assert with_prefix == [(lit(("user", "q"), V0), lit(("user", "t"), V0, V1))]


def test_single_fact_dual():
    cp = compiled("q(1).")
    subs = clauses_of(cp, {"dual"})
    assert subs == [(lit(("sub", "q", 1), V0), (("cmp", "\\=", V0, ONE),))]


def test_undefined_predicate_negation_is_a_fact():
    cp = compiled("p :- q.")
    umbrellas = {
        head: body for head, body in clauses_of(cp, {"umbrella"})
    }
    assert umbrellas[lit(("umb", "q"))] == ()


def test_equality_constraint_negates_to_two_strict_pieces():
    cp = compiled("p(X) :- X .=. 3.")
    subs = sorted(clauses_of(cp, {"dual"}))
    three = ("c", Fraction(3))
    assert subs == [
        (lit(("sub", "p", 1), V0), (("cmp", ".<.", V0, three),)),
        (lit(("sub", "p", 1), V0), (("cmp", ".>.", V0, three),)),
    ]


def test_same_name_different_arities_get_distinct_negations():
    cp = compiled("p(a). p(a,b).")
    names = {name for name, _ in cp.rules}
    assert "not_p__1" in names and "not_p__2" in names
    assert cp.pred_info["not_p__1"].base == "p"
    assert cp.pred_info["not_p__2"].base == "p"
    assert cp.neg_of == {("p", 1): "not_p__1", ("p", 2): "not_p__2"}


def test_marker_flags_on_synthesized_predicates():
    cp = compiled(TWO_CLAUSE_PROGRAM)
    assert cp.pred_info["not_p"].kind == "umbrella"
    assert cp.pred_info["not_p"].marker
    assert cp.pred_info["not_p__1"].kind == "dual"
    assert cp.pred_info["not_p__1"].marker
    assert cp.pred_info["q"].kind == "user"
    assert not cp.pred_info["q"].marker


# -- global consistency rules -----------------------------------------------------


def test_program_without_denials_gets_a_trivial_check():
    cp = compiled(TWO_CLAUSE_PROGRAM)
    assert [r.body for r in cp.rules[("nmr_check", 0)]] == [()]
    assert not any(name.startswith("chk_") for name, _ in cp.rules)


def test_even_loop_needs_no_check():
    cp = compiled("p(X) :- not q(X). q(X) :- not p(X). q(b).")
    assert [r.body for r in cp.rules[("nmr_check", 0)]] == [()]


def test_denial_with_variable_compiles_to_a_universal_check():
    cp = compiled("p(X) :- q(X), not p(X). :- not s(1,X).")
    chks = clauses_of(cp, {"chk"})
    # The denial: one zero-argument check that wraps its variable itself.
    denial = [
        (h, b) for h, b in chks if len(h) == 1 and b and b[0][0] == "forall"
    ]
    assert denial == [
        (
            lit(("chk", 2)),
            (("forall", V0, lit(("user", "s"), ("c", Fraction(1)), V0)),),
        )
    ]
    # The odd loop: a one-argument check with the rule's dual pieces.
    loop = sorted((h, b) for h, b in chks if len(h) == 2)
    assert loop == [
        (lit(("chk", 1), V0), (lit(("umb", "q"), V0),)),
        (lit(("chk", 1), V0), (lit(("user", "q"), V0), lit(("user", "p"), V0))),
    ]
    # nmr_check conjoins both, wrapping the one-argument check universally.
    (nmr,) = cp.rules[("nmr_check", 0)]
    kinds = []
    for g in nmr.body:
        if isinstance(g, Forall):
            kinds.append(("forall", g.goal.pred))
        else:
            kinds.append(("call", g.pred))
    assert sorted(kinds) == [("call", "chk_2"), ("forall", "chk_1")]


def test_self_blocking_rule_checks_rederivation():
    cp = compiled("p(a) :- not p(b).")
    chks = set(clauses_of(cp, {"chk"}))
    a, b = ("c", "a"), ("c", "b")
    assert chks == {
        (lit(("chk", 1), V0), (("cmp", "\\=", V0, a),)),
        (lit(("chk", 1), V0), (("cmp", "=", V0, a), lit(("user", "p"), b))),
        (lit(("chk", 1), V0), (("cmp", "=", V0, a), lit(("user", "p"), V0))),
    }


def test_directly_self_negating_rule_keeps_one_check_clause():
    cp = compiled("p :- not p.")
    chks = clauses_of(cp, {"chk"})
    assert chks == [(lit(("chk", 1)), (lit(("user", "p")),))]


# -- bookkeeping -------------------------------------------------------------------


def test_source_rules_keep_one_entry_per_parsed_clause():
    prog = parse_program(TWO_CLAUSE_PROGRAM)
    cp = compiled(TWO_CLAUSE_PROGRAM)
    assert len(cp.source_rules) == len(prog.rules)
    for mine, original in zip(cp.source_rules, prog.rules):
        assert mine.head.key == original.head.key
        # The hidden prefix re-equates head variables with the original args.
        prefix = mine.body[: mine.hide_prefix]
        assert all(isinstance(g, CmpLit) and g.op == "=" for g in prefix)
        assert len(mine.body) == len(original.body) + mine.hide_prefix


def test_each_compiled_rule_is_built_once(monkeypatch):
    # Duals are named before any rule is built, so a dual or check rule is
    # built once, calls and all; a source rule is built a second time only
    # to make its negated goals call their duals.
    workloads = perfbench_module("workloads", monkeypatch)
    built = []

    class Counted(compiler.CompiledRule):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(compiler, "CompiledRule", Counted)
    for text in (TWO_CLAUSE_PROGRAM, workloads.wide(41).programs["family"]):
        built.clear()
        cp = compiled(text)
        rewritten = sum(
            any(isinstance(g, Lit) and g.neg for g in cr.body) for cr in cp.source_rules
        )
        assert 0 < len(built) <= (
            len(cp.source_rules) + len(cp.dual_rules) + len(cp.nmr_rules) + rewritten
        )


def test_head_normalization_hides_the_introduced_prefix():
    cp = compiled(TWO_CLAUSE_PROGRAM)
    by_body_len = {len(r.body): r for r in cp.rules[("p", 1)]}
    assert by_body_len[1].hide_prefix == 1  # p(0). became p(V) :- V=0.
    assert by_body_len[2].hide_prefix == 0  # the rule head was already general
    (t_fact,) = cp.rules[("t", 2)]
    assert t_fact.hide_prefix == 2


def test_compilation_is_deterministic():
    a = compiled(TWO_CLAUSE_PROGRAM)
    b = compiled(TWO_CLAUSE_PROGRAM)
    assert sorted(clauses_of(a, {"umbrella", "dual"})) == sorted(
        clauses_of(b, {"umbrella", "dual"})
    )
    assert sorted(a.rules) == sorted(b.rules)


def test_reserved_names_are_rejected():
    for text in [
        "not_p(a).",
        "nmr_check :- p.",
        "chk_1.",
        "p :- forall(x).",
        # Every shape of a generated name: p's sub-dual is not_p__1 and
        # chk_1's helper chk_1_body.
        "p(a). p__1(b).",
        "q :- p__2(a).",
        "r(a). s(a). :- r(X), not s(X). chk_1_body(c).",
        "chk_12x.",
    ]:
        with pytest.raises(CompileError):
            compiled(text)


def test_reserved_names_are_rejected_in_queries():
    cp = compiled("p(a).")
    x = fresh_var("X")
    for query in [
        parse_query("?- p(a), not_p(b)."),
        Query((Forall(x, Lit("nmr_check", (x,))),)),
    ]:
        with pytest.raises(CompileError):
            list(Engine(cp).run_query(query))
    with pytest.raises(CompileError):
        compiled("p(a). ?- forall(X, not_p(X)).")


def test_arity_spelling_keeps_duals_of_distinct_predicates_apart():
    # p/1's dual (not_p__1) and p_1/1's dual (not_p_1) must stay apart.
    assert answers("p(a). p(a,b). p_1(b).", "?- not p_1(b).") == []
    assert len(answers("p(a). p(a,b). p_1(b).", "?- not p_1(c).")) == 1

