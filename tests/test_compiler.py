"""Synthesis of the negative program: duals, umbrellas, and global checks."""

import dataclasses
import pickle
import re
import time
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scasp import compiler
from scasp.engine import Engine
from scasp.errors import CompileError
from scasp.parser import parse_program, parse_query
from scasp.terms import (
    CONSTRAINT_OPS, CmpLit, Const, Forall, Lit, Program, Query, Rule, Var, fresh_var,
)

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


def test_reserved_names_are_rejected_inside_forall_goals():
    # Only the API builds a forall goal; the name it hides is checked too.
    x = fresh_var("X")
    for program in [
        Program([Rule(Lit("p"), (Forall(x, Lit("not_q", (x,))),))]),
        Program([Rule(Lit("q", (x,)))], query=Query((Forall(x, Lit("chk_1", (x,))),))),
    ]:
        with pytest.raises(CompileError, match="is reserved"):
            compiler.compile_program(program)


def test_arity_spelling_keeps_duals_of_distinct_predicates_apart():
    # p/1's dual (not_p__1) and p_1/1's dual (not_p_1) must stay apart.
    assert answers("p(a). p(a,b). p_1(b).", "?- not p_1(b).") == []
    assert len(answers("p(a). p(a,b). p_1(b).", "?- not p_1(c).")) == 1



# -- the load records ----------------------------------------------------------

_HEAD, _BODY = Lit("p", (Var(1, "X"),)), (Lit("q", (Var(1, "X"),)),)

# (class, field values, another value for each field, defaults, fields left
# out of equality, whether assigning a field raises)
_RECORDS = [
    (compiler.CompiledRule, (_HEAD, _BODY, 1), (Lit("r"), (), 0),
     {"body": (), "hide_prefix": 0}, (), False),
    (compiler.PredInfo, ("dual", "p__1", True), ("user", "p", False), {}, (), False),
    (Rule, (_HEAD, _BODY, 3, 4, "a.pl"), (None, (), 5, 6, "b.pl"),
     {"body": (), "line": 0, "col": 0, "file": "<program>"}, ("file",), True),
]


@pytest.mark.parametrize("cls, values, others, defaults, ignored, frozen",
                         [pytest.param(*r, id=r[0].__name__) for r in _RECORDS])
def test_load_records_are_slotted_values(cls, values, others, defaults, ignored, frozen):
    record = cls(*values)
    assert not hasattr(record, "__dict__")
    if frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.body = ()
    fields = cls.__match_args__
    assert tuple(getattr(record, f) for f in fields) == values
    assert repr(record) == "%s(%s)" % (
        cls.__name__, ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    )
    twin = cls(*values)
    assert record == twin and hash(record) == hash(twin)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == repr(record)
    for i, f in enumerate(fields):
        changed = cls(*values[:i], others[i], *values[i + 1:])
        if f in ignored:
            assert changed == record and hash(changed) == hash(record)
        else:
            assert changed != record
    bare = cls(*values[: len(fields) - len(defaults)])
    assert {f: getattr(bare, f) for f in defaults} == defaults


# -- the dual's pieces ----------------------------------------------------------


def _positive_prefix(body, upto=None):
    """Positive user literals and comparisons before position upto."""
    stop = len(body) if upto is None else upto
    return [g for g in body[:stop] if isinstance(g, CmpLit) or (isinstance(g, Lit) and not g.neg)]


def _clause_pieces_by_refiltering(body, neg_of, last=None):
    """Reference for compiler._clause_pieces: the positive prefix of each
    goal filtered from the body anew."""
    pieces = []
    for j, goal in enumerate(body):
        if isinstance(goal, Lit):
            alts = [Lit(goal.pred, goal.args) if goal.neg else Lit(neg_of[goal.key], goal.args)]
        else:
            alts = [CmpLit(op, goal.lhs, goal.rhs) for op in compiler._DUAL_OP[goal.op]]
        pieces += [_positive_prefix(body, j) + [alt] for alt in alts]
    if last is not None:
        pieces.append(_positive_prefix(body) + [last])
    return pieces


_PIECE_VARS = tuple(Var(i, n) for i, n in enumerate("XYZ", 1))
_PIECE_TERMS = st.sampled_from(_PIECE_VARS + (Const("a"), Const(Fraction(2))))
_BODY_GOALS = st.one_of(
    st.builds(lambda p, args, neg: Lit(p, tuple(args), neg),
              st.sampled_from(("q", "r")), st.lists(_PIECE_TERMS, max_size=2), st.booleans()),
    st.builds(CmpLit, st.sampled_from(sorted(compiler._DUAL_OP)), _PIECE_TERMS, _PIECE_TERMS),
)
_EVERY_OP_BODY = [Lit("q", (_PIECE_VARS[0],)), Lit("r", (), True)] + [
    CmpLit(op, _PIECE_VARS[0], _PIECE_VARS[1]) for op in CONSTRAINT_OPS
]


@settings(max_examples=300, deadline=None)
@given(st.lists(_BODY_GOALS, max_size=8), st.booleans())
@example(_EVERY_OP_BODY, True)
def test_one_pass_pieces_equal_the_refiltered_prefixes(body, with_last):
    assert sorted(compiler._DUAL_OP) == sorted(CONSTRAINT_OPS)
    neg_of = {(p, n): f"not_{p}__{n}" for p in ("q", "r") for n in range(3)}
    last = Lit("p", _PIECE_VARS[:1]) if with_last else None
    got = compiler._clause_pieces(tuple(body), neg_of, last)
    assert all(isinstance(piece, tuple) for piece in got)
    assert [list(piece) for piece in got] == _clause_pieces_by_refiltering(body, neg_of, last)


# -- odd loops ------------------------------------------------------------------


def _odd_loop_by_search(adj, neg_key, head_key):
    """Reference for the odd-loop test: can neg_key reach head_key through
    an even number of negations?  One breadth-first search per goal."""
    if neg_key == head_key:
        return True
    seen = {(neg_key, 0)}
    queue = deque(seen)
    while queue:
        key, par = queue.popleft()
        for nxt, edge in adj.get(key, ()):
            state = (nxt, (par + edge) % 2)
            if state in seen:
                continue
            if state == (head_key, 0):
                return True
            seen.add(state)
            queue.append(state)
    return False


def _checked_rules(rules):
    """Indexes of the rules generate_nmr_checks makes a check for, in order.
    Each rule i ends with a call of its own tag t<i>, which only its check's
    pieces negate."""
    neg_of = {g.key: "not_" + g.pred for r in rules for g in (r.head, *r.body)}
    adj = compiler._dependency_graph(rules)
    out, _ = compiler.generate_nmr_checks(rules, adj, neg_of)
    tags = (g.pred for cr in out for g in cr.body if isinstance(g, Lit))
    return list(dict.fromkeys(int(p[5:]) for p in tags if p.startswith("not_t"))), adj


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.integers(0, 4), st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=3),
), max_size=8))
def test_one_component_pass_finds_the_odd_loops_a_search_per_goal_finds(spec):
    rules = [
        compiler.CompiledRule(
            Lit(f"p{h}"), tuple(Lit(f"p{g}", (), neg) for g, neg in body) + (Lit(f"t{i}"),)
        )
        for i, (h, body) in enumerate(spec)
    ]
    checked, adj = _checked_rules(rules)
    assert checked == [
        i for i, r in enumerate(rules)
        if any(g.neg and _odd_loop_by_search(adj, g.key, r.head.key) for g in r.body)
    ]


@pytest.mark.parametrize("n, checks", [(2_000, 0), (2_001, 2_001)])
def test_a_negation_cycle_is_an_odd_loop_exactly_when_its_length_is_odd(n, checks):
    cp = compiled("".join(f"p{i} :- not p{(i + 1) % n}.\n" for i in range(n)))
    assert sum(info.kind == "chk" for info in cp.pred_info.values()) == checks


def test_a_long_negated_chain_compiles_in_one_graph_pass():
    # One search per negated goal took 5.9 s at 4,000 rules, growing 4x per
    # doubling; one component pass takes a fraction of a second at 10,000.
    program = parse_program("".join(f"p{i} :- not p{i + 1}.\n" for i in range(10_000)))
    start = time.perf_counter()
    cp = compiler.compile_program(program)
    assert time.perf_counter() - start < 10.0
    assert not any(info.kind == "chk" for info in cp.pred_info.values())
