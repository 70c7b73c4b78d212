"""Compilation of programs into an executable rule database.

Three passes:

1. Head normalization: every rule head gets distinct fresh variables, with
   the original argument terms re-established by prepended `=` atoms.  The
   count of prepended atoms is kept so justification trees can omit them.

2. Dual synthesis: for every predicate an umbrella rule
   `not_p(V...) :- not_p__1(V...), ..., not_p__k(V...)` plus one sub-rule
   per clause.  A clause's dual has one alternative per body literal: the
   positive prefix of the body up to that literal, then the literal's
   negation (comparison operators flip; `.=.` splits into `.<.` and `.>.`).
   Variables appearing only in a clause body are universally quantified
   inside the sub-rule through a `..._body` helper predicate.  A name used
   at several arities gets its arity in the generated names (`not_p__2`).

3. Global consistency checks: denials and rules that can reach their own
   head through an odd number of negations become `chk_i` predicates built
   the same way as duals (plus a re-derivation alternative for headed
   rules), all called from `nmr_check`, which is appended to every query.

After compilation every body literal is a positive call: a negated user
literal calls its dual, found in `CompiledProgram.neg_of`.  The rules are
indexed by predicate and, for user predicates, by the first argument of
each source head (`CompiledProgram.first_arg`).  `synth_name`
spells every generated name and returns its `PredInfo`, which is how the
rest of the system tells a dual from a user predicate and prints it as
`not <base>`; the reserved-name check rejects every user name that one of
its shapes could take.
"""

from __future__ import annotations

import re
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .errors import CompileError
from .linear import OP_TEXT, complement
from .terms import (
    ARITH_OPS,
    CmpLit,
    Const,
    Forall,
    Lit,
    Program,
    Query,
    Rule,
    Struct,
    Var,
    format_goal,
    format_rule,
    fresh_var,
    goal_vars,
)

__all__ = [
    "CompiledRule",
    "CompiledProgram",
    "PredInfo",
    "compile_program",
    "dualize_predicate",
    "generate_nmr_checks",
    "rewrite_goal",
    "check_query",
    "first_arg_key",
    "dump_compiled",
    "RESERVED_NOTE",
]

RESERVED_NOTE = (
    "names 'nmr_check', 'forall' and 'not', the prefixes 'not_' and "
    "'chk_<n>', and '__' anywhere in a name are reserved"
)

# The comparisons whose disjunction negates each comparison.
_DUAL_OP = {"=": ("\\=",), "\\=": ("=",)} | {
    text: tuple(OP_TEXT[c] for c in complement(op)) for op, text in OP_TEXT.items()
}


@dataclass(frozen=True)
class CompiledRule:
    head: Lit
    body: tuple = ()
    hide_prefix: int = 0  # leading unification atoms hidden from justifications


@dataclass(frozen=True)
class PredInfo:
    kind: str  # 'user' | 'umbrella' | 'dual' | 'chk' | 'nmr'
    base: str  # display name without the negation wrapper
    marker: bool  # displayed behind 'not'; a negation boundary on the call path


@dataclass
class CompiledProgram:
    rules: dict = field(default_factory=dict)  # (name, arity) -> [CompiledRule]
    source_rules: list = field(default_factory=list)
    dual_rules: list = field(default_factory=list)
    nmr_rules: list = field(default_factory=list)
    pred_info: dict = field(default_factory=dict)
    neg_of: dict = field(default_factory=dict)  # (name, arity) -> dual's name
    # First-argument index of the user predicates that have a clause whose
    # head's first argument has a first_arg_key: (name, arity) ->
    # (ClauseRuns {key: that key's clauses and the wildcard clauses},
    # wildcard clauses), tuples of rules from `rules` in source order.  A
    # call whose first argument has a key needs only the clauses listed
    # under it.
    first_arg: dict = field(default_factory=dict)
    shows: set = field(default_factory=set)
    query: Optional[Query] = None


def synth_name(kind, user="", arity=None, index=0, body=False):
    """Name and PredInfo of a generated predicate; the only place one is spelled.

    'umbrella' is the negation of user predicate `user` (not_p) and 'dual'
    its sub-rule for clause `index` (not_p__1); arity is passed only when
    the user name has several arities (not_p__2, not_p__2__1).  'chk' is
    the check of the index-th constrained rule (chk_1) and 'nmr' the rule
    calling every check.  body names the helper quantifying a rule's body
    variables (not_p__1_body, chk_1_body).
    """
    if kind == "nmr":
        base = "nmr_check"
    elif kind == "chk":
        base = f"chk_{index}"
    else:
        base = user if arity is None else f"{user}__{arity}"
        if kind == "dual":
            base += f"__{index}"
    if body:
        base += "_body"
    neg = kind in ("umbrella", "dual")
    info = PredInfo(kind, user if kind == "umbrella" else base, neg)
    return ("not_" + base if neg else base), info


def _is_reserved(name: str) -> bool:
    """Could name clash with a shape synth_name emits?"""
    return (
        name in ("nmr_check", "forall", "not")
        or name.startswith("not_")
        or "__" in name
        or re.match(r"chk_\d", name) is not None
    )


def _check_goals(goals, line, col):
    """Reject goals (forall bodies included) that name a generated predicate."""
    for g in goals:
        while isinstance(g, Forall):
            g = g.goal
        if isinstance(g, Lit) and _is_reserved(g.pred):
            raise CompileError(
                f"predicate name {g.pred!r} is reserved ({RESERVED_NOTE})", line, col
            )


def _check_reserved(program: Program):
    for rule in program.rules:
        heads = () if rule.head is None else (rule.head,)
        _check_goals(heads + rule.body, rule.line, rule.col)
    if program.query is not None:
        check_query(program.query)


def check_query(query: Query):
    """Reject a query that calls a generated predicate (a dual, a check)."""
    _check_goals(query.goals, query.line, query.col)


def normalize_rule(rule: Rule):
    """Give the head distinct fresh variables; returns (rule, hidden count)."""
    if rule.head is None or not rule.head.args:
        return rule, 0
    seen = set()
    new_args = []
    prefix = []
    for arg in rule.head.args:
        if isinstance(arg, Var) and arg.id not in seen:
            seen.add(arg.id)
            new_args.append(arg)
        else:
            v = fresh_var("_")
            prefix.append(CmpLit("=", v, arg))
            new_args.append(v)
    if not prefix:
        return rule, 0
    head = Lit(rule.head.pred, tuple(new_args))
    return Rule(head, tuple(prefix) + rule.body, rule.line, rule.col), len(prefix)


def _positive_prefix(body, upto=None):
    """Positive user literals and comparisons before position upto."""
    stop = len(body) if upto is None else upto
    return [g for g in body[:stop] if isinstance(g, CmpLit) or (isinstance(g, Lit) and not g.neg)]


def _dual_goal(goal):
    """The alternatives whose disjunction negates one body goal."""
    if isinstance(goal, Lit):
        return [Lit(goal.pred, goal.args, not goal.neg)]
    return [CmpLit(op, goal.lhs, goal.rhs) for op in _DUAL_OP[goal.op]]


def _wrap_foralls(vs, goal):
    for v in reversed(vs):
        goal = Forall(v, goal)
    return goal


def _clause_pieces(body):
    """One negated alternative per body goal, each with its positive prefix."""
    pieces = []
    for j, goal in enumerate(body):
        prefix = _positive_prefix(body, j)
        for alt in _dual_goal(goal):
            pieces.append(prefix + [alt])
    return pieces


def _emit_pieces(spell, head_vars, body_vars, pieces, out, infos, allow_inline=False):
    """Emit clauses for a dual-style predicate, quantifying body variables.

    spell(body=False) is the synth_name of the predicate (or, with
    body=True, of its helper); names and infos go into infos.  head_vars
    are the predicate's arguments; body_vars get wrapped in forall() --
    through the helper unless a lone single-literal alternative can sit in
    the forall directly.
    """
    head_name, infos[head_name] = spell()
    head = Lit(head_name, tuple(head_vars))
    if not body_vars:
        for piece in pieces:
            out.append(CompiledRule(head, tuple(piece)))
        return
    if allow_inline and len(pieces) == 1 and len(pieces[0]) == 1:
        out.append(CompiledRule(head, (_wrap_foralls(body_vars, pieces[0][0]),)))
        return
    body_name, infos[body_name] = spell(body=True)
    inner = Lit(body_name, tuple(head_vars) + tuple(body_vars))
    out.append(CompiledRule(head, (_wrap_foralls(body_vars, inner),)))
    for piece in pieces:
        out.append(CompiledRule(inner, tuple(piece)))


def _clause_body_vars(head_vars, body):
    found, seen = [], {v.id for v in head_vars}
    for goal in body:
        goal_vars(goal, found, seen)
    return found


def dualize_predicate(name, arity, clauses, multi=False):
    """Dual rules for one predicate: an umbrella plus per-clause sub-duals.

    clauses are normalized rules; multi says the name has several arities.
    Returns (rules, {generated name: PredInfo}) with the umbrella rule
    first; a predicate without clauses gets an umbrella fact.
    """
    spelled = arity if multi else None
    out = []
    infos = {}
    umbrella_vars = [fresh_var("_") for _ in range(arity)]
    umbrella, infos[umbrella] = synth_name("umbrella", name, spelled)
    umbrella_head = Lit(umbrella, tuple(umbrella_vars))
    spells = [partial(synth_name, "dual", name, spelled, i) for i in range(1, len(clauses) + 1)]
    umbrella_body = tuple(Lit(spell()[0], tuple(umbrella_vars)) for spell in spells)
    out.append(CompiledRule(umbrella_head, umbrella_body))
    for spell, rule in zip(spells, clauses):
        head_vars = list(rule.head.args)  # distinct vars after normalization
        body_vars = _clause_body_vars(head_vars, rule.body)
        pieces = _clause_pieces(rule.body)
        _emit_pieces(spell, head_vars, body_vars, pieces, out, infos)
    return out, infos


def _dependency_graph(rules):
    adj = {}
    for rule in rules:
        if rule.head is None:
            continue
        for goal in rule.body:
            if isinstance(goal, Lit):
                adj.setdefault(rule.head.key, []).append((goal.key, 1 if goal.neg else 0))
    return adj


def _odd_loop(adj, neg_key, head_key) -> bool:
    """Can neg_key reach head_key through an even number of negations?"""
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


def generate_nmr_checks(normalized, adj):
    """chk_i rules for denials and odd-loop rules, plus the nmr_check rule.

    Returns (rules, {generated name: PredInfo}).
    """
    out = []
    infos = {}
    chk_calls = []
    idx = 0
    for rule in normalized:
        if rule.head is None:
            constrained = True
        else:
            constrained = any(
                isinstance(g, Lit) and g.neg and _odd_loop(adj, g.key, rule.head.key)
                for g in rule.body
            )
        if not constrained:
            continue
        idx += 1
        spell = partial(synth_name, "chk", index=idx)
        head_vars = list(rule.head.args) if rule.head is not None else []
        body_vars = _clause_body_vars(head_vars, rule.body)
        pieces = _clause_pieces(rule.body)
        if rule.head is not None:
            rederive = not any(
                isinstance(g, Lit)
                and g.neg
                and g.key == rule.head.key
                and g.args == rule.head.args
                for g in rule.body
            )
            if rederive:
                pieces.append(_positive_prefix(rule.body) + [Lit(rule.head.pred, rule.head.args)])
        _emit_pieces(spell, head_vars, body_vars, pieces, out, infos, allow_inline=True)
        call_vars = [fresh_var("_") for _ in head_vars]
        chk_calls.append(_wrap_foralls(call_vars, Lit(spell()[0], tuple(call_vars))))
    nmr, infos[nmr] = synth_name("nmr")
    out.append(CompiledRule(Lit(nmr), tuple(chk_calls)))
    return out, infos


def compile_program(program: Program) -> CompiledProgram:
    """Compile a parsed program into the executable rule database."""
    _check_reserved(program)
    cp = CompiledProgram(shows=set(program.shows), query=program.query)

    normalized = []
    for rule in program.rules:
        nrule, hidden = normalize_rule(rule)
        normalized.append((nrule, hidden))

    # Every predicate mentioned anywhere needs a dual, including undefined
    # ones (their negation simply holds).
    pred_keys = []
    seen_keys = set()

    def note(key):
        if key not in seen_keys:
            seen_keys.add(key)
            pred_keys.append(key)

    for nrule, _ in normalized:
        if nrule.head is not None:
            note(nrule.head.key)
        for g in nrule.body:
            if isinstance(g, Lit):
                note(g.key)
    if program.query is not None:
        for g in program.query.goals:
            if isinstance(g, Lit):
                note(g.key)

    arities = Counter(name for name, _ in pred_keys)
    for name, _ in pred_keys:
        cp.pred_info.setdefault(name, PredInfo("user", name, False))

    clauses_of = {}
    for nrule, hidden in normalized:
        if nrule.head is not None:
            clauses_of.setdefault(nrule.head.key, []).append(nrule)
        cp.source_rules.append(CompiledRule(nrule.head, nrule.body, hidden))

    # Dual rules.
    for key in pred_keys:
        name, ar = key
        rules, infos = dualize_predicate(name, ar, clauses_of.get(key, []), arities[name] > 1)
        cp.dual_rules.extend(rules)
        cp.pred_info.update(infos)
        cp.neg_of[key] = rules[0].head.pred

    # Consistency checks.
    adj = _dependency_graph([r for r, _ in normalized])
    cp.nmr_rules, infos = generate_nmr_checks([r for r, _ in normalized], adj)
    cp.pred_info.update(infos)

    # Rewrite all bodies to positive calls and index the database.
    for cr in cp.source_rules + cp.dual_rules + cp.nmr_rules:
        if cr.head is not None:
            body = tuple(rewrite_goal(g, cp.neg_of) for g in cr.body)
            cp.rules.setdefault(cr.head.key, []).append(
                CompiledRule(cr.head, body, cr.hide_prefix)
            )
    # Generated heads have only variable arguments, and no generated name is
    # a user name, so a user predicate's rules are its source clauses in
    # order and only they can carry a first-argument key.
    keys_of = {}
    for rule in program.rules:
        if rule.head is not None:
            first = rule.head.args[0] if rule.head.args else None
            keys_of.setdefault(rule.head.key, []).append(first_arg_key(first))
    for pred, keys in keys_of.items():
        if any(k is not None for k in keys):
            cp.first_arg[pred] = _first_arg_entry(cp.rules[pred], keys)
    return cp


def first_arg_key(t):
    """Clause-selection key of a head's (or a dereferenced goal's) first
    argument: a constant is its own key, a non-arithmetic structure keys on
    (functor, arity); None -- a variable, an arithmetic term -- matches any."""
    if isinstance(t, Const):
        return t
    if isinstance(t, Struct) and not (t.functor in ARITH_OPS and len(t.args) == 2):
        return t.key
    return None


class ClauseRuns(Mapping):
    """First-argument key -> the clauses a call with that key must try.

    As a WAM's switch instructions do, the clause list is cut into maximal
    runs of keyed clauses and of wildcard clauses, and each clause is stored
    once: a key's clauses are, run by run in source order, its own clauses
    in a keyed run and the whole of a wildcard run.  A key that no clause
    has is not in the mapping (its clauses are the wildcards alone).
    """

    __slots__ = ("runs",)

    def __init__(self, runs):
        self.runs = runs  # tuple of {key: clauses} and (wildcard clauses)

    def get(self, key, default=None):
        # The primitive lookup, not Mapping.get's: a call whose key no clause
        # has is common, and should not raise and catch a KeyError.
        runs = self.runs
        if len(runs) == 1:
            return runs[0].get(key, default)  # keyed clauses only: one dict hit
        out, hit = [], False
        for run in runs:
            if isinstance(run, dict):
                own = run.get(key)
                if own is not None:
                    out.extend(own)
                    hit = True
            else:
                out.extend(run)
        return tuple(out) if hit else default

    def __getitem__(self, key):
        got = self.get(key)
        if got is None:
            raise KeyError(key)
        return got

    def __iter__(self):
        return iter(dict.fromkeys(k for run in self.runs if isinstance(run, dict) for k in run))

    def __len__(self):
        return sum(1 for _ in self)


def _first_arg_entry(clauses, keys):
    """(ClauseRuns of the clauses, the wildcard clauses), in clause order."""
    runs = []
    for cr, k in zip(clauses, keys):
        if k is None:
            if not runs or isinstance(runs[-1], dict):
                runs.append([])
            runs[-1].append(cr)
        else:
            if not runs or not isinstance(runs[-1], dict):
                runs.append({})
            runs[-1].setdefault(k, []).append(cr)
    runs = tuple(
        {k: tuple(v) for k, v in run.items()} if isinstance(run, dict) else tuple(run)
        for run in runs
    )
    wild = tuple(cr for run in runs if not isinstance(run, dict) for cr in run)
    return ClauseRuns(runs), wild


def rewrite_goal(goal, neg_of):
    """Replace negated literals with calls to their duals (neg_of maps a
    literal's (name, arity) to its dual); one with no dual stays negated."""
    if isinstance(goal, Lit):
        dual = neg_of.get(goal.key) if goal.neg else None
        return goal if dual is None else Lit(dual, goal.args)
    if isinstance(goal, Forall):
        return Forall(goal.var, rewrite_goal(goal.goal, neg_of))
    return goal


def rewrite_query(query: Query, cp: CompiledProgram) -> Query:
    """Rewrite a query's negated goals against a compiled program; a query
    naming a generated predicate raises the reserved-name CompileError."""
    check_query(query)
    return Query(tuple(rewrite_goal(g, cp.neg_of) for g in query.goals), query.vars)


# ---------------------------------------------------------------------------
# Dumping.  The output parses back to an equivalent program: source rules and
# #show directives verbatim, generated rules as comments.


def display_rule(cr: CompiledRule, pred_info) -> str:
    """A rule with its variables lettered A, B, ... by first occurrence."""
    found, seen = [], set()
    for g in ((cr.head,) if cr.head is not None else ()) + cr.body:
        goal_vars(g, found, seen)
    names = {v.id: chr(65 + i) if i < 26 else f"V{i + 1}" for i, v in enumerate(found)}
    return format_rule(cr, names, pred_info)


def display_query(query: Query) -> str:
    """A query as written, its anonymous variables as '_'."""
    anon = {v.id: "_" for g in query.goals for v in goal_vars(g) if v.name == "_"}
    return "?- %s." % ", ".join(format_goal(g, anon) for g in query.goals)


def dump_compiled(cp: CompiledProgram) -> str:
    """Text form of a compiled program; feeding it back reproduces itself."""
    lines = []
    for cr in cp.source_rules:
        lines.append(display_rule(cr, cp.pred_info))
    for name, ar in sorted(cp.shows):
        lines.append(f"#show {name}/{ar}.")
    if cp.query is not None:
        lines.append(display_query(cp.query))
    lines.append("")
    lines.append("% dual rules:")
    for cr in cp.dual_rules:
        lines.append("% " + display_rule(cr, cp.pred_info))
    lines.append("")
    lines.append("% global consistency checks:")
    for cr in cp.nmr_rules:
        lines.append("% " + display_rule(cr, cp.pred_info))
    return "\n".join(lines) + "\n"
