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
   One pass over the body makes them all, growing the prefix as it goes.
   Variables appearing only in a clause body are universally quantified
   inside the sub-rule through a `..._body` helper predicate.  A name used
   at several arities gets its arity in the generated names (`not_p__2`).

3. Global consistency checks: denials and rules that can reach their own
   head through an odd number of negations become `chk_i` predicates built
   the same way as duals (plus a re-derivation alternative for headed
   rules), all called from `nmr_check`, which is appended to every query.
   One pass of Tarjan's algorithm over the (predicate, parity) graph
   finds the odd loops: a rule for h with goal `not n` is in one when
   (n, 0) and (h, 0) share a strongly connected component.

Every predicate's dual is named in `CompiledProgram.neg_of` before any rule
is built, so each rule is built once and every body literal of the
executable rules is a positive call: a negated user literal calls its
dual.  `source_rules` keeps the rules as written, for dumping; one with a
negated goal is indexed as a copy calling the duals.  The rules are
indexed by predicate, each generated predicate where it is defined, and,
for user predicates, by the first argument of each source head
(`CompiledProgram.first_arg`).  `synth_name` spells every generated name
and returns its `PredInfo`, which is how the rest of the system tells a
dual from a user predicate and prints it as `not <base>`; the
reserved-name check, one precompiled pattern, rejects every user name
that one of its shapes could take.  `CompiledRule` and `PredInfo`, made
a few times per clause, are slotted dataclasses and, like terms,
immutable by contract: a frozen dataclass pays a setattr call per field.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
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
    collector_paused,
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


@dataclass(slots=True, unsafe_hash=True)
class CompiledRule:
    head: Lit
    body: tuple = ()
    hide_prefix: int = 0  # leading unification atoms hidden from justifications


@dataclass(slots=True, unsafe_hash=True)
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


# Every name a shape synth_name emits could take: RESERVED_NOTE's list.
_RESERVED = re.compile(r"\A(?:(?:nmr_check|forall|not)\Z|not_|chk_\d)|__")


def _is_reserved(name: str) -> bool:
    """Could name clash with a shape synth_name emits?"""
    return _RESERVED.search(name) is not None


def _check_goals(goals, source, free):
    """Reject goals (forall bodies included) that name a generated predicate,
    at the position of source (a rule or query); free holds names already
    found not to, and gains each name checked."""
    for g in goals:
        while isinstance(g, Forall):
            g = g.goal
        if isinstance(g, Lit) and g.pred not in free:
            if _is_reserved(g.pred):
                raise CompileError(
                    f"predicate name {g.pred!r} is reserved ({RESERVED_NOTE})",
                    source.line, source.col, source.file,
                )
            free.add(g.pred)


def _check_reserved(program: Program):
    free = set()
    for rule in program.rules:
        heads = () if rule.head is None else (rule.head,)
        _check_goals(heads + rule.body, rule, free)
    if program.query is not None:
        _check_goals(program.query.goals, program.query, free)


def check_query(query: Query):
    """Reject a query that calls a generated predicate (a dual, a check)."""
    _check_goals(query.goals, query, set())


def normalize_rule(rule: Rule) -> CompiledRule:
    """The rule with distinct fresh variables as head arguments, re-equated
    with the original arguments by leading `=` goals that it hides."""
    seen, new_args, prefix = set(), [], []
    for arg in rule.head.args if rule.head is not None else ():
        if isinstance(arg, Var) and arg.id not in seen:
            seen.add(arg.id)
            new_args.append(arg)
        else:
            v = fresh_var("_")
            prefix.append(CmpLit("=", v, arg))
            new_args.append(v)
    head = Lit(rule.head.pred, tuple(new_args)) if prefix else rule.head
    return CompiledRule(head, tuple(prefix) + rule.body, len(prefix))


def _clause_pieces(body, neg_of, last=None):
    """A clause's dual alternatives, as goal tuples, in one pass: each body
    goal negated after the positive goals before it (a negated call names
    its dual in neg_of; a comparison gives one piece per complementary
    operator), then, if last is given, every positive goal followed by it."""
    pieces, prefix = [], ()
    for goal in body:
        if isinstance(goal, Lit):
            if goal.neg:
                pieces.append(prefix + (Lit(goal.pred, goal.args),))
                continue
            pieces.append(prefix + (Lit(neg_of[goal.key], goal.args),))
        else:
            pieces.extend(prefix + (CmpLit(op, goal.lhs, goal.rhs),) for op in _DUAL_OP[goal.op])
        prefix += (goal,)
    if last is not None:
        pieces.append(prefix + (last,))
    return pieces


def _wrap_foralls(vs, goal):
    for v in reversed(vs):
        goal = Forall(v, goal)
    return goal


def _define(cp, out, head, bodies):
    """Add a generated predicate's rules, head with each of bodies, to out
    and to cp.rules: a generated predicate is defined in one place.  One
    without bodies (the sub-dual of a fact with no arguments) gets no
    entry."""
    if bodies:
        rules = cp.rules[head.key] = [CompiledRule(head, body) for body in bodies]
        out.extend(rules)


def _define_quantified(cp, out, head, body_vars, pieces, helper):
    """Define head by pieces with body_vars universally quantified: head
    calls the helper predicate that helper (a synth_name pair) names inside
    forall()s, and the helper has one rule per piece."""
    body_name, cp.pred_info[body_name] = helper
    inner = Lit(body_name, head.args + tuple(body_vars))
    _define(cp, out, head, [(_wrap_foralls(body_vars, inner),)])
    _define(cp, out, inner, pieces)


def _clause_body_vars(head_vars, body):
    found, seen = [], {v.id for v in head_vars}
    for goal in body:
        goal_vars(goal, found, seen)
    return found


def _dualize(cp, key, clauses, spelled):
    """Add the dual rules of predicate key, with normalized clauses, to cp:
    the umbrella, then each clause's sub-dual; spelled is the arity to put
    in the generated names, or None."""
    name, arity = key
    umbrella_vars = tuple([fresh_var("_") for _ in range(arity)])
    subs = [synth_name("dual", name, spelled, i) for i in range(1, len(clauses) + 1)]
    calls = tuple([Lit(sub, umbrella_vars) for sub, _ in subs])
    _define(cp, cp.dual_rules, Lit(cp.neg_of[key], umbrella_vars), [calls])
    for i, (rule, (sub, info)) in enumerate(zip(clauses, subs), 1):
        cp.pred_info[sub] = info
        head = Lit(sub, rule.head.args)  # distinct vars after normalization
        body_vars = _clause_body_vars(head.args, rule.body)
        pieces = _clause_pieces(rule.body, cp.neg_of)
        if body_vars:
            helper = synth_name("dual", name, spelled, i, body=True)
            _define_quantified(cp, cp.dual_rules, head, body_vars, pieces, helper)
        else:
            _define(cp, cp.dual_rules, head, pieces)


def dualize_predicate(key, clauses, neg_of, multi=False):
    """Dual rules for one predicate: an umbrella plus per-clause sub-duals.

    clauses are normalized rules; neg_of names the umbrella of every
    predicate they call, this one's included, and each negated call the
    rules make calls it; multi says the name has several arities.  Returns
    (rules, {sub-dual name: PredInfo}) with the umbrella rule first; a
    predicate without clauses gets an umbrella fact.
    """
    cp = CompiledProgram(neg_of=neg_of)
    _dualize(cp, key, clauses, key[1] if multi else None)
    return cp.dual_rules, cp.pred_info


def _dependency_graph(rules):
    adj = {}
    for rule in rules:
        if rule.head is None:
            continue
        for goal in rule.body:
            if isinstance(goal, Lit):
                adj.setdefault(rule.head.key, []).append((goal.key, 1 if goal.neg else 0))
    return adj


def _components(adj, roots):
    """Strongly connected components of the graph on (predicate, parity)
    nodes that adj spells, over the nodes the roots reach: node -> its
    component's root.  An edge (p, a) -> (q, a xor 1 for a negated call, a
    otherwise) stands for each call of q in a rule for p.  Tarjan's
    algorithm (SIAM J. Comput. 1972), with an explicit stack."""

    def successors(node):
        key, parity = node
        return ((nxt, parity ^ neg) for nxt, neg in adj.get(key, ()))

    num, low, comp, open_nodes = {}, {}, {}, []
    for root in roots:
        if root in num:
            continue
        num[root] = low[root] = len(num)
        open_nodes.append(root)
        path = [(root, successors(root))]
        while path:
            node, todo = path[-1]
            for nxt in todo:
                if nxt not in num:
                    num[nxt] = low[nxt] = len(num)
                    open_nodes.append(nxt)
                    path.append((nxt, successors(nxt)))
                    break
                if nxt not in comp:  # open: in the component being built
                    low[node] = min(low[node], num[nxt])
            else:
                path.pop()
                if path:
                    up = path[-1][0]
                    low[up] = min(low[up], low[node])
                if low[node] == num[node]:
                    while True:
                        done = open_nodes.pop()
                        comp[done] = node
                        if done == node:
                            break
    return comp


def _nmr_checks(cp, normalized, adj):
    """Add to cp the chk_i rules for denials and odd-loop rules, and the
    nmr_check rule calling them all.

    A rule for h with a negated call of n is in an odd loop when n can
    reach h through an even number of negations: when (n, 0) reaches
    (h, 0), which holds exactly when the two share a component (n = h
    included).  Flipping every parity maps the graph onto itself, so such
    a path has a twin from (n, 1) to (h, 1), and the rule's own edges
    (h, 0) -> (n, 1) and (h, 1) -> (n, 0) close the two into a cycle.
    """
    comp = _components(adj, [
        (g.key, 0)
        for rule in normalized if rule.head is not None
        for g in rule.body if isinstance(g, Lit) and g.neg
    ])
    chk_calls = []
    for rule in normalized:
        head = rule.head
        if head is not None and not any(
            isinstance(g, Lit) and g.neg and comp[(g.key, 0)] == comp.get((head.key, 0))
            for g in rule.body
        ):
            continue
        idx = len(chk_calls) + 1
        head_vars = () if head is None else head.args
        rederive = head is not None and not any(
            isinstance(g, Lit) and g.neg and g.key == head.key and g.args == head.args
            for g in rule.body
        )
        pieces = _clause_pieces(rule.body, cp.neg_of, head if rederive else None)
        body_vars = _clause_body_vars(head_vars, rule.body)
        chk, cp.pred_info[chk] = synth_name("chk", index=idx)
        chk_head = Lit(chk, head_vars)
        if not body_vars:
            _define(cp, cp.nmr_rules, chk_head, pieces)
        elif len(pieces) == 1 and len(pieces[0]) == 1:
            # A lone single-goal alternative sits in the forall directly.
            _define(cp, cp.nmr_rules, chk_head, [(_wrap_foralls(body_vars, pieces[0][0]),)])
        else:
            helper = synth_name("chk", index=idx, body=True)
            _define_quantified(cp, cp.nmr_rules, chk_head, body_vars, pieces, helper)
        call_vars = tuple(fresh_var("_") for _ in head_vars)
        chk_calls.append(_wrap_foralls(call_vars, Lit(chk, call_vars)))
    nmr, cp.pred_info[nmr] = synth_name("nmr")
    _define(cp, cp.nmr_rules, Lit(nmr), [tuple(chk_calls)])


def generate_nmr_checks(normalized, adj, neg_of):
    """chk_i rules for denials and odd-loop rules, plus the nmr_check rule;
    adj is the rules' dependency graph, and a negated call in them names
    its dual in neg_of.

    Returns (rules, {generated name: PredInfo}).
    """
    cp = CompiledProgram(neg_of=neg_of)
    _nmr_checks(cp, normalized, adj)
    return cp.nmr_rules, cp.pred_info


@collector_paused
def compile_program(program: Program) -> CompiledProgram:
    """Compile a parsed program into the executable rule database."""
    _check_reserved(program)
    cp = CompiledProgram(shows=set(program.shows), query=program.query)
    cp.source_rules = normalized = [normalize_rule(rule) for rule in program.rules]

    # Every predicate mentioned anywhere needs a dual, including undefined
    # ones (their negation simply holds): its keys in order of first mention.
    pred_keys, clauses_of, heads_of = {}, {}, {}
    for rule, cr in zip(program.rules, normalized):
        head = rule.head
        if head is not None:
            pred_keys[head.key] = None
            if head.key in clauses_of:
                clauses_of[head.key].append(cr)
                heads_of[head.key].append(head)
            else:
                clauses_of[head.key], heads_of[head.key] = [cr], [head]
        for g in cr.body:
            if isinstance(g, Lit):
                pred_keys[g.key] = None
    if program.query is not None:
        for g in program.query.goals:
            if isinstance(g, Lit):
                pred_keys[g.key] = None

    # Each dual is named before any rule is built, so every rule is built
    # once, its negated calls naming duals.
    arities = Counter(name for name, _ in pred_keys)
    for key in pred_keys:
        name, ar = key
        if name not in cp.pred_info:
            cp.pred_info[name] = PredInfo("user", name, False)
        umbrella, cp.pred_info[umbrella] = synth_name(
            "umbrella", name, ar if arities[name] > 1 else None
        )
        cp.neg_of[key] = umbrella

    # Index the database.  A user predicate's rules are its source clauses
    # in order, and only they can carry a first-argument key.  Generated
    # heads have only variable arguments and names apart from the user
    # names; each generated predicate gets its entry where it is defined.
    for key, clauses in clauses_of.items():
        cp.rules[key] = clauses = [_calling_duals(cr, cp.neg_of) for cr in clauses]
        if key[1]:
            keys = [first_arg_key(head.args[0]) for head in heads_of[key]]
            if any(k is not None for k in keys):
                cp.first_arg[key] = _first_arg_entry(clauses, keys)
    for key in pred_keys:
        _dualize(cp, key, clauses_of.get(key, ()), key[1] if arities[key[0]] > 1 else None)
    _nmr_checks(cp, normalized, _dependency_graph(normalized))
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
    """Replace a negated literal with a call to its dual (neg_of maps a
    literal's (name, arity) to its dual); one with no dual stays negated.
    A goal with nothing to replace comes back as it is."""
    if isinstance(goal, Lit):
        dual = neg_of.get(goal.key) if goal.neg else None
        return goal if dual is None else Lit(dual, goal.args)
    if isinstance(goal, Forall):
        inner = rewrite_goal(goal.goal, neg_of)
        return goal if inner is goal.goal else Forall(goal.var, inner)
    return goal


def _calling_duals(cr: CompiledRule, neg_of) -> CompiledRule:
    """A source rule whose negated goals call their duals: the rule itself
    when it has none."""
    body = tuple(rewrite_goal(g, neg_of) for g in cr.body)
    # Unchanged goals are the same objects, which tuple equality takes as
    # equal without comparing them.
    return cr if body == cr.body else CompiledRule(cr.head, body, cr.hide_prefix)


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
