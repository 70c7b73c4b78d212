"""Compilation of programs into an executable rule database.

Three steps:

1. Head normalization: every rule head gets distinct fresh variables, with
   the original argument terms re-established by prepended `=` atoms.  The
   count of prepended atoms is kept so justification trees can omit them.

2. Dual synthesis: for every predicate an umbrella rule
   `not_p(V...) :- not_p__1(V...), ..., not_p__k(V...)` plus one sub-rule
   per clause.  A clause's dual has one alternative per body literal: the
   positive prefix of the body up to that literal, then the literal's
   negation (comparison operators flip; `.=.` splits into `.<.` and `.>.`).
   One pass over the body makes them all, growing the prefix as it goes.
   Variables appearing only in a clause body are universally quantified,
   all in one `Forall` over their tuple, inside the sub-rule through a
   `..._body` helper predicate.  A name used at several arities gets its
   arity in the generated names (`not_p__2`).

3. Global consistency checks: denials and rules that can reach their own
   head through an odd number of negations become `chk_i` predicates built
   the same way as duals (plus a re-derivation alternative for headed
   rules), all called from `nmr_check`, which is appended to every query.
   One pass of Tarjan's algorithm over the (predicate, parity) graph
   finds the odd loops: a rule for h with goal `not n` is in one when
   (n, 0) and (h, 0) share a strongly connected component.

One walk of the source checks its names, normalizes each head and
collects what the passes need: the predicates, each one's clauses and
first-argument keys, and the graph of the odd-loop search.  Every
predicate's dual is named in `CompiledProgram.neg_of` before any rule is
built, so each rule is built once and every body literal of the
executable rules is a positive call: a negated user literal calls its
dual.  `neg_of` is the one complement table, read both ways: it maps a
user predicate's key to its dual's name and the dual's key back to the
user name, so the loop check finds either polarity's complement with one
lookup.  `source_rules` are those executable rules, one per clause in
source order, and they print as written.  `CompiledProgram.rules` is the
one table of rules: indexed by predicate, each generated predicate where
it is defined, and, for user predicates, by the first argument of each
source head (`CompiledProgram.first_arg`, each entry a `ClauseRuns`
whose one lookup is `get`); `dual_rules` and `nmr_rules` are views of its
generated entries.  `synth_name` spells every generated name, from
`NMR_CHECK` for the check the engine appends to each query, and returns
its `PredInfo`, which is how the rest of the system tells a dual from a
user predicate and prints it as `not <base>`; the
reserved-name check, one precompiled pattern, rejects every user name
that one of its shapes could take.  `CompiledRule` and `PredInfo`, made
a few times per clause, are slotted dataclasses and, like terms,
immutable by contract: a frozen dataclass pays a setattr call per field.
"""

from __future__ import annotations

import re
from collections import Counter
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
    "rewrite_goal",
    "check_query",
    "first_arg_key",
    "dump_compiled",
    "RESERVED_NOTE",
    "NMR_CHECK",
]

# The check rule that every query ends with.
NMR_CHECK = "nmr_check"

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
    base: str  # display name: a dual's user predicate, else the name itself
    marker: bool  # displayed behind 'not'; a negation boundary on the call path


@dataclass
class CompiledProgram:
    rules: dict = field(default_factory=dict)  # (name, arity) -> [CompiledRule]
    source_rules: list = field(default_factory=list)  # one per clause, in order
    pred_info: dict = field(default_factory=dict)
    # The complement table: (name, arity) -> its dual's name for a user
    # predicate, and (dual, arity) -> the user name for its dual.
    neg_of: dict = field(default_factory=dict)
    # First-argument index of the user predicates that have a clause whose
    # head's first argument has a first_arg_key: (name, arity) ->
    # (ClauseRuns {key: that key's clauses and the wildcard clauses},
    # wildcard clauses), tuples of rules from `rules` in source order.  A
    # call whose first argument has a key needs only the clauses listed
    # under it.
    first_arg: dict = field(default_factory=dict)
    shows: set = field(default_factory=set)
    query: Optional[Query] = None

    @property
    def dual_rules(self):
        """The umbrella and dual rules of the table, in table order."""
        return self._generated(("umbrella", "dual"))

    @property
    def nmr_rules(self):
        """The check rules and nmr_check of the table, in table order."""
        return self._generated(("chk", "nmr"))

    def _generated(self, kinds):
        info = self.pred_info
        return [
            cr for key, rules in self.rules.items() if info[key[0]].kind in kinds for cr in rules
        ]


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
        base = NMR_CHECK
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


def _check_goals(goals, source, free):
    """Reject goals (forall bodies included) that name a generated predicate,
    and a forall goal in a rule body, at the position of source (a rule or
    query); free holds names already found not to, and gains each name
    checked."""
    for g in goals:
        in_forall = isinstance(g, Forall)
        if in_forall:
            g = g.goal
        if isinstance(g, Lit) and g.pred not in free:
            if _RESERVED.search(g.pred) is not None:
                raise CompileError(
                    f"predicate name {g.pred!r} is reserved ({RESERVED_NOTE})",
                    source.line, source.col, source.file,
                )
            free.add(g.pred)
        if in_forall and isinstance(source, Rule):
            raise CompileError(
                "a forall goal may stand in a query, not in a rule body",
                source.line, source.col, source.file,
            )


def check_query(query: Query):
    """Reject a query that calls a generated predicate (a dual, a check)."""
    _check_goals(query.goals, query, set())


def normalize_rule(rule: Rule):
    """(head, body, hidden): the rule with distinct fresh variables as head
    arguments, re-equated with the original arguments by hidden leading `=`
    goals, as many as hidden counts."""
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
    return head, tuple(prefix) + rule.body, len(prefix)


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


def _define(cp, head, bodies):
    """Add a generated predicate's rules, head with each of bodies, to
    cp.rules: a generated predicate is defined in one place.  One without
    bodies (the sub-dual of a fact with no arguments) gets no entry."""
    if bodies:
        cp.rules[head.key] = [CompiledRule(head, body) for body in bodies]


def _define_quantified(cp, head, body_vars, pieces, helper):
    """Define head by pieces with body_vars universally quantified: head
    calls the helper predicate that helper (a synth_name pair) names inside
    one forall over body_vars, and the helper has one rule per piece."""
    body_name, cp.pred_info[body_name] = helper
    inner = Lit(body_name, head.args + body_vars)
    _define(cp, head, [(Forall(body_vars, inner),)])
    _define(cp, inner, pieces)


def _clause_body_vars(head_vars, body):
    """The variables of body not in head_vars, as a tuple, in
    first-occurrence order."""
    found, seen = [], {v.id for v in head_vars}
    for goal in body:
        goal_vars(goal, found, seen)
    return tuple(found)


def _dualize(cp, key, clauses, spelled):
    """Add the dual rules of predicate key, with normalized clauses, to cp:
    the umbrella, then each clause's sub-dual; spelled is the arity to put
    in the generated names, or None."""
    name, arity = key
    umbrella_vars = tuple([fresh_var("_") for _ in range(arity)])
    subs = [synth_name("dual", name, spelled, i) for i in range(1, len(clauses) + 1)]
    calls = tuple([Lit(sub, umbrella_vars) for sub, _ in subs])
    _define(cp, Lit(cp.neg_of[key], umbrella_vars), [calls])
    for i, ((head, body, _), (sub, info)) in enumerate(zip(clauses, subs), 1):
        cp.pred_info[sub] = info
        sub_head = Lit(sub, head.args)  # distinct vars after normalization
        body_vars = _clause_body_vars(head.args, body)
        pieces = _clause_pieces(body, cp.neg_of)
        if body_vars:
            helper = synth_name("dual", name, spelled, i, body=True)
            _define_quantified(cp, sub_head, body_vars, pieces, helper)
        else:
            _define(cp, sub_head, pieces)


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


def _nmr_checks(cp, constrained, adj, roots):
    """Add to cp the chk_i rules for denials and odd-loop rules, and the
    nmr_check rule calling them all; constrained holds the normalized
    denials and rules with a negated goal, in source order, and adj and
    roots are the graph and the negated calls' nodes (compile_program).

    A rule for h with a negated call of n is in an odd loop when n can
    reach h through an even number of negations: when (n, 0) reaches
    (h, 0), which holds exactly when the two share a component (n = h
    included).  Flipping every parity maps the graph onto itself, so such
    a path has a twin from (n, 1) to (h, 1), and the rule's own edges
    (h, 0) -> (n, 1) and (h, 1) -> (n, 0) close the two into a cycle.
    """
    comp = _components(adj, roots)
    chk_calls = []
    for head, body, _ in constrained:
        if head is not None and not any(
            isinstance(g, Lit) and g.neg and comp[(g.key, 0)] == comp.get((head.key, 0))
            for g in body
        ):
            continue
        idx = len(chk_calls) + 1
        head_vars = () if head is None else head.args
        rederive = head is not None and not any(
            isinstance(g, Lit) and g.neg and g.key == head.key and g.args == head.args
            for g in body
        )
        pieces = _clause_pieces(body, cp.neg_of, head if rederive else None)
        body_vars = _clause_body_vars(head_vars, body)
        chk, cp.pred_info[chk] = synth_name("chk", index=idx)
        chk_head = Lit(chk, head_vars)
        if not body_vars:
            _define(cp, chk_head, pieces)
        elif len(pieces) == 1 and len(pieces[0]) == 1:
            # A lone single-goal alternative sits in the forall directly.
            _define(cp, chk_head, [(Forall(body_vars, pieces[0][0]),)])
        else:
            helper = synth_name("chk", index=idx, body=True)
            _define_quantified(cp, chk_head, body_vars, pieces, helper)
        call_vars = tuple(fresh_var("_") for _ in head_vars)
        call = Lit(chk, call_vars)
        chk_calls.append(Forall(call_vars, call) if call_vars else call)
    nmr, cp.pred_info[nmr] = synth_name("nmr")
    _define(cp, Lit(nmr), [tuple(chk_calls)])


@collector_paused
def compile_program(program: Program) -> CompiledProgram:
    """Compile a parsed program into the executable rule database."""
    cp = CompiledProgram(shows=set(program.shows), query=program.query)

    # One walk of the source checks the names, normalizes each clause and
    # collects: the predicate keys in order of first mention (every
    # predicate needs a dual, an undefined one too: its negation simply
    # holds), each user predicate's clauses and first-argument keys, the
    # clauses a check may be built for, and the (predicate, parity) graph
    # with the nodes of the negated calls, where the odd-loop search starts.
    free, pred_keys, clauses_of, arg_keys = set(), {}, {}, {}
    normalized, constrained, adj, roots = [], [], {}, []
    for rule in program.rules:
        head = rule.head
        _check_goals(rule.body if head is None else (head,) + rule.body, rule, free)
        clause = normalize_rule(rule)
        if head is not None:
            key = head.key
            pred_keys[key] = None
            if key not in clauses_of:
                clauses_of[key], arg_keys[key], adj[key] = [], [], []
            clauses_of[key].append(clause)
            arg_keys[key].append(first_arg_key(head.args[0]) if key[1] else None)
        negated = False
        for g in rule.body:
            if g.__class__ is Lit:
                pred_keys[g.key] = None
                negated = negated or g.neg
                if head is not None:
                    adj[key].append((g.key, 1 if g.neg else 0))
                    if g.neg:
                        roots.append((g.key, 0))
        normalized.append((clause, negated))
        if head is None or negated:
            constrained.append(clause)
    query = program.query
    if query is not None:
        _check_goals(query.goals, query, free)
        pred_keys.update(dict.fromkeys(g.key for g in query.goals if isinstance(g, Lit)))

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
        cp.neg_of[(umbrella, ar)] = name

    # Index the database.  A user predicate's rules are its source clauses
    # in order, and only they can carry a first-argument key.  Generated
    # heads have only variable arguments and names apart from the user
    # names; each generated predicate gets its entry where it is defined.
    neg_of = cp.neg_of
    for (head, body, hidden), negated in normalized:
        if negated:
            body = tuple([rewrite_goal(g, neg_of) for g in body])
        cr = CompiledRule(head, body, hidden)
        cp.source_rules.append(cr)
        if head is not None:
            cp.rules.setdefault(head.key, []).append(cr)
    for key, keys in arg_keys.items():
        if any(k is not None for k in keys):
            cp.first_arg[key] = _first_arg_entry(cp.rules[key], keys)
    for key in pred_keys:
        _dualize(cp, key, clauses_of.get(key, ()), key[1] if arities[key[0]] > 1 else None)
    _nmr_checks(cp, constrained, adj, roots)
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


class ClauseRuns:
    """First-argument key -> the clauses a call with that key must try (get).

    As a WAM's switch instructions do, the clause list is cut into maximal
    runs of keyed clauses and of wildcard clauses, and each clause is stored
    once: a key's clauses are, run by run in source order, its own clauses
    in a keyed run and the whole of a wildcard run.  A key that no clause
    has gets the default (its clauses are the wildcards alone).
    """

    __slots__ = ("runs",)

    def __init__(self, runs):
        self.runs = runs  # tuple of {key: clauses} and (wildcard clauses)

    def get(self, key, default=None):
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
        new = rewrite_goal(goal.goal, neg_of)
        return goal if new is goal.goal else Forall(goal.vars, new)
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
