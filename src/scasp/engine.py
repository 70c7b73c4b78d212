"""Goal-directed evaluation of compiled programs.

The engine resolves goals top-down over the compiled database without any
grounding.  All state lives in one trail-recorded structure: variable
bindings, per-variable excluded ground terms, one linear-arithmetic store,
a registry of already-proved atoms, and an event log from which answers
reconstruct their justification.  Generators drive the search: every
choice point is a Python generator that restores the trail between its
alternatives, so backtracking is ordinary generator control flow.

The log holds one (kind, goal) event per step -- an 'atom' call, a
'constraint', a 'chs' or 'proved' shortcut, a 'forall' -- plus an 'exit'
closing each atom and forall; an answer turns it into a tree of Nodes,
each carrying one resolved goal.  A goal's polarity is read from its
PredInfo (duals are negation markers) and a user predicate's complement
from the compiled program's neg_of table, never from predicate names.

Loops on the call path are classified before a goal is resolved:

* a goal that unifies with a complementary (negated vs. positive) ancestor
  of the same user predicate fails, discarding the contradictory branch;
* a goal equal (variant) to an ancestor with no intervening negation fails
  finitely instead of diverging;
* a goal that unifies with an ancestor across an even, non-zero number of
  negations succeeds coinductively;
* a goal that is a variant of an already-proved atom succeeds immediately.

These checks read indexes kept in step with the call path and the registry
instead of scanning them.  A call's ground key is its resolved argument
tuple, or None while an unbound variable remains; a ground term never
changes, so a key taken when a frame is pushed or an atom is registered
stays valid while that entry lives.  Frames are indexed per (name, arity),
by (name, ground key) for the topmost frame with that key, and, when they
were not ground at push, in a per-predicate open list that is still checked
term by term (its terms may have been bound since).  Each frame records
the running count of negation markers up to itself, so the number between
an ancestor and the goal costs one subtraction.  The registry counts ground
keys and keeps its non-ground entries in open lists checked the same way.

A call resolves only the clauses the compiled program's first-argument
index lists for its dereferenced first argument: a constant or a
non-arithmetic structure selects the clauses whose source head has the
same constant or functor and arity there, plus those with a variable or
arithmetic there, in source order.  Every other clause would fail in its
hidden head unification anyway, so answers and their order are unchanged.

Universal quantification (forall) evaluates its goal against a worklist of
single-variable constraint views: each iteration commits to the first
answer for a fresh copy of the quantified variable, and either the answer
view equals the iteration's view (that region is covered) or the answer's
negation splits the region into new work items.  The committed generators
stay suspended until the whole forall is abandoned, so constraints the
iterations placed on outer variables persist.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import store as store_mod
from .compiler import CompiledProgram, first_arg_key, rewrite_query
from .errors import SolverError
from .linear import LinearStore, form_add, form_const, form_scale, form_sub, form_var
from .terms import (
    ARITH_OPS,
    CmpLit,
    Const,
    Forall,
    Lit,
    Query,
    Struct,
    Var,
    format_term,
    fresh_var,
    goal_vars,
    rename_goal,
    rename_term,
    subst_goal,
    term_vars,
)

__all__ = ["Engine", "Answer", "Node", "run_query"]

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))

_LIN_OP = {
    ".<.": "<",
    ".>.": ">",
    ".=<.": "<=",
    ".>=.": ">=",
    ".=.": "=",
    ".\\=.": "!=",
    "=": "=",
    "\\=": "!=",
}


@dataclass
class Node:
    """One step of a justification tree: a resolved goal and its subproof."""

    kind: str  # 'atom' | 'constraint' | 'chs' | 'proved' | 'forall'
    goal: object = None  # Lit, CmpLit or Forall; None only at the root
    children: list = field(default_factory=list)


@dataclass
class Answer:
    number: int
    time_ms: float
    bindings: list  # (name, resolved term)
    model: list  # resolved positive atoms as Lit, first-derivation order
    justification: list  # top-level Nodes
    views: dict  # vid -> constraint view for unbound variables

    def model_atoms(self):
        """(pred, args) pairs of the model, nmr marker excluded."""
        return [(lit.pred, lit.args) for lit in self.model if lit.pred != "nmr_check"]

    def variables(self):
        """Unbound variables by first occurrence: justification (pre-order),
        then model, then bindings -- the order answers name them in."""
        found, seen = [], set()
        stack = self.justification[::-1]
        while stack:
            node = stack.pop()
            goal_vars(node.goal, found, seen)
            stack.extend(reversed(node.children))
        for lit in self.model:
            goal_vars(lit, found, seen)
        for _, t in self.bindings:
            term_vars(t, found, seen)
        return found


_ONCE = (None,)


class _Frame:
    # key: (name, arity); gkey: ground key at push; mk: markers up to and
    # including this frame; below: next frame down with the same gkey.
    __slots__ = ("name", "args", "key", "marker", "gkey", "mk", "below")

    def __init__(self, goal, info):
        self.name = goal.pred
        self.args = goal.args
        self.key = goal.key
        self.marker = info.marker


class Engine:
    """Evaluator for one compiled program; reusable across queries."""

    def __init__(self, cp: CompiledProgram):
        self.cp = cp
        # The dual of each user predicate, so the call path and the proof
        # registry can be searched for a goal's complement.
        self.neg_of = cp.neg_of
        self.reset()

    def reset(self):
        self.cells = {}  # vid -> term
        self.forbid = {}  # vid -> frozenset of excluded ground terms
        self.lin = LinearStore.empty()
        self.proved = {}  # (name, arity) -> [args, ...]
        self._proved_keys = {}  # (name, ground key) -> count
        self._proved_open = {}  # (name, arity) -> [args not ground when proved]
        self.events = []
        self.frames = []
        self._by_pred = {}  # (name, arity) -> [frame, ...]
        self._open = {}  # (name, arity) -> [frame not ground at push, ...]
        self._by_key = {}  # (name, ground key) -> topmost frame
        self.trail = []
        self.forall_trace = []  # diagnostic: (goal pred, view) per iteration

    # -- trail ---------------------------------------------------------------

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int):
        trail = self.trail
        while len(trail) > mark:
            entry = trail.pop()
            tag = entry[0]
            if tag == "bind":
                del self.cells[entry[1]]
            elif tag == "forbid":
                if entry[2] is None:
                    self.forbid.pop(entry[1], None)
                else:
                    self.forbid[entry[1]] = entry[2]
            elif tag == "lin":
                self.lin = entry[1]
            elif tag == "proved":
                key, pk = entry[1], entry[2]
                self.proved[key].pop()
                if pk is None:
                    self._proved_open[key].pop()
                elif self._proved_keys[pk] == 1:
                    del self._proved_keys[pk]
                else:
                    self._proved_keys[pk] -= 1
            else:  # 'ev'
                self.events.pop()

    def log(self, event):
        self.events.append(event)
        self.trail.append(("ev",))

    # -- terms -----------------------------------------------------------------

    def deref(self, t):
        while isinstance(t, Var):
            nxt = self.cells.get(t.id)
            if nxt is None:
                return t
            t = nxt
        return t

    def resolve(self, t):
        """Deep copy of a term with every bound variable replaced."""
        t = self.deref(t)
        if isinstance(t, Struct):
            return Struct(t.functor, tuple(self.resolve(a) for a in t.args))
        return t

    def _occurs(self, vid, t):
        t = self.deref(t)
        if isinstance(t, Var):
            return t.id == vid
        if isinstance(t, Struct):
            return any(self._occurs(vid, a) for a in t.args)
        return False

    def _ground_args(self, args):
        """Resolved copy of a tuple of terms; None if any is not ground."""
        out = []
        for a in args:
            a = self.deref(a)
            if isinstance(a, Var):
                return None
            if isinstance(a, Struct):
                sub = self._ground_args(a.args)
                if sub is None:
                    return None
                a = Struct(a.functor, sub)
            out.append(a)
        return tuple(out)

    def _bind_raw(self, vid, t):
        self.cells[vid] = t
        self.trail.append(("bind", vid))

    def _set_forbid(self, vid, new):
        self.trail.append(("forbid", vid, self.forbid.get(vid)))
        if new:
            self.forbid[vid] = frozenset(new)
        else:
            self.forbid.pop(vid, None)

    def _set_lin(self, new_store):
        self.trail.append(("lin", self.lin))
        self.lin = new_store

    # -- unification -------------------------------------------------------------

    def unify(self, a, b):
        """Solutions of a = b; may branch when excluded-term checks split."""
        a = self.deref(a)
        b = self.deref(b)
        if isinstance(a, Var):
            if isinstance(b, Var) and a.id == b.id:
                yield
                return
            yield from self._bind(a, b)
            return
        if isinstance(b, Var):
            yield from self._bind(b, a)
            return
        if isinstance(a, Const) and isinstance(b, Const):
            if a == b:
                yield
            return
        if isinstance(a, Struct) and isinstance(b, Struct) and a.key == b.key:
            yield from self._unify_pairs(a.args, b.args)

    def _unify_pairs(self, xs, ys):
        def seq(i):
            if i == len(xs):
                yield
                return
            for _ in self.unify(xs[i], ys[i]):
                yield from seq(i + 1)

        yield from seq(0)

    def _bind(self, var, t):
        """Bind an unbound variable, re-checking its accumulated constraints."""
        if self._occurs(var.id, t):
            return
        if var.id in self.lin.vars():
            yield from self._bind_linear(var, t)
            return
        if isinstance(t, Var):
            yield from self._bind_vars(var, t)
            return
        fb = self.forbid.get(var.id)
        if not fb:
            self._bind_raw(var.id, t)
            yield
            return
        g = self._ground_args((t,))
        if g is not None:
            if g[0] in fb:
                return
            self._bind_raw(var.id, t)
            yield
            return
        # Binding to a non-ground term: every excluded term must be re-asserted
        # against it, which can branch.
        m = self.mark()
        try:
            self._bind_raw(var.id, t)
            items = sorted(fb, key=format_term)

            def chain(i):
                if i == len(items):
                    yield
                    return
                for _ in self.assert_neq_term(t, items[i]):
                    yield from chain(i + 1)

            yield from chain(0)
        finally:
            self.undo_to(m)

    def _bind_vars(self, a, b):
        """Alias two unbound variables, merging a's exclusions onto b."""
        if b.id in self.lin.vars():
            yield from self._bind_linear(a, b)
            return
        fa = self.forbid.get(a.id)
        m = self.mark()
        try:
            if fa:
                fb = self.forbid.get(b.id, frozenset())
                self._set_forbid(b.id, fb | fa)
            self._bind_raw(a.id, b)
            yield
        finally:
            self.undo_to(m)

    def _bind_linear(self, var, t):
        """Bind a variable the rational store knows about."""
        t = self.deref(t)
        if isinstance(t, Const):
            if not t.is_number:
                return  # a rational-constrained variable cannot be a symbol
            if self._assert_linear("=", var, t):
                yield
            return
        if isinstance(t, Var):
            # Keep whichever variable the store constrains as the root.
            root, other = (var, t) if var.id in self.lin.vars() else (t, var)
            m = self.mark()
            try:
                fb = self.forbid.get(other.id)
                if fb is not None:
                    self._set_forbid(other.id, None)
                self._bind_raw(other.id, root)
                ok = True
                if fb:
                    for g in sorted(fb, key=format_term):
                        if isinstance(g, Const) and g.is_number:
                            if not self._assert_linear_forms(
                                "!=", form_var(root.id), form_const(g.value)
                            ):
                                ok = False
                                break
                if ok and other.id in self.lin.vars():
                    ok = self._assert_linear_forms(
                        "=", form_var(root.id), form_var(other.id)
                    )
                if ok:
                    yield
            finally:
                self.undo_to(m)
            return
        return  # structures are never rational values

    # -- disequality over arbitrary terms -------------------------------------

    def assert_neq_term(self, a, b):
        """Solutions of a \\= b under the excluded-term discipline."""
        a = self.deref(a)
        b = self.deref(b)
        if isinstance(a, Var) and isinstance(b, Var):
            if a.id == b.id:
                return
            # No information to tell two unbound variables apart: this branch
            # just fails and lets a later alternative decide constructively.
            return
        if isinstance(b, Var):
            a, b = b, a
        if isinstance(a, Var):
            if a.id in self.lin.vars() and isinstance(b, Const) and b.is_number:
                m = self.mark()
                try:
                    if self._assert_linear("!=", a, b):
                        yield
                finally:
                    self.undo_to(m)
                return
            g = self._ground_args((b,))
            if g is not None:
                m = self.mark()
                try:
                    fb = self.forbid.get(a.id, frozenset())
                    self._set_forbid(a.id, fb | {g[0]})
                    yield
                finally:
                    self.undo_to(m)
                return
            if self._occurs(a.id, b):
                yield  # a term strictly containing the variable never equals it
                return
            raise SolverError(
                "nonground_disequality",
                f"{format_term(self.resolve(a))} \\= {format_term(self.resolve(b))} "
                "needs a ground right-hand side",
            )
        if isinstance(a, Const) and isinstance(b, Const):
            if a != b:
                yield
            return
        if isinstance(a, Struct) and isinstance(b, Struct) and a.key == b.key:
            for x, y in zip(a.args, b.args):
                m = self.mark()
                try:
                    yield from self.assert_neq_term(x, y)
                finally:
                    self.undo_to(m)
            return
        yield  # different shapes can never be equal

    # -- linear constraints ------------------------------------------------------

    def _contains_arith(self, t):
        t = self.deref(t)
        if isinstance(t, Struct):
            if t.functor in ARITH_OPS and len(t.args) == 2:
                return True
            return any(self._contains_arith(a) for a in t.args)
        return False

    def _numericish(self, t):
        t = self.deref(t)
        if isinstance(t, Const):
            return t.is_number
        if isinstance(t, Var):
            return t.id in self.lin.vars()
        return False

    def _to_form(self, t, seen_vars):
        """Linear form of a term; None when it mentions non-numeric data."""
        t = self.deref(t)
        if isinstance(t, Const):
            if t.is_number:
                return form_const(t.value)
            return None
        if isinstance(t, Var):
            seen_vars.add(t.id)
            return form_var(t.id)
        if isinstance(t, Struct) and t.functor in ARITH_OPS and len(t.args) == 2:
            lf = self._to_form(t.args[0], seen_vars)
            rf = self._to_form(t.args[1], seen_vars)
            if lf is None or rf is None:
                return None
            if t.functor == "+":
                return form_add(lf, rf)
            if t.functor == "-":
                return form_sub(lf, rf)
            if t.functor == "*":
                if not lf[1]:
                    return form_scale(rf, lf[0])
                if not rf[1]:
                    return form_scale(lf, rf[0])
                raise SolverError(
                    "nonlinear_constraint",
                    f"product of two unknowns in {format_term(self.resolve(t))}",
                )
            if rf[1] or rf[0] == 0:
                raise SolverError(
                    "nonlinear_constraint",
                    f"division by a non-constant or zero in {format_term(self.resolve(t))}",
                )
            return form_scale(lf, Fraction(1) / rf[0])
        return None

    def _assert_linear(self, op, l, r) -> bool:
        seen = set()
        lf = self._to_form(l, seen)
        rf = self._to_form(r, seen)
        if lf is None or rf is None:
            return False
        # Variables entering the rational store carry their excluded terms in:
        # numeric exclusions become disequalities, others become vacuous.
        for vid in sorted(seen):
            fb = self.forbid.get(vid)
            if not fb:
                continue
            self._set_forbid(vid, None)
            for g in sorted(fb, key=format_term):
                if isinstance(g, Const) and g.is_number:
                    if not self._assert_linear_forms(
                        "!=", form_var(vid), form_const(g.value)
                    ):
                        return False
        return self._assert_linear_forms(op, lf, rf)

    def _assert_linear_forms(self, op, lf, rf) -> bool:
        res = self.lin.assert_constraint(op, lf, rf)
        if res is None:
            return False
        new_store, determined = res
        if new_store is not self.lin:
            self._set_lin(new_store)
        for vid, val in determined:
            if vid not in self.cells:
                c = Const(val)
                fb = self.forbid.get(vid)
                if fb and c in fb:
                    return False
                self._bind_raw(vid, c)
        return True

    # -- constraint goals -------------------------------------------------------

    def solve_constraint(self, c: CmpLit, quiet=False):
        m = self.mark()
        try:
            if not quiet:
                self.log(("constraint", c))
            l, r = c.lhs, c.rhs
            if c.op in ("=", "\\="):
                if self._contains_arith(l) or self._contains_arith(r) or (
                    self._numericish(l) and self._numericish(r)
                ):
                    if self._assert_linear(_LIN_OP[c.op], l, r):
                        yield
                elif c.op == "=":
                    yield from self.unify(l, r)
                else:
                    yield from self.assert_neq_term(l, r)
            else:
                if self._assert_linear(_LIN_OP[c.op], l, r):
                    yield
        finally:
            self.undo_to(m)

    # -- loop classification ------------------------------------------------------

    def _constrained_var(self, vid):
        return bool(self.forbid.get(vid)) or vid in self.lin.vars()

    def _variant_args(self, xs, ys):
        fwd, bwd = {}, {}

        def walk(x, y):
            x = self.deref(x)
            y = self.deref(y)
            if isinstance(x, Var) and isinstance(y, Var):
                if x.id == y.id:
                    return True
                if self._constrained_var(x.id) or self._constrained_var(y.id):
                    return False
                if fwd.get(x.id, y.id) != y.id or bwd.get(y.id, x.id) != x.id:
                    return False
                fwd[x.id] = y.id
                bwd[y.id] = x.id
                return True
            if isinstance(x, Var) or isinstance(y, Var):
                return False
            if isinstance(x, Const) and isinstance(y, Const):
                return x == y
            if isinstance(x, Struct) and isinstance(y, Struct) and x.key == y.key:
                return all(walk(a, b) for a, b in zip(x.args, y.args))
            return False

        return all(walk(x, y) for x, y in zip(xs, ys))

    def _unifiable_args(self, xs, ys):
        m = self.mark()
        gen = self._unify_pairs(xs, ys)
        try:
            next(gen)
            return True
        except StopIteration:
            return False
        finally:
            gen.close()
            self.undo_to(m)

    def _proved_variant(self, key, args, gkey):
        """Is args (ground key gkey) a variant of a registered atom of key?"""
        if gkey is not None and (key[0], gkey) in self._proved_keys:
            return True
        return any(self._variant_args(args, p) for p in self._proved_open.get(key, ()))

    def classify_loop(self, goal: Lit):
        """How a goal relates to the in-flight call path (and proof registry)."""
        info = self.cp.pred_info[goal.pred]
        kind, marker = info.kind, info.marker
        n = len(goal.args)
        gkey = self._ground_args(goal.args)
        # Contradiction with an ancestor: the same user atom in the opposite
        # polarity that could be the very instance being evaluated.
        comp = None
        if kind == "user":
            comp = self.neg_of.get((goal.pred, n))
        elif kind == "umbrella":
            comp = info.base
        if comp is not None:
            for fr in self._by_pred.get((comp, n), ()):
                if self._unifiable_args(goal.args, fr.args):
                    return "fail_odd"
            # A completed proof of the complement also contradicts this goal:
            # everything established earlier in the derivation stays in force
            # for the partial model under construction.
            if self._proved_variant((comp, n), goal.args, gkey):
                return "fail_odd"
        # k, the negations between an ancestor fr and the goal, is
        # marker + total - fr.mk; it never falls going down the stack.
        total = self.frames[-1].mk if self.frames else 0
        if not marker:
            if gkey is not None:
                fr = self._by_key.get((goal.pred, gkey))
                if fr is not None and fr.mk == total:
                    return "fail_positive"
            for fr in reversed(self._open.get(goal.key, ())):
                if fr.mk != total:
                    break
                if self._variant_args(goal.args, fr.args):
                    return "fail_positive"
        k0 = marker + total
        for fr in reversed(self._by_pred.get(goal.key, ())):
            k = k0 - fr.mk
            if k >= 2 and k % 2 == 0 and self._unifiable_args(goal.args, fr.args):
                return "succeed_coinductive"
        if self._proved_variant(goal.key, goal.args, gkey):
            return "succeed_proved"
        return "continue"

    def _push(self, fr):
        frames = self.frames
        fr.mk = (frames[-1].mk if frames else 0) + fr.marker
        frames.append(fr)
        self._by_pred.setdefault(fr.key, []).append(fr)
        if fr.gkey is None:
            self._open.setdefault(fr.key, []).append(fr)
        else:
            k = (fr.name, fr.gkey)
            fr.below = self._by_key.get(k)
            self._by_key[k] = fr

    def _pop(self):
        fr = self.frames.pop()
        self._by_pred[fr.key].pop()
        if fr.gkey is None:
            self._open[fr.key].pop()
        elif fr.below is None:
            del self._by_key[(fr.name, fr.gkey)]
        else:
            self._by_key[(fr.name, fr.gkey)] = fr.below

    # -- resolution ---------------------------------------------------------------

    def solve_goal(self, goal, quiet=False):
        if isinstance(goal, Lit):
            yield from self.solve_call(goal)
        elif isinstance(goal, CmpLit):
            yield from self.solve_constraint(goal, quiet)
        else:
            yield from self.c_forall(goal.var, goal.goal)

    def solve(self, goals, i=0, quiet=False):
        """Solutions of the conjunction goals[i:]."""
        if i == len(goals):
            yield
            return
        for _ in self.solve_goal(goals[i], quiet):
            yield from self.solve(goals, i + 1, quiet)

    def solve_call(self, goal: Lit):
        rules = self.cp.rules.get(goal.key)
        if goal.neg:
            # A negation rewrite_query found no dual for: the predicate is
            # not in the program, so it holds vacuously.
            if rules is None:
                m = self.mark()
                try:
                    self.log(("atom", goal))
                    self.log(("exit",))
                    yield
                finally:
                    self.undo_to(m)
            return
        if rules is None:
            return  # a call to a predicate with no rules fails
        act = self.classify_loop(goal)
        if act == "fail_odd" or act == "fail_positive":
            return
        m0 = self.mark()
        try:
            if act == "succeed_coinductive":
                self.log(("chs", goal))
                yield
                return
            if act == "succeed_proved":
                self.log(("proved", goal))
                yield
                return
            index = self.cp.first_arg.get(goal.key)
            if index is not None:
                key = first_arg_key(self.deref(goal.args[0]))
                if key is not None:
                    # A skipped clause's head has a first argument with
                    # another key, so its first hidden `=` fails quietly,
                    # before any event, frame or lasting trail entry:
                    # - differing functors or symbols fail in unify;
                    # - two numbers meet in a linear `=`, unsatisfiable
                    #   exactly when their Fraction values differ;
                    # - arithmetic below a top functor sends `=` to the
                    #   linear store, where _to_form returns None (it never
                    #   raises on a non-arithmetic top), so it fails too.
                    by_key, wildcards = index
                    rules = by_key.get(key, wildcards)
            fr = _Frame(goal, self.cp.pred_info[goal.pred])
            for rule in rules:
                m = self.mark()
                try:
                    mapping = {}
                    head_args = tuple(rename_term(a, mapping) for a in rule.head.args)
                    body = tuple(rename_goal(g, mapping) for g in rule.body)
                    hide = rule.hide_prefix
                    # The hidden head unifications run before the frame is
                    # pushed, so a clause whose head does not match costs
                    # no frame.
                    for _ in self._unify_pairs(goal.args, head_args):
                        for _ in self.solve(body[:hide], 0, True) if hide else _ONCE:
                            self.log(("atom", goal))
                            fr.gkey = self._ground_args(goal.args)
                            self._push(fr)
                            try:
                                for _ in self.solve(body, hide):
                                    self._pop()
                                    self.log(("exit",))
                                    self._register_proved(goal)
                                    try:
                                        yield
                                    finally:
                                        self._push(fr)
                            finally:
                                self._pop()
                finally:
                    self.undo_to(m)
        finally:
            self.undo_to(m0)

    def _register_proved(self, goal: Lit):
        gkey = self._ground_args(goal.args)
        pk = None if gkey is None else (goal.pred, gkey)
        self.proved.setdefault(goal.key, []).append(goal.args)
        if pk is None:
            self._proved_open.setdefault(goal.key, []).append(goal.args)
        else:
            self._proved_keys[pk] = self._proved_keys.get(pk, 0) + 1
        self.trail.append(("proved", goal.key, pk))

    # -- universal quantification ----------------------------------------------

    def apply(self, view, var: Var) -> bool:
        """Constrain a fresh variable to one constraint view."""
        if view[0] == "top":
            return True
        if view[0] == "eq":
            self._bind_raw(var.id, view[1])
            return True
        if view[0] == "neq":
            self._set_forbid(var.id, view[1])
            return True
        for op, val in view[1]:
            if not self._assert_linear_forms(op, form_var(var.id), form_const(val)):
                return False
        return True

    def dump(self, var: Var):
        """Project the current state onto one variable as a constraint view."""
        t = self.deref(var)
        if isinstance(t, Var):
            fb = self.forbid.get(t.id)
            if fb:
                return ("neq", frozenset(fb))
            if t.id in self.lin.vars():
                return store_mod.lin_canon(self.lin.project(t.id))
            return store_mod.TOP
        return ("eq", self.resolve(t))

    def c_forall(self, var: Var, goal):
        m0 = self.mark()
        kept = []
        try:
            self.log(("forall", Forall(var, goal)))
            if self._forall_loop(var, goal, kept):
                self.log(("exit",))
                yield
        finally:
            for gen in reversed(kept):
                gen.close()
            self.undo_to(m0)

    def _forall_loop(self, var, goal, kept) -> bool:
        pending = [store_mod.TOP]
        while pending:
            piece = pending.pop(0)
            nv = fresh_var("_")
            goal2 = subst_goal(goal, {var.id: nv})
            self.forall_trace.append((_goal_label(goal), piece))
            if not self.apply(piece, nv):
                continue  # the piece itself is unsatisfiable: nothing to cover
            gen = self.solve_goal(goal2)
            try:
                next(gen)
            except StopIteration:
                return False
            kept.append(gen)
            ans = self.dump(nv)
            if ans == piece:
                continue
            pending = store_mod.add(store_mod.dual(ans), piece) + pending
        return True

    # -- queries -------------------------------------------------------------------

    def run_query(self, query: Query, max_answers: int = 0):
        """Answers of a query; each answer snapshots bindings, model, and proof."""
        self.reset()
        q = rewrite_query(query, self.cp)
        goals = list(q.goals) + [Lit("nmr_check")]
        t0 = time.perf_counter()
        n = 0
        gen = self.solve(goals)
        try:
            for _ in gen:
                n += 1
                yield self._snapshot(query, n, t0)
                if max_answers and n >= max_answers:
                    return
        finally:
            gen.close()

    # -- answer snapshots ------------------------------------------------------------

    def _snapshot(self, query: Query, number: int, t0: float) -> Answer:
        elapsed = (time.perf_counter() - t0) * 1000.0
        roots = self._build_tree()
        model = self._collect_model(roots)
        bindings = [(name, self.resolve(v)) for name, v in query.vars]
        ans = Answer(number, elapsed, bindings, model, roots, {})
        ans.views = {v.id: self.dump(v) for v in ans.variables()}
        return ans

    def _build_tree(self):
        """Justification nodes from the event log; 'atom' and 'forall'
        events open a node that the matching 'exit' closes."""
        root = Node("root")
        stack = [root]
        for ev in self.events:
            if ev[0] == "exit":
                stack.pop()
                continue
            node = Node(ev[0], self._resolve_goal(ev[1]))
            stack[-1].children.append(node)
            if ev[0] == "atom" or ev[0] == "forall":
                stack.append(node)
        return root.children

    def _resolve_goal(self, goal):
        if isinstance(goal, Lit):
            return Lit(goal.pred, tuple(self.resolve(a) for a in goal.args), goal.neg)
        if isinstance(goal, CmpLit):
            return CmpLit(goal.op, self.resolve(goal.lhs), self.resolve(goal.rhs))
        return Forall(goal.var, self._resolve_goal(goal.goal))

    def _collect_model(self, roots):
        out = []
        seen = set()

        def consider(lit):
            info = self.cp.pred_info.get(lit.pred)
            if lit.neg or info is None or info.kind != "user":
                return
            key = (lit.pred, lit.args)
            if key not in seen:
                seen.add(key)
                out.append(lit)

        def walk(node):
            if node.kind == "atom" or node.kind == "chs":
                consider(node.goal)
            for child in node.children:
                walk(child)

        for node in roots:
            walk(node)
        out.append(Lit("nmr_check"))
        return out


def _goal_label(goal):
    if isinstance(goal, Lit):
        return goal.pred
    if isinstance(goal, CmpLit):
        return goal.op
    return "forall"


def run_query(cp: CompiledProgram, query: Query, max_answers: int = 0):
    """Convenience wrapper: evaluate a query on a fresh engine."""
    yield from Engine(cp).run_query(query, max_answers)
