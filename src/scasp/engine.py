"""Goal-directed evaluation of compiled programs.

The engine resolves goals top-down over the compiled database without any
grounding.  All state lives in one trail-recorded structure: variable
bindings, each variable's constraint domain, one linear-arithmetic store,
a registry of already-proved atoms and the call path.  The trail is also
the event log from which answers reconstruct their justification.

Resolution is one loop (solve), run once per query, over a linked list of
goals still to prove and a flat stack of choice points, as a WAM keeps one
choice-point stack beside its trail.  A choice point is one goal's
generator of alternatives: a call's generator yields, per matching clause,
the payments its head owes (below), the rest of the clause's body and an
exit step that pops the call's frame; a forall's yields a commit step
(below); `=` yields the payments it owes; any other constraint, a payment
or a loop-check shortcut yields None, nothing left to prove.  Every
generator obeys one rule: it undoes its previous alternative when it is
resumed (yield, then undo_to its mark), never on close, so backtracking
resumes the topmost choice point and dropping a search undoes nothing.  A
goal's last alternative leaves no choice point, as a WAM's trust_me keeps
none: the generator sets det as it yields it, and the loop drops the
generator unresumed.  The choice point below then undoes that alternative
with its own, since its mark lies beneath every trail entry the goal made.
Every constraint's and payment's last alternative is determinate this way
(a `\\=` between structures of one functor, or a payment, may hold in
several ways, one per argument pair, and the last pair's is the last), and
so are loop-check shortcuts, foralls, and a call's last selected clause:
its hidden head unifications are a plain loop with no alternatives.
Pushing and popping a frame are trail entries too, so an undo restores the
call path with everything else.  The Python stack does not grow with the
derivation, nor with a head's width or the disequalities a binding owes,
since payments are goals of the loop.  Nor does it grow with a term's
depth: no term walk recurses.  Resolving, unifying, the occurs check, a
disequality and a linear form each walk a term with an explicit stack, as
a WAM does.

One map, dom, says which constraint domain an unbound variable lives in:
a set of excluded ground terms, or RATIONAL once any rational
constraint mentions it, whether or not the store keeps a row for it (as
X + 1 .>. X or X .=. X leave none).  The engine hands the store resolved
terms (LinearStore.assert_terms) and never sees a linear form.  Before an
assert, each variable it mentions becomes RATIONAL, and its exclusions
follow it into the store, numbers as disequalities; any other excluded
term is dropped as vacuous, since a rational never equals a symbol or a
structure.  For the same reason `\\=` against a non-number records
nothing on a rational variable, and such a variable never binds to one.
`=` without arithmetic always unifies, so two rational variables are
aliased like any others, the store learning their equality first.  A
value the store fixes lives only in the binding: the store reports it
once, the engine binds the variable at once, and the store forgets it.
A constraint goal resolves its two sides once, and their arith flag says
whether `=` or `\\=` goes to the store whole.  Any other `\\=` takes the
one walk per argument pair that payments take too (assert_neq_term),
wherever its variables sit in the two sides: a pair of two rational
variables goes to the store as `!=`, and a pair of a variable and a ground
term becomes an exclusion.  As terms are resolved before each assert, the
store is never handed a variable it fixed before.  A variable's exclusions
are one set of the engine's own that each `\\=`, or a forall piece's neq
view, grows in place, trailing the terms it added for an undo to remove;
dump hands out a frozen copy.

Unification is a plain function: unify binds or reports a clash, leaving
its bindings on the trail for the caller to undo.  Two ground structures
unify when they are equal, binding nothing, and unequal ones mostly differ
in hash, so unify rejects them at once.  The one way it can branch is
binding a variable with excluded terms to a non-ground term, which owes a
disequality per excluded term; the binding is made at once and the owed
pairs are left in Engine.owed as payment steps.  `=` and a clause head
yield them as goals of the loop, each a choice point that logs no event,
and the loop check takes the first solution of its own from a nested
solve.  A head pays after all its hidden `=` goals, not after each, with
the same solutions in the same order: a payment only records exclusions,
and it dereferences its pairs as it reaches them, depth first, left to
right.  A compiled head is distinct fresh variables, so a clause is tried
without unifying its head: the renaming of its body maps the head's
variables to the call's arguments, and any constants or repeated variables
of the source head are matched by the hidden `=` goals leading the body.

The log is the trail's event entries: one (kind, goal) per step -- an
'atom' call, a 'constraint', a 'chs' or 'proved' shortcut, a 'forall' --
plus an 'exit' closing each atom and forall.  A call's 'atom' and 'exit'
entries carry its frame, so undoing them pops and re-pushes it.  Read in
trail order, skipping bindings, domains, stores and registrations, the
log is the pre-order of an answer's tree of Nodes, each carrying one
resolved goal, so one walk of it per answer builds the tree, the model
and the order of the answer's variables, resolving a structure many
events share once.  A goal's polarity is read
from its PredInfo (duals are negation markers) and a user predicate's
complement from the compiled program's neg_of table, never from names.

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
stays valid while that entry lives.  Each call builds its key once, in
classify_loop, and its frame and registry entry reuse it; only a key that
was None is taken again, since the hidden head unifications may have made
the call ground.  Frames are indexed per (name, arity), by (name, ground
key) for the topmost frame with that key, and, when they were not ground
at push, in a per-predicate open list that is still checked term by term
(its terms may have been bound since).  Each frame records the running
count of negation markers up to itself, so the number between an ancestor
and the goal costs one subtraction.  The registry counts ground keys and
keeps its non-ground entries in open lists checked the same way, each with
the position and variable w of its first argument that was unbound, and
the position and value u (a constant, or a structure's functor and arity)
of its first that was not.  While an entry lives its bindings only grow, so
u stays put, and so does w until it is bound: a lookup skips, unwalked, an
entry whose still-unbound w meets a ground call, a call argument that is
not an unbound variable, or another variable where either has a domain,
and one whose u meets another constant or functor.

Ground terms are shared, not copied: resolving a term (for a ground key,
a binding or an answer snapshot) returns every part with nothing bound
beneath it as it is, and a structure carries its hash and whether it is
ground from when it is built, so keys, bindings and snapshots neither walk
nor copy a deep ground argument.

A call resolves only the clauses the compiled program's first-argument
index lists for its dereferenced first argument: a constant or a
non-arithmetic structure selects the clauses whose source head has the
same constant or functor and arity there, plus those with a variable or
arithmetic there, in source order.  Every other clause would fail in its
hidden head unification anyway, so answers and their order are unchanged.

Universal quantification (forall) evaluates its goal against a worklist of
single-variable constraint views, the pieces of the quantified variable's
domain: each piece commits to the first answer for a fresh copy of the
variable, and either the answer view equals the piece (that region is
covered) or the answer's negation splits the piece into new ones.  A
forall over several variables quantifies the first, and each piece's
goal is the forall over the rest.  The pieces are goals of the main loop.
A forall's one alternative is a commit step carrying a driver that yields
each piece's goal; the loop schedules the goal followed by a new commit
step, which records the depth of the choice-point stack at that moment.
Reaching a commit step means the piece before it is proved: the loop
cuts the choice points above that depth, as a WAM cut does, keeping the
answer's bindings and constraints on the trail, and resumes the driver
for the next piece.  A piece with no answer backtracks past the forall,
which keeps no choice point, into the one below it, which undoes the
forall with its own alternative; constraints the pieces placed on outer
variables persist until then.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import NamedTuple

from . import store as store_mod
from .compiler import CompiledProgram, first_arg_key, rewrite_query
from .errors import SolverError
from .linear import LinearStore
from .terms import (
    CmpLit,
    Const,
    Forall,
    Lit,
    Query,
    Struct,
    Var,
    format_term,
    format_terms,
    fresh_var,
    goal_vars,
    rename_goal,
    term_vars,
)

__all__ = ["Engine", "Answer", "Node", "run_query"]

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


@dataclass(slots=True)
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
    views: dict  # vid -> constraint view per unbound variable, in naming order

    def model_atoms(self):
        """(pred, args) pairs of the model, nmr marker excluded."""
        return [(lit.pred, lit.args) for lit in self.model if lit.pred != "nmr_check"]


_FAIL = object()  # next() of an exhausted choice point
_MK = attrgetter("mk")
_SHORTCUT = {"succeed_coinductive": "chs", "succeed_proved": "proved"}
_EVENTS = frozenset(("atom", "constraint", "chs", "proved", "forall"))  # trail tags
RATIONAL = object()  # dom entry of a variable a rational constraint mentions


class _Owed(NamedTuple):
    """A payment step: the disequality t \\= x a binding owes, x ground."""

    t: object
    x: object


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
        self.dom = {}  # vid -> set of excluded ground terms, or RATIONAL
        self.lin = LinearStore.empty()
        self.proved = {}  # (name, arity) -> [args, ...]
        self._proved_keys = {}  # (name, ground key) -> count
        self._proved_open = {}  # (name, arity) -> [(args, wi, w, ui, u), ...]
        self.frames = []
        self._by_pred = {}  # (name, arity) -> [frame, ...]
        self._open = {}  # (name, arity) -> [frame not ground at push, ...]
        self._by_key = {}  # (name, ground key) -> topmost frame
        self.trail = []
        self.call_gkey = None  # ground key of the goal classify_loop saw last
        self.owed = []  # (term, excluded term) disequalities binds left unpaid
        self.det = False  # set as a generator yields its last alternative
        self.forall_trace = []  # diagnostic: (goal, view) per piece

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
            elif tag == "atom":
                if entry[2] is not None:
                    self._pop()
            elif tag == "exit":
                if entry[1] is not None:
                    self._push(entry[1])
            elif tag == "dom":
                if entry[2] is None:
                    del self.dom[entry[1]]
                else:
                    self.dom[entry[1]] = entry[2]
            elif tag == "excl":
                entry[1].difference_update(entry[2])
            elif tag == "lin":
                self.lin = entry[1]
            elif tag == "registered":
                key, pk = entry[1], entry[2]
                self.proved[key].pop()
                if pk is None:
                    self._proved_open[key].pop()
                elif self._proved_keys[pk] == 1:
                    del self._proved_keys[pk]
                else:
                    self._proved_keys[pk] -= 1
            # Any other tag is an event that changed nothing else.

    # -- terms -----------------------------------------------------------------

    def deref(self, t):
        while isinstance(t, Var):
            nxt = self.cells.get(t.id)
            if nxt is None:
                return t
            t = nxt
        return t

    def resolve(self, t):
        """A term with every bound variable replaced by its value."""
        return self._resolved((t,), False)[0]

    def _resolved(self, args, ground, memo=None):
        """A tuple of terms with every bound variable replaced by its value,
        or None when ground is set and an unbound variable remains.  A
        tuple or structure with nothing bound beneath it comes back as it
        is, so ground terms are shared, not copied; memo, if given, maps the
        id of each non-ground structure met to its copy, for one snapshot.
        A structure is walked with an explicit stack of the parents entered,
        each with the index reached and the copies made before it (None
        while they are its own arguments)."""
        cells = self.cells
        stack = None
        s, i, out = None, 0, None  # the structure whose args are walked
        while True:
            if i < len(args):
                t = a = args[i]
                while t.__class__ is Var:
                    nxt = cells.get(t.id)
                    if nxt is None:
                        if ground:
                            return None
                        break
                    t = nxt
                if t.__class__ is Struct and not t.ground:
                    r = memo.get(id(t)) if memo is not None else None
                    if r is None:
                        if stack is None:
                            stack = []
                        stack.append((s, args, i, out))
                        s, args, i, out = t, t.args, 0, None
                        continue
                    t = r
            else:
                sub = args if out is None else tuple(out)
                if not stack:
                    return sub
                t = s if sub is args else Struct(s.functor, sub)
                if memo is not None:
                    memo[id(s)] = t
                s, args, i, out = stack.pop()
                a = args[i]
            if out is None:
                if t is a:
                    i += 1
                    continue
                out = list(args[:i])
            out.append(t)
            i += 1

    def _occurs(self, vid, t) -> bool:
        """Does the unbound variable vid occur in t?"""
        todo = None
        while True:
            t = self.deref(t)
            if t.__class__ is Var:
                if t.id == vid:
                    return True
            elif not t.ground:
                if todo is None:
                    todo = []
                todo += t.args
            if not todo:
                return False
            t = todo.pop()

    def _bind_raw(self, vid, t):
        self.cells[vid] = t
        self.trail.append(("bind", vid))

    def _set_dom(self, vid, new):
        self.trail.append(("dom", vid, self.dom.get(vid)))
        self.dom[vid] = new

    def _set_lin(self, new_store):
        self.trail.append(("lin", self.lin))
        self.lin = new_store

    # -- unification -------------------------------------------------------------

    def unify(self, a, b) -> bool:
        """Bind a = b; False on a clash.  Bindings stay on the trail for the
        caller to undo.  Disequalities a binding owes are left in owed.
        Argument pairs are taken depth first, left to right, from an
        explicit stack."""
        pairs = None
        while True:
            a = self.deref(a)
            b = self.deref(b)
            if a.__class__ is Var:
                if not (b.__class__ is Var and a.id == b.id) and not self._bind(a, b):
                    return False
            elif b.__class__ is Var:
                if not self._bind(b, a):
                    return False
            elif (a.__class__ is Struct and b.__class__ is Struct and a.key == b.key
                  and not (a.ground and b.ground)):
                if pairs is None:
                    pairs = []
                pairs += zip(reversed(a.args), reversed(b.args))
            elif a != b:
                return False  # two ground structures: most mismatches differ in hash
            if not pairs:
                return True
            a, b = pairs.pop()

    def _take_owed(self):
        owed = self.owed
        if owed:
            self.owed = []
        return owed

    def _bind(self, var, t) -> bool:
        """Bind an unbound variable to a dereferenced term, re-checking its
        accumulated constraints."""
        if self._occurs(var.id, t):
            return False
        d = self.dom.get(var.id)
        if isinstance(t, Var):
            # Aliasing keeps a rational variable as the root.
            root, other = (var, t) if d is RATIONAL else (t, var)
            d = self.dom.get(other.id)
            if d is RATIONAL:
                # The store learns root = other before the binding, after
                # which other would resolve to root.
                if not self._assert_linear("=", root, other):
                    return False
                if other.id in self.cells:
                    return True  # the equality fixed both
                d = None
            self._bind_raw(other.id, root)
            return not d or self._exclude(root, d)
        if d is RATIONAL:
            # A rational variable is never a symbol or structure.
            return t.is_number and self._assert_linear("=", var, t)
        if d:
            g = self._resolved((t,), True)
            if g is None:
                # A non-ground value owes every excluded term a disequality,
                # which can branch: the caller pays them after unifying.
                self.owed.extend(_Owed(t, x) for x in sorted(d, key=format_term))
            elif g[0] in d:
                return False
        self._bind_raw(var.id, t)
        return True

    def _exclude(self, var, terms) -> bool:
        """Record that an unbound variable differs from each ground term.  On
        a rational variable a number becomes a disequality and any other term
        is vacuous, since a rational never equals a symbol or a structure;
        any other variable keeps them as exclusions."""
        d = self.dom.get(var.id)
        if d is not RATIONAL:
            if d is None:
                d = set()
                self._set_dom(var.id, d)
            added = [g for g in terms if g not in d]
            if added:
                d.update(added)
                self.trail.append(("excl", d, added))
            return True
        for g in sorted(terms, key=format_term):
            if g.is_number and not self._assert_linear("!=", var, g):
                return False
        return True

    # -- disequality over arbitrary terms -------------------------------------

    def assert_neq_term(self, a, b):
        """Solutions of a \\= b under the excluded-term discipline: one
        per argument pair that can differ when both sides are structures of
        one functor, else at most one; the last pair's is the last (det).
        The argument pairs are taken in order, depth first, from an explicit
        stack: each is dereferenced when reached, once the alternatives
        before it are undone."""
        pairs = [(a, b)]
        while pairs:
            a, b = pairs.pop()
            a = self.deref(a)
            b = self.deref(b)
            if a.__class__ is Struct and b.__class__ is Struct and a.key == b.key:
                pairs += zip(reversed(a.args), reversed(b.args))
                continue
            if b.__class__ is Var:
                a, b = b, a
            m = self.mark()
            if a.__class__ is not Var:
                ok = a != b  # different constants or shapes are never equal
            elif b.__class__ is Var:
                # Two rational variables differ in the store.  Nothing tells
                # two other unbound variables apart: this branch just fails
                # and lets a later alternative decide constructively.
                ok = (self.dom.get(a.id) is RATIONAL and self.dom.get(b.id) is RATIONAL
                      and self._assert_linear("!=", a, b))
            elif b.__class__ is Struct and not b.arith and self.dom.get(a.id) is RATIONAL:
                ok = True  # a rational never equals a structure
            elif (g := self._resolved((b,), True)) is not None:
                ok = self._exclude(a, g)
            elif self._occurs(a.id, b):
                ok = True  # a term strictly containing the variable never equals it
            else:
                sa, sb = format_terms(self.resolve(a), self.resolve(b))
                raise SolverError(
                    "nonground_disequality",
                    f"{sa} \\= {sb} needs a ground right-hand side",
                )
            if ok:
                self.det = not pairs
                yield
            self.undo_to(m)

    # -- linear constraints ------------------------------------------------------

    def _assert_linear(self, op, l, r) -> bool:
        """Conjoin l op r, two resolved terms, with the rational store,
        binding each variable it fixes.  Each variable it mentions becomes
        rational first, bringing its exclusions into the store."""
        for v in term_vars(l) + term_vars(r):
            d = self.dom.get(v.id)
            if d is not RATIONAL:
                self._set_dom(v.id, RATIONAL)
                if d and not self._exclude(v, d):
                    return False
        res = self.lin.assert_terms(op, l, r)
        if res is None:
            return False
        new_store, determined = res
        if new_store is not self.lin:
            self._set_lin(new_store)
        # Each variable is reported once, by the call that fixes it, and the
        # store forgets it: its value lives on only in the binding made here.
        # The store already checked it, and binding through _bind would
        # assert it again.  A variable aliased to another is already bound.
        for vid, val in determined:
            if vid not in self.cells:
                self._bind_raw(vid, Const(val))
        return True

    # -- constraint goals -------------------------------------------------------

    def _equate(self, a, b) -> bool:
        """Bind a = b once both are resolved: unify them, or conjoin them with
        the store when a side has arithmetic.  Owed disequalities are left
        in owed."""
        l, r = self._resolved((a, b), False)
        if l.arith or r.arith:
            return self._assert_linear("=", l, r)
        return self.unify(l, r)

    def solve_constraint(self, c: CmpLit):
        m = self.mark()
        op = c.op
        if op == "=":
            ok = self._equate(c.lhs, c.rhs)
            owed = self._take_owed()
            if ok:
                self.det = True
                yield owed or None  # the payments, still to prove
        else:
            l, r = self._resolved((c.lhs, c.rhs), False)
            if op == "\\=" and not (l.arith or r.arith):
                yield from self.assert_neq_term(l, r)
            elif self._assert_linear(op, l, r):
                self.det = True
                yield
        self.undo_to(m)

    # -- loop classification ------------------------------------------------------

    def _variant_args(self, xs, ys):
        """Are xs and ys equal up to a bijective renaming of their variables
        (a variable that carries constraints only renaming to itself)?"""
        fwd, bwd = {}, {}
        pairs = list(zip(xs, ys))
        while pairs:
            x, y = pairs.pop()
            x = self.deref(x)
            y = self.deref(y)
            if isinstance(x, Var) and isinstance(y, Var):
                if x.id != y.id and (x.id in self.dom or y.id in self.dom):
                    return False
                if fwd.get(x.id, y.id) != y.id or bwd.get(y.id, x.id) != x.id:
                    return False
                fwd[x.id] = y.id
                bwd[y.id] = x.id
            elif isinstance(x, Struct) and isinstance(y, Struct) and x.key == y.key:
                pairs.extend(zip(x.args, y.args))
            elif not (isinstance(x, Const) and isinstance(y, Const) and x == y):
                return False
        return True

    def _unifiable_args(self, xs, ys):
        m = self.mark()
        ok = all(map(self.unify, xs, ys))
        owed = self._take_owed()
        if ok and owed:
            # The first solution of the payments is enough.
            ok = next(self.solve(owed), _FAIL) is not _FAIL
        self.undo_to(m)
        return ok

    def _proved_variant(self, key, args, gkey):
        """Is args (ground key gkey) a variant of a registered atom of key?"""
        if gkey is not None and (key[0], gkey) in self._proved_keys:
            return True
        cells, dom, deref = self.cells, self.dom, self.deref
        for p, wi, w, ui, u in self._proved_open.get(key, ()):
            # The skips the module docstring describes, inline: no call per entry.
            if w is not None and w.id not in cells:
                if gkey is not None:
                    continue
                c = deref(args[wi])
                if c.__class__ is not Var or (c.id != w.id and (c.id in dom or w.id in dom)):
                    continue
            if ui is not None:
                c = deref(args[ui])
                if (c.key if c.__class__ is Struct else c) != u:
                    continue
            if self._variant_args(args, p):
                return True
        return False

    def classify_loop(self, goal: Lit):
        """How a goal relates to the in-flight call path (and proof registry).

        Leaves the call's ground key in call_gkey for solve_call."""
        info = self.cp.pred_info[goal.pred]
        kind, marker = info.kind, info.marker
        n = len(goal.args)
        gkey = self.call_gkey = self._resolved(goal.args, True)
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
        # The frames with k >= 2, the only ones that can close an even
        # loop, are a bottom part of the stack: found by binary search.
        k0 = marker + total
        stack = self._by_pred.get(goal.key, ())
        for i in range(bisect_right(stack, k0 - 2, key=_MK) - 1, -1, -1):
            fr = stack[i]
            if (k0 - fr.mk) % 2 == 0 and self._unifiable_args(goal.args, fr.args):
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

    def solve(self, goals):
        """Solutions of the conjunction goals: one loop over the goals still
        to prove, a linked list of (goal, rest) cells, and a stack of choice
        points, (generator of alternatives, goals after its goal).  An
        alternative is a sequence of goals to prove first, or None.  A goal's
        last alternative leaves no choice point: the generator sets det as
        it yields it, and the loop pops it, so the choice point below
        undoes the goal with its own alternative.  Besides goals, the list
        holds three kinds of step: a call's exit step (goal, frame), a
        payment step _Owed(t, x), and a forall's commit step [piece driver,
        depth], whose depth is None before the first piece.  The loop logs
        a constraint's event just before it pushes the constraint's choice
        point, so the choice point below undoes it; calls, shortcuts and
        foralls log their own, and payments none."""
        todo = None
        for goal in reversed(goals):
            todo = (goal, todo)
        choices = []
        while True:
            if todo is None:
                yield
            else:
                goal, todo = todo
                if type(goal) is tuple:  # a call's exit step: its body is proved
                    goal, fr = goal
                    self._pop()
                    self.trail.append(("exit", fr))
                    self._register_proved(goal, fr.gkey)
                    continue
                if isinstance(goal, Lit):
                    gen = self.solve_call(goal)
                elif isinstance(goal, CmpLit):
                    self.trail.append(("constraint", goal))
                    gen = self.solve_constraint(goal)
                elif isinstance(goal, Forall):
                    gen = self.c_forall(goal.vars, goal.goal)
                elif goal.__class__ is _Owed:  # a payment step: no event
                    gen = self.assert_neq_term(goal.t, goal.x)
                else:  # a forall's commit step
                    pieces, depth = goal
                    if depth is not None:
                        # The cut: commit to the first answer of the piece
                        # scheduled at depth, keeping its trail entries.
                        del choices[depth:]
                    goal = next(pieces, None)
                    if goal is not None:
                        todo = (goal, ([pieces, len(choices)], todo))
                    continue
                choices.append((gen, todo))
            while choices:
                gen, todo = choices[-1]
                body = next(gen, _FAIL)
                if body is not _FAIL:
                    if self.det:  # its last alternative: the trail undoes it
                        self.det = False
                        choices.pop()
                    break
                choices.pop()
            else:
                return
            if body is not None:
                for goal in reversed(body):
                    todo = (goal, todo)

    def solve_call(self, goal: Lit):
        """Alternatives of a call: per clause whose head matches, the
        payments the match owes, the rest of its body and the exit step
        that pops its frame.  A shortcut's alternative and the last
        clause's are its last (see solve)."""
        rules = self.cp.rules.get(goal.key)
        trail = self.trail
        if goal.neg:
            # A negation rewrite_query found no dual for: the predicate is
            # not in the program, so it holds vacuously.
            trail.append(("atom", goal, None))
            trail.append(("exit", None))
            self.det = True
            yield None
            return
        if rules is None:
            return  # a call to a predicate with no rules fails
        act = self.classify_loop(goal)
        if act == "fail_odd" or act == "fail_positive":
            return
        if act != "continue":
            trail.append((_SHORTCUT[act], goal))
            self.det = True
            yield None
            return
        gkey = self.call_gkey
        index = self.cp.first_arg.get(goal.key)
        if index is not None:
            key = first_arg_key(self.deref(goal.args[0]))
            if key is not None:
                # A skipped clause's head has a first argument with another
                # key, so its first hidden `=` fails quietly, before any
                # event, frame or lasting trail entry:
                # - differing functors, symbols or numbers fail in unify;
                # - arithmetic below a top functor sends `=` to the linear
                #   store, where linear.form_of returns None (it never raises
                #   on a non-arithmetic top), so it fails too.
                by_key, wildcards = index
                rules = by_key.get(key, wildcards)
        fr = _Frame(goal, self.cp.pred_info[goal.pred])
        last = rules[-1] if rules else None
        for rule in rules:
            # A compiled head is distinct variables: they stand for the
            # call's arguments, so only the body is renamed.
            mapping = {v.id: a for v, a in zip(rule.head.args, goal.args)}
            body = tuple(rename_goal(g, mapping) for g in rule.body)
            hide = rule.hide_prefix
            m = self.mark()
            # The hidden head unifications run before the frame is pushed,
            # so a clause whose head does not match costs no frame.  They
            # are determinate: what their bindings owe is paid after them.
            for c in body[:hide]:
                if not self._equate(c.lhs, c.rhs):
                    self.owed = []
                    break
            else:
                owed = self._take_owed()
                self.det = rule is last
                # A ground key never changes: only a call that was not
                # ground may have become ground since.
                fr.gkey = self._resolved(goal.args, True) if gkey is None else gkey
                trail.append(("atom", goal, fr))
                self._push(fr)
                yield (*owed, *body[hide:], (goal, fr))
            self.undo_to(m)

    def _register_proved(self, goal: Lit, gkey):
        if gkey is None:
            gkey = self._resolved(goal.args, True)
        pk = None if gkey is None else (goal.pred, gkey)
        self.proved.setdefault(goal.key, []).append(goal.args)
        if pk is None:
            # w and u, with their positions, for _proved_variant's filter.
            wi = w = ui = u = None
            for i, a in enumerate(goal.args):
                t = self.deref(a)
                if t.__class__ is Var:
                    if w is None:
                        wi, w = i, t
                elif ui is None:
                    ui, u = i, (t.key if t.__class__ is Struct else t)
            self._proved_open.setdefault(goal.key, []).append((goal.args, wi, w, ui, u))
        else:
            self._proved_keys[pk] = self._proved_keys.get(pk, 0) + 1
        self.trail.append(("registered", goal.key, pk))

    # -- universal quantification ----------------------------------------------

    def apply(self, view, var: Var) -> bool:
        """Constrain a fresh variable to one constraint view."""
        if view[0] == "top":
            return True
        if view[0] == "eq":
            self._bind_raw(var.id, view[1])
            return True
        if view[0] == "neq":
            return self._exclude(var, view[1])
        for op, val in view[1]:
            if not self._assert_linear(op, var, Const(val)):
                return False
        return True

    def dump(self, var: Var):
        """Project the current state onto one variable as a constraint view."""
        t = self.deref(var)
        if isinstance(t, Var):
            d = self.dom.get(t.id)
            if d is RATIONAL:
                return store_mod.lin_view(self.lin, t.id)
            return ("neq", frozenset(d)) if d else store_mod.TOP
        return ("eq", self.resolve(t))

    def c_forall(self, vs: tuple, goal):
        """One alternative, its last: a commit step carrying the driver of
        the pieces of vs[0]."""
        self.trail.append(("forall", Forall(vs, goal)))
        self.det = True
        yield ([self._pieces(vs, goal), None],)

    def _pieces(self, vs: tuple, goal):
        """The goal of each piece of the domain of vs[0] still to cover, in
        order: goal quantified over the rest of vs, if any.  The loop
        resumes it once it has committed to the previous piece's first
        answer, whose bindings and constraints stay on the trail."""
        var = vs[0]
        if len(vs) > 1:
            goal = Forall(vs[1:], goal)
        # A stack of pieces: the next one is on top, so new pieces are
        # pushed in reverse to be taken in order.
        pending = [store_mod.TOP]
        # Each piece renames var alone: every other variable maps to itself.
        mapping = {v.id: v for v in goal_vars(goal)}
        while pending:
            piece = pending.pop()
            nv = mapping[var.id] = fresh_var("_")
            goal2 = rename_goal(goal, mapping)
            self.forall_trace.append((goal, piece))
            if not self.apply(piece, nv):
                continue  # the piece itself is unsatisfiable: nothing to cover
            yield goal2
            ans = self.dump(nv)
            if ans == piece:
                continue
            pending += reversed(store_mod.add(store_mod.dual(ans), piece))
        self.trail.append(("exit", None))

    # -- queries -------------------------------------------------------------------

    def run_query(self, query: Query, max_answers: int = 0):
        """Answers of a query; each answer snapshots bindings, model, and proof."""
        self.reset()
        q = rewrite_query(query, self.cp)
        goals = list(q.goals) + [Lit("nmr_check")]
        t0 = time.perf_counter()
        n = 0
        for _ in self.solve(goals):
            n += 1
            yield self._snapshot(query, n, t0)
            if max_answers and n >= max_answers:
                return

    # -- answer snapshots ------------------------------------------------------------

    def _snapshot(self, query: Query, number: int, t0: float) -> Answer:
        """One walk of the log builds the justification ('atom' and 'forall'
        events open a node that the matching 'exit' closes), the model
        (user atoms and chs shortcuts, first derivation first) and the
        unbound variables in the order answers name them in, by first
        occurrence: in the justification's pre-order, which holds all the
        model's, then in the bindings."""
        elapsed = (time.perf_counter() - t0) * 1000.0
        memo = {}  # for this answer: the log keeps its keys alive
        pred_info = self.cp.pred_info
        root = Node("root")
        stack = [root]
        model, in_model = [], set()
        found, seen = [], set()
        for ev in self.trail:
            kind = ev[0]
            if kind == "exit":
                stack.pop()
                continue
            if kind not in _EVENTS:
                continue  # a binding, domain, store or registry entry
            goal = self._resolve_goal(ev[1], memo)
            node = Node(kind, goal)
            stack[-1].children.append(node)
            goal_vars(goal, found, seen)
            if kind == "atom" or kind == "forall":
                stack.append(node)
            if (kind == "atom" or kind == "chs") and not goal.neg:
                info = pred_info.get(goal.pred)
                key = (goal.pred, goal.args)
                if info is not None and info.kind == "user" and key not in in_model:
                    in_model.add(key)
                    model.append(goal)
        model.append(Lit("nmr_check"))
        bindings = [(name, self._resolved((v,), False, memo)[0]) for name, v in query.vars]
        for _, t in bindings:
            term_vars(t, found, seen)
        views = {v.id: self.dump(v) for v in found}
        return Answer(number, elapsed, bindings, model, root.children, views)

    def _resolve_goal(self, goal, memo):
        if isinstance(goal, Lit):
            args = self._resolved(goal.args, False, memo)
            return goal if args is goal.args else Lit(goal.pred, args, goal.neg)
        if isinstance(goal, CmpLit):
            lhs, rhs = self._resolved((goal.lhs, goal.rhs), False, memo)
            return CmpLit(goal.op, lhs, rhs)
        return Forall(goal.vars, self._resolve_goal(goal.goal, memo))


def run_query(cp: CompiledProgram, query: Query, max_answers: int = 0):
    """Convenience wrapper: evaluate a query on a fresh engine."""
    yield from Engine(cp).run_query(query, max_answers)
