"""The constraint store: bindings, constraint domains and their views.

ConstraintStore is the half of the solver the paper makes parametric in
the constraint domain.  It holds variable bindings, each variable's
constraint domain and one linear-arithmetic store, all recorded on one
trail that mark and undo_to roll back.  The engine (engine.Engine) extends
it with resolution: it writes its own events on the same trail, and
undo_to hands every entry that is not the store's own (bind, dom, excl,
lin) to _undo_event, which the engine overrides.

One map, dom, says which constraint domain an unbound variable lives in:
a set of excluded ground terms, or RATIONAL once a rational constraint
that reaches the store mentions it, whether or not the store keeps a row
for it (as X + 1 .>. X or X .=. X leave none).  Tests and assignments
on known numbers never reach the store: a constraint whose two sides are
ground is decided on their values, and an `=` between a variable in no
domain and a ground side binds the variable to its value, which gives it
no domain (linear.assert_known).  The store is handed resolved terms
(LinearStore.assert_terms), never a linear form.  Before any other
assert, each variable it mentions becomes RATIONAL, and its exclusions
follow it into the store, numbers as disequalities; any other excluded
term is dropped as vacuous, since a rational never equals a symbol or a
structure.  For the same reason `\\=` against a non-number records
nothing on a rational variable, and such a variable never binds to one.
`=` without arithmetic always unifies, so two rational variables are
aliased like any others, the store learning their equality first.  A
value the store fixes lives only in the binding: the store reports it
once, the variable is bound at once, and the store forgets it.  A
constraint goal resolves its two sides once, and their arith flag says
whether `=` or `\\=` goes to the store whole.  Any other `\\=` takes the
one walk per argument pair that payments take too (assert_neq_term),
wherever its variables sit in the two sides: a pair of two rational
variables goes to the store as `!=`, and a pair of a variable and a
ground term becomes an exclusion.  As terms are resolved before each
assert, the store is never handed a variable it fixed before.  A
variable's exclusions are one set of the store's own that each `\\=`, or
an applied neq view, grows in place, trailing the terms it added for an
undo to remove; dump hands out a frozen copy.

Unification is a plain function: unify binds or reports a clash, leaving
its bindings on the trail for the caller to undo.  Two ground structures
unify when they are equal, binding nothing, and unequal ones mostly differ
in hash, so unify rejects them at once.  The one way it can branch is
binding a variable with excluded terms to a non-ground term, which owes a
disequality per excluded term; the binding is made at once and the owed
pairs are left in owed as payment steps (_Owed) for the caller to prove.
No term walk recurses: resolving, unifying, the occurs check, a
disequality and a linear form each walk a term with an explicit stack.

What is known about one variable is a view: nothing, a binding, an
excluded set of ground terms, or a conjunction of rational bounds and
excluded values.  Views are small tagged tuples:

    ('top',)                       no constraint
    ('eq', term)                   bound to term
    ('neq', frozenset_of_terms)    different from every listed ground term
    ('lin', ((op, value), ...))    rational bounds/exclusions, canonically
                                   ordered lower, upper, then excluded points

dump() reads a variable's view and apply() constrains a variable, bound
or not, to one.  A rational view holds the rational store's own
projection (LinearStore.project), the one canonical form of rational
bounds, so two views entail each other exactly when they compare equal
with ``==``.  view_conj() and lin_canon() apply views to one variable of a
throwaway store and dump it, so views obey the domain rules above and
have none of their own.  dual() negates a view into a covering list of
disjoint views, and add() conjoins a list of candidate views with a base
view, dropping inconsistent results.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SolverError
from .linear import OP_TEXT, LinearStore, assert_known, complement
from .terms import CmpLit, Const, Struct, Var, format_term, format_terms, term_vars

__all__ = ["ConstraintStore", "TOP", "view_conj", "dual", "add", "lin_canon", "lin_view"]

TOP = ("top",)  # the view that says nothing about the variable
RATIONAL = object()  # dom entry of a variable a rational constraint mentions
_EQ = frozenset(("=", OP_TEXT["="]))  # an assignment's operator, in either spelling


class _Owed(NamedTuple):
    """A payment step: the disequality t \\= x a binding owes, x ground."""

    t: object
    x: object


class ConstraintStore:
    """Bindings, domains and the rational store of one search, on one trail."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.cells = {}  # vid -> term
        self.dom = {}  # vid -> set of excluded ground terms, or RATIONAL
        self.lin = LinearStore.empty()
        self.trail = []
        self.owed = []  # (term, excluded term) disequalities binds left unpaid
        self.det = False  # set as a generator yields its last alternative

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
            elif tag == "dom":
                if entry[2] is None:
                    del self.dom[entry[1]]
                else:
                    self.dom[entry[1]] = entry[2]
            elif tag == "excl":
                entry[1].difference_update(entry[2])
            elif tag == "lin":
                self.lin = entry[1]
            else:
                self._undo_event(entry)

    def _undo_event(self, entry):
        """Undo a trail entry that is not the store's own: an event, which
        changed nothing here."""

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
        binding each variable it fixes.  A test of two ground sides, or an
        assignment of a ground side to a variable in no domain, is decided
        on its values alone.  Before any other constraint, each variable it
        mentions becomes rational, bringing its exclusions into the store."""
        if l.ground:
            known = r.ground or r.__class__ is Var and op in _EQ and r.id not in self.dom
        else:
            known = r.ground and l.__class__ is Var and op in _EQ and l.id not in self.dom
        if known:
            determined = assert_known(op, l, r)
            if determined is None:
                return False
        else:
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
        """Solutions of a constraint goal, each undone when the next is
        asked for; the last sets det.  A solution of `=` is the payments
        its bindings owe, still to prove, or None."""
        m = self.mark()
        op = c.op
        if op == "=":
            ok = self._equate(c.lhs, c.rhs)
            owed = self._take_owed()
            if ok:
                self.det = True
                yield owed or None
        else:
            l, r = self._resolved((c.lhs, c.rhs), False)
            if op == "\\=" and not (l.arith or r.arith):
                yield from self.assert_neq_term(l, r)
            elif self._assert_linear(op, l, r):
                self.det = True
                yield
        self.undo_to(m)

    # -- views -------------------------------------------------------------------

    def apply(self, view, var: Var) -> bool:
        """Constrain var, bound or not, to one constraint view: an eq view
        unifies, a neq view excludes its terms from an unbound variable or
        tests a bound one's value, and a lin view asserts each entry on
        the variable's value as it stands before the entry."""
        tag = view[0]
        if tag == "eq":
            return self.unify(var, view[1])
        if tag == "neq":
            t = self.deref(var)
            if t.__class__ is Var:
                return self._exclude(t, view[1])
            return self.resolve(t) not in view[1]
        if tag == "lin":
            for op, val in view[1]:
                if not self._assert_linear(op, self.resolve(var), Const(val)):
                    return False
        return True

    def dump(self, var: Var):
        """Project the current state onto one variable as a constraint view."""
        t = self.deref(var)
        if isinstance(t, Var):
            d = self.dom.get(t.id)
            if d is RATIONAL:
                return lin_view(self.lin, t.id)
            return ("neq", frozenset(d)) if d else TOP
        return ("eq", self.resolve(t))


# -- the algebra of views ----------------------------------------------------------


def _conjoined(*views):
    """The view of one variable of a throwaway store once each view is
    applied to it; None when they exclude each other."""
    cs, x = ConstraintStore(), Var(0)
    for view in views:
        if not cs.apply(view, x):
            return None
    return cs.dump(x)


def lin_view(store, vid):
    """The view of one variable the rational store does not fix: its
    projection, already canonical."""
    entries = store.project(vid)
    return ("lin", tuple(entries)) if entries else TOP


def lin_canon(entries):
    """The canonical view of (op, Fraction) pairs, op in = != < <= > >=:
    TOP, ('eq', Const) or ('lin', entries); None when unsatisfiable."""
    return _conjoined(("lin", entries))


def view_conj(a, b):
    """Conjunction of two views; None when they exclude each other."""
    if a[0] == "top":
        return b
    if b[0] == "top":
        return a
    return _conjoined(a, b)


def dual(view):
    """Disjoint views covering exactly the complement of view."""
    if view[0] == "top":
        return []
    if view[0] == "eq":
        t = view[1]
        if t.is_number:
            return [("lin", (("!=", t.value),))]
        if t.ground:
            return [("neq", frozenset((t,)))]
        raise SolverError(
            "nonground_disequality",
            f"cannot negate a binding to non-ground {format_terms(t)[0]}",
        )
    if view[0] == "neq":
        return [("eq", t) for t in sorted(view[1], key=format_term)]
    pieces = []
    entries = view[1]
    for i, (op, val) in enumerate(entries):
        prefix = list(entries[:i])
        for cop in complement(op):
            piece = lin_canon(prefix + [(cop, val)])
            if piece is not None:
                pieces.append(piece)
    return pieces


def add(pieces, base):
    """Conjoin each piece with the base view, dropping inconsistent results."""
    return [m for piece in pieces if (m := view_conj(piece, base)) is not None]
