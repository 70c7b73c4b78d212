"""Single-variable constraint views and their boolean algebra.

The universal-quantification loop reasons about "what is known about one
variable": nothing, a binding, an excluded set of ground terms, or a
conjunction of rational bounds and excluded values.  Views are small tagged
tuples:

    ('top',)                       no constraint
    ('eq', term)                   bound to term
    ('neq', frozenset_of_terms)    different from every listed ground term
    ('lin', ((op, value), ...))    rational bounds/exclusions, canonically
                                   ordered lower, upper, then excluded points

A rational view holds the rational store's own projection
(LinearStore.project), the one canonical form of rational bounds: lin_view()
reads it from the engine's store, and lin_canon() from a store of its own
that conjoins a list of entries.  So two views entail each other exactly
when they compare equal with ``==``.  dual() negates a view into a
covering list of disjoint views, and add() conjoins a list of candidate
views with a base view, dropping inconsistent results.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SolverError
from .linear import LinearStore, complement
from .terms import Const, Var, format_term, format_terms

__all__ = ["TOP", "view_conj", "dual", "add", "lin_canon", "lin_view"]

TOP = ("top",)  # the view that says nothing about the variable


def lin_view(store, vid):
    """The view of one variable the rational store does not fix: its
    projection, already canonical."""
    entries = store.project(vid)
    return ("lin", tuple(entries)) if entries else TOP


def lin_canon(entries):
    """The canonical view of (op, value) pairs, op in = != < <= > >=: TOP,
    ('eq', Const) or ('lin', entries); None when unsatisfiable.  They are
    conjoined in a store of their own, on a variable no term uses; once the
    store fixes it, the rest are checked against the value."""
    store, x = LinearStore.empty(), Var(0)
    for op, val in entries:
        got = store.assert_terms(op, x, Const(Fraction(val)))
        if got is None:
            return None
        store, fixed = got
        if fixed:
            x = Const(fixed[0][1])
    return ("eq", x) if isinstance(x, Const) else lin_view(store, x.id)


def view_conj(a, b):
    """Conjunction of two views; None when they exclude each other."""
    if a[0] == "top":
        return b
    if b[0] == "top":
        return a
    if a[0] == "eq" and b[0] == "eq":
        return a if a[1] == b[1] else None
    if a[0] == "eq" or b[0] == "eq":
        eqv, other = (a, b) if a[0] == "eq" else (b, a)
        t = eqv[1]
        if other[0] == "neq":
            return None if t in other[1] else eqv
        # other is 'lin': only a rational can satisfy rational constraints
        if not t.is_number:
            return None
        return lin_canon(list(other[1]) + [("=", t.value)])
    if a[0] == "neq" and b[0] == "neq":
        return ("neq", a[1] | b[1])
    if a[0] == "neq" or b[0] == "neq":
        neqv, linv = (a, b) if a[0] == "neq" else (b, a)
        extra = [("!=", t.value) for t in neqv[1] if t.is_number]
        # Non-numeric exclusions are vacuous for a rational-constrained variable.
        return lin_canon(list(linv[1]) + extra)
    return lin_canon(list(a[1]) + list(b[1]))


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
        out = []
        for t in sorted(view[1], key=format_term):
            out.append(("eq", t))
        return out
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
    out = []
    for piece in pieces:
        merged = view_conj(piece, base)
        if merged is not None:
            out.append(merged)
    return out
