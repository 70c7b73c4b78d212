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

lin_canon() is the one canonical form of rational bounds: the engine passes
a variable's raw projection through it, so two views entail each other
exactly when they compare equal with ``==``.  dual() negates a view into a
covering list of disjoint views, and add() conjoins a list of candidate
views with a base view, dropping inconsistent results.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import SolverError
from .linear import complement
from .terms import Const, format_term, format_terms

__all__ = ["TOP", "view_conj", "dual", "add", "lin_canon"]

TOP = ("top",)  # the view that says nothing about the variable


def _is_num(t) -> bool:
    return isinstance(t, Const) and t.is_number


def lin_canon(entries):
    """Normalize one-variable rational constraints; None when unsatisfiable.

    Accepts (op, value) pairs with op in = != < <= > >=; returns a canonical
    view: TOP, ('eq', Const), or ('lin', entries) with the tightest lower
    bound first, then the tightest upper bound, then excluded points in
    ascending order (excluded points equal to a closed bound stricten it).
    """
    lo = hi = None
    eqs = set()
    neqs = set()
    for op, val in entries:
        val = Fraction(val)
        if op == "=":
            eqs.add(val)
        elif op == "!=":
            neqs.add(val)
        elif op in (">", ">="):
            cand = (val, op == ">")
            if lo is None or cand[0] > lo[0] or (cand[0] == lo[0] and cand[1]):
                lo = cand
        elif op in ("<", "<="):
            cand = (val, op == "<")
            if hi is None or cand[0] < hi[0] or (cand[0] == hi[0] and cand[1]):
                hi = cand
        else:
            raise ValueError(f"unknown linear operator {op!r}")
    if eqs:
        if len(eqs) > 1:
            return None
        val = next(iter(eqs))
        if val in neqs:
            return None
        if lo and (val < lo[0] or (val == lo[0] and lo[1])):
            return None
        if hi and (val > hi[0] or (val == hi[0] and hi[1])):
            return None
        return ("eq", Const(val))
    if lo and hi:
        if lo[0] > hi[0]:
            return None
        if lo[0] == hi[0]:
            if lo[1] or hi[1]:
                return None
            if lo[0] in neqs:
                return None
            return ("eq", Const(lo[0]))
    if lo and not lo[1] and lo[0] in neqs:
        neqs.discard(lo[0])
        lo = (lo[0], True)
    if hi and not hi[1] and hi[0] in neqs:
        neqs.discard(hi[0])
        hi = (hi[0], True)
    out = []
    if lo:
        out.append((">" if lo[1] else ">=", lo[0]))
    if hi:
        out.append(("<" if hi[1] else "<=", hi[0]))
    for val in sorted(neqs):
        if lo and (val < lo[0] or (val == lo[0] and lo[1])):
            continue
        if hi and (val > hi[0] or (val == hi[0] and hi[1])):
            continue
        out.append(("!=", val))
    if not out:
        return TOP
    return ("lin", tuple(out))


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
        if not _is_num(t):
            return None
        merged = lin_canon(list(other[1]) + [("=", t.value)])
        return merged
    if a[0] == "neq" and b[0] == "neq":
        return ("neq", a[1] | b[1])
    if a[0] == "neq" or b[0] == "neq":
        neqv, linv = (a, b) if a[0] == "neq" else (b, a)
        extra = [("!=", t.value) for t in neqv[1] if _is_num(t)]
        # Non-numeric exclusions are vacuous for a rational-constrained variable.
        return lin_canon(list(linv[1]) + extra)
    return lin_canon(list(a[1]) + list(b[1]))


def dual(view):
    """Disjoint views covering exactly the complement of view."""
    if view[0] == "top":
        return []
    if view[0] == "eq":
        t = view[1]
        if _is_num(t):
            return [("lin", (("!=", t.value),))]
        if isinstance(t, Const) or t.ground:
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
