"""Conjunctions of linear constraints over exact rationals.

A store keeps a substitution for solved equalities, normalized weak/strict
inequalities, and held disequalities.  Satisfiability, variable bounds, and
projection all run through one Fourier-Motzkin routine, ``_eliminate``,
which is exact over the rationals, so every constraint the solver reports
has been decided rather than approximated.  It eliminates every variable
but one, and the rows left bound that one variable: its span.  A
disequality over several variables excludes the values of a projected
variable at which the rows force it to zero; those are read off three
spans (``project``), never re-verified by further eliminations.

A variable the store determines to one rational is handed back to the
caller, as a CLP system hands a solved variable back to the engine:
``assert_constraint`` reports it as determined, once, and the store it
returns no longer mentions it.  The caller keeps the value (the engine
binds the variable at once) and puts the value, not the variable, in every
later constraint.  So a long derivation that determines one value per step
keeps the store small and each step's cost constant.

An assert re-normalises the store (``_normalize``: substitute, tighten,
and solve every implicit equality) only where the new constraint can
change a row.  A form over one variable the store does not mention
(``vars``) cannot.  With ``=`` the general path would add the value as a
constant row and report and drop it at once, so the value is reported and
the same store comes back.  With an inequality the bound, scaled as
``_tighten`` scales it, goes into the sorted rows in order: no other row
shares its variable, so none tightens it or is tightened by it, and the
rows' strict interior point extends to it, which leaves every disequality
as decided as before.  Within ``_normalize``, rows that hold when all are
made strict have no implicit equality, so one elimination over them
replaces the satisfiability check and the check per weak row.

The engine speaks terms: ``LinearStore.assert_terms`` takes two resolved
terms and an operator in either the program's spelling (``.<.``, ``\\=``)
or the store's (``<``, ``!=``), builds each side's linear form
(``form_of``) and conjoins them; ``OP_TEXT`` is the one table between the
two spellings.  Only the store-alone tests build forms outside this
module, for ``assert_constraint`` and ``entails``.  Linear forms are plain
tuples ``(constant, ((vid, coeff), ...))`` with the variable ids sorted;
an inequality entry ``(form, strict)`` means ``form <= 0`` (or
``form < 0`` when strict), and a disequality entry means ``form != 0``.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from operator import eq, ge, gt, le, lt, ne

from .errors import SolverError
from .terms import ARITH_OPS, Var, format_terms

__all__ = [
    "LinearStore", "OP_TEXT", "complement", "form_of", "form_const",
    "form_var", "form_add", "form_sub", "form_neg", "form_scale", "form_vars",
    "form_is_const", "ZERO",
]

# Each store operator and its spelling in programs and answers.
OP_TEXT = {"<": ".<.", "<=": ".=<.", ">": ".>.", ">=": ".>=.", "=": ".=.", "!=": ".\\=."}

# Either spelling to the store's; `=` and `\=` between numbers are the
# store's `=` and `!=`.
_STORE_OP = {**{op: op for op in OP_TEXT}, **{t: op for op, t in OP_TEXT.items()}, "\\=": "!="}

_F0 = Fraction(0)
_F1 = Fraction(1)
_FM1 = Fraction(-1)
_NO_VARS = frozenset()

# Each store operator: its test of a constant `lhs - rhs` against zero, the
# operators whose disjunction is its exact negation, and for an inequality
# its row `sign * (lhs - rhs) <= 0` (`< 0` when strict) as (sign, strict).
_OPS = {
    "<": (lt, (">=",), (_F1, True)),
    "<=": (le, (">",), (_F1, False)),
    ">": (gt, ("<=",), (_FM1, True)),
    ">=": (ge, ("<",), (_FM1, False)),
    "=": (eq, ("<", ">"), None),
    "!=": (ne, ("=",), None),
}

ZERO = (_F0, ())


def form_const(c) -> tuple:
    return (c if type(c) is Fraction else Fraction(c), ())


def form_var(vid: int) -> tuple:
    return (_F0, ((vid, _F1),))


def form_add(a: tuple, b: tuple) -> tuple:
    terms = dict(a[1])
    for vid, coef in b[1]:
        c = terms.get(vid, _F0) + coef
        if c == 0:
            terms.pop(vid, None)
        else:
            terms[vid] = c
    return (a[0] + b[0], tuple(sorted(terms.items())))


def form_sub(a: tuple, b: tuple) -> tuple:
    terms = dict(a[1])
    for vid, coef in b[1]:
        c = terms.get(vid, _F0) - coef
        if c == 0:
            terms.pop(vid, None)
        else:
            terms[vid] = c
    return (a[0] - b[0], tuple(sorted(terms.items())))


def form_scale(a: tuple, k: Fraction) -> tuple:
    if k == 1:
        return a
    if k == 0:
        return ZERO
    return (a[0] * k, tuple((vid, coef * k) for vid, coef in a[1]))


def form_neg(a: tuple) -> tuple:
    return form_scale(a, _FM1)


def form_vars(a: tuple):
    return {vid for vid, _ in a[1]}


def form_coef(a: tuple, vid: int) -> Fraction:
    for v, coef in a[1]:
        if v == vid:
            return coef
    return _F0


def form_is_const(a: tuple) -> bool:
    return not a[1]


def form_apply(a: tuple, subst: dict) -> tuple:
    """Replace every solved variable in a form by its form in subst; the
    form itself when it mentions none."""
    solved = [(vid, coef) for vid, coef in a[1] if vid in subst]
    if not solved:
        return a
    out = (a[0], tuple((v, c) for v, c in a[1] if v not in subst))
    for vid, coef in solved:
        out = form_add(out, form_scale(subst[vid], coef))
    return out


def form_of(t):
    """Linear form of a resolved term; None when it mentions non-numeric
    data.  A product of two unknowns, or a division by one or by zero,
    raises nonlinear_constraint.  The term is walked with an explicit
    stack, in post-order: both operands are read, left first, before their
    operator applies, even when one of them is None."""
    if not t.arith:  # no operator to apply
        return form_var(t.id) if t.__class__ is Var else form_const(t.value) if t.is_number else None
    todo, forms = [t], []
    while todo:
        t = todo.pop()
        cls = t.__class__
        if cls is tuple:  # an operator whose operands' forms are on top
            t = t[0]
            rf = forms.pop()
            lf = forms.pop()
            if lf is None or rf is None:
                forms.append(None)
            elif t.functor == "+":
                forms.append(form_add(lf, rf))
            elif t.functor == "-":
                forms.append(form_sub(lf, rf))
            elif t.functor == "*":
                if lf[1] and rf[1]:
                    raise SolverError(
                        "nonlinear_constraint", f"product of two unknowns in {format_terms(t)[0]}"
                    )
                forms.append(form_scale(rf, lf[0]) if not lf[1] else form_scale(lf, rf[0]))
            elif rf[1] or rf[0] == 0:
                raise SolverError(
                    "nonlinear_constraint",
                    f"division by a non-constant or zero in {format_terms(t)[0]}",
                )
            else:
                forms.append(form_scale(lf, _F1 / rf[0]))
        elif cls is Var:
            forms.append(form_var(t.id))
        elif t.arith and t.functor in ARITH_OPS and len(t.args) == 2:
            todo += ((t,), t.args[1], t.args[0])
        else:
            forms.append(form_const(t.value) if t.is_number else None)
    return forms[0]


def complement(op: str):
    """Operators whose disjunction is the exact negation of op."""
    return _OPS[op][1]


# -- Fourier-Motzkin machinery ------------------------------------------------


def _ground_split(cons):
    """Partition constraints into live ones and a contradiction flag."""
    live = []
    for form, strict in cons:
        if form_is_const(form):
            if form[0] > 0 or (form[0] == 0 and strict):
                return None
            continue
        live.append((form, strict))
    return live


def _fm_step(cons, vid):
    lowers, uppers, rest = [], [], []
    for form, strict in cons:
        coef = form_coef(form, vid)
        if coef == 0:
            rest.append((form, strict))
        elif coef > 0:
            uppers.append((form, strict, coef))
        else:
            lowers.append((form, strict, coef))
    for lf, ls, lc in lowers:
        for uf, us, uc in uppers:
            comb = form_add(form_scale(uf, -lc), form_scale(lf, uc))
            rest.append((comb, ls or us))
    return rest


def _eliminate(cons, keep=None):
    """Eliminate every variable of cons but keep, smallest id first; the
    rows left, each over keep alone, or None when a contradiction shows on
    the way.  With keep None the rows left are [] exactly when cons is
    satisfiable."""
    while True:
        cons = _ground_split(cons)
        if cons is None:
            return None
        vs = set()
        for form, _ in cons:
            vs |= form_vars(form)
        vs.discard(keep)
        if not vs:
            return cons
        cons = _fm_step(cons, min(vs))


def _fm_sat(cons) -> bool:
    return _eliminate(cons) is not None


def _bounds(cons, vid):
    """vid's span under cons: its tightest (lower, upper) bounds, each
    (value, strict) or None when unbounded on that side; None when cons
    has no solution."""
    rows = _eliminate(cons, vid)
    if rows is None:
        return None
    # Every row left is over vid alone, so _tighten keeps at most one row
    # -vid + c <= 0 (vid >= c) and one row vid + c <= 0 (vid <= -c).
    lo = hi = None
    for (c, ((_, k),)), strict in _tighten(rows):
        if k > 0:
            hi = (-c, strict)
        else:
            lo = (c, strict)
    if lo and hi and (lo[0] > hi[0] or lo[0] == hi[0] and (lo[1] or hi[1])):
        return None
    return lo, hi


def _within(val, span):
    """Does span, as _bounds returns it, hold val?"""
    if span is None:
        return False
    lo, hi = span
    return (not lo or val > lo[0] or val == lo[0] and not lo[1]) and (
        not hi or val < hi[0] or val == hi[0] and not hi[1]
    )


def _canonical(form, strict):
    k = abs(form[1][0][1])
    if k != 1:
        form = form_scale(form, _F1 / k)
    return (form, strict)


def _tighten(cons):
    """Keep only the tightest bound per scaled variable part."""
    best = {}
    for form, strict in cons:
        form, strict = _canonical(form, strict)
        key = form[1]
        cur = best.get(key)
        if cur is None or form[0] > cur[0] or (form[0] == cur[0] and strict):
            best[key] = (form[0], strict)
    return sorted((((c, key), s) for key, (c, s) in best.items()))


class LinearStore:
    """Immutable conjunction of linear constraints.

    subst maps a solved variable to a form over live variables only; no
    form in the store mentions a solved variable.
    """

    __slots__ = ("subst", "ineqs", "neqs", "_vars")

    def __init__(self, subst=None, ineqs=(), neqs=()):
        self.subst = subst or {}
        self.ineqs = tuple(ineqs)
        self.neqs = tuple(neqs)
        self._vars = None

    @classmethod
    def empty(cls) -> "LinearStore":
        return _EMPTY

    def vars(self) -> set:
        """Ids of the variables the store mentions, computed once per store;
        the set is shared, so callers must not mutate it.  Every store that
        mentions none shares one empty set, since the engine keeps each
        store it replaced on its trail.  assert_constraint asks it whether
        a variable is fresh to the store.  The engine does not ask: its own
        map says which variables are rational, including those the store
        keeps no row for."""
        if self._vars is None:
            out = set(self.subst)
            for form in self.subst.values():
                out |= form_vars(form)
            for form, _ in self.ineqs:
                out |= form_vars(form)
            for form in self.neqs:
                out |= form_vars(form)
            self._vars = out or _NO_VARS
        return self._vars

    # -- assertion ----------------------------------------------------------

    def assert_constraint(self, op: str, lhs: tuple, rhs: tuple):
        """Conjoin ``lhs op rhs``; returns (store, determined) or None.

        determined lists (vid, value) pairs for the variables this call
        determined to a single rational; the returned store no longer
        mentions them, so lhs and rhs must not mention a variable reported
        before.
        """
        try:
            holds, _, row = _OPS[op]
        except KeyError:
            raise ValueError(f"unknown linear operator {op!r}") from None
        diff = form_apply(form_sub(lhs, rhs), self.subst)
        if form_is_const(diff):
            return (self, []) if holds(diff[0], _F0) else None
        # A form over one variable the store does not mention leaves every
        # row as it is, so the store needs no _normalize (module docstring).
        if op != "!=" and len(diff[1]) == 1 and diff[1][0][0] not in self.vars():
            if op == "=":
                (vid, coef), = diff[1]
                return self, [(vid, -diff[0] / coef)]
            ineqs = list(self.ineqs)
            insort(ineqs, _canonical(form_scale(diff, row[0]), row[1]))
            return LinearStore(self.subst, ineqs, self.neqs), []
        subst, ineqs, neqs = dict(self.subst), self.ineqs, self.neqs
        if op == "=":
            _solve_eq(subst, diff)
        elif op == "!=":
            neqs += (diff,)
        else:
            ineqs += ((form_scale(diff, row[0]), row[1]),)
        got = _normalize(subst, ineqs, neqs)
        if got is None:
            return None
        # A constant row is a determined value: hand it back and forget it.
        determined = [(vid, form[0]) for vid, form in subst.items() if not form[1]]
        for vid, _ in determined:
            del subst[vid]
        return LinearStore(subst, got[0], got[1]), determined

    def assert_terms(self, op: str, lhs, rhs):
        """Conjoin ``lhs op rhs`` for two resolved terms, op in either
        spelling; as assert_constraint, and None also when a side is not
        numeric."""
        lf = form_of(lhs)
        rf = form_of(rhs)
        if lf is None or rf is None:
            return None
        return self.assert_constraint(_STORE_OP[op], lf, rf)

    # -- queries --------------------------------------------------------------

    def entails(self, op: str, lhs: tuple, rhs: tuple) -> bool:
        """True when every solution of the store satisfies ``lhs op rhs``."""
        for cop in complement(op):
            if self.assert_constraint(cop, lhs, rhs) is not None:
                return False
        return True

    def project(self, vid: int):
        """Constraints on a single variable, as (op, value) pairs, in the
        one canonical form of rational bounds.

        The tightest lower bound, the tightest upper bound, and the excluded
        points in ascending order; unconstrained variables yield [].  The
        store has an interior point, so the bounds never meet, and an
        excluded point lies within them: on a closed bound it makes that
        bound strict instead.  So two stores allow the same values of vid
        exactly when their projections are equal.
        """
        cons = list(self.ineqs)
        sub = self.subst.get(vid)
        if sub is not None:
            diff = form_sub(form_var(vid), sub)
            cons.append((diff, False))
            cons.append((form_neg(diff), False))
        span = lo, hi = _bounds(cons, vid)
        excluded = set()
        for form in self.neqs:
            if form_vars(form) == {vid}:
                excluded.add(-form[0] / form_coef(form, vid))
            else:
                excluded |= _forced_zero_points(cons, vid, form, span)
        out = []
        if lo:
            out.append((">" if lo[1] or lo[0] in excluded else ">=", lo[0]))
        if hi:
            out.append(("<" if hi[1] or hi[0] in excluded else "<=", hi[0]))
        excluded -= {val for _, val in out}
        return out + [("!=", val) for val in sorted(excluded)]


def _forced_zero_points(cons, vid, form, span):
    """Values of vid at which the rows cons force ``form = 0``; span is
    vid's span I under cons.

    Such a value is excluded by the disequality ``form != 0`` even though
    form mentions other variables.  Let I+ and I- be vid's spans under cons
    with ``form > 0`` and with ``form < 0`` added.  A value of I is forced
    exactly when it lies in neither, so the forced values are I minus
    (I+ | I-).  That set is finite: on an interval of forced values form
    would vanish on an open part of the rows' solutions, and so on all of
    them, which the store's interior point rules out.  The same point
    gives I more than one value, so I has values beside each forced value.
    Were the forced value an endpoint of neither I+ nor I-, both intervals
    would keep a distance from it, and all those values would be forced
    too.  So the endpoints of I+ and I- are the only candidates, and each
    is tested against the three spans by interval arithmetic: two
    eliminations in all.
    """
    pos = _bounds(cons + [(form_neg(form), True)], vid)
    neg = _bounds(cons + [(form, True)], vid)
    ends = {bound[0] for sp in (pos, neg) if sp for bound in sp if bound}
    return {v for v in ends if _within(v, span) and not _within(v, pos) and not _within(v, neg)}


def _solve_eq(subst, diff):
    """Extend the substitution with diff = 0 solved for its smallest
    variable."""
    vid, coef = diff[1][0]
    rest = (diff[0], diff[1][1:])
    repl = form_scale(rest, _F1 / -coef)
    solved = {vid: repl}
    for k, form in subst.items():
        subst[k] = form_apply(form, solved)
    subst[vid] = repl


def _normalize(subst, ineqs, neqs):
    """Re-establish store invariants after subst was extended; (ineqs, neqs)
    of the new store, or None when the conjunction is empty.

    Every implicit equality among the inequalities is moved into subst, so
    the rows left have a point satisfying all of them strictly: no live
    variable is fixed, and no disequality can be forced to zero."""
    while True:
        cons = [(form_apply(f, subst), s) for f, s in ineqs]
        cons = _ground_split(cons)
        if cons is None:
            return None
        cons = _tighten(cons)
        ineqs = cons
        # Rows that hold strictly together have no implicit equality.
        if _fm_sat([(form, True) for form, _ in cons]):
            break
        if not _fm_sat(cons):
            return None
        # A weak row f <= 0 whose strict form is unsatisfiable with the
        # other rows is the equality f = 0: solve it and start again.
        for i, (form, strict) in enumerate(cons):
            if not strict and not _fm_sat(cons[:i] + [(form, True)] + cons[i + 1:]):
                _solve_eq(subst, form)
                break
        else:
            break
    out_neqs = []
    for form in neqs:
        form = form_apply(form, subst)
        if form_is_const(form):
            if form[0] == 0:
                return None
            continue
        if not _fm_sat(ineqs + [(form, False), (form_neg(form), False)]):
            continue  # already impossible to be zero: entailed
        canon, _ = _canonical(form, False)
        if canon[1][0][1] < 0:
            canon = form_neg(canon)
        out_neqs.append(canon)
    return ineqs, sorted(set(out_neqs))


_EMPTY = LinearStore()
