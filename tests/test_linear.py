"""Exact rational linear constraints: assertion, projection, negation."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from scasp.linear import (
    LinearStore,
    _bounds,
    _fm_sat,
    _fm_step,
    _forced_zero_points,
    _ground_split,
    _normalize,
    _solve_eq,
    _tighten,
    complement,
    form_add,
    form_apply,
    form_const,
    form_is_const,
    form_neg,
    form_scale,
    form_sub,
    form_var,
    form_vars,
)

from helpers import sat_entry

X, Y, Z = 101, 102, 103


def known(form, values):
    """form with each reported value put in for its variable."""
    out = (form[0], ())
    for vid, coef in form[1]:
        part = form_const(values[vid]) if vid in values else form_var(vid)
        out = form_add(out, form_scale(part, coef))
    return out


def run_asserts(cons):
    """Assert (op, lhs, rhs) triples in turn, putting each reported value in
    for its variable in later ones, as the engine's binding does; (store,
    {vid: reported value}), or None when inconsistent."""
    s, values = LinearStore.empty(), {}
    for op, lhs, rhs in cons:
        got = s.assert_constraint(op, known(lhs, values), known(rhs, values))
        if got is None:
            return None
        s, det = got
        values.update(det)
    return s, values


def store_of(*cons):
    """The store of run_asserts; None when inconsistent."""
    got = run_asserts(cons)
    return None if got is None else got[0]


def values_of(*cons):
    """The values run_asserts reports."""
    return run_asserts(cons)[1]


def v(vid):
    return form_var(vid)


def c(value):
    return form_const(Fraction(value))


def test_empty_store():
    s = LinearStore.empty()
    assert not s.vars()
    assert s.project(X) == []


def test_substitution_propagates_bounds():
    s = store_of(("=", v(X), form_add(v(Y), c(1))), (">=", v(Y), c(2)))
    assert s.project(X) == [(">=", Fraction(3))]
    assert s.project(Y) == [(">=", Fraction(2))]


def test_equalities_determine_values():
    s = LinearStore.empty()
    s, det = s.assert_constraint("=", v(X), form_add(v(Y), c("31/10")))
    assert det == []
    s, det = s.assert_constraint("=", v(Y), c(3))
    assert dict(det) == {X: Fraction(61, 10), Y: Fraction(3)}
    assert not s.vars()  # both values are handed back


def test_bounds_can_pinch_a_value():
    got = values_of((">=", v(X), c("21/2")), ("<=", v(X), c("21/2")))
    assert got == {X: Fraction(21, 2)}


def test_an_implicit_equality_determines_a_value():
    # No variable's own bounds meet, yet the two inequalities force
    # Y + Z = 0, and with it X = 0.
    yz = form_add(v(Y), v(Z))
    got = values_of(("=", v(X), yz), (">=", yz, c(0)), ("<=", yz, c(0)))
    assert got == {X: Fraction(0)}


def test_contradictions_are_detected():
    assert store_of(("<", v(X), v(Y)), ("<", v(Y), v(X))) is None
    assert store_of(("<", v(X), v(X))) is None
    assert store_of(("=", v(X), c(3)), ("!=", v(X), c(3))) is None
    assert (
        store_of((">=", v(X), c(4)), ("<=", v(X), c(4)), ("!=", v(X), c(4))) is None
    )


def test_an_unknown_operator_is_an_error():
    # Also where both sides are constants and no row is built.
    for lhs in (v(X), c(1)):
        with pytest.raises(ValueError, match="unknown linear operator"):
            LinearStore.empty().assert_constraint("=<", lhs, c(2))


def test_disequality_forced_equal_fails():
    assert store_of(("!=", v(X), v(Y)), ("=", v(X), v(Y))) is None
    s = store_of(("!=", v(X), v(Y)))
    assert s.assert_constraint("=", form_sub(v(X), v(Y)), c(0)) is None


def test_entailed_disequalities_are_dropped():
    s = store_of(("<", v(X), c(3)), ("!=", v(X), c(5)))
    assert s.neqs == ()
    assert s.project(X) == [("<", Fraction(3))]


def test_projection_strictens_excluded_endpoint():
    s = store_of((">=", v(X), c(2)), ("!=", v(X), c(2)))
    assert s.project(X) == [(">", Fraction(2))]
    s = store_of(("<=", v(X), c(3)), ("!=", v(X), c(3)), ("!=", v(X), c(1)))
    assert s.project(X) == [("<", Fraction(3)), ("!=", Fraction(1))]


def test_projection_eliminates_middle_variables():
    s = store_of(
        ("<=", v(X), v(Y)),
        ("<=", v(Y), v(Z)),
        ("<=", v(Z), c(10)),
        (">=", v(X), c(1)),
    )
    assert s.project(X) == [(">=", Fraction(1)), ("<=", Fraction(10))]
    assert s.project(Y) == [(">=", Fraction(1)), ("<=", Fraction(10))]


def test_projection_excludes_a_forced_fractional_bound():
    # At X = 3/2 the rows leave Y = 1 only, where X - Y is 1/2.
    s = store_of(
        ("<=", form_add(form_scale(v(X), Fraction(2)), form_scale(v(Y), Fraction(2))), c(5)),
        (">=", v(X), c(1)),
        (">=", v(Y), c(1)),
        ("!=", form_sub(v(X), v(Y)), c("1/2")),
    )
    assert s.project(X) == [(">=", Fraction(1)), ("<", Fraction(3, 2))]


def test_projection_excludes_a_forced_corner():
    # At X = 2 the rows leave Y = 0 only, where X - Y is 2.
    s = store_of(
        ("<=", form_add(v(X), v(Y)), c(2)),
        (">=", v(X), c(0)),
        (">=", v(Y), c(0)),
        ("!=", form_sub(v(X), v(Y)), c(2)),
    )
    assert s.project(X) == [(">=", Fraction(0)), ("<", Fraction(2))]


def test_projection_excludes_a_forced_inner_point():
    # X is solved as Y + Z, so X = 1 forces Y + Z - 1 = 0 inside X's span.
    yz = form_add(v(Y), v(Z))
    s = store_of(
        ("=", v(X), yz),
        (">", v(Y), c(0)), ("<", v(Y), c(2)), (">", v(Z), c(0)), ("<", v(Z), c(2)),
        ("!=", yz, c(1)),
    )
    assert s.project(X) == [(">", Fraction(0)), ("<", Fraction(4)), ("!=", Fraction(1))]


def test_entails():
    s = store_of((">", v(X), c(2)), ("<", v(X), c(4)))
    assert s.entails(">", v(X), c(1))
    assert s.entails("<=", v(X), c(4))
    assert not s.entails(">", v(X), c(3))
    assert not s.entails("=", v(X), c(3))


def test_scaled_arithmetic_stays_exact():
    lhs = form_add(form_scale(v(X), Fraction(3)), c("1/7"))
    assert values_of(("=", lhs, c(2))) == {X: Fraction(13, 21)}


rationals = st.fractions(
    min_value=Fraction(-6), max_value=Fraction(6), max_denominator=4
)
all_ops = ["<", "<=", ">", ">=", "=", "!="]


@given(st.sampled_from(all_ops), rationals, rationals)
def test_complement_partitions_each_operator(op, value, bound):
    cops = complement(op)
    holds = sat_entry(op, value, bound)
    cover = sum(1 for cop in cops if sat_entry(cop, value, bound))
    assert cover == (0 if holds else 1)


def constraints(coefs, consts):
    """(op, [(vid, coef), ...], const) triples, each coef drawn from coefs
    and const from consts."""
    return st.tuples(
        st.sampled_from(all_ops),
        st.lists(st.tuples(st.sampled_from([X, Y, Z]), coefs), min_size=1, max_size=3),
        consts,
    )


constraint = constraints(st.integers(-3, 3), st.integers(-8, 8))
# Integers mixed with non-integral (and integral) Fractions, so that both
# kinds of number meet in one form.
mixed_constraint = constraints(
    st.one_of(st.integers(-3, 3), rationals), st.one_of(st.integers(-8, 8), rationals)
)


def sequences(max_size):
    """Lists of constraints, all from one of the two strategies."""
    return st.one_of(*(st.lists(cons, min_size=1, max_size=max_size)
                       for cons in (constraint, mixed_constraint)))


def _lhs(parts):
    lhs = form_const(0)
    for vid, coef in parts:
        lhs = form_add(lhs, form_scale(form_var(vid), coef))
    return lhs


def _build(cons):
    return store_of(*((op, _lhs(parts), c(const)) for op, parts, const in cons))


@settings(max_examples=60, deadline=None)
@given(st.lists(constraint, min_size=1, max_size=5))
def test_projection_is_exact(cons):
    """A value fits the projection of a variable iff the store admits it."""
    s = _build(cons)
    if s is None:
        return
    for vid in (X, Y, Z):
        entries = s.project(vid)
        # The integers, each value the projection names (a bound or an
        # excluded point may be fractional), and the midpoints between them.
        named = sorted({Fraction(k) for k in range(-5, 6)} | {val for _, val in entries})
        probes = named + [(a + b) / 2 for a, b in zip(named, named[1:])]
        for val in probes:
            admitted = s.assert_constraint("=", form_var(vid), form_const(val))
            fits = all(sat_entry(op, val, bound) for op, bound in entries)
            assert fits == (admitted is not None), (entries, val)


def test_stores_that_mention_no_variable_share_one_vars_set():
    # The engine keeps every store it replaces on its trail; none that
    # mentions no variable may hold a set of its own.
    a, _ = store_of(("<", v(X), c(3))).assert_constraint("=", v(X), c(2))
    b, _ = store_of(("=", v(X), v(Y))).assert_constraint("=", v(Y), c(4))
    empty = LinearStore.empty()
    assert a is not b and a is not empty and b is not empty
    assert not a.vars() and not b.vars()
    assert a.vars() is b.vars() is empty.vars()
    held, _ = a.assert_constraint("<", v(X), c(3))
    assert held.vars() == {X} and held.vars() is not a.vars()
    # A value fixed for a variable the store does not mention changes no
    # row: the very same store comes back, so the engine trails nothing.
    for s in (empty, held):
        got, det = s.assert_constraint("=", form_scale(v(Z), Fraction(2)), c(3))
        assert got is s and det == [(Z, Fraction(3, 2))]


def test_a_fixed_value_is_reported_once_and_still_answered():
    s, det = LinearStore.empty().assert_constraint("=", v(X), c(3))
    assert det == [(X, Fraction(3))]
    assert X not in s.vars()
    # The caller puts the reported value in for X from now on.
    s, det = s.assert_constraint("=", form_add(c(3), v(Y)), c(5))
    assert det == [(Y, Fraction(2))]
    assert not s.vars()
    assert values_of(("=", v(X), c(3)), ("=", form_add(v(X), v(Y)), c(5))) == {
        X: Fraction(3),
        Y: Fraction(2),
    }


@settings(max_examples=60, deadline=None)
@given(st.lists(constraint, min_size=1, max_size=6))
def test_determined_reports_each_fixed_variable_once(cons):
    """Across a run of asserts that put each reported value in for its
    variable, a variable is reported at most once, the store forgets it,
    and the reported values satisfy every constraint asserted."""
    s = LinearStore.empty()
    values = {}
    asserted = []
    for op, parts, const in cons:
        lhs = _lhs(parts)
        got = s.assert_constraint(op, known(lhs, values), c(const))
        if got is None:
            break
        asserted.append((op, lhs, c(const)))
        s, det = got
        for vid, val in det:
            assert vid not in values
            values[vid] = val
        assert not s.vars() & values.keys()
    for op, lhs, rhs in asserted:
        assert s.entails(op, known(lhs, values), rhs)


@settings(max_examples=120, deadline=None)
@given(sequences(5))
def test_the_store_keeps_an_interior_point(cons):
    """Every implicit equality is solved, so the inequalities left hold
    strictly together: no live variable is fixed."""
    s = _build(cons)
    if s is None:
        return
    assert _fm_sat([(form, True) for form, _ in s.ineqs])
    for vid in s.vars():
        entries = s.project(vid)
        lo = [val for op, val in entries if op in (">", ">=")]
        hi = [val for op, val in entries if op in ("<", "<=")]
        assert not (lo and hi) or lo[0] < hi[0], entries


def numbers_of(s):
    """Every number in the forms of a store."""
    for form in [*s.subst.values(), *(form for form, _ in s.ineqs), *s.neqs]:
        yield form[0]
        yield from (coef for _, coef in form[1])


@settings(max_examples=100, deadline=None)
@given(sequences(6))
def test_numbers_stay_exact_and_leave_as_fractions(cons):
    """Every number in a form is an int or a Fraction, never a float, and
    every value the store hands out, determined or projected, is a
    Fraction."""
    s, values = LinearStore.empty(), {}
    for op, parts, const in cons:
        got = s.assert_constraint(op, known(_lhs(parts), values), c(const))
        if got is None:
            return
        s, det = got
        assert all(type(val) is Fraction for _, val in det), det
        values.update(det)
        assert all(type(q) in (int, Fraction) for q in numbers_of(s)), (s.subst, s.ineqs, s.neqs)
        for vid in (X, Y, Z):
            entries = s.project(vid)
            assert all(type(val) is Fraction for _, val in entries), entries


def test_a_non_integral_value_is_determined_as_a_fraction():
    # 2*X = 1 with X fresh to the store, and with X in a row.
    for s in (LinearStore.empty(), store_of(("<", v(X), v(Y)))):
        _, det = s.assert_constraint("=", form_scale(v(X), 2), c(1))
        assert det == [(X, Fraction(1, 2))] and type(det[0][1]) is Fraction


def general_assert(s, op, lhs, rhs):
    """What assert_constraint returns by its general path alone: the
    equality solved or the row appended, then _normalize over the whole
    store; as (subst, ineqs, neqs, determined), or None."""
    diff = form_apply(form_sub(lhs, rhs), s.subst)
    if op in (">", ">="):
        diff, op = form_neg(diff), op.replace(">", "<")
    if form_is_const(diff):
        return None if not sat_entry(op, diff[0], 0) else (s.subst, s.ineqs, s.neqs, [])
    subst, ineqs, neqs = dict(s.subst), list(s.ineqs), list(s.neqs)
    if op == "=":
        _solve_eq(subst, diff)
    elif op == "!=":
        neqs.append(diff)
    else:
        ineqs.append((diff, op == "<"))
    got = _normalize(subst, ineqs, neqs)
    if got is None:
        return None
    determined = [(vid, form[0]) for vid, form in subst.items() if not form[1]]
    for vid, _ in determined:
        del subst[vid]
    return subst, tuple(got[0]), tuple(got[1]), determined


# A variable the store mentions only in a solved equality's form, or only
# in a disequality, is not fresh.
@example([("=", [(X, 1), (Y, -1)], 0), ("=", [(Y, 1)], 4)])
@example([("!=", [(X, 1), (Y, -1)], 0), ("<", [(Y, 1)], 4)])
@settings(max_examples=400, deadline=None)
@given(sequences(6))
def test_assert_agrees_with_the_general_path(cons):
    """Each assert, shortcut or not, returns what the general path would,
    and every store it returns is a fixed point of _normalize."""
    s, values = LinearStore.empty(), {}
    for op, parts, const in cons:
        lhs, rhs = known(_lhs(parts), values), c(const)
        got = s.assert_constraint(op, lhs, rhs)
        want = general_assert(s, op, lhs, rhs)
        if got is None:
            assert want is None
            return
        s, det = got
        assert (s.subst, s.ineqs, s.neqs, det) == want
        subst = dict(s.subst)
        ineqs, neqs = _normalize(subst, list(s.ineqs), list(s.neqs))
        assert (subst, tuple(ineqs), tuple(neqs)) == (s.subst, s.ineqs, s.neqs)
        values.update(det)


# -- the elimination routines before spans, kept as the reference ---------------


def ref_sat(cons):
    """Satisfiability by eliminating every variable, smallest id first."""
    cons = list(cons)
    while True:
        cons = _ground_split(cons)
        if cons is None:
            return False
        if not cons:
            return True
        vs = set()
        for form, _ in cons:
            vs |= form_vars(form)
        cons = _fm_step(cons, min(vs))


def ref_bounds(cons, vid):
    """Tightest (lower, upper) bounds on vid entailed by satisfiable cons."""
    cons = list(cons)
    while True:
        cons = _ground_split(cons) or []
        others = set()
        for form, _ in cons:
            others |= form_vars(form)
        others.discard(vid)
        if not others:
            break
        cons = _fm_step(cons, min(others))
    lo = hi = None
    for (c, ((_, k),)), strict in _tighten(cons):
        if k > 0:
            hi = (-c, strict)
        else:
            lo = (c, strict)
    return lo, hi


def ref_forced_zero_points(cons, vid, form):
    """Candidates from the vid-bounds of {form = 0}, {form > 0} and
    {form < 0}, each verified by pinning vid to it."""
    candidates = set()
    for extra in (
        [(form, False), (form_neg(form), False)],
        [(form, True)],
        [(form_neg(form), True)],
    ):
        if ref_sat(cons + extra):
            for bound in ref_bounds(cons + extra, vid):
                if bound:
                    candidates.add(bound[0])
    forced = set()
    for val in candidates:
        point = form_sub(form_var(vid), form_const(val))
        pinned = cons + [(point, False), (form_neg(point), False)]
        if (
            ref_sat(pinned)
            and not ref_sat(pinned + [(form, True)])
            and not ref_sat(pinned + [(form_neg(form), True)])
        ):
            forced.add(val)
    return forced


def projection_rows(s, vid):
    """The rows project reads for vid: the inequalities, and vid's solved
    equality as two weak rows."""
    cons = list(s.ineqs)
    if vid in s.subst:
        diff = form_sub(form_var(vid), s.subst[vid])
        cons += [(diff, False), (form_neg(diff), False)]
    return cons


@st.composite
def stores_with_a_wide_disequality(draw):
    """Constraints of which at least one is a disequality over two or more
    variables."""
    parts = draw(st.lists(
        st.tuples(st.sampled_from([X, Y, Z]), st.integers(-3, 3).filter(bool)),
        min_size=2, max_size=3, unique_by=lambda part: part[0],
    ))
    cons = draw(st.lists(constraint, max_size=4))
    at = draw(st.integers(0, len(cons)))
    return cons[:at] + [("!=", parts, draw(st.integers(-8, 8)))] + cons[at:]


@example([
    ("<=", [(X, 2), (Y, 2)], 5), (">=", [(X, 1)], 1), (">=", [(Y, 1)], 1),
    ("!=", [(X, 2), (Y, -2)], 1),
])
@example([
    ("<=", [(X, 1), (Y, 1)], 2), (">=", [(X, 1)], 0), (">=", [(Y, 1)], 0),
    ("!=", [(X, 1), (Y, -1)], 2),
])
@example([
    ("=", [(X, 1), (Y, -1), (Z, -1)], 0), (">", [(Y, 1)], 0), ("<", [(Y, 1)], 2),
    (">", [(Z, 1)], 0), ("<", [(Z, 1)], 2), ("!=", [(Y, 1), (Z, 1)], 1),
])
@settings(max_examples=200, deadline=None)
@given(stores_with_a_wide_disequality())
def test_spans_agree_with_the_verified_candidates(cons):
    """Each variable's span, and the points each disequality over several
    variables forces, are what the reference routines find."""
    s = _build(cons)
    if s is None:
        return
    for vid in (X, Y, Z):
        rows = projection_rows(s, vid)
        span = _bounds(rows, vid)
        assert span == ref_bounds(rows, vid)
        for form in s.neqs:
            if form_vars(form) == {vid}:
                continue
            for extra in ([(form, True)], [(form_neg(form), True)]):
                ext = rows + extra
                assert _bounds(ext, vid) == (ref_bounds(ext, vid) if ref_sat(ext) else None)
            assert _forced_zero_points(rows, vid, form, span) == ref_forced_zero_points(
                rows, vid, form
            )

