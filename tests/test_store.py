"""Single-variable constraint views: conjunction, negation, canonical forms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from scasp import store as store_mod
from scasp.errors import SolverError
from scasp.linear import LinearStore
from scasp.store import TOP, add, dual, lin_canon, view_conj
from scasp.terms import Const, Struct, Var, fresh_var

from helpers import engine_for, num, pick_witness_num, sat_entry, sat_view_num, traced_run


def lin(*entries):
    return lin_canon([(op, Fraction(v)) for op, v in entries])


def test_lin_canon_orders_and_tightens():
    assert lin((">", 0), ("<", 5)) == ("lin", ((">", 0), ("<", 5)))
    assert lin(("<", 5), (">", 0)) == ("lin", ((">", 0), ("<", 5)))
    assert lin((">", 0), (">", 2), (">=", 2)) == ("lin", ((">", 2),))
    assert lin(("!=", 3), ("<=", 9), ("!=", 7)) == (
        "lin",
        (("<=", 9), ("!=", 3), ("!=", 7)),
    )


def test_lin_canon_excluded_point_strictens_closed_bound():
    assert lin((">=", 2), ("!=", 2)) == ("lin", ((">", 2),))
    assert lin(("<=", 5), ("!=", 5)) == ("lin", (("<", 5),))


def test_lin_canon_drops_vacuous_exclusions():
    assert lin((">", 3), ("!=", 1)) == ("lin", ((">", 3),))
    assert lin(("!=", 1)) == ("lin", (("!=", 1),))


def test_lin_canon_pinches_to_binding():
    assert lin((">=", 4), ("<=", 4)) == ("eq", Const(Fraction(4)))
    assert lin(("=", 7), ("<", 9)) == ("eq", Const(Fraction(7)))


def test_lin_canon_contradictions():
    assert lin((">", 4), ("<", 4)) is None
    assert lin((">=", 4), ("<", 4)) is None
    assert lin(("=", 4), ("!=", 4)) is None
    assert lin(("=", 4), ("=", 5)) is None
    assert lin((">=", 4), ("<=", 4), ("!=", 4)) is None


def test_lin_canon_empty_is_top():
    assert lin() == TOP


def test_view_conj_basics():
    a = Const("a")
    assert view_conj(TOP, ("eq", a)) == ("eq", a)
    assert view_conj(("eq", a), ("eq", a)) == ("eq", a)
    assert view_conj(("eq", a), ("eq", Const("b"))) is None
    assert view_conj(("eq", a), ("neq", frozenset((a,)))) is None
    assert view_conj(("eq", a), ("neq", frozenset((Const("b"),)))) == ("eq", a)
    nn = view_conj(("neq", frozenset((a,))), ("neq", frozenset((Const("b"),))))
    assert nn == ("neq", frozenset((a, Const("b"))))


def test_view_conj_number_against_bounds():
    three = ("eq", Const(Fraction(3)))
    assert view_conj(three, lin(("<", 5))) == three
    assert view_conj(three, lin((">", 5))) is None
    # A symbolic constant can never satisfy rational bounds.
    assert view_conj(("eq", Const("a")), lin(("<", 5))) is None


def test_view_conj_mixes_exclusion_kinds():
    neqv = ("neq", frozenset((Const("a"), Const(Fraction(2)))))
    merged = view_conj(neqv, lin(("<", 5)))
    assert merged == ("lin", (("<", 5), ("!=", Fraction(2))))


def test_dual_of_top_is_empty():
    assert dual(TOP) == []


def test_dual_of_symbol_binding():
    assert dual(("eq", Const("a"))) == [("neq", frozenset((Const("a"),)))]
    gr = Struct("f", (Const("a"),))
    assert dual(("eq", gr)) == [("neq", frozenset((gr,)))]


def test_dual_of_number_binding():
    assert dual(("eq", Const(Fraction(3)))) == [("lin", (("!=", Fraction(3)),))]


def test_dual_of_nonground_binding_is_rejected():
    t = Struct("f", (fresh_var(),))
    with pytest.raises(SolverError) as info:
        dual(("eq", t))
    assert info.value.code == "nonground_disequality"


def test_dual_of_excluded_set_enumerates_bindings():
    a, b = Const("a"), Const("b")
    assert dual(("neq", frozenset((a, b)))) == [("eq", a), ("eq", b)]


def test_dual_of_interval():
    pieces = dual(lin((">", 0), ("<", 5)))
    assert pieces == [lin(("<=", 0)), lin((">=", 5))]
    pieces = dual(lin((">", 0), ("<", 5), ("!=", 3)))
    assert pieces == [
        lin(("<=", 0)),
        lin((">", 0), (">=", 5)),
        lin((">", 0), ("<", 5), ("=", 3)),
    ]


def test_add_drops_inconsistent_pieces():
    base = lin((">", 0))
    out = add([lin(("<", 0)), lin(("<", 5))], base)
    assert out == [lin((">", 0), ("<", 5))]


def test_equal_is_structural_on_canonical_views():
    assert lin(("<", 5), (">", 0)) == lin((">", 0), ("<", 5))
    assert lin(("<", 5)) != lin(("<=", 5))
    assert TOP == TOP


rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)
lin_entries = st.lists(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), rationals),
    min_size=1,
    max_size=5,
)


@given(lin_entries)
def test_negation_excludes_the_view_itself(entries):
    view = lin_canon(entries)
    if view is None:
        return
    assert add(dual(view), view) == []


@given(lin_entries, rationals)
def test_negation_partitions_the_rationals(entries, value):
    view = lin_canon(entries)
    if view is None:
        return
    pieces = dual(view)
    hits = sum(1 for p in pieces if sat_view_num(p, value))
    if sat_view_num(view, value):
        assert hits == 0
    else:
        assert hits == 1


@given(lin_entries)
def test_every_satisfiable_view_has_a_witness(entries):
    view = lin_canon(entries)
    if view is None:
        return
    assert sat_view_num(view, pick_witness_num(view))


# -- the one canonical form -------------------------------------------------
#
# forall stops once the view of an answer equals the piece it covers, so a
# view must depend only on the values its entries allow.

any_entries = st.lists(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), rationals),
    max_size=6,
)


@settings(deadline=None)
@given(st.data())
def test_the_view_does_not_depend_on_the_order_of_its_entries(data):
    entries = data.draw(any_entries)
    assert lin_canon(data.draw(st.permutations(entries))) == lin_canon(entries)


@settings(deadline=None)
@given(any_entries)
def test_a_rational_satisfies_the_view_exactly_when_it_satisfies_every_entry(entries):
    view = lin_canon(entries)
    # Each entry's value and a point either side of it: two values differ
    # by at least 1/36, so the grid meets every interval the entries leave.
    eps = Fraction(1, 100)
    grid = {Fraction(0)} | {val + d for _, val in entries for d in (-eps, 0, eps)}
    for x in sorted(grid):
        holds = all(sat_entry(op, x, val) for op, val in entries)
        assert (view is not None and sat_view_num(view, x)) == holds, x


@settings(deadline=None)
@given(any_entries)
def test_a_view_applied_to_a_fresh_variable_reads_back_as_itself(entries):
    view = lin_canon(entries)
    if view is None:
        return
    e, x = engine_for(), fresh_var("X")
    assert e.apply(view, x)
    assert e.dump(x) == view


# -- the view algebra against its former rules, tag by tag --------------------
#
# view_conj and lin_canon now apply views to a throwaway ConstraintStore and
# read its dump.  They once restated the store's domain rules per view tag;
# those rules are kept here as a reference that the two must agree with.


def ref_lin_canon(entries):
    store, x = LinearStore.empty(), Var(0)
    for op, val in entries:
        got = store.assert_terms(op, x, Const(Fraction(val)))
        if got is None:
            return None
        store, fixed = got
        if fixed:
            x = Const(fixed[0][1])
    return ("eq", x) if isinstance(x, Const) else store_mod.lin_view(store, x.id)


def ref_view_conj(a, b):
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
        if not t.is_number:
            return None
        return ref_lin_canon(list(other[1]) + [("=", t.value)])
    if a[0] == "neq" and b[0] == "neq":
        return ("neq", a[1] | b[1])
    if a[0] == "neq" or b[0] == "neq":
        neqv, linv = (a, b) if a[0] == "neq" else (b, a)
        extra = [("!=", t.value) for t in neqv[1] if t.is_number]
        return ref_lin_canon(list(linv[1]) + extra)
    return ref_lin_canon(list(a[1]) + list(b[1]))


# Ground terms as bindings hold them.  No binding holds an arithmetic
# structure: arithmetic parses only as a constraint side, and `=` hands it to
# the rational store.  (On a binding to 1+2 the two would differ: the former
# rules refused rational bounds on it, and the store evaluates it.)
_NUMBERS = st.sampled_from((-2, -1, 0, Fraction(1, 2), 1, 3)).map(num)
_GROUND = st.one_of(
    st.sampled_from((Const("a"), Const("b"))),
    _NUMBERS,
    st.builds(lambda t: Struct("f", (t,)), st.sampled_from((Const("a"), num(1)))),
)
_LIN_ENTRIES = st.lists(
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "!="]), _NUMBERS.map(lambda c: c.value)),
    min_size=1,
    max_size=4,
)
_VIEWS = st.one_of(
    st.just(TOP),
    st.builds(lambda t: ("eq", t), _GROUND),
    st.builds(lambda t: ("eq", t), _NUMBERS),  # so that bounds meet numbers often
    st.builds(lambda ts: ("neq", frozenset(ts)), st.lists(_GROUND, min_size=1, max_size=3)),
    _LIN_ENTRIES.map(ref_lin_canon).filter(lambda v: v is not None),
)


@settings(max_examples=300, deadline=None)
@given(_VIEWS, _VIEWS, _LIN_ENTRIES)
def test_the_view_algebra_agrees_with_its_former_rules(a, b, entries):
    assert view_conj(a, b) == ref_view_conj(a, b)
    assert lin_canon(entries) == ref_lin_canon(entries)


def test_tracing_counts_the_view_algebra_and_undoes_its_patches():
    # perfbench's tracer patches the view algebra by module attribute and
    # Engine's entry points by class attribute; the stream query's forall
    # reaches both.
    traced_run(
        "stream", spans=("store.add", "store.view_conj", "linear.assert"),
        counts=("engine.calls", "forall.calls"),
    )
