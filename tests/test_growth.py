"""Costs pinned as counts: each test runs one family at two sizes, n and 2n,
and bounds how much a work count may grow between them.

A count is exact and the same on every interpreter, where a time on a
shared host moves by more than any useful bound.  Each count comes from a
wrapper the test installs around the function that does the work, so the
gates need nothing from the solver but the functions they wrap.
"""

import pytest

from scasp import compiler, linear, terms
from scasp.engine import Engine
from scasp.parser import parse_query
from scasp.store import ConstraintStore
from scasp.terms import Forall

from helpers import compiled


def _query_counts(monkeypatch, text, query, wrap):
    """Load text, then run query to its end with wrap(counts) installing the
    counting wrappers: the counts made while solving, by name."""
    cp = compiled(text)
    q = parse_query(query)
    counts = {}
    with monkeypatch.context() as m:
        wrap(m, counts)
        answers = list(Engine(cp).run_query(q))
    assert answers, "the family's query answers"
    return counts


def _count_dual_nest(m, counts):
    counts["foralls"] = counts["renamed"] = 0
    init, rename_terms = Forall.__init__, terms.rename_terms

    def counting_init(self, *args, **kwargs):
        counts["foralls"] += 1
        init(self, *args, **kwargs)

    def counting_rename(ts, mapping):
        counts["renamed"] += len(ts)
        return rename_terms(ts, mapping)

    m.setattr(Forall, "__init__", counting_init)
    m.setattr(terms, "rename_terms", counting_rename)


def test_a_duals_quantified_block_grows_linearly_in_foralls(monkeypatch):
    # `?- not p.` on `p :- q(X1,...,Xn).`: the dual quantifies the n
    # body-only variables in one block, and each variable it narrows
    # builds a few Forall nodes, so a quadratic count fails the first
    # bound.  Each level still renames the goal it quantifies, whose n
    # arguments make the renamed terms quadratic; a cubic count fails the
    # second.
    def nest(n):
        text = "p :- q(" + ",".join(f"X{i}" for i in range(n)) + ")."
        return _query_counts(monkeypatch, text, "?- not p.", _count_dual_nest)

    small, large = nest(200), nest(400)
    assert large["foralls"] <= 2.5 * small["foralls"], (small, large)
    assert large["renamed"] <= 4.5 * small["renamed"], (small, large)


def _count_fm_steps(m, counts):
    counts["fm_step"] = 0
    fm_step = linear._fm_step

    def counting(*args):
        counts["fm_step"] += 1
        return fm_step(*args)

    m.setattr(linear, "_fm_step", counting)


@pytest.mark.xfail(
    strict=True,
    reason="each assert re-normalises every row of the linear store: "
    "elimination steps grow about 6.7x per doubling of k",
)
def test_forall_narrowing_grows_at_most_4_5x_per_doubling_in_elimination_steps(monkeypatch):
    # `?- not s.` on `p(X) :- X .>. 2i+1, X .<. 2i.` for i < k and
    # `s :- p(X).`: the dual's forall covers X in k + 1 pieces.
    def family(k):
        text = "".join(f"p(X) :- X .>. {2 * i + 1}, X .<. {2 * i}.\n" for i in range(k))
        return _query_counts(monkeypatch, text + "s :- p(X).", "?- not s.", _count_fm_steps)

    small, large = family(10), family(20)
    assert large["fm_step"] <= 4.5 * small["fm_step"], (small, large)


def _count_exclusions(m, counts):
    counts["excluded"] = 0
    exclude, set_dom = ConstraintStore._exclude, ConstraintStore._set_dom

    def counting_exclude(self, var, terms):
        counts["excluded"] += len(terms)
        return exclude(self, var, terms)

    def counting_set_dom(self, vid, new):
        if isinstance(new, (set, frozenset)):
            counts["excluded"] += len(new)
        set_dom(self, vid, new)

    m.setattr(ConstraintStore, "_exclude", counting_exclude)
    m.setattr(ConstraintStore, "_set_dom", counting_set_dom)


def test_many_disequalities_on_one_variable_grow_linearly_in_excluded_terms(monkeypatch):
    # `?- X \= c0, ..., X \= c(n-1).`: each disequality adds one term to
    # X's exclusion set.  The count is the terms handed to _exclude plus
    # those of every set installed as a domain, so a store that copies the
    # whole set on each addition counts quadratically and fails the bound.
    def chain(n):
        query = "?- " + ", ".join(f"X \\= c{i}" for i in range(n)) + "."
        return _query_counts(monkeypatch, "r.", query, _count_exclusions)

    small, large = chain(200), chain(400)
    assert large["excluded"] <= 2.5 * small["excluded"], (small, large)


def test_the_odd_loop_search_of_a_negated_chain_grows_linearly_in_graph_lookups(monkeypatch):
    # `p_i :- not p_(i+1).` for i < n, and `p_n.`: every rule has a negated
    # call, so the odd-loop search starts from each.  Each lookup of a
    # node's successors in the (predicate, parity) graph counts; one pass
    # over the graph looks each node up once (2n - 1 lookups), and a search
    # per negated call walks the rest of the chain each time.
    counts = {"lookups": 0}

    class CountingGraph(dict):
        def get(self, key, default=None):
            counts["lookups"] += 1
            return dict.get(self, key, default)

    nmr_checks = compiler._nmr_checks

    def counting(cp, constrained, adj, roots):
        nmr_checks(cp, constrained, CountingGraph(adj), roots)

    def chain(n):
        counts["lookups"] = 0
        compiled("".join(f"p{i} :- not p{i + 1}.\n" for i in range(n)) + f"p{n}.\n")
        return counts["lookups"]

    monkeypatch.setattr(compiler, "_nmr_checks", counting)
    small, large = chain(1000), chain(2000)
    assert large <= 2.5 * small, (small, large)


def _count_unify(m, counts):
    counts["unify"] = 0
    unify = ConstraintStore.unify

    def counting(self, a, b):
        counts["unify"] += 1
        return unify(self, a, b)

    m.setattr(ConstraintStore, "unify", counting)


def test_the_complement_test_of_a_ground_call_grows_linearly_in_unify_calls(monkeypatch):
    # `?- c(n).` on `c(N) :- N .>. 0, not c(-1), M .=. N - 1, c(M).`: every
    # level calls `not c(-1)` under n open ground calls of its complement
    # c.  Two ground terms unify only when they are equal, so one lookup by
    # ground key answers the test; a unify test against each open entry
    # of the complement makes the count quadratic and fails the bound.
    text = "c(0).\nc(N) :- N .>. 0, not c(-1), M .=. N - 1, c(M).\n"

    def family(n):
        return _query_counts(monkeypatch, text, f"?- c({n}).", _count_unify)

    small, large = family(200), family(400)
    assert large["unify"] <= 2.5 * small["unify"], (small, large)


def test_the_even_loop_test_of_a_ground_call_grows_linearly_in_unify_calls(monkeypatch):
    # `?- c(n).` on `c(N) :- N .>. 0, M .=. N - 1, not e(M).` and
    # `e(M) :- not c(M).`: each level calls c one negation (two markers)
    # above the last, so every open ground entry of c below is a candidate
    # to close an even loop.  Two ground terms unify only when equal, so
    # comparing ground keys decides each; a unify test per candidate makes
    # the count quadratic and fails the bound.
    text = "c(0).\nc(N) :- N .>. 0, M .=. N - 1, not e(M).\ne(M) :- not c(M).\n"

    def family(n):
        return _query_counts(monkeypatch, text, f"?- c({n}).", _count_unify)

    small, large = family(200), family(400)
    assert large["unify"] <= 2.5 * small["unify"], (small, large)
