"""The benchmark's pools: every query prints as frozen and answers as its
reference says.

data/output_digests.json maps each pool ("<workload>/<seed>") to its
queries' output digests, as perfbench's checks.output_digest computes them
from the rendered answers with their timing figures masked.  Each pool runs
once per session, through the public API, each query at its pool's answer
bound and rendered as the benchmark client renders it.  That one run is
checked twice.  A changed answer, order, text or JSON fails the pool's
digest test and names each query whose digest differs.  An answer that the
benchmark's reference rejects (checks.check, on the decoded JSON) fails
the pool's reference test and names the query with the reason.
"""

import functools
import json
import json.scanner
import sys

import pytest

import checks
import scasp
import workloads
from helpers import ROOT

EXPECTED = json.loads((ROOT / "tests" / "data" / "output_digests.json").read_text())


def _decode(text):
    """json.loads of one answer.  Decoding recurses once per level of
    nesting, in C or in Python, and a chain answer nests 2,000 levels: the
    limit is raised for the call and the caller's put back.  Where the C
    scanner raises RecursionError at a fixed depth (Python 3.12), the
    pure-Python one decodes instead."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 20_000))
    try:
        return json.loads(text)
    except RecursionError:
        decoder = json.JSONDecoder()
        decoder.scan_once = json.scanner.py_make_scanner(decoder)
        return decoder.decode(text)
    finally:
        sys.setrecursionlimit(limit)


@functools.cache
def run_pool(pool):
    """Each query's output digest and reference verdict (None, or why the
    answers are wrong), by key, for one pool."""
    name, seed = pool.split("/")
    wl = workloads.build(name, int(seed), ROOT)
    cps = {k: scasp.compile_program(scasp.parse_program(t)) for k, t in wl.programs.items()}
    engines = {k: scasp.Engine(cp) for k, cp in cps.items()}
    got = {}
    for q in wl.queries:
        cp = cps[q.program]
        answers = list(engines[q.program].run_query(scasp.parse_query(q.text), q.bound))
        texts = [scasp.render_answer(a, cp.pred_info, cp.shows) for a in answers]
        jsons = [scasp.render_answer_json(a, cp.pred_info, cp.shows) for a in answers]
        verdict = checks.check(q.expect, [_decode(j) for j in jsons])
        got[q.key] = checks.output_digest(texts, jsons), verdict
    return got


def test_the_frozen_pools_are_the_benchmarks():
    pools = ["showcase/41"] + [f"{n}/{s}" for n in ("deep", "wide") for s in (41, 42, 43)]
    assert list(EXPECTED) == pools
    assert sum(len(d) for d in EXPECTED.values()) == 211


@pytest.mark.parametrize("pool", list(EXPECTED))
def test_each_query_prints_as_frozen(pool):
    got = run_pool(pool)
    expected = EXPECTED[pool]
    assert list(got) == list(expected), "the pool's queries changed"
    changed = [key for key, digest in expected.items() if got[key][0] != digest]
    assert not changed, f"output changed in {pool}: {', '.join(changed)}"


@pytest.mark.parametrize("pool", list(EXPECTED))
def test_each_query_answers_as_its_reference_says(pool):
    wrong = [f"{key}: {why}" for key, (_, why) in run_pool(pool).items() if why is not None]
    assert not wrong, f"wrong answers in {pool}: " + "; ".join(wrong)
