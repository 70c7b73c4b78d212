"""The frozen output: every benchmark query answers with the same text and
JSON, answer by answer, as when data/output_digests.json was written.

The file maps each pool ("<workload>/<seed>") to its queries' output
digests, as perfbench's checks.output_digest computes them from the
rendered answers with their timing figures masked.  Each query runs once,
through the public API, at its pool's answer bound, and is rendered as the
benchmark client renders it.  A changed answer, order, text or JSON fails
the pool's test and names each query whose digest differs.
"""

import json
import sys

import pytest

import scasp
from helpers import ROOT

if str(ROOT / "perfbench") not in sys.path:
    sys.path.append(str(ROOT / "perfbench"))

import checks  # noqa: E402  (perfbench's modules, read through sys.path)
import workloads  # noqa: E402

EXPECTED = json.loads((ROOT / "tests" / "data" / "output_digests.json").read_text())


def pool_digests(name, seed):
    """Each query's output digest, by key, for one pool."""
    wl = workloads.build(name, seed, ROOT)
    cps = {k: scasp.compile_program(scasp.parse_program(t)) for k, t in wl.programs.items()}
    engines = {k: scasp.Engine(cp) for k, cp in cps.items()}
    got = {}
    for q in wl.queries:
        cp = cps[q.program]
        answers = list(engines[q.program].run_query(scasp.parse_query(q.text), q.bound))
        texts = [scasp.render_answer(a, cp.pred_info, cp.shows) for a in answers]
        jsons = [scasp.render_answer_json(a, cp.pred_info, cp.shows) for a in answers]
        got[q.key] = checks.output_digest(texts, jsons)
    return got


def test_the_frozen_pools_are_the_benchmarks():
    pools = ["showcase/41"] + [f"{n}/{s}" for n in ("deep", "wide") for s in (41, 42, 43)]
    assert list(EXPECTED) == pools
    assert sum(len(d) for d in EXPECTED.values()) == 211


@pytest.mark.parametrize("pool", list(EXPECTED))
def test_each_query_prints_as_frozen(pool):
    name, seed = pool.split("/")
    got = pool_digests(name, int(seed))
    expected = EXPECTED[pool]
    assert list(got) == list(expected), "the pool's queries changed"
    changed = [key for key, digest in expected.items() if got[key] != digest]
    assert not changed, f"output changed in {pool}: {', '.join(changed)}"
