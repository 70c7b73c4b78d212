"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench

Generators must give the same inputs for the same seed, every check must
reject a wrong answer, and the harness must survive a dying child.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

import pytest

import checks
import run
import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", workloads.NAMES)
def test_generators_are_deterministic_for_a_seed(name):
    a = workloads.build(name, 7, ROOT)
    b = workloads.build(name, 7, ROOT)
    assert a == b
    pa, pb = a.passes(), b.passes()
    for _ in range(3):
        assert [q.key for q in next(pa)] == [q.key for q in next(pb)]
    assert len({q.key for q in a.queries}) == len(a.queries)


@pytest.mark.parametrize("name", ["deep", "wide"])
def test_generated_inputs_change_with_the_seed(name):
    a = workloads.build(name, 1, ROOT)
    b = workloads.build(name, 2, ROOT)
    assert a.programs != b.programs or a.queries != b.queries


def test_wide_references_follow_the_generated_facts():
    ages, parents = workloads.family(3)
    wl = workloads.wide(3)
    text = wl.programs["family"]
    assert sum(line.startswith("parent(") for line in text.splitlines()) == len(parents)
    for q in wl.queries:
        who = int(q.key.split(":p")[1])
        if q.key.startswith("grandparent"):
            kids = [c for p, c in parents if p == who]
            grandkids = [f"p{g}" for k in kids for p, g in parents if p == k]
            assert list(q.expect[2]) == grandkids
        elif q.key.startswith("adult"):
            assert q.expect == ("count", int(ages[who] >= 18))


def answers_for(expect):
    """Rendered answers (as decoded JSON) that match a reference."""
    kind = expect[0]
    if kind == "count":
        return [{"bindings": {}, "model": []}] * expect[1]
    if kind == "bindings":
        return [{"bindings": {expect[1]: v}, "model": []} for v in expect[2]]
    if kind == "hanoi":
        n = expect[1]
        return [{"bindings": {"T": str(2**n - 1)}, "model": checks.hanoi_moves(n)[0]}]
    if kind == "stream":
        data = ["p({A.\\=.[a,b]})", "q(b)", "p(a)"]
        return [{"bindings": {"Pr": str(i + 1), "Data": d}, "model": []} for i, d in enumerate(data)]
    if kind == "yale":
        return [{"bindings": {"T": t, "Actions": a}, "model": []} for t, a in expect[1]]
    if kind == "tsp":
        return [{"bindings": {"D": expect[1], "Cycle": expect[2]}, "model": []}]
    raise AssertionError(kind)


def wrong_versions(answers):
    """Ways to spoil an answer list: drop one, add one, alter one value."""
    yield answers[:-1]
    yield answers + [{"bindings": {}, "model": []}]
    for i, ans in enumerate(answers):
        for var, value in ans["bindings"].items():
            bad = json.loads(json.dumps(answers))
            bad[i]["bindings"][var] = value + "0"
            yield bad
        if ans["model"]:
            bad = json.loads(json.dumps(answers))
            bad[i]["model"] = ans["model"][1:]
            yield bad


def all_references():
    seen = {}
    for name in workloads.NAMES:
        for q in workloads.build(name, 1, ROOT).queries:
            seen.setdefault(q.expect[0] + str(q.expect[1:2]), q.expect)
    return list(seen.values())


@pytest.mark.parametrize("expect", all_references(), ids=lambda e: e[0])
def test_checks_accept_the_reference_and_reject_wrong_answers(expect):
    good = answers_for(expect)
    assert checks.check(expect, good) is None
    for bad in wrong_versions(good):
        if bad != good:
            assert checks.check(expect, bad) is not None, bad


def test_hanoi_reference_is_the_textbook_sequence():
    moves, t = checks.hanoi_moves(3)
    assert t == 7
    assert moves == ["move(a,b,1)", "move(a,c,2)", "move(b,c,3)", "move(a,b,4)",
                     "move(c,a,5)", "move(c,b,6)", "move(a,b,7)"]


def test_output_digest_ignores_timings_only():
    a = checks.output_digest(["Answer 1\t(in 1.500 ms):\nx"], ['{"time_ms": 1.5, "b": 1}'])
    b = checks.output_digest(["Answer 1\t(in 9.250 ms):\nx"], ['{"time_ms": 9.25, "b": 1}'])
    c = checks.output_digest(["Answer 1\t(in 9.250 ms):\ny"], ['{"time_ms": 9.25, "b": 1}'])
    assert a == b != c


def test_percentile_picks_a_sample_at_or_above_the_rank():
    assert run.percentile([4, 1, 3, 2], 0.5) == 3
    assert run.percentile(list(range(101)), 0.9) == 90
    assert run.percentile([5.0], 0.9) == 5.0


def test_times_are_scaled_by_the_kernel_and_summarised_by_median():
    assert speed.scaled(30.0, speed.REFERENCE_MS * 2) == 15.0
    ref = speed.REFERENCE_MS
    records = [
        {"q": "a", "ms": 10.0, "first_ms": 4.0, "cal_ms": ref, "answers": 2, "error": None},
        {"q": "a", "ms": 40.0, "first_ms": 8.0, "cal_ms": 2 * ref, "answers": 2, "error": None},
        {"q": "a", "ms": 90.0, "first_ms": 30.0, "cal_ms": ref, "answers": 2, "error": None},
        {"q": "b", "ms": 5.0, "first_ms": None, "cal_ms": ref, "answers": 0, "error": None},
        {"q": "b", "ms": 0.0, "first_ms": None, "answers": 0, "error": "killed by signal 11"},
    ]
    assert run.median_times(records) == {"a": (20.0, 4.0, 2), "b": (5.0, None, 0)}


def test_speedometer_samples_the_kernel_inside_the_region_and_disarms():
    with speed.Speedometer() as meter:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        t1 = time.perf_counter()
    assert len(meter.inside) >= 2
    assert meter.paused_ms(t0, t1) == sum(ms for _, ms in meter.inside)
    assert meter.paused_ms(t1, t1 + 1.0) == 0
    assert meter.cal_ms() > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_a_dying_child_is_reported_with_its_signal(tmp_path):
    script = ("import json, os, signal\n"
              "print(json.dumps({'setup_s': [0.1], 'sizes': {}}), flush=True)\n"
              "os.kill(os.getpid(), signal.SIGSEGV)\n")
    records, died = run.run_child([sys.executable, "-c", script], tmp_path)
    assert records == [{"setup_s": [0.1], "sizes": {}}]
    assert died == "killed by signal 11"


def test_tracer_times_resumptions_and_forwards_close():
    tracer = tracing.Tracer()
    closed = []

    def inner():
        try:
            tracer.enter("child")
            tracer.exit()
            yield 1
            yield 2
        finally:
            closed.append(True)

    gen = tracing._resumed(tracer, "outer", inner(), count="items")
    assert next(gen) == 1
    gen.close()
    assert closed == [True]
    assert tracer.calls["outer"] == 2  # one resumption, one close
    assert tracer.counts["items"] == 1
    assert tracer.self_s["outer"] >= 0.0
    assert [s[0] for s in tracer.spans] == ["outer", "child", "outer"]
    assert tracer.spans[1][3] == 0  # the child span's parent is the first span


def test_client_runs_and_checks_real_answers():
    import client

    wl = workloads.build("wide", 1, ROOT)
    c = client.Client(wl)
    c.setup()
    for q in wl.queries[:3] + wl.queries[-2:]:
        assert c.run(q, "test")["error"] is None
    show = client.Client(workloads.build("showcase", 1, ROOT))
    show.setup()
    assert show.run(show.wl.queries[0], "test")["error"] is None
