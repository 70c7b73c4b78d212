"""One workload in one process: a single closed-loop client, no threads.

Started by ``run.py`` from the repository root with ``src`` on
PYTHONPATH.  It sets the workload up (parse and compile every program and
query), runs one untimed pass over the query pool in pool order, then
solves the pool in whole passes, each in a seeded order, until
``--seconds`` have gone by, setting up again before each pass.  Every
query is checked against its reference answer outside the timed region.
Every set-up and query is timed inside a ``speed.Speedometer``, which
times a calibration kernel around and during it, so that the parent can
scale its time to a nominal host; the kernel's time inside is left out.
With ``--trace 1`` it first measures the same way without tracing for a
share of the time, then replays exactly those passes with tracing on, so
the two rates compare equal work.

It writes one JSON record per line to stdout, flushed as it goes, so the
parent still has every finished query if this process dies:

* ``{"setup_s": seconds, "t": ..., "cal_ms": ...}`` per set-up, once
  before the warm-up and again before each pass; ``cal_ms`` is the
  speedometer's mean kernel pass;
* ``{"start": key, "phase": ...}`` before and ``{"q": key, "phase": ...,
  "t": ..., "ms": ..., "first_ms": ..., "cal_ms": ..., "answers": ...,
  "error": ...}`` after each query;
* ``{"layers": {...}}`` after a traced replay;
* ``{"digest": ...}`` at the end: the output digest of the pool.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import sys
import time
from pathlib import Path

import scasp

from checks import check, output_digest
from speed import Speedometer
from tracing import Tracer, install
from workloads import NAMES, build

UNTRACED_SHARE = 0.35  # of --seconds, measured untraced before the traced replay


def emit(record):
    print(json.dumps(record), flush=True)


class Client:
    def __init__(self, workload):
        self.wl = workload
        self.cps = {}
        self.engines = {}
        self.parsed = {}
        self.sizes = {}
        self.digests = {}  # query key -> digest of its first run
        self.tracer = None  # set for the traced replay

    def setup(self):
        """Parse and compile every program and query, timed as setup_s."""
        self.cps = self.engines = self.parsed = {}
        gc.unfreeze()
        gc.collect()
        with Speedometer() as meter:
            t0 = time.perf_counter()
            programs = {k: scasp.parse_program(text) for k, text in self.wl.programs.items()}
            self.cps = {k: scasp.compile_program(p) for k, p in programs.items()}
            self.parsed = {q.key: scasp.parse_query(q.text) for q in self.wl.queries}
            self.engines = {k: scasp.Engine(cp) for k, cp in self.cps.items()}
            end = time.perf_counter()
        setup_s = end - t0 - meter.paused_ms(t0, end) / 1000.0
        emit({"setup_s": setup_s, "t": t0, "cal_ms": meter.cal_ms()})
        # The programs live as long as the pass: keeping them out of the
        # collector makes the full collection before each query cheap (it
        # took 60 ms on the deep workload's heap, more than many queries).
        gc.freeze()
        self.sizes = {
            "clauses": sum(len(p.rules) for p in programs.values()),
            "rules_out": sum(len(rs) for cp in self.cps.values() for rs in cp.rules.values()),
            "nmr_checks": sum(
                info.kind == "chk" for cp in self.cps.values() for info in cp.pred_info.values()
            ),
        }

    def run(self, q, phase):
        """Solve one query, render as the CLI does, then check the output."""
        cp = self.cps[q.program]
        engine = self.engines[q.program]
        query = self.parsed[q.key]
        answers, texts = [], []
        first = None
        snapshot_ms = 0.0
        error = None
        emit({"start": q.key, "phase": phase})
        tracer = self.tracer
        if tracer:
            tracer.query = f"{q.key}#{tracer.counts['queries']}"
        # Start from an empty collector, as a fresh CLI process does: the
        # collections inside the query then depend on that query alone.
        gc.collect()
        with Speedometer() as meter:
            t0 = time.perf_counter()
            try:
                for ans in engine.run_query(query, q.bound):
                    snapshot_ms += (time.perf_counter() - t0) * 1000.0 - ans.time_ms
                    texts.append(scasp.render_answer(ans, cp.pred_info, cp.shows))
                    if first is None:
                        first = time.perf_counter()
                    answers.append(ans)
                end = time.perf_counter()
            except Exception as e:  # a failed query is recorded, the run goes on
                end = time.perf_counter()
                error = f"{type(e).__name__}: {e}"
        if tracer:
            tracer.counts["queries"] += 1
            tracer.counts["forall.iterations"] += len(engine.forall_trace)
            tracer.counts["snapshot_ms"] += snapshot_ms
            tracer.counts["render.bytes"] += sum(len(t.encode()) for t in texts)
        rec = {
            "q": q.key,
            "phase": phase,
            "t": t0,
            "ms": (end - t0) * 1000.0 - meter.paused_ms(t0, end),
            "first_ms": None if first is None else (first - t0) * 1000.0 - meter.paused_ms(t0, first),
            "cal_ms": meter.cal_ms(),
            "answers": len(answers),
            "error": error,
        }
        if error is None:
            jsons = [scasp.render_answer_json(a, cp.pred_info, cp.shows) for a in answers]
            error = check(q.expect, [json.loads(j) for j in jsons])
            digest = output_digest(texts, jsons)
            if error is None and self.digests.setdefault(q.key, digest) != digest:
                error = "output differs from this query's first run"
            rec["error"] = error
        emit(rec)
        return rec

    def measure(self, seconds, phase, passes=None):
        """Run whole passes for `seconds`, or exactly `passes` of them;
        returns the number of passes run.

        The workload is set up again before each pass, so that setup_s
        samples the whole run like the queries do.
        """
        done = 0
        start = time.perf_counter()
        for order in self.wl.passes():
            if passes is None and time.perf_counter() - start >= seconds:
                break
            if passes is not None and done == passes:
                break
            self.setup()
            for q in order:
                self.run(q, phase)
            done += 1
        return done

    def digest(self):
        h = hashlib.sha256()
        for q in self.wl.queries:
            h.update(f"{q.key}={self.digests.get(q.key)}\n".encode())
        return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    args = ap.parse_args(argv)

    client = Client(build(args.workload, args.seed, Path.cwd()))
    setup_tracer = Tracer() if args.trace else None
    undo = install(setup_tracer) if args.trace else None
    try:
        client.setup()
    finally:
        if undo:
            undo()

    # One untimed pass in pool order: warms the interpreter, fixes the heap
    # layout that later passes start from, and yields the output digest.
    for q in client.wl.queries:
        client.run(q, "warmup")

    if not args.trace:
        client.measure(args.seconds, "timed")
        emit({"digest": client.digest()})
        return 0

    done = client.measure(args.seconds * UNTRACED_SHARE, "untraced")
    tracer = Tracer()
    undo = install(tracer)
    client.tracer = tracer
    try:
        client.measure(None, "traced", passes=done)
    finally:
        undo()
    if args.spans:
        tracer.write(args.spans)
    emit({"layers": layer_metrics(tracer, setup_tracer, client.sizes)})
    emit({"digest": client.digest()})
    return 0


def layer_metrics(tracer, setup_tracer, sizes):
    """Per-layer figures of a traced replay, per query solved."""
    c, calls, self_s = tracer.counts, tracer.calls, tracer.self_s
    n = max(1, c["queries"])

    def per_q(v):
        return v / n

    def ms(name):
        return self_s[name] * 1000.0

    def ratio(a, b):
        return a / b if b else 0.0

    store_names = ("store.dual", "store.add", "store.lin_canon", "store.view_conj")
    setup_ms = setup_tracer.layer_ms()
    layer = tracer.layer_ms()
    solve_total = sum(v for k, v in layer.items() if k not in ("parser", "compiler"))
    out = {
        "parser.ms": (setup_ms["parser"], "ms"),
        "parser.clauses": (sizes["clauses"], "count"),
        "compiler.ms": (setup_ms["compiler"], "ms"),
        "compiler.rules_out": (sizes["rules_out"], "count"),
        "compiler.nmr_checks": (sizes["nmr_checks"], "count"),
        "engine.calls": (per_q(c["engine.calls"]), "count/query"),
        "engine.clauses_scanned": (per_q(c["engine.clauses_scanned"]), "count/query"),
        "engine.clause_hit_ratio": (ratio(c["engine.yields"], c["engine.clauses_scanned"]), "ratio"),
        "engine.max_depth": (tracer.maxima["engine.max_depth"], "count"),
        "engine.trail_hwm": (tracer.maxima["engine.trail_hwm"], "count"),
        "engine.snapshot_ms": (per_q(c["snapshot_ms"]), "ms/query"),
        "engine.self_ms": (per_q(layer["engine"]), "ms/query"),
        "engine.classify_loop.calls": (per_q(calls["classify_loop"]), "count/query"),
        "engine.classify_loop.ms": (per_q(layer["classify_loop"]), "ms/query"),
        "engine.classify_loop.frames_scanned": (per_q(c["classify_loop.frames_scanned"]), "count/query"),
        "engine.classify_loop.proved_scanned": (per_q(c["classify_loop.proved_scanned"]), "count/query"),
    }
    for outcome in ("fail_odd", "fail_positive", "succeed_coinductive", "succeed_proved", "continue"):
        out["engine.loop." + outcome] = (per_q(c["engine.loop." + outcome]), "count/query")
    out.update({
        "engine.forall.calls": (per_q(c["forall.calls"]), "count/query"),
        "engine.forall.ms": (per_q(layer["forall"]), "ms/query"),
        "engine.forall.iterations": (per_q(c["forall.iterations"]), "count/query"),
        "engine.forall.success_ratio": (ratio(c["forall.yields"], c["forall.calls"]), "ratio"),
        "store.calls": (per_q(sum(calls[x] for x in store_names)), "count/query"),
        "store.ms": (per_q(layer["store"]), "ms/query"),
        "linear.assert.calls": (per_q(calls["linear.assert"]), "count/query"),
        "linear.assert.ms": (per_q(ms("linear.assert")), "ms/query"),
        "linear.assert.sat_ratio": (ratio(c["linear.assert.sat"], calls["linear.assert"]), "ratio"),
        "linear.entails.calls": (per_q(calls["linear.entails"]), "count/query"),
        "linear.project.calls": (per_q(calls["linear.project"]), "count/query"),
        "linear.project.ms": (per_q(ms("linear.project")), "ms/query"),
        "linear.vars.calls": (per_q(calls["linear.vars"]), "count/query"),
        "linear.vars.ms": (per_q(ms("linear.vars")), "ms/query"),
        "render.ms": (per_q(layer["render"]), "ms/query"),
        "render.bytes": (per_q(c["render.bytes"]), "bytes/query"),
    })
    for name in ("engine", "classify_loop", "forall", "store", "linear", "render"):
        out["share." + name] = (100.0 * ratio(layer[name], solve_total), "%")
    out["trace.spans_dropped"] = (tracer.dropped, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


if __name__ == "__main__":
    sys.exit(main())
