"""Solver benchmark: runs one workload in its own child process and reports.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Run it from the repository root; it needs ``src/scasp`` and
``tests/programs`` there and nothing installed.  Workloads (see
``workloads.py`` for why each was chosen): ``showcase``, ``deep``, ``wide``.

The child (``client.py``) is a single closed-loop client: it solves one
query at a time through the public API (``parse_program``/``parse_query``,
``compile_program``, ``Engine.run_query``, ``render_answer``) and streams a
record per query back.  A query that raises counts as failed and the run
goes on; if the child dies, by a signal or by running past the time limit,
the query in flight counts as failed with the exit status, and the figures
cover what finished.

The report is a table of every metric, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
they are the per-layer ones from a traced replay, plus the tracing overhead
as traced against untraced queries per second on the same passes.  The
traced replay's spans are written to ``perfbench/results/``.

Each query of the pool is timed once per pass, after a full garbage
collection outside the timed region, and each time is scaled to a nominal
host by a calibration kernel timed around and during it (``speed.py``):
on a shared two-vCPU virtual machine the same code ran up to two and a
half times more slowly for stretches of a fraction of a second to
minutes, which moved whole 30-second runs by a quarter, while the ratio
of a query's time to the kernel's stayed within a few per cent.  A
query's figure is the median of its scaled times in the run.  Latency percentiles are taken across the pool's
queries with the "higher" rule, sorted[ceil(p * (n - 1))], which picks a
measured query: the showcase pool holds four queries of very different
length, and an interpolating rule would average two of them.  The rates
are the pool's queries and answers over the sum of their median times.
setup_s is the median of the scaled set-ups, one before each pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from speed import REFERENCE_MS, scaled

HERE = Path(__file__).resolve().parent
CHILD_LIMIT_S = 170  # the child is killed after this long, whatever --seconds says


def percentile(values, p):
    """sorted[ceil(p * (n - 1))]; 0 when a failed run left no samples."""
    s = sorted(values) or [0.0]
    return s[math.ceil(p * (len(s) - 1))]


def run_child(cmd, root):
    """Run `cmd` from `root` and collect its JSON lines.

    Returns (records, None) when it exits cleanly, else (records, reason).
    """
    paths = [str(root / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    expired = threading.Event()

    def expire():
        expired.set()
        proc.kill()

    timer = threading.Timer(CHILD_LIMIT_S, expire)
    timer.start()
    records = []
    try:
        for line in proc.stdout:
            records.append(json.loads(line))
    finally:
        timer.cancel()
        proc.stdout.close()
        status = proc.wait()
    if status != 0:
        reason = (f"killed by signal {-status}" if status < 0 else f"exited with status {status}")
        if expired.is_set():
            reason += f" after the {CHILD_LIMIT_S} s limit"
        return records, reason
    return records, None


def median_times(records):
    """Per query key: (median scaled ms, median scaled first-answer ms or
    None, answers), over the query's successful runs."""
    runs = {}
    for r in records:
        if not r["error"]:
            runs.setdefault(r["q"], []).append(r)
    out = {}
    for key, rs in runs.items():
        firsts = [scaled(r["first_ms"], r["cal_ms"]) for r in rs if r["first_ms"] is not None]
        out[key] = (statistics.median(scaled(r["ms"], r["cal_ms"]) for r in rs),
                    statistics.median(firsts) if firsts else None, rs[0]["answers"])
    return out


def end_to_end(queries, setups, rss_mb):
    timed = [r for r in queries if r["phase"] == "timed"]
    ok = [r for r in timed if not r["error"]]
    attempted = len(timed) or 1  # none when the child died before timing began
    per_query = median_times(timed)
    solve_s = sum(ms for ms, _, _ in per_query.values()) / 1000.0 or math.inf
    firsts = [f for _, f, _ in per_query.values() if f is not None]
    cals = [r["cal_ms"] for r in ok]
    m = {
        "setup_s": (statistics.median(scaled(r["setup_s"], r["cal_ms"]) for r in setups), "s"),
        "queries_per_s": (len(per_query) / solve_s, "1/s"),
        "answers_per_s": (sum(n for _, _, n in per_query.values()) / solve_s, "1/s"),
        "first_answer_ms.p50": (percentile(firsts, 0.5), "ms"),
        "first_answer_ms.p90": (percentile(firsts, 0.9), "ms"),
        "query_ms.p50": (percentile([ms for ms, _, _ in per_query.values()], 0.5), "ms"),
        "query_ms.p90": (percentile([ms for ms, _, _ in per_query.values()], 0.9), "ms"),
        "correct_frac": (len(ok) / attempted, "ratio"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    notes = [f"timed queries {len(timed)} over {len(per_query)} distinct queries, "
             f"{len(firsts)} with answers; set-ups {len(setups)}",
             f"calibration kernel median {statistics.median(cals or [math.nan]):.3f} ms "
             f"(times below are scaled to {REFERENCE_MS:g} ms); unscaled: "
             f"query_ms median {statistics.median([r['ms'] for r in ok] or [math.nan]):.3f}, "
             f"setup_s median {statistics.median(r['setup_s'] for r in setups):.4f}",
             f"failed_frac {1 - len(ok) / attempted:.4f} ({len(timed) - len(ok)}/{len(timed)})"]
    return m, notes


def tracing_overhead(queries):
    def qps(phase):
        per_query = median_times([r for r in queries if r["phase"] == phase])
        return len(per_query) / (sum(ms for ms, _, _ in per_query.values()) / 1000.0 or math.inf)

    untraced, traced = qps("untraced"), qps("traced")
    return {
        "trace.untraced_queries_per_s": (untraced, "1/s"),
        "trace.queries_per_s": (traced, "1/s"),
        "trace.overhead": (untraced / traced, "ratio"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one benchmark workload and report its metrics.")
    ap.add_argument("--workload", required=True, help="showcase, deep or wide")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/scasp/__init__.py", "tests/programs/hanoi.pl") if not (root / p).is_file()]
    if missing:
        print(f"run.py: run from the repository root; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "client.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = HERE / "results"
        out.mkdir(exist_ok=True)
        cmd += ["--spans", str(out / f"spans-{args.workload}-seed{args.seed}.json")]
    records, died = run_child(cmd, root)
    setups = [r for r in records if "setup_s" in r]
    queries = [r for r in records if "q" in r]
    if died:
        # The query in flight when the child died, if it died in one.
        starts = [r for r in records if "start" in r]
        key, phase = ((starts[-1]["start"], starts[-1]["phase"]) if len(starts) > len(queries)
                      else ("(none)", "traced" if args.trace else "timed"))
        queries.append({"q": key, "phase": phase, "ms": 0.0, "first_ms": None, "answers": 0,
                        "error": died})
    if not setups:
        print(f"run.py: the {args.workload} workload was not set up"
              + (f"; its process {died}" if died else ""), file=sys.stderr)
        return 1
    failed = [r for r in queries if r["error"]]

    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if args.trace:
        layers = next((r["layers"] for r in records if "layers" in r), None)
        if layers is None:
            print(f"run.py: the traced run did not finish; its process {died}", file=sys.stderr)
            return 1
        metrics = {k: (v["value"], v["unit"]) for k, v in layers.items()}
        metrics.update(tracing_overhead(queries))
        notes = []
    else:
        metrics, notes = end_to_end(queries, setups, rss_mb)

    digest = next((r["digest"] for r in records if "digest" in r), "none (run did not finish)")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for r in failed[:10]:
        print(f"FAILED {r['q']}: {r['error']}")
    for note in notes:
        print(note)
    print(f"output digest {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.4f} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(queries),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
