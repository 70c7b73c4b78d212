"""Spans and counters recorded around the solver's public entry points.

Tracing patches methods and module functions of the ``scasp`` package in
the benchmark's own process and restores them afterwards; the solver's
sources are not touched.  Each patched call or generator resumption opens
a span; a layer's self time is its spans' durations minus the part their
child spans cover.  Spans are kept in memory, up to ``SPAN_CAP`` of them,
and written out when the run ends; self times and counters cover every
span, recorded or not.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

import scasp
from scasp import store as store_mod
from scasp.linear import LinearStore

SPAN_CAP = 50_000

# Span name -> layer whose self time it adds to.
LAYER_OF = {
    "parser": "parser",
    "compiler": "compiler",
    "engine": "engine",
    "classify_loop": "classify_loop",
    "forall": "forall",
    "store.dual": "store",
    "store.add": "store",
    "store.lin_canon": "store",
    "store.view_conj": "store",
    "linear.assert": "linear",
    "linear.entails": "linear",
    "linear.project": "linear",
    "linear.vars": "linear",
    "render": "render",
}
LAYERS = ("parser", "compiler", "engine", "classify_loop", "forall", "store", "linear", "render")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, query]
        self.dropped = 0
        self.stack = []  # [start, child seconds, span index or -1, name]
        self.self_s = defaultdict(float)  # span name -> self seconds
        self.calls = Counter()  # span name -> spans opened
        self.counts = Counter()
        self.maxima = Counter()
        self.query = None

    def enter(self, name):
        self.calls[name] += 1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            parent = self.stack[-1][2] if self.stack else -1
            self.spans.append([name, 0.0, 0.0, parent, self.query])
        else:
            self.dropped += 1
        self.stack.append([time.perf_counter(), 0.0, idx, name])

    def exit(self):
        end = time.perf_counter()
        start, child, idx, name = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - child
        if self.stack:
            self.stack[-1][1] += dur
        if idx >= 0:
            span = self.spans[idx]
            span[1], span[2] = start, end

    def high(self, name, value):
        if value > self.maxima[name]:
            self.maxima[name] = value

    def layer_ms(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[LAYER_OF[name]] += s * 1000.0
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "query"],
                       "dropped": self.dropped, "spans": self.spans}, fh)


def _timed(tracer, name, fn):
    def call(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()

    return call


def _resumed(tracer, name, gen, count=None):
    """Re-yield a generator, timing each resumption and its close() as span
    `name` (none when None) and counting yields under `count`."""
    try:
        while True:
            if name:
                tracer.enter(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if name:
                    tracer.exit()
            if count:
                tracer.counts[count] += 1
            yield item
    finally:
        if gen.gi_frame is not None:  # suspended: closing runs its cleanup
            if name:
                tracer.enter(name)
            try:
                gen.close()
            finally:
                if name:
                    tracer.exit()


def install(tracer: Tracer):
    """Patch the solver's entry points to report to `tracer`; returns an undo."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    Engine = scasp.Engine
    orig = {a: Engine.__dict__[a] for a in ("run_query", "solve_call", "classify_loop", "c_forall")}

    def run_query(self, query, max_answers=0):
        return _resumed(tracer, "engine", orig["run_query"](self, query, max_answers))

    def solve_call(self, goal):
        tracer.counts["engine.calls"] += 1
        return _resumed(tracer, None, orig["solve_call"](self, goal), "engine.yields")

    def classify_loop(self, goal):
        n = len(goal.args)
        info = self.cp.pred_info.get(goal.pred)
        comp = self.neg_of.get((goal.pred, n)) if info is None or info.kind == "user" else (
            info.base if info.kind == "umbrella" else None)
        tracer.enter("classify_loop")
        try:
            outcome = orig["classify_loop"](self, goal)
        finally:
            tracer.exit()
        c = tracer.counts
        c["engine.loop." + outcome] += 1
        c["classify_loop.frames_scanned"] += len(self.frames)
        c["classify_loop.proved_scanned"] += len(self.proved.get(goal.key, ())) + (
            len(self.proved.get((comp, n), ())) if comp else 0)
        if outcome == "continue":
            c["engine.clauses_scanned"] += len(self.cp.rules[goal.key])
        tracer.high("engine.max_depth", len(self.frames))
        tracer.high("engine.trail_hwm", len(self.trail))
        return outcome

    def c_forall(self, var, goal):
        tracer.counts["forall.calls"] += 1
        return _resumed(tracer, "forall", orig["c_forall"](self, var, goal), "forall.yields")

    def assert_constraint(self, op, lhs, rhs):
        res = orig_assert(self, op, lhs, rhs)
        tracer.counts["linear.assert.sat"] += res is not None
        return res

    orig_assert = _timed(tracer, "linear.assert", LinearStore.__dict__["assert_constraint"])
    patch(Engine, "run_query", run_query)
    patch(Engine, "solve_call", solve_call)
    patch(Engine, "classify_loop", classify_loop)
    patch(Engine, "c_forall", c_forall)
    patch(LinearStore, "assert_constraint", assert_constraint)
    for attr, name in (("entails", "linear.entails"), ("project", "linear.project"),
                       ("vars", "linear.vars")):
        patch(LinearStore, attr, _timed(tracer, name, LinearStore.__dict__[attr]))
    for attr in ("dual", "add", "lin_canon", "view_conj"):
        patch(store_mod, attr, _timed(tracer, "store." + attr, store_mod.__dict__[attr]))
    for attr, name in (("parse_program", "parser"), ("parse_query", "parser"),
                       ("compile_program", "compiler"), ("render_answer", "render")):
        patch(scasp, attr, _timed(tracer, name, scasp.__dict__[attr]))

    def undo():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)

    return undo
