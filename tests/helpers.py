"""Shared utilities for the test suite."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import scasp
from scasp import store as store_mod
from scasp.compiler import compile_program
from scasp.engine import Engine, run_query
from scasp.linear import LinearStore
from scasp.parser import parse_program, parse_query
from scasp.render import render_answer
from scasp.store import ConstraintStore
from scasp.terms import CmpLit, Const, Forall, Lit, Struct, Var


ROOT = Path(__file__).resolve().parent.parent


def run_child(*args, code=None, limit=None, env=(), timeout=300):
    """Run `python -m scasp.cli args` in a child process, or `python -c code
    args`, with src on PYTHONPATH and env's variables added, so that a crash
    of the interpreter fails the caller alone.  With a limit, the CLI runs
    under that recursion limit, set after scasp is imported.  Returns the
    completed process, its output as text."""
    if limit is not None:
        code = (
            "import sys\nfrom scasp.cli import main\n"
            f"sys.setrecursionlimit({limit})\nsys.exit(main())\n"
        )
    cmd = ["-m", "scasp.cli"] if code is None else ["-c", code]
    return subprocess.run(
        [sys.executable, *cmd, *map(str, args)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), **dict(env)}, timeout=timeout,
    )


def compiled(text):
    return compile_program(parse_program(text))


def answers(text, query=None, n=0):
    """All answers of a query against a program text (at most n if n > 0)."""
    cp = compiled(text)
    q = parse_query(query) if query is not None else cp.query
    out = []
    for ans in run_query(cp, q, n):
        out.append(ans)
        if n and len(out) >= n:
            break
    return out


def traced_run(program, query=None, bound=0, spans=(), counts=()):
    """The contract of perfbench/tracing.py, which patches Engine methods,
    LinearStore methods and store/scasp functions by name: run the query of
    tests/programs/<program>.pl (or query) untraced, then traced; check that
    both render the same answers, that each named span was opened and has
    self time, that each named counter counted, and that undo() restored
    every patched owner.  Returns the traced engine."""
    import tracing  # imported here, so that a break in it fails its callers alone

    owners = (Engine, ConstraintStore, LinearStore, store_mod, scasp)
    before = [dict(vars(owner)) for owner in owners]
    cp = compiled((ROOT / "tests" / "programs" / f"{program}.pl").read_text())
    query = cp.query if query is None else parse_query(query)

    def rendered(engine):
        return [
            re.sub(r"in [0-9.]+ ms", "", render_answer(a, cp.pred_info, cp.shows))
            for a in engine.run_query(query, bound)
        ]

    plain = rendered(Engine(cp))
    engine = Engine(cp)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        traced = rendered(engine)
    finally:
        undo()
    assert [dict(vars(owner)) for owner in owners] == before
    assert traced == plain and plain
    for span in spans:
        assert tracer.calls[span] > 0 and tracer.self_s[span] > 0, span
    for count in counts:
        assert tracer.counts[count] > 0, count
    return engine


def engine_for(text="seed_fact."):
    return Engine(compiled(text))


def binding(ans, name):
    for bname, term in ans.bindings:
        if bname == name:
            return term
    raise KeyError(name)


def num(value):
    return Const(Fraction(value))


def atom(name, *consts):
    return Lit(name, tuple(Const(c) for c in consts))


# -- alpha-equivalence --------------------------------------------------------


def alpha_eq_term(a, b, m):
    if isinstance(a, Var) and isinstance(b, Var):
        if a.id in m:
            return m[a.id] == b.id
        if b.id in m.values():
            return False
        m[a.id] = b.id
        return True
    if isinstance(a, Const) and isinstance(b, Const):
        return a.value == b.value
    if isinstance(a, Struct) and isinstance(b, Struct):
        return a.key == b.key and all(
            alpha_eq_term(x, y, m) for x, y in zip(a.args, b.args)
        )
    return False


def alpha_eq_goal(a, b, m):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return (
            a.pred == b.pred
            and a.neg == b.neg
            and len(a.args) == len(b.args)
            and all(alpha_eq_term(x, y, m) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, CmpLit) and isinstance(b, CmpLit):
        return (
            a.op == b.op
            and alpha_eq_term(a.lhs, b.lhs, m)
            and alpha_eq_term(a.rhs, b.rhs, m)
        )
    if isinstance(a, Forall) and isinstance(b, Forall):
        return (
            len(a.vars) == len(b.vars)
            and all(alpha_eq_term(x, y, m) for x, y in zip(a.vars, b.vars))
            and alpha_eq_goal(a.goal, b.goal, m)
        )
    return False


def alpha_eq_rule(a, b):
    m = {}
    if (a.head is None) != (b.head is None):
        return False
    if a.head is not None and not alpha_eq_goal(a.head, b.head, m):
        return False
    return len(a.body) == len(b.body) and all(
        alpha_eq_goal(x, y, m) for x, y in zip(a.body, b.body)
    )


# -- store sampling -----------------------------------------------------------


def sat_entry(op, value, bound):
    if op == "<":
        return value < bound
    if op == "<=":
        return value <= bound
    if op == ">":
        return value > bound
    if op == ">=":
        return value >= bound
    if op == "=":
        return value == bound
    if op == "!=":
        return value != bound
    raise ValueError(op)


def sat_view_num(view, value):
    """Does the rational `value` satisfy a store view over one variable?"""
    kind = view[0]
    if kind == "top":
        return True
    if kind == "eq":
        t = view[1]
        return isinstance(t, Const) and t.value == value
    if kind == "neq":
        return all(not (isinstance(t, Const) and t.value == value) for t in view[1])
    return all(sat_entry(op, value, bound) for op, bound in view[1])


def pick_witness_num(view):
    """A concrete rational satisfying a (satisfiable) numeric store view."""
    kind = view[0]
    if kind == "top":
        return Fraction(0)
    if kind == "eq":
        return view[1].value
    if kind == "neq":
        k = 0
        while not sat_view_num(view, Fraction(k)):
            k += 1
        return Fraction(k)
    lo = hi = None
    lo_strict = hi_strict = False
    banned = set()
    for op, bound in view[1]:
        if op == "=":
            return bound
        if op == "!=":
            banned.add(bound)
        elif op in (">", ">="):
            if lo is None or bound > lo:
                lo, lo_strict = bound, op == ">"
        elif op in ("<", "<="):
            if hi is None or bound < hi:
                hi, hi_strict = bound, op == "<"
    if lo is None and hi is None:
        base = Fraction(0)
    elif lo is None:
        base = hi if not hi_strict else hi - 1
    elif hi is None:
        base = lo if not lo_strict else lo + 1
    else:
        base = (lo + hi) / 2
    while base in banned or not sat_view_num(view, base):
        if hi is None:
            base += 1
        elif lo is None:
            base -= 1
        else:
            base = (base + hi) / 2
            if hi_strict and base == hi:
                raise AssertionError("no witness found in interval")
    return base
