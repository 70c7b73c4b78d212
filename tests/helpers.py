"""Shared utilities for the test suite."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from scasp.compiler import compile_program
from scasp.engine import Engine, run_query
from scasp.parser import parse_program, parse_query
from scasp.terms import CmpLit, Const, Forall, Lit, Struct, Var


ROOT = Path(__file__).resolve().parent.parent


def perfbench_module(name, monkeypatch):
    """perfbench/<name>.py, imported for one test (perfbench is no package)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    # Dataclasses look their module up while the module executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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
        return alpha_eq_term(a.var, b.var, m) and alpha_eq_goal(a.goal, b.goal, m)
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
