"""Term and program syntax for the solver.

Variables carry a process-unique integer id; constants wrap either a symbol
string or an exact rational value; structures are a functor applied to a
tuple of argument terms.  Lists use the conventional cons functor '.' with
the empty-list constant '[]'.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "Var", "Const", "Struct", "Term", "Lit", "CmpLit", "Forall", "Goal",
    "Rule", "Query", "Program", "NIL", "ARITH_OPS", "CONSTRAINT_OPS",
    "fresh_var", "mk_list", "list_parts", "term_vars", "goal_vars",
    "rename_term", "rename_goal", "subst_term", "subst_goal",
    "format_term", "format_goal", "format_rule",
]

_ids = itertools.count(1)


def fresh_var(name: str = "_") -> "Var":
    """Return a variable with a new process-unique id."""
    return Var(next(_ids), name)


@dataclass(frozen=True)
class Var:
    id: int
    name: str = "_"

    def __repr__(self):
        return f"Var({self.id}:{self.name})"


@dataclass(frozen=True)
class Const:
    value: Union[str, Fraction]

    @property
    def is_number(self) -> bool:
        return isinstance(self.value, Fraction)

    def __repr__(self):
        return f"Const({self.value})"


@dataclass(frozen=True)
class Struct:
    functor: str
    args: tuple

    @property
    def key(self):
        return (self.functor, len(self.args))

    def __repr__(self):
        return f"Struct({self.functor}/{len(self.args)})"


Term = Union[Var, Const, Struct]

NIL = Const("[]")

ARITH_OPS = ("+", "-", "*", "/")

# Comparison operators allowed between two terms in a rule body.  The dotted
# forms constrain rational-valued terms; '=' and '\=' work on arbitrary terms.
CONSTRAINT_OPS = ("=", "\\=", ".<.", ".>.", ".=<.", ".>=.", ".=.", ".\\=.")


@dataclass(frozen=True)
class Lit:
    """A predicate applied to argument terms, possibly behind 'not'."""

    pred: str
    args: tuple = ()
    neg: bool = False

    @property
    def key(self):
        return (self.pred, len(self.args))


@dataclass(frozen=True)
class CmpLit:
    """A binary comparison between two terms, e.g. X.<.3 or T\\=f(a)."""

    op: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Forall:
    """Universal quantification of a single variable over a goal."""

    var: Var
    goal: "Goal"


Goal = Union[Lit, CmpLit, Forall]


@dataclass(frozen=True)
class Rule:
    """A program clause; head None means a headless denial ':- body.'"""

    head: Optional[Lit]
    body: tuple = ()
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class Query:
    """A conjunctive query plus its named variables in first-use order."""

    goals: tuple
    vars: tuple = ()
    line: int = field(default=0, compare=False)  # source position, for errors
    col: int = field(default=0, compare=False)


@dataclass
class Program:
    rules: list = field(default_factory=list)
    shows: set = field(default_factory=set)
    query: Optional[Query] = None


def mk_list(items, tail: Term = NIL) -> Term:
    """Build a cons-list term from a Python sequence."""
    out = tail
    for item in reversed(list(items)):
        out = Struct(".", (item, out))
    return out


def list_parts(t: Term):
    """Split a cons chain into (items, tail); tail is NIL for proper lists."""
    items = []
    while isinstance(t, Struct) and t.functor == "." and len(t.args) == 2:
        items.append(t.args[0])
        t = t.args[1]
    return items, t


def term_vars(t: Term, acc=None, seen=None):
    """Variables of a term in first-occurrence order."""
    if acc is None:
        acc, seen = [], set()
    if isinstance(t, Var):
        if t.id not in seen:
            seen.add(t.id)
            acc.append(t)
    elif isinstance(t, Struct):
        for a in t.args:
            term_vars(a, acc, seen)
    return acc


def goal_vars(g: Goal, acc=None, seen=None):
    """Variables of a goal in first-occurrence order."""
    if acc is None:
        acc, seen = [], set()
    if isinstance(g, Lit):
        for a in g.args:
            term_vars(a, acc, seen)
    elif isinstance(g, CmpLit):
        term_vars(g.lhs, acc, seen)
        term_vars(g.rhs, acc, seen)
    else:
        term_vars(g.var, acc, seen)
        goal_vars(g.goal, acc, seen)
    return acc


def rename_term(t: Term, mapping: dict) -> Term:
    """Copy a term replacing every variable; unseen ids get fresh variables."""
    if isinstance(t, Var):
        v = mapping.get(t.id)
        if v is None:
            v = fresh_var(t.name)
            mapping[t.id] = v
        return v
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(rename_term(a, mapping) for a in t.args))
    return t


def rename_goal(g: Goal, mapping: dict) -> Goal:
    if isinstance(g, Lit):
        return Lit(g.pred, tuple(rename_term(a, mapping) for a in g.args), g.neg)
    if isinstance(g, CmpLit):
        return CmpLit(g.op, rename_term(g.lhs, mapping), rename_term(g.rhs, mapping))
    return Forall(rename_term(g.var, mapping), rename_goal(g.goal, mapping))


def subst_term(t: Term, mapping: dict) -> Term:
    """Copy a term replacing only the variables present in mapping."""
    if isinstance(t, Var):
        return mapping.get(t.id, t)
    if isinstance(t, Struct):
        return Struct(t.functor, tuple(subst_term(a, mapping) for a in t.args))
    return t


def subst_goal(g: Goal, mapping: dict) -> Goal:
    if isinstance(g, Lit):
        return Lit(g.pred, tuple(subst_term(a, mapping) for a in g.args), g.neg)
    if isinstance(g, CmpLit):
        return CmpLit(g.op, subst_term(g.lhs, mapping), subst_term(g.rhs, mapping))
    return Forall(subst_term(g.var, mapping), subst_goal(g.goal, mapping))


# ---------------------------------------------------------------------------
# Printing.  format_term produces text the parser accepts back, so compiled
# programs can be dumped and re-read.


def _var_name(v: Var, names) -> str:
    if names is not None and v.id in names:
        return names[v.id]
    if v.name and v.name != "_":
        return v.name
    return f"_G{v.id}"


def format_number(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def format_term(t: Term, names=None, prec: int = 0, right: bool = False) -> str:
    if isinstance(t, Var):
        return _var_name(t, names)
    if isinstance(t, Const):
        if t.is_number:
            s = format_number(t.value)
            # A negative literal needs parentheses when it follows an operator.
            if prec > 0 and s.startswith("-"):
                return f"({s})"
            return s
        return t.value
    if t.functor == "." and len(t.args) == 2:
        items, tail = list_parts(t)
        inner = ",".join(format_term(i, names) for i in items)
        if tail == NIL:
            return f"[{inner}]"
        return f"[{inner}|{format_term(tail, names)}]"
    if t.functor in ARITH_OPS and len(t.args) == 2:
        p = _PREC[t.functor]
        s = (
            format_term(t.args[0], names, p, False)
            + t.functor
            + format_term(t.args[1], names, p, True)
        )
        if p < prec or (p == prec and right):
            return f"({s})"
        return s
    inner = ",".join(format_term(a, names) for a in t.args)
    return f"{t.functor}({inner})" if t.args else f"{t.functor}()"


def format_goal(g: Goal, names=None, pred_info=None) -> str:
    """Print a goal; with a compiled program's pred_info, a generated
    negation prints as 'not <base>'."""
    if isinstance(g, Lit):
        info = pred_info.get(g.pred) if pred_info else None
        atom = g.pred if info is None else info.base
        if g.args:
            atom += "(" + ",".join(format_term(a, names) for a in g.args) + ")"
        return f"not {atom}" if g.neg or (info is not None and info.marker) else atom
    if isinstance(g, CmpLit):
        return format_term(g.lhs, names) + g.op + format_term(g.rhs, names)
    return f"forall({format_term(g.var, names)},{format_goal(g.goal, names, pred_info)})"


def format_rule(rule: Rule, names=None, pred_info=None) -> str:
    body = ", ".join(format_goal(g, names, pred_info) for g in rule.body)
    if rule.head is None:
        return f":- {body}."
    head = format_goal(rule.head, names, pred_info)
    if not rule.body:
        return f"{head}."
    return f"{head} :- {body}."
