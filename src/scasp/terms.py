"""Term and program syntax for the solver.

Variables carry a process-unique integer id; constants wrap either a symbol
string or an exact rational value; structures are a functor applied to a
tuple of argument terms.  Lists use the conventional cons functor '.' with
the empty-list constant '[]'.

Terms and literals are immutable by contract: nothing assigns to a field
after construction, so values derived from the fields are computed once and
kept.  Two are equal when they are of the same class with equal fields, and
hash consistently with that.  Var, Lit and CmpLit are slotted dataclasses.
Var keeps its own __eq__, as the generated one compares tuples of fields
and a variable's equality is on resolution's inner loop, the __hash__ that
goes with it, and its short repr.
Const and Struct are hand-written slotted classes: each caches its hash,
and a Struct its text, which a dataclass would pickle with its fields.  A
cached hash or text is never pickled, since string hashes differ between
processes.  Lit's key, a (name, arity) pair, is the same in every process,
and is pickled with the fields.  Rule, built once per parsed clause, and
Forall, one per block of universally quantified variables, are frozen
slotted dataclasses.
format_term keeps the text of a ground structure with no arithmetic functor
on top, which no name or operator changes, if it is at most TEXT_CACHE_MAX
characters long: each level of a d-deep term has its own text, and keeping
them all would hold O(d^2) characters.
"""

from __future__ import annotations

import functools
import gc
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

__all__ = [
    "Var", "Const", "Struct", "Term", "Lit", "CmpLit", "Forall", "Goal",
    "Rule", "Query", "Program", "NIL", "ARITH_OPS", "CONSTRAINT_OPS",
    "collector_paused", "fresh_var", "mk_list", "list_parts", "term_vars",
    "goal_vars", "rename_terms", "rename_goal",
    "format_term", "format_terms", "format_goal", "format_rule",
]

_ids = itertools.count(1)


def fresh_var(name: str = "_") -> "Var":
    """Return a variable with a new process-unique id."""
    return Var(next(_ids), name)


@dataclass(slots=True, eq=False, repr=False)
class Var:
    id: int
    name: str = "_"
    ground = arith = is_number = False  # every term answers these three

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.id == other.id and self.name == other.name
        return NotImplemented

    def __hash__(self):
        return hash((self.id, self.name))

    def __repr__(self):
        return f"Var({self.id}:{self.name})"


class Const:
    __slots__ = ("value", "is_number", "_hash")
    __match_args__ = ("value",)
    ground, arith = True, False

    def __init__(self, value: Union[str, Fraction]):
        self.value = value
        self.is_number = isinstance(value, Fraction)
        self._hash = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        # A Fraction's hash is costly, and constants are index keys.
        h = self._hash
        if h is None:
            h = self._hash = hash((self.value,))
        return h

    def __reduce__(self):
        return (self.__class__, (self.value,))

    def __repr__(self):
        return f"Const({self.value})"


class Struct:
    """A functor applied to a tuple of argument terms.

    key is (functor, arity).  ground is True when no variable occurs in
    the term; arith when an arithmetic structure (+ - * / of two arguments)
    occurs in it, not looking through variables.  Both flags and the hash
    are computed when the structure is built, from its arguments' own, so
    none of them walks the term (taken lazily, each would recurse once per
    level of a deep term), and walks skip a ground subterm in one step.
    """

    __slots__ = ("functor", "args", "key", "ground", "arith", "_hash", "_text")
    __match_args__ = ("functor", "args")
    is_number = False

    def __init__(self, functor: str, args: tuple):
        self.functor = functor
        self.args = args
        self.key = (functor, len(args))
        ground = True
        arith = functor in ARITH_OPS and len(args) == 2
        for a in args:
            ground = ground and a.ground
            arith = arith or a.arith
        self.ground = ground
        self.arith = arith
        self._hash = hash((functor, args))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Unequal structures mostly differ in hash.  An explicit stack, as
        # nested tuples compare through C, which 3.12 stops a few hundred deep.
        pairs = [(self, other)]
        while pairs:
            x, y = pairs.pop()
            if x is y:
                continue
            if x._hash != y._hash or x.key != y.key:
                return False
            for a, b in zip(x.args, y.args):
                if a.__class__ is Struct and b.__class__ is Struct:
                    pairs.append((a, b))
                elif a != b:
                    return False
        return True

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (self.__class__, (self.functor, self.args))

    def __repr__(self):
        return f"Struct({self.functor}/{len(self.args)})"


Term = Union[Var, Const, Struct]

NIL = Const("[]")

ARITH_OPS = ("+", "-", "*", "/")

# Comparison operators allowed between two terms in a rule body.  The dotted
# forms constrain rational-valued terms; '=' and '\=' work on arbitrary terms.
CONSTRAINT_OPS = ("=", "\\=", ".<.", ".>.", ".=<.", ".>=.", ".=.", ".\\=.")


@dataclass(slots=True, unsafe_hash=True, init=False)
class Lit:
    """A predicate applied to argument terms, possibly behind 'not'."""

    pred: str
    args: tuple = ()
    neg: bool = False
    key: tuple = field(init=False, compare=False, repr=False)  # (pred, arity)

    def __init__(self, pred: str, args: tuple = (), neg: bool = False):
        self.pred = pred
        self.args = args
        self.neg = neg
        self.key = (pred, len(args))


@dataclass(slots=True, unsafe_hash=True)
class CmpLit:
    """A binary comparison between two terms, e.g. X.<.3 or T\\=f(a)."""

    op: str
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Forall:
    """Universal quantification of a tuple of variables, the first
    outermost, over a goal: one node per quantified block, as a dual
    quantifies all of a clause's body-only variables at once.  A Forall
    goal joins its variables to the tuple, so the goal is never a Forall."""

    vars: tuple
    goal: "Goal"

    def __post_init__(self):
        if not self.vars:
            raise ValueError("a forall quantifies at least one variable")
        if isinstance(self.goal, Forall):
            object.__setattr__(self, "vars", (*self.vars, *self.goal.vars))
            object.__setattr__(self, "goal", self.goal.goal)


Goal = Union[Lit, CmpLit, Forall]


@dataclass(frozen=True, slots=True)
class Rule:
    """A program clause; head None means a headless denial ':- body.'"""

    head: Optional[Lit]
    body: tuple = ()
    line: int = 0  # source position, for errors
    col: int = 0
    file: str = field(default="<program>", compare=False)


@dataclass(frozen=True)
class Query:
    """A conjunctive query plus its named variables in first-use order."""

    goals: tuple
    vars: tuple = ()
    line: int = field(default=0, compare=False)  # source position, for errors
    col: int = field(default=0, compare=False)
    file: str = field(default="<query>", compare=False)


@dataclass
class Program:
    rules: list = field(default_factory=list)
    shows: set = field(default_factory=set)
    query: Optional[Query] = None


def collector_paused(load):
    """Run a loader with automatic cyclic collection off, then put the
    caller's setting back, on return and on an error alike.

    Loading makes no reference cycles: terms are immutable and built from
    their parts, and the rule tables hold them in plain containers.  All it
    builds stays alive, so each collection during a load would scan it and
    free nothing.  The switch is process-wide: another thread allocating
    meanwhile runs without automatic collections too.
    """

    @functools.wraps(load)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return load(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()

    return paused


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
    if t.__class__ is Var:  # a variable or a ground term, the common cases, takes no walk
        if t.id not in seen:
            seen.add(t.id)
            acc.append(t)
        return acc
    return acc if t.ground else _vars_of(t.args, acc, seen)


def goal_vars(g: Goal, acc=None, seen=None):
    """Variables of a goal in first-occurrence order."""
    if acc is None:
        acc, seen = [], set()
    if isinstance(g, Forall):
        _vars_of(g.vars, acc, seen)
        g = g.goal
    return _vars_of((g.lhs, g.rhs) if isinstance(g, CmpLit) else g.args, acc, seen)


def _vars_of(ts: tuple, acc: list, seen: set) -> list:
    """Add the variables of a tuple of terms not in seen to acc, in
    first-occurrence order, walking each structure with an explicit stack."""
    stack = None  # iterators over the arguments of the structures entered
    it = iter(ts)
    while True:
        for a in it:
            if a.__class__ is Var:
                if a.id not in seen:
                    seen.add(a.id)
                    acc.append(a)
            elif not a.ground:
                if stack is None:
                    stack = []
                stack.append(it)
                it = iter(a.args)
                break
        else:
            if not stack:
                return acc
            it = stack.pop()


def rename_terms(ts: tuple, mapping: dict) -> tuple:
    """Copy each term of a tuple replacing every variable; unseen ids get
    fresh variables.  Ground subterms are shared, not copied.  A structure
    is walked with an explicit stack, so that a term's depth costs no
    Python stack."""
    # The structures being copied, outermost first: each one's functor, an
    # iterator over its arguments and the copies made of those before it.
    stack = []
    f, it, args = None, iter(ts), []
    while True:
        for a in it:
            cls = a.__class__
            if cls is Var:
                v = mapping.get(a.id)
                if v is None:
                    v = mapping[a.id] = fresh_var(a.name)
                args.append(v)
            elif cls is Struct and not a.ground:
                stack.append((f, it, args))
                f, it, args = a.functor, iter(a.args), []
                break
            else:
                args.append(a)
        else:
            if not stack:
                return tuple(args)
            t = Struct(f, tuple(args))
            f, it, args = stack.pop()
            args.append(t)


def rename_goal(g: Goal, mapping: dict) -> Goal:
    if isinstance(g, Lit):
        return Lit(g.pred, rename_terms(g.args, mapping), g.neg)
    if isinstance(g, CmpLit):
        return CmpLit(g.op, *rename_terms((g.lhs, g.rhs), mapping))
    vs = rename_terms(g.vars, mapping)  # the variables first, outermost first
    return Forall(vs, rename_goal(g.goal, mapping))


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
TEXT_CACHE_MAX = 1024  # the longest text format_term keeps (module docstring)


def format_term(t: Term, names=None, prec: int = 0, right: bool = False) -> str:
    """The text of a term; prec and right place it as an operand of an
    arithmetic operator.  A structure is walked with an explicit stack, so
    that a term's depth costs no Python stack."""
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
    s = getattr(t, "_text", None) if t.ground else None
    if s is not None:
        return s
    out = []
    # Each entry is a text to print, a (term, prec, right) to print, or the
    # (structure, index in out) at which the text of a ground one began.
    todo = [(t, prec, right)]
    while todo:
        e = todo.pop()
        if e.__class__ is str:
            out.append(e)
            continue
        if len(e) == 2:
            t, i = e
            # A piece is a character or more (bar an empty name, which at
            # worst skips a keep), so a longer run of pieces cannot fit.
            if len(out) - i <= TEXT_CACHE_MAX:
                s = "".join(out[i:])
                if len(s) <= TEXT_CACHE_MAX:
                    t._text = s
            continue
        t, prec, right = e
        if t.__class__ is not Struct:
            out.append(format_term(t, names, prec))
            continue
        s = getattr(t, "_text", None) if t.ground else None
        if s is not None:
            out.append(s)
            continue
        f, args = t.functor, t.args
        if f in _PREC and len(args) == 2:
            p = _PREC[f]
            if p < prec or (p == prec and right):
                todo += (")", (args[1], p, True), f, (args[0], p, False), "(")
            else:
                todo += ((args[1], p, True), f, (args[0], p, False))
            continue
        if t.ground:
            todo.append((t, len(out)))
        if f == "." and len(args) == 2:
            items, tail = list_parts(t)
            todo += ("]",) if tail == NIL else ("]", (tail, 0, False), "|")
            opening = "["
        else:
            items = args
            todo.append(")")
            opening = f + "("
        for k in range(len(items) - 1, -1, -1):
            todo.append((items[k], 0, False))
            if k:
                todo.append(",")
        todo.append(opening)
    return "".join(out)


def format_terms(*ts) -> list:
    """Print the terms of one message, numbering each unnamed variable by
    its first occurrence across them (_G1, _G2, ...), so the text does not
    depend on how many variables the process made before."""
    found, seen, names = [], set(), {}
    for t in ts:
        term_vars(t, found, seen)
    for v in found:
        if not v.name or v.name == "_":
            names[v.id] = f"_G{len(names) + 1}"
    return [format_term(t, names) for t in ts]


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
    # One forall(V, ...) per variable, as the goal was written.
    opening = "".join([f"forall({format_term(v, names)}," for v in g.vars])
    return opening + format_goal(g.goal, names, pred_info) + ")" * len(g.vars)


def format_rule(rule: Rule, names=None, pred_info=None) -> str:
    body = ", ".join(format_goal(g, names, pred_info) for g in rule.body)
    if rule.head is None:
        return f":- {body}."
    head = format_goal(rule.head, names, pred_info)
    if not rule.body:
        return f"{head}."
    return f"{head} :- {body}."
