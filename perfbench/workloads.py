"""Seeded workloads for the solver benchmark.

A workload is a set of program texts and a pool of queries over them.  A
run repeats the pool in passes, each pass in a fresh order drawn from the
seed, and always finishes the pass it started, so every query of the pool
is measured equally often whatever the run length.

Each query carries its reference answer (``expect``), worked out here in
plain Python from the generated inputs or taken from the published
results of the paper's programs, never from the solver.  ``checks.check``
interprets it.

Why these three workloads:

* ``showcase``: the paper's four evaluation programs with the answer
  bounds the acceptance tests use.  They exercise ``forall`` (tsp, stream),
  the linear store (yale) and the loop check (hanoi).
* ``deep``: small programs with long derivations (hanoi, countdown, deep
  ground terms, a propositional chain), where the loop check's scan of the
  call path and proof registry dominates and ``forall`` never runs.
* ``wide``: point queries against a generated family fact base of about
  1,000 persons, where clause scanning, unification and rendering dominate
  and the loop check is negligible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

NAMES = ("showcase", "deep", "wide")


@dataclass(frozen=True)
class Query:
    key: str  # unique within the workload
    program: str  # key into Workload.programs
    text: str  # query source, e.g. "?- cnt(250)."
    bound: int  # answers to collect; 0 collects all
    expect: tuple  # reference answer, see checks.check


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    programs: dict  # program key -> source text
    queries: tuple  # the pool of Query

    def passes(self):
        """Endless sequence of passes over the pool, each in a seeded order."""
        rng = random.Random(f"{self.name}/{self.seed}/passes")
        while True:
            order = list(self.queries)
            rng.shuffle(order)
            yield order


def build(name: str, seed: int, root: Path) -> Workload:
    """The workload `name` for `seed`; `root` is the repository checkout."""
    if name == "showcase":
        return showcase(seed, root)
    if name == "deep":
        return deep(seed, root)
    if name == "wide":
        return wide(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")


# -- showcase -----------------------------------------------------------------

# Expected answers of the paper's programs, in the solver's search order.
YALE_ANSWERS = (
    ("55", "[shoot,load,load]"),
    ("80", "[shoot,load,load,load]"),
    ("91", "[shoot,load,load,wait]"),
    ("96", "[shoot,load,shoot,wait,load]"),
    ("66", "[shoot,load,wait]"),
    ("91", "[shoot,load,wait,load]"),
)
TSP_ANSWER = ("61/10", "[b,[31/10],c,[1],a,[1],d,[1],b]")


def showcase(seed: int, root: Path) -> Workload:
    programs = {
        p: (root / "tests" / "programs" / f"{p}.pl").read_text()
        for p in ("stream", "yale", "tsp", "hanoi")
    }
    queries = (
        Query("stream", "stream", "?- valid_stream(Pr,Data).", 0, ("stream",)),
        Query("yale", "yale", "?- T.<.100, holds(T,st(dead,_,_),Actions).", 0,
              ("yale", YALE_ANSWERS)),
        Query("tsp", "tsp", "?- D.<.10, travel_path(b,D,Cycle).", 1, ("tsp",) + TSP_ANSWER),
        Query("hanoi7", "hanoi", "?- hanoi(7,T).", 1, ("hanoi", 7)),
    )
    return Workload("showcase", seed, programs, queries)


# -- deep -----------------------------------------------------------------------

CNT = "cnt(0).\ncnt(N) :- N .>. 0, M .=. N-1, cnt(M).\n"
NAT = "nat(z).\nnat(s(X)) :- nat(X).\n"

# Size points of each family, spread over the range the family is studied
# at.  The seed moves the countdown and term sizes by at most JITTER of
# their value and shuffles the clauses of each chain; chain lengths stay
# fixed because the longest sets the peak memory.  Points stay fixed
# otherwise so that the mix of short and long queries, and with it every
# percentile, is the same for every seed.
# No query takes much over 0.4 s, so that a run holds enough passes for
# steady medians: hanoi(8) alone (1.4 s) took a third of each pass.
HANOI_N = (5, 6, 7)
CNT_N = (100, 150, 200, 250)
CNT_FAIL_N = (120,)  # cnt(N + 1/2) counts down past zero and fails
NAT_K = (40, 55, 70, 80)
NAT_FAIL_K = (50,)  # nat(s^k(y)) fails at the bottom
CHAIN_N = (200, 500, 1000, 1500, 2000)
CHAIN_FAIL_N = (800,)  # the chain without its final fact
JITTER = 0.01


def chain_program(n: int, rng: random.Random, with_fact: bool = True) -> str:
    rules = [f"p{i} :- p{i + 1}." for i in range(n)]
    rng.shuffle(rules)
    if with_fact:
        rules.append(f"p{n}.")
    return "\n".join(rules) + "\n"


def s_term(k: int, base: str) -> str:
    return "s(" * k + base + ")" * k


def deep(seed: int, root: Path) -> Workload:
    rng = random.Random(f"deep/{seed}")

    def jitter(v):
        return max(1, round(v * (1 + rng.uniform(-JITTER, JITTER))))

    programs = {
        "hanoi": (root / "tests" / "programs" / "hanoi.pl").read_text(),
        "cnt": CNT,
        "nat": NAT,
    }
    queries = [Query(f"hanoi{n}", "hanoi", f"?- hanoi({n},T).", 1, ("hanoi", n)) for n in HANOI_N]
    for n in map(jitter, CNT_N):
        queries.append(Query(f"cnt{n}", "cnt", f"?- cnt({n}).", 0, ("count", 1)))
    for n in map(jitter, CNT_FAIL_N):
        queries.append(Query(f"cnt{n}.5", "cnt", f"?- cnt({2 * n + 1}/2).", 0, ("count", 0)))
    for k in map(jitter, NAT_K):
        queries.append(Query(f"nat{k}", "nat", f"?- nat({s_term(k, 'z')}).", 0, ("count", 1)))
    for k in map(jitter, NAT_FAIL_K):
        queries.append(Query(f"nat{k}y", "nat", f"?- nat({s_term(k, 'y')}).", 0, ("count", 0)))
    for sizes, with_fact in ((CHAIN_N, True), (CHAIN_FAIL_N, False)):
        for n in sizes:
            key = f"chain{n}" if with_fact else f"chain{n}x"
            programs[key] = chain_program(n, rng, with_fact)
            queries.append(Query(key, key, "?- p0.", 0, ("count", 1 if with_fact else 0)))
    return Workload("deep", seed, programs, tuple(queries))


# -- wide -----------------------------------------------------------------------

FAMILY_RULES = """\
grandparent(X,Z) :- parent(X,Y), parent(Y,Z).
adult(X) :- person(X), age(X,A), A .>=. 18.
young(X) :- person(X), age(X,A), A .<. 18.
elder(X) :- person(X), age(X,A), A .>=. 65.
"""
PERSONS = 1000
GENERATIONS = 10
# Age of each generation, give or take three years; none straddles the
# thresholds of adult, young or elder, so every seed has the same share
# of true and false point queries.
GENERATION_AGE = (95, 85, 76, 72, 55, 45, 35, 28, 23, 8)
POOL = {"grandparent": 20, "adult": 10, "young": 10, "elder": 10}


def family(seed: int, persons: int = PERSONS):
    """Ages and parent pairs of a generated population, oldest first.

    Everyone has two parents from the generation before and, up to the last
    generation, two children, so grandparent queries have four answers, or
    none in the last two generations; the seed decides who parents whom.
    """
    rng = random.Random(f"wide/{seed}/family")
    size = persons // GENERATIONS
    ages = []
    for i in range(persons):
        years = GENERATION_AGE[i // size] + rng.randint(-3, 3)
        ages.append(Fraction(2 * years + 1, 2) if rng.random() < 0.2 else Fraction(years))
    parents = []  # (parent, child), in the order the facts are written
    for g in range(1, GENERATIONS):
        slots = [p for p in range((g - 1) * size, g * size) for _ in (0, 1)]
        while True:
            rng.shuffle(slots)
            if all(slots[2 * k] != slots[2 * k + 1] for k in range(size)):
                break
        for k in range(size):
            child = g * size + k
            parents += [(slots[2 * k], child), (slots[2 * k + 1], child)]
    return ages, parents


def _num(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def wide(seed: int) -> Workload:
    ages, parents = family(seed)
    lines = [f"person(p{i})." for i in range(len(ages))]
    lines += [f"age(p{i},{_num(a)})." for i, a in enumerate(ages)]
    lines += [f"parent(p{p},p{c})." for p, c in parents]
    programs = {"family": "\n".join(lines) + "\n" + FAMILY_RULES}

    children = {}
    for p, c in parents:
        children.setdefault(p, []).append(c)
    holds = {
        "adult": lambda a: a >= 18,
        "young": lambda a: a < 18,
        "elder": lambda a: a >= 65,
    }
    # Persons are drawn one from each of `count` equal slices of the fact
    # order, which line up with the generations, so every seed asks about
    # early and late facts alike and gets the same number of answers.
    rng = random.Random(f"wide/{seed}/queries")
    queries = []
    for kind, count in POOL.items():
        stride = len(ages) / count
        for j in range(count):
            who = int((j + rng.random()) * stride)
            if kind == "grandparent":
                # Answer order follows clause order: each child in fact order,
                # then each of that child's children in fact order.
                zs = tuple(f"p{z}" for y in children.get(who, ()) for z in children.get(y, ()))
                expect = ("bindings", "Z", zs)
                text = f"?- grandparent(p{who},Z)."
            else:
                expect = ("count", 1 if holds[kind](ages[who]) else 0)
                text = f"?- {kind}(p{who})."
            queries.append(Query(f"{kind}:p{who}", "family", text, 0, expect))
    return Workload("wide", seed, programs, tuple(queries))
