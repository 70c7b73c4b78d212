"""Reference semantics for small ground programs.

This module is the test-side ground truth: it grounds a constraint-free
program over its constants and enumerates stable models by brute force
(every candidate interpretation, Gelfond-Lifschitz reduct, least-model
fixpoint).  It is deliberately naive — clarity over speed — and refuses
anything outside its toy scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import SolverError
from .terms import CmpLit, Forall, Program, Struct, format_term, goal_vars, rename_terms

__all__ = ["GroundProgram", "ground", "stable_models"]


@dataclass
class GroundRule:
    head: tuple | None  # atom (pred, args) or None for a denial
    pos: tuple  # positive body atoms
    neg: tuple  # atoms appearing under 'not'


@dataclass
class GroundProgram:
    rules: list
    universe: tuple  # every atom constructible from the program's signature


def _term_constants(t, out):
    """Add a term's constants to out; a ground structure acts as one opaque
    constant."""
    todo = [t]
    while todo:
        t = todo.pop()
        if t.ground:
            out.add(t)
        elif t.__class__ is Struct:
            todo += t.args


def ground(program: Program, max_atoms: int = 20, max_instances: int = 200_000) -> GroundProgram:
    """Instantiate every rule over the program's constants."""
    constants = set()
    preds = {}
    for rule in program.rules:
        for g in ([rule.head] if rule.head else []) + list(rule.body):
            if isinstance(g, Forall):
                raise SolverError("unsupported_constraint", "forall in oracle input")
            if isinstance(g, CmpLit):
                raise SolverError(
                    "unsupported_constraint",
                    f"oracle input must be constraint-free, found {g.op}",
                )
            preds.setdefault((g.pred, len(g.args)), None)
            for a in g.args:
                _term_constants(a, constants)
    constants = sorted(constants, key=format_term)
    ground_rules = []
    budget = max_instances
    for rule in program.rules:
        found, seen = [], set()
        for g in ([rule.head] if rule.head else []) + list(rule.body):
            goal_vars(g, found, seen)
        vids = [v.id for v in found]
        if vids and not constants:
            raise SolverError(
                "unsafe_rule",
                "rule has variables but the program has no constants to ground over",
            )
        combos = itertools.product(constants, repeat=len(vids))
        for combo in combos:
            budget -= 1
            if budget < 0:
                raise SolverError("universe_too_large", "too many ground instances")
            env = dict(zip(vids, combo))
            head = None
            if rule.head is not None:
                head = (rule.head.pred, rename_terms(rule.head.args, env))
            pos, neg = [], []
            for g in rule.body:
                atom = (g.pred, rename_terms(g.args, env))
                (neg if g.neg else pos).append(atom)
            ground_rules.append(GroundRule(head, tuple(pos), tuple(neg)))
    universe = []
    seen = set()
    for (pred, arity) in sorted(preds):
        for combo in itertools.product(constants, repeat=arity):
            atom = (pred, combo)
            if atom not in seen:
                seen.add(atom)
                universe.append(atom)
    if len(universe) > max_atoms:
        raise SolverError(
            "universe_too_large",
            f"{len(universe)} ground atoms exceed the cap of {max_atoms}",
        )
    return GroundProgram(ground_rules, tuple(universe))


def _least_model(rules):
    """Fixpoint of the definite rules (heads only; denials ignored here)."""
    model = set()
    changed = True
    while changed:
        changed = False
        for head, pos in rules:
            if head not in model and all(p in model for p in pos):
                model.add(head)
                changed = True
    return model


def atom_key(atom):
    pred, args = atom
    return (pred, tuple(format_term(a) for a in args))


def stable_models(gp: GroundProgram):
    """All stable models, each a frozenset of (pred, args) atoms."""
    heads = sorted({r.head for r in gp.rules if r.head is not None}, key=atom_key)
    denials = [r for r in gp.rules if r.head is None]
    defs = [r for r in gp.rules if r.head is not None]
    models = []
    for bits in itertools.product((False, True), repeat=len(heads)):
        candidate = frozenset(a for a, b in zip(heads, bits) if b)
        # Reduct: drop rules whose negative body intersects the candidate,
        # then strip the negative literals.
        reduct = [
            (r.head, r.pos)
            for r in defs
            if not any(a in candidate for a in r.neg)
        ]
        if _least_model(reduct) != candidate:
            continue
        if any(
            all(a in candidate for a in d.pos)
            and not any(a in candidate for a in d.neg)
            for d in denials
        ):
            continue
        models.append(candidate)
    return models
