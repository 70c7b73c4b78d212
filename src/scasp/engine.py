"""Goal-directed evaluation of compiled programs.

The engine resolves goals top-down over the compiled database without any
grounding.  It extends the constraint store (store.ConstraintStore), which
keeps variable bindings, each variable's constraint domain and one
linear-arithmetic store on one trail, with the coinductive hypothesis set
of s(ASP): the atoms the derivation has called and not yet proved (the
call path) and those it has proved, recorded on the same trail.  The
trail is also the event log from which answers reconstruct their
justification.

Resolution is one loop (solve), run once per query, over a linked list of
goals still to prove and a flat stack of choice points, as a WAM keeps one
choice-point stack beside its trail.  A choice point is one goal's
generator of alternatives: a call's generator yields, per matching clause,
the payments its head owes (below), the rest of the clause's body and an
exit step that closes the call's entry; a forall's yields a commit step
(below); `=` yields the payments it owes; any other constraint, a payment
or a loop-check shortcut yields None, nothing left to prove.  Every
generator obeys one rule: it undoes its previous alternative when it is
resumed (yield, then undo_to its mark), never on close, so backtracking
resumes the topmost choice point and dropping a search undoes nothing.  A
goal's last alternative leaves no choice point, as a WAM's trust_me keeps
none: the generator sets det as it yields it, and the loop drops the
generator unresumed.  The choice point below then undoes that alternative
with its own, since its mark lies beneath every trail entry the goal made.
Every constraint's and payment's last alternative is determinate this way
(a `\\=` between structures of one functor, or a payment, may hold in
several ways, one per argument pair, and the last pair's is the last), and
so are loop-check shortcuts, foralls, and a call's last selected clause:
its hidden head unifications are a plain loop with no alternatives.
Opening and closing an entry are trail entries too, so an undo restores
the hypothesis set with everything else.  The Python stack does not grow
with the derivation, nor with a head's width or the disequalities a
binding owes, since payments are goals of the loop.  Nor does it grow with
a term's depth: as in a WAM, no term walk recurses (see store).

Unifying a variable that has excluded terms with a non-ground term owes a
disequality per excluded term, which the store leaves in owed as payment
steps (store._Owed).  `=` and a clause head yield them as goals of the
loop, each a choice point that logs no event, and the loop check takes the
first solution of its own from a nested solve.  A head pays after all its
hidden `=` goals, not after each, with the same solutions in the same
order: a payment only records exclusions, and it dereferences its pairs as
it reaches them, depth first, left to right.  A compiled head is distinct
fresh variables, so a clause is tried without unifying its head: the
renaming of its body maps the head's variables to the call's arguments,
and any constants or repeated variables of the source head are matched by
the hidden `=` goals leading the body.

The log is the trail's event entries: one (kind, goal) per step -- an
'atom' call, a 'constraint', a 'chs' or 'proved' shortcut, a 'forall' --
plus an 'exit' closing each atom and forall.  A call's 'atom' and 'exit'
entries carry its entry, and its 'exit' the ground key the entry was
pushed with: undoing the 'atom' pops the entry, and undoing the 'exit'
reopens it.  Read in trail order, skipping the store's own entries, the
log is the pre-order of an answer's tree of Nodes, each carrying one
resolved goal, so one walk of it per answer builds the tree, the model and
the order of the answer's variables, resolving a structure many events
share once.  A goal's polarity is read from its PredInfo (duals are
negation markers) and its complement from the compiled program's neg_of
table, never from names: one lookup of the goal's key gives a user
predicate's dual or a dual's user predicate, and a goal missing from it
(a sub-dual, a check) has no complement to contradict.

Loops are classified against the hypothesis set before a goal is
resolved:

* a goal that unifies with a complementary (negated vs. positive) ancestor
  of the same user predicate, or is a variant of a complementary atom
  already proved, fails, discarding the contradictory branch;
* a goal equal (variant) to an ancestor with no intervening negation fails
  finitely instead of diverging;
* a goal that unifies with an ancestor across an even, non-zero number of
  negations succeeds coinductively;
* a goal that is a variant of an already-proved atom succeeds immediately.

These checks read the set through indexes instead of scanning it.  Each
entry is one object (_Entry) for its whole life: open while its call is
on the path, with the running count of negation markers up to itself, so
the number between an ancestor and the goal costs one subtraction; closed
once the call exits, in place, until an undo reopens it.  A call's ground
key is its resolved argument tuple, or None while an unbound variable
remains; a ground term never changes, so a key taken when an entry is
filed stays valid while the entry lives.  Each call builds its key once,
in classify_loop, and its entry reuses it; only a key that was None is
taken again, since the hidden head unifications may have made the call
ground.  One filing path (_push) and its one undo (_pop) keep the
indexes, for both states:

* an entry ground when pushed, open or closed, is filed by (name, ground
  key), topmost first, so two ground terms, which unify only when equal,
  meet in one lookup: a ground call finds an equal entry, or an equal
  complement, without comparing terms;
* an entry that was not ground when pushed sits in its predicate's loose
  list, checked term by term (its terms may have been bound since); at
  its exit, if it has become ground and is last in the list (its own
  non-ground descendants of the predicate have left it), it moves to its
  ground key, and an undo of the exit moves it back;
* the open entries of each predicate are also listed bottom first, for
  the unify tests against open complements of a non-ground call and for
  the even-loop test, whose candidates, the entries at least two markers
  down, are a bottom part found by binary search.

One lookup (_variant) answers the three variant questions: the topmost
open entry with no marker since, else a closed entry, for the goal's own
predicate, and a closed entry for its complement.  A closed entry of the
loose list carries the position and variable w of its first argument that
was unbound at its exit, and the position and value u (a constant, or a
structure's functor and arity) of its first that was not.  While an entry
lives its bindings only grow, so u stays put, and so does w until it is
bound: a lookup skips, unwalked, an entry whose still-unbound w meets a
ground call, a call argument that is not an unbound variable, or another
variable where either has a domain, and one whose u meets another
constant or functor.

Ground terms are shared, not copied: resolving a term (for a ground key,
a binding or an answer snapshot) returns every part with nothing bound
beneath it as it is, and a structure carries its hash and whether it is
ground from when it is built, so keys, bindings and snapshots neither walk
nor copy a deep ground argument.

A call resolves only the clauses the compiled program's first-argument
index lists for its dereferenced first argument: a constant or a
non-arithmetic structure selects the clauses whose source head has the
same constant or functor and arity there, plus those with a variable or
arithmetic there, in source order.  Every other clause would fail in its
hidden head unification anyway, so answers and their order are unchanged.

Universal quantification (forall) evaluates its goal against a worklist of
single-variable constraint views, the pieces of the quantified variable's
domain: each piece commits to the first answer for a fresh copy of the
variable, and either the answer view equals the piece (that region is
covered) or the answer's negation splits the piece into new ones.  A
forall over several variables quantifies the first, and each piece's
goal is the forall over the rest.  The pieces are goals of the main loop.
A forall's one alternative is a commit step carrying a driver that yields
each piece's goal; the loop schedules the goal followed by a new commit
step, which records the depth of the choice-point stack at that moment.
Reaching a commit step means the piece before it is proved: the loop
cuts the choice points above that depth, as a WAM cut does, keeping the
answer's bindings and constraints on the trail, and resumes the driver
for the next piece.  A piece with no answer backtracks past the forall,
which keeps no choice point, into the one below it, which undoes the
forall with its own alternative; constraints the pieces placed on outer
variables persist until then.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter

from . import store as store_mod
from .compiler import NMR_CHECK, CompiledProgram, CompiledRule, first_arg_key, rewrite_query
from .store import ConstraintStore, _Owed
from .terms import (
    CmpLit,
    Const,
    Forall,
    Lit,
    Query,
    Struct,
    Var,
    fresh_var,
    goal_vars,
    rename_goal,
    term_vars,
)

__all__ = ["Engine", "Answer", "Node", "run_query"]

sys.setrecursionlimit(max(sys.getrecursionlimit(), 100_000))


@dataclass(slots=True)
class Node:
    """One step of a justification tree: a resolved goal and its subproof."""

    kind: str  # 'atom' | 'constraint' | 'chs' | 'proved' | 'forall'
    goal: object = None  # Lit, CmpLit or Forall; None only at the root
    children: list = field(default_factory=list)


@dataclass
class Answer:
    number: int
    time_ms: float
    bindings: list  # (name, resolved term)
    model: list  # resolved positive atoms as Lit, first-derivation order
    justification: list  # top-level Nodes
    views: dict  # vid -> constraint view per unbound variable, in naming order

    def model_atoms(self):
        """(pred, args) pairs of the model, nmr marker excluded."""
        return [(lit.pred, lit.args) for lit in self.model if lit.pred != NMR_CHECK]


_FAIL = object()  # next() of an exhausted choice point
_MK = attrgetter("mk")
_SHORTCUT = {"succeed_coinductive": "chs", "succeed_proved": "proved"}
_EVENTS = frozenset(("atom", "constraint", "chs", "proved", "forall"))  # trail tags
_FACT = (CompiledRule(Lit("fact")),)  # one clause with no arguments and no body


class _Entry:
    # An atom of the coinductive hypothesis set.  key: (name, arity); gkey:
    # ground key, None while not ground; mk: while open, the markers up to
    # and including it, None once closed; below: the next entry down with
    # the same gkey; wi, w, ui, u: a closed non-ground entry's skip filter.
    __slots__ = ("name", "args", "key", "marker", "gkey", "mk", "below", "wi", "w", "ui", "u")

    def __init__(self, goal, marker):
        self.name, self.args, self.key, self.marker = goal.pred, goal.args, goal.key, marker


class Engine(ConstraintStore):
    """Evaluator for one compiled program; reusable across queries."""

    def __init__(self, cp: CompiledProgram):
        self.cp = cp
        # The complement of each user predicate and of its dual, so the
        # hypothesis set can be searched for a goal's complement.
        self.neg_of = cp.neg_of
        self.reset()

    def reset(self):
        super().reset()
        self.frames = []  # open entries, bottom first: the call path
        self.proved = {}  # (name, arity) -> [args of each closed entry, ...]
        self._path = {}  # (name, arity) -> [open entry, ...], bottom first
        self._ground = {}  # (name, ground key) -> topmost entry with that key
        self._loose = {}  # (name, arity) -> [entry not ground when pushed, ...]
        self.call_gkey = None  # ground key of the goal classify_loop saw last
        self.forall_trace = []  # diagnostic: (goal, view) per piece

    def _undo_event(self, entry):
        """A call's 'atom' entry pushed its entry, and its 'exit' entry
        closed it; any other event changed nothing."""
        tag = entry[0]
        if tag == "atom" and entry[2] is not None:
            self._pop()
        elif tag == "exit" and entry[1] is not None:
            # Reopen: back on the path, with the ground key it was pushed with.
            _, e, gkey = entry
            self.proved[e.key].pop()
            if e.gkey is gkey:
                self._push(e, file=False)
            else:  # moved back from its ground key to the loose list
                self._pop(e, path=False)
                e.gkey = None
                self._push(e)

    # -- loop classification ------------------------------------------------------

    def _variant_args(self, xs, ys):
        """Are xs and ys equal up to a bijective renaming of their variables
        (a variable that carries constraints only renaming to itself)?"""
        fwd, bwd = {}, {}
        pairs = list(zip(xs, ys))
        while pairs:
            x, y = pairs.pop()
            x = self.deref(x)
            y = self.deref(y)
            if isinstance(x, Var) and isinstance(y, Var):
                if x.id != y.id and (x.id in self.dom or y.id in self.dom):
                    return False
                if fwd.setdefault(x.id, y.id) != y.id or bwd.setdefault(y.id, x.id) != x.id:
                    return False
            elif isinstance(x, Struct) and isinstance(y, Struct) and x.key == y.key:
                pairs.extend(zip(x.args, y.args))
            elif not (isinstance(x, Const) and isinstance(y, Const) and x == y):
                return False
        return True

    def _unifiable_args(self, xs, ys):
        m = self.mark()
        ok = all(map(self.unify, xs, ys))
        owed = self._take_owed()
        if ok and owed:
            # The first solution of the payments is enough.
            ok = next(self.solve(owed), _FAIL) is not _FAIL
        self.undo_to(m)
        return ok

    def _variant(self, key, args, gkey, mk=None):
        """An entry of key whose atom is a variant of args (ground key
        gkey): an open one with marker count mk if there is one, else a
        closed one, else None."""
        closed = None
        e = None if gkey is None else self._ground.get((key[0], gkey))
        while e is not None:
            if e.mk == mk:
                return e
            if e.mk is None:
                closed = e
            e = e.below
        cells, dom, deref = self.cells, self.dom, self.deref
        for e in reversed(self._loose.get(key, ())):
            if e.mk is None:
                # The skips the module docstring describes, inline: no call per entry.
                w = e.w
                if w is not None and w.id not in cells:
                    if gkey is not None:
                        continue
                    c = deref(args[e.wi])
                    if c.__class__ is not Var or (c.id != w.id and (c.id in dom or w.id in dom)):
                        continue
                if e.ui is not None:
                    c = deref(args[e.ui])
                    if (c.key if c.__class__ is Struct else c) != e.u:
                        continue
            elif e.mk != mk:
                continue
            if self._variant_args(args, e.args):
                if e.mk == mk:
                    return e
                closed = e
        return closed

    def classify_loop(self, goal: Lit):
        """How a goal relates to the hypothesis set: the call path and the
        atoms proved.

        Leaves the call's ground key in call_gkey for solve_call."""
        marker = self.cp.pred_info[goal.pred].marker
        args = goal.args
        gkey = self.call_gkey = self._resolved(args, True)
        # Contradiction with an entry of the same user atom in the opposite
        # polarity: an ancestor that could be the very instance being
        # evaluated, or a completed proof, which stays in force for the
        # partial model under construction.  A ground call unifies only
        # with an equal entry: one lookup finds those filed by ground key.
        comp = self.neg_of.get(goal.key)
        if comp is not None:
            comp = (comp, len(args))
            if self._ground.get((comp[0], gkey)) or self._variant(comp, args, gkey):
                return "fail_odd"
            for e in (self._path if gkey is None else self._loose).get(comp, ()):
                if e.mk is not None and self._unifiable_args(args, e.args):
                    return "fail_odd"
        # k, the negations between an open entry e and the goal, is
        # marker + total - e.mk; it never falls going down the path.
        total = self.frames[-1].mk if self.frames else 0
        hit = self._variant(goal.key, args, gkey, None if marker else total)
        if hit is not None and hit.mk is not None:
            return "fail_positive"
        # The entries with k >= 2, the only ones that can close an even
        # loop, are a bottom part of the path: found by binary search.
        k0 = marker + total
        stack = self._path.get(goal.key, ())
        for i in range(bisect_right(stack, k0 - 2, key=_MK) - 1, -1, -1):
            e = stack[i]
            if (k0 - e.mk) % 2 == 0 and self._unifiable_args(args, e.args):
                return "succeed_coinductive"
        return "continue" if hit is None else "succeed_proved"

    def _push(self, e, path=True, file=True):
        """The one filing path of the set: open e on top of the call path,
        and file it, by its ground key or in its predicate's loose list."""
        if path:
            frames = self.frames
            e.mk = (frames[-1].mk if frames else 0) + e.marker
            frames.append(e)
            self._path.setdefault(e.key, []).append(e)
        if file:
            if e.gkey is None:
                self._loose.setdefault(e.key, []).append(e)
            else:
                k = (e.name, e.gkey)
                e.below = self._ground.get(k)
                self._ground[k] = e

    def _pop(self, e=None, path=True, file=True):
        """The one undo path: the inverse of _push, on the top of the path
        or on e.  A ground key whose last entry has gone maps to None."""
        if path:
            e = self.frames.pop()
            self._path[e.key].pop()
        if file:
            if e.gkey is None:
                self._loose[e.key].pop()
            else:
                self._ground[(e.name, e.gkey)] = e.below

    def _close(self, e):
        """e, the top of the call path, is proved: it leaves the path and
        stays in the set, closed, filed by its ground key if it was ground
        when pushed or has become ground and is last in its loose list,
        else with its skip filter.  Logs its 'exit' with the ground key it
        was pushed with, which reopening restores."""
        self._pop(file=False)
        e.mk = None
        self.proved.setdefault(e.key, []).append(e.args)
        self.trail.append(("exit", e, e.gkey))
        if e.gkey is not None:
            return
        gkey = self._resolved(e.args, True)
        if gkey is not None and self._loose[e.key][-1] is e:
            # Moved from the loose list to its ground key.
            self._pop(e, path=False)
            e.gkey = gkey
            self._push(e, path=False)
            return
        # w and u, with their positions, for _variant's filter.
        e.wi = e.w = e.ui = e.u = None
        for i, a in enumerate(e.args):
            t = self.deref(a)
            if t.__class__ is Var:
                if e.w is None:
                    e.wi, e.w = i, t
            elif e.ui is None:
                e.ui, e.u = i, (t.key if t.__class__ is Struct else t)

    # -- resolution ---------------------------------------------------------------

    def solve(self, goals):
        """Solutions of the conjunction goals: one loop over the goals still
        to prove, a linked list of (goal, rest) cells, and a stack of choice
        points, (generator of alternatives, goals after its goal).  An
        alternative is a sequence of goals to prove first, or None.  A goal's
        last alternative leaves no choice point: the generator sets det as
        it yields it, and the loop pops it, so the choice point below
        undoes the goal with its own alternative.  Besides goals, the list
        holds three kinds of step: a call's exit step (goal, entry), a
        payment step _Owed(t, x), and a forall's commit step [piece driver,
        depth], whose depth is None before the first piece.  The loop logs
        a constraint's event just before it pushes the constraint's choice
        point, so the choice point below undoes it; calls, shortcuts and
        foralls log their own, and payments none."""
        todo = None
        for goal in reversed(goals):
            todo = (goal, todo)
        choices = []
        while True:
            if todo is None:
                yield
            else:
                goal, todo = todo
                if type(goal) is tuple:  # a call's exit step: its body is proved
                    self._close(goal[1])
                    continue
                if isinstance(goal, Lit):
                    gen = self.solve_call(goal)
                elif isinstance(goal, CmpLit):
                    self.trail.append(("constraint", goal))
                    gen = self.solve_constraint(goal)
                elif isinstance(goal, Forall):
                    gen = self.c_forall(goal.vars, goal.goal)
                elif goal.__class__ is _Owed:  # a payment step: no event
                    gen = self.assert_neq_term(goal.t, goal.x)
                else:  # a forall's commit step
                    pieces, depth = goal
                    if depth is not None:
                        # The cut: commit to the first answer of the piece
                        # scheduled at depth, keeping its trail entries.
                        del choices[depth:]
                    goal = next(pieces, None)
                    if goal is not None:
                        todo = (goal, ([pieces, len(choices)], todo))
                    continue
                choices.append((gen, todo))
            while choices:
                gen, todo = choices[-1]
                body = next(gen, _FAIL)
                if body is not _FAIL:
                    if self.det:  # its last alternative: the trail undoes it
                        self.det = False
                        choices.pop()
                    break
                choices.pop()
            else:
                return
            if body is not None:
                for goal in reversed(body):
                    todo = (goal, todo)

    def solve_call(self, goal: Lit):
        """Alternatives of a call: per clause whose head matches, the
        payments the match owes, the rest of its body and the exit step
        that closes its entry.  A shortcut's alternative and the last
        clause's are its last (see solve)."""
        rules = self.cp.rules.get(goal.key)
        trail = self.trail
        if goal.neg:
            # A negation rewrite_query found no dual for: the predicate is
            # not in the program, so it holds vacuously, as by a fact, and
            # enters the set like one.  No positive call to it reaches the
            # set: it has no rules.
            rules, marker = _FACT, 0
            gkey = self.call_gkey = self._resolved(goal.args, True)
            act = "succeed_proved" if self._variant(goal.key, goal.args, gkey) else "continue"
        elif rules is None:
            return  # a call to a predicate with no rules fails
        else:
            marker = self.cp.pred_info[goal.pred].marker
            act = self.classify_loop(goal)
        if act == "fail_odd" or act == "fail_positive":
            return
        if act != "continue":
            trail.append((_SHORTCUT[act], goal))
            self.det = True
            yield None
            return
        gkey = self.call_gkey
        index = self.cp.first_arg.get(goal.key)
        if index is not None:
            key = first_arg_key(self.deref(goal.args[0]))
            if key is not None:
                # A skipped clause's head has a first argument with another
                # key, so its first hidden `=` fails quietly, before any
                # event, hypothesis entry or lasting trail entry:
                # - differing functors, symbols or numbers fail in unify;
                # - arithmetic below a top functor sends `=` to the linear
                #   store, where linear.form_of returns None (it never raises
                #   on a non-arithmetic top), so it fails too.
                by_key, wildcards = index
                rules = by_key.get(key, wildcards)
        e = _Entry(goal, marker)
        last = rules[-1] if rules else None
        for rule in rules:
            # A compiled head is distinct variables: they stand for the
            # call's arguments, so only the body is renamed.
            mapping = {v.id: a for v, a in zip(rule.head.args, goal.args)}
            body = tuple(rename_goal(g, mapping) for g in rule.body)
            hide = rule.hide_prefix
            m = self.mark()
            # The hidden head unifications run before the entry is pushed,
            # so a clause whose head does not match costs no entry.  They
            # are determinate: what their bindings owe is paid after them.
            for c in body[:hide]:
                if not self._equate(c.lhs, c.rhs):
                    self.owed = []
                    break
            else:
                owed = self._take_owed()
                self.det = rule is last
                # A ground key never changes: only a call that was not
                # ground may have become ground since.
                e.gkey = self._resolved(goal.args, True) if gkey is None else gkey
                trail.append(("atom", goal, e))
                self._push(e)
                yield (*owed, *body[hide:], (goal, e))
            self.undo_to(m)

    # -- universal quantification ----------------------------------------------

    def c_forall(self, vs: tuple, goal):
        """One alternative, its last: a commit step carrying the driver of
        the pieces of vs[0]."""
        self.trail.append(("forall", Forall(vs, goal)))
        self.det = True
        yield ([self._pieces(vs, goal), None],)

    def _pieces(self, vs: tuple, goal):
        """The goal of each piece of the domain of vs[0] still to cover, in
        order: goal quantified over the rest of vs, if any.  The loop
        resumes it once it has committed to the previous piece's first
        answer, whose bindings and constraints stay on the trail."""
        var = vs[0]
        if len(vs) > 1:
            goal = Forall(vs[1:], goal)
        # A stack of pieces: the next one is on top, so new pieces are
        # pushed in reverse to be taken in order.
        pending = [store_mod.TOP]
        # Each piece renames var alone: every other variable maps to itself.
        mapping = {v.id: v for v in goal_vars(goal)}
        while pending:
            piece = pending.pop()
            nv = mapping[var.id] = fresh_var("_")
            goal2 = rename_goal(goal, mapping)
            self.forall_trace.append((goal, piece))
            if not self.apply(piece, nv):
                continue  # the piece itself is unsatisfiable: nothing to cover
            yield goal2
            ans = self.dump(nv)
            if ans == piece:
                continue
            pending += reversed(store_mod.add(store_mod.dual(ans), piece))
        self.trail.append(("exit", None))

    # -- queries -------------------------------------------------------------------

    def run_query(self, query: Query, max_answers: int = 0):
        """Answers of a query; each answer snapshots bindings, model, and proof."""
        self.reset()
        q = rewrite_query(query, self.cp)
        goals = list(q.goals) + [Lit(NMR_CHECK)]
        t0 = time.perf_counter()
        n = 0
        for _ in self.solve(goals):
            n += 1
            yield self._snapshot(query, n, t0)
            if max_answers and n >= max_answers:
                return

    # -- answer snapshots ------------------------------------------------------------

    def _snapshot(self, query: Query, number: int, t0: float) -> Answer:
        """One walk of the log builds the justification ('atom' and 'forall'
        events open a node that the matching 'exit' closes), the model
        (user atoms and chs shortcuts, first derivation first) and the
        unbound variables in the order answers name them in, by first
        occurrence: in the justification's pre-order, which holds all the
        model's, then in the bindings."""
        elapsed = (time.perf_counter() - t0) * 1000.0
        memo = {}  # for this answer: the log keeps its keys alive
        pred_info = self.cp.pred_info
        root = Node("root")
        stack = [root]
        model, in_model = [], set()
        found, seen = [], set()
        for ev in self.trail:
            kind = ev[0]
            if kind == "exit":
                stack.pop()
                continue
            if kind not in _EVENTS:
                continue  # one of the store's own entries
            goal = self._resolve_goal(ev[1], memo)
            node = Node(kind, goal)
            stack[-1].children.append(node)
            goal_vars(goal, found, seen)
            if kind == "atom" or kind == "forall":
                stack.append(node)
            if (kind == "atom" or kind == "chs") and not goal.neg:
                info = pred_info.get(goal.pred)
                key = (goal.pred, goal.args)
                if info is not None and info.kind == "user" and key not in in_model:
                    in_model.add(key)
                    model.append(goal)
        model.append(Lit(NMR_CHECK))
        bindings = [(name, self._resolved((v,), False, memo)[0]) for name, v in query.vars]
        for _, t in bindings:
            term_vars(t, found, seen)
        views = {v.id: self.dump(v) for v in found}
        return Answer(number, elapsed, bindings, model, root.children, views)

    def _resolve_goal(self, goal, memo):
        if isinstance(goal, Lit):
            args = self._resolved(goal.args, False, memo)
            return goal if args is goal.args else Lit(goal.pred, args, goal.neg)
        if isinstance(goal, CmpLit):
            lhs, rhs = self._resolved((goal.lhs, goal.rhs), False, memo)
            return CmpLit(goal.op, lhs, rhs)
        return Forall(goal.vars, self._resolve_goal(goal.goal, memo))


def run_query(cp: CompiledProgram, query: Query, max_answers: int = 0):
    """Convenience wrapper: evaluate a query on a fresh engine."""
    yield from Engine(cp).run_query(query, max_answers)
