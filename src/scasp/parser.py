"""Parser for the logic-program surface syntax.

A program is a sequence of clauses: facts, rules `head :- body.`, denials
`:- body.`, `#show name/arity.` directives, and at most one embedded query
`?- goals.`.  Rule bodies hold user atoms, negated user atoms (`not p(X)`),
and binary constraints.  Arithmetic expressions (`+ - * /`) are only valid
on the two sides of a constraint operator; a quotient of two integer
literals is read as an exact rational constant anywhere a term is expected.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction

from .errors import ParseError
from .terms import (
    NIL,
    CmpLit,
    Const,
    Lit,
    Program,
    Query,
    Rule,
    Struct,
    collector_paused,
    fresh_var,
    mk_list,
)

__all__ = ["ParseError", "parse_program", "parse_query"]


# One match per token: the whitespace and comments before a token are
# skipped inside its match, and the token is the named group that matched.
# Every position matches something, so a text is one run of matches that
# ends in EOF; BAD is a character no token starts with.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|%[^\n]*)*
    (?:
      (?P<NAME>[a-z][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<LPAR>\() | (?P<RPAR>\)) | (?P<COMMA>,)
    | (?P<NUMBER>\d+\.\d+|\d+)
    | (?P<DOTOP>\.=<\.|\.>=\.|\.\\=\.|\.=\.|\.<\.|\.>\.)
    | (?P<DOT>\.) | (?P<ARROW>:-) | (?P<EQ>=) | (?P<NEQ>\\=)
    | (?P<LBRACK>\[) | (?P<RBRACK>\]) | (?P<BAR>\|)
    | (?P<PLUS>\+) | (?P<MINUS>-) | (?P<STAR>\*) | (?P<SLASH>/)
    | (?P<QUERY>\?-) | (?P<SHOW>\#show\b)
    | (?P<EOF>\Z) | (?P<BAD>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_CONSTRAINT_KINDS = ("EQ", "NEQ", "DOTOP")
# What may follow the left side of a constraint in a body: its operator, or
# an arithmetic operator that continues it.
_EXPR_KINDS = _CONSTRAINT_KINDS + ("PLUS", "MINUS", "STAR", "SLASH")


class _Parser:
    def __init__(self, text, filename):
        self.text = text
        self.filename = filename
        self._newlines = None
        # (kind, text, offset) per token, padded so that peek(1) at the
        # end still finds EOF.
        tokens = [
            (m.lastgroup, m.group(m.lastindex), m.start(m.lastindex))
            for m in _TOKEN_RE.finditer(text)
        ]
        tokens.append(tokens[-1])
        self.kinds, self.texts, self.offsets = zip(*tokens)
        self.pos = 0
        self.varmap = {}
        if "BAD" in self.kinds:
            i = self.kinds.index("BAD")
            self.error(f"unexpected character {self.texts[i]!r}", i)

    # -- token helpers ------------------------------------------------

    def peek(self, ahead=0):
        """The kind of a coming token."""
        return self.kinds[self.pos + ahead]

    def next(self):
        """Consume a token and return its text."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, kind, what):
        if self.kinds[self.pos] != kind:
            found = self.texts[self.pos] or "end of input"
            self.error(f"expected {what}, found {found!r}")
        return self.next()

    def position(self, i):
        """(line, column) of token i, both counted from 1."""
        if self._newlines is None:
            self._newlines = [m.start() for m in re.finditer("\n", self.text)]
        off = self.offsets[i]
        line = bisect_right(self._newlines, off)
        return line + 1, off - (self._newlines[line - 1] if line else -1)

    def error(self, message, i=None):
        line, col = self.position(self.pos if i is None else i)
        raise ParseError(message, self.filename, line, col)

    # -- variables ----------------------------------------------------

    def lookup_var(self, name):
        if name == "_":
            return fresh_var("_")
        v = self.varmap.get(name)
        if v is None:
            v = fresh_var(name)
            self.varmap[name] = v
        return v

    # -- terms ----------------------------------------------------------
    # parse_term reads a plain term (no arithmetic); a quotient of two
    # numeric literals is folded into a rational constant.

    def parse_number(self):
        text = self.expect("NUMBER", "a number")
        return Fraction(text) if "." in text else Fraction(int(text))

    def parse_rational(self):
        """NUMBER or NUMBER/NUMBER or -NUMBER[...]."""
        neg = self.peek() == "MINUS"
        if neg:
            self.pos += 1
        q = self.parse_number()
        if self.peek() == "SLASH" and self.peek(1) == "NUMBER":
            self.pos += 1
            d = self.parse_number()
            if d == 0:
                self.error("division by zero in rational literal", self.pos - 1)
            q = q / d
        return Const(-q if neg else q)

    def parse_term(self):
        """A term, read with an explicit stack of the compound terms still
        open, so that its depth costs no Python stack."""
        kinds, texts = self.kinds, self.texts
        # Each open compound is (functor, items read so far); the functor is
        # None for a list and "|" once its tail follows.
        stack = []
        while True:
            i = self.pos
            kind = kinds[i]
            if kind == "VAR":
                self.pos = i + 1
                t = self.lookup_var(texts[i])
            elif kind == "NAME":
                if kinds[i + 1] == "LPAR":
                    self.pos = i + 2
                    stack.append((texts[i], []))
                    continue
                self.pos = i + 1
                t = Const(texts[i])
            elif kind == "NUMBER" or kind == "MINUS":
                t = self.parse_rational()
            elif kind == "LBRACK":
                if kinds[i + 1] == "RBRACK":
                    self.pos = i + 2
                    t = NIL
                else:
                    self.pos = i + 1
                    stack.append((None, []))
                    continue
            else:
                self.error(f"expected a term, found {texts[i] or 'end of input'!r}")
            # t is whole: close each compound it completes.
            while stack:
                functor, items = stack[-1]
                if functor == "|":
                    self.expect("RBRACK", "']'")
                    stack.pop()
                    t = mk_list(items, t)
                    continue
                items.append(t)
                kind = kinds[self.pos]
                if kind == "COMMA":
                    self.pos += 1
                    break
                if functor is not None:
                    self.expect("RPAR", "')'")
                    stack.pop()
                    t = Struct(functor, tuple(items))
                elif kind == "BAR":
                    self.pos += 1
                    stack[-1] = ("|", items)
                    break
                else:
                    self.expect("RBRACK", "']'")
                    stack.pop()
                    t = mk_list(items)
            else:
                return t

    def parse_atom(self, neg=False):
        """NAME or NAME(term, ...), read straight into a literal."""
        name = self.next()
        if self.kinds[self.pos] != "LPAR":
            return Lit(name, (), neg)
        self.pos += 1
        args = [self.parse_term()]
        while self.kinds[self.pos] == "COMMA":
            self.pos += 1
            args.append(self.parse_term())
        self.expect("RPAR", "')'")
        return Lit(name, tuple(args), neg)

    # -- arithmetic expressions ------------------------------------------
    # Only meaningful on the sides of a constraint operator.

    def parse_expr(self, first=None):
        """A constraint side: a sum of products of primaries, each operator
        left associative and folded (_fold) as soon as its right operand is
        read.  A primary is a term, a negated number or a parenthesized
        side; first is one the caller has already read.  One loop reads it,
        keeping each open parenthesis's pending sum and product on a stack,
        so that nesting costs no Python stack."""
        kinds, t = self.kinds, first
        # The pending sum and product of the innermost level: each a left
        # operand, its operator and the position of the right operand's
        # first token, or None; outer holds the outer levels' pairs.
        add = mul = None
        outer = []
        while True:
            if t is None:
                kind = kinds[self.pos]
                if kind == "LPAR":
                    self.pos += 1
                    outer.append((add, mul))
                    add = mul = None
                    continue
                if kind == "MINUS":
                    self.pos += 1
                    if kinds[self.pos] != "NUMBER":
                        self.error("'-' must be followed by a number")
                    t = Const(-self.parse_number())
                else:
                    t = self.parse_term()
            if mul is not None:
                t = self._fold(mul, t)
            kind = kinds[self.pos]
            if kind == "STAR" or kind == "SLASH":
                mul, t = (t, self.next(), self.pos), None
                continue
            mul = None
            if add is not None:
                t = self._fold(add, t)
            if kind == "PLUS" or kind == "MINUS":
                add, t = (t, self.next(), self.pos), None
                continue
            if not outer:
                return t
            self.expect("RPAR", "')'")
            add, mul = outer.pop()

    def _fold(self, pending, r):
        """l op r for a pending (l, op, at), folded when both are numbers;
        at is r's first token."""
        l, op, at = pending
        if l.is_number and r.is_number:
            if op == "/":
                if r.value == 0:
                    self.error("division by zero", at)
                return Const(l.value / r.value)
            if op == "+":
                return Const(l.value + r.value)
            if op == "-":
                return Const(l.value - r.value)
            if op == "*":
                return Const(l.value * r.value)
        return Struct(op, (l, r))

    # -- goals ------------------------------------------------------------

    def parse_body(self):
        goals = [self.parse_body_element()]
        while self.peek() == "COMMA":
            self.pos += 1
            goals.append(self.parse_body_element())
        return goals

    def parse_body_element(self):
        i = self.pos
        if self.kinds[i] == "NAME":
            if self.texts[i] == "not":
                self.pos += 1
                if self.peek() != "NAME" or self.texts[self.pos] == "not":
                    self.error("'not' must be followed by an atom")
                atom = self.parse_atom(neg=True)
                if self.peek() in _CONSTRAINT_KINDS:
                    self.error("'not' cannot be applied to a constraint", i)
                return atom
            atom = self.parse_atom()
            if self.peek() not in _EXPR_KINDS:
                return atom
            # The atom is the left side of a constraint after all.
            lhs = self.parse_expr(Struct(atom.pred, atom.args) if atom.args else Const(atom.pred))
        else:
            lhs = self.parse_expr()
        if self.peek() not in _CONSTRAINT_KINDS:
            self.error("expected a constraint operator after expression")
        op = self.next()
        return CmpLit(op, lhs, self.parse_expr())

    def parse_head(self):
        if self.peek() != "NAME":
            self.error(f"expected a clause head, found {self.texts[self.pos] or 'end of input'!r}")
        if self.texts[self.pos] == "not":
            self.error("a clause head cannot be negated")
        return self.parse_atom()

    # -- clauses ------------------------------------------------------------

    def parse_program(self):
        program = Program()
        while self.peek() != "EOF":
            self.varmap = {}
            start = self.pos
            kind = self.peek()
            if kind == "SHOW":
                self.pos += 1
                while True:
                    name = self.expect("NAME", "a predicate name")
                    self.expect("SLASH", "'/'")
                    arity = self.expect("NUMBER", "an arity")
                    if "." in arity:
                        self.error("arity must be an integer", self.pos - 1)
                    program.shows.add((name, int(arity)))
                    if self.peek() != "COMMA":
                        break
                    self.pos += 1
                self.expect("DOT", "'.'")
                continue
            if kind == "QUERY":
                self.pos += 1
                if self.peek() == "DOT":
                    self.error("query must contain at least one goal")
                goals = self.parse_body()
                self.expect("DOT", "'.'")
                varmap = tuple(self.varmap.items())
                program.query = Query(tuple(goals), varmap, *self.position(start), self.filename)
                continue
            if kind == "ARROW":
                self.pos += 1
                head = None
                body = self.parse_body()
            else:
                head = self.parse_head()
                if self.peek() == "ARROW":
                    self.pos += 1
                    body = self.parse_body()
                else:
                    body = ()
            self.expect("DOT", "'.'")
            program.rules.append(Rule(head, tuple(body), *self.position(start), self.filename))
        return program

    def parse_query(self):
        if self.peek() == "QUERY":
            self.pos += 1
        if self.peek() in ("DOT", "EOF"):
            self.error("query must contain at least one goal")
        goals = self.parse_body()
        if self.peek() == "DOT":
            self.pos += 1
        self.expect("EOF", "end of query")
        return Query(tuple(goals), tuple(self.varmap.items()), *self.position(0), self.filename)


@collector_paused
def parse_program(text: str, filename: str = "<program>") -> Program:
    """Parse a program text into rules, #show directives, and an optional query."""
    return _Parser(text, filename).parse_program()


def parse_query(text: str, filename: str = "<query>") -> Query:
    """Parse a stand-alone query; the leading '?-' and trailing '.' are optional."""
    return _Parser(text, filename).parse_query()
