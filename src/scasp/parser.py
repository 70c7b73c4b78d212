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
from fractions import Fraction

from .terms import (
    NIL,
    CmpLit,
    Const,
    Lit,
    Program,
    Query,
    Rule,
    Struct,
    fresh_var,
    mk_list,
)

__all__ = ["ParseError", "parse_program", "parse_query"]


class ParseError(Exception):
    """Syntax error with a source position."""

    def __init__(self, message, filename="<program>", line=0, col=0):
        self.message = message
        self.filename = filename
        self.line = line
        self.col = col
        super().__init__(f"{filename}:{line}:{col}: {message}")


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<COMMENT>%[^\n]*)
    | (?P<SHOW>\#show\b)
    | (?P<ARROW>:-)
    | (?P<QUERY>\?-)
    | (?P<DOTOP>\.=<\.|\.>=\.|\.\\=\.|\.=\.|\.<\.|\.>\.)
    | (?P<NUMBER>\d+\.\d+|\d+)
    | (?P<NEQ>\\=)
    | (?P<EQ>=)
    | (?P<NAME>[a-z][A-Za-z0-9_]*)
    | (?P<VAR>[A-Z_][A-Za-z0-9_]*)
    | (?P<PUNCT>[()\[\]|,.+\-*/])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"Token({self.kind},{self.text!r})"


def _tokenize(text, filename):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}",
                filename,
                line,
                pos - line_start + 1,
            )
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("WS", "COMMENT"):
            if kind == "PUNCT":
                kind = lexeme
            tokens.append(_Token(kind, lexeme, line, pos - line_start + 1))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            line_start = pos + lexeme.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text, filename):
        self.filename = filename
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.varmap = {}

    # -- token helpers ------------------------------------------------

    def peek(self, ahead=0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind, what=None):
        tok = self.peek()
        if tok.kind != kind:
            self.error(f"expected {what or kind}, found {tok.text or 'end of input'!r}", tok)
        return self.next()

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, self.filename, tok.line, tok.col)

    # -- variables ----------------------------------------------------

    def new_clause_scope(self):
        self.varmap = {}

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
        tok = self.expect("NUMBER", "a number")
        return Const(Fraction(tok.text))

    def parse_rational(self):
        """NUMBER or NUMBER/NUMBER or -NUMBER[...]."""
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        c = self.parse_number()
        q = c.value
        if self.peek().kind == "/" and self.peek(1).kind == "NUMBER":
            self.next()
            d = self.parse_number().value
            if d == 0:
                self.error("division by zero in rational literal")
            q = q / d
        return Const(-q if neg else q)

    def parse_term(self):
        tok = self.peek()
        if tok.kind == "VAR":
            self.next()
            return self.lookup_var(tok.text)
        if tok.kind == "NUMBER" or tok.kind == "-":
            return self.parse_rational()
        if tok.kind == "NAME":
            self.next()
            if self.peek().kind == "(":
                self.next()
                args = self.parse_term_list()
                self.expect(")", "')'")
                return Struct(tok.text, tuple(args))
            return Const(tok.text)
        if tok.kind == "[":
            return self.parse_list()
        self.error(f"expected a term, found {tok.text or 'end of input'!r}")

    def parse_term_list(self):
        args = [self.parse_term()]
        while self.peek().kind == ",":
            self.next()
            args.append(self.parse_term())
        return args

    def parse_list(self):
        self.expect("[")
        if self.peek().kind == "]":
            self.next()
            return NIL
        items = [self.parse_term()]
        while self.peek().kind == ",":
            self.next()
            items.append(self.parse_term())
        tail = NIL
        if self.peek().kind == "|":
            self.next()
            tail = self.parse_term()
        self.expect("]", "']'")
        return mk_list(items, tail)

    # -- arithmetic expressions ------------------------------------------
    # Only meaningful on the sides of a constraint operator.  Returns the
    # term plus a flag telling whether it is also shaped like an atom call.

    def parse_additive(self):
        t, callish = self.parse_multiplicative()
        while self.peek().kind in ("+", "-"):
            op = self.next().text
            r, _ = self.parse_multiplicative()
            t = self._fold(op, t, r)
            callish = False
        return t, callish

    def parse_multiplicative(self):
        t, callish = self.parse_unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().text
            r, _ = self.parse_unary()
            t = self._fold(op, t, r)
            callish = False
        return t, callish

    def _fold(self, op, l, r):
        if isinstance(l, Const) and l.is_number and isinstance(r, Const) and r.is_number:
            if op == "/":
                if r.value == 0:
                    self.error("division by zero")
                return Const(l.value / r.value)
            if op == "+":
                return Const(l.value + r.value)
            if op == "-":
                return Const(l.value - r.value)
            if op == "*":
                return Const(l.value * r.value)
        return Struct(op, (l, r))

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "-":
            self.next()
            if self.peek().kind != "NUMBER":
                self.error("'-' must be followed by a number")
            c = self.parse_number()
            return Const(-c.value), False
        return self.parse_primary()

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "(":
            self.next()
            t, _ = self.parse_additive()
            self.expect(")", "')'")
            return t, False
        if tok.kind == "NAME":
            t = self.parse_term()
            return t, True
        t = self.parse_term()
        return t, False

    # -- goals ------------------------------------------------------------

    def parse_body(self):
        goals = [self.parse_body_element()]
        while self.peek().kind == ",":
            self.next()
            goals.append(self.parse_body_element())
        return goals

    def parse_body_element(self):
        tok = self.peek()
        if tok.kind == "NAME" and tok.text == "not":
            self.next()
            atom_tok = self.peek()
            if atom_tok.kind != "NAME" or atom_tok.text == "not":
                self.error("'not' must be followed by an atom", atom_tok)
            atom = self.parse_term()
            if self.peek().kind in ("EQ", "NEQ", "DOTOP"):
                self.error("'not' cannot be applied to a constraint", tok)
            return self._as_lit(atom, neg=True, tok=atom_tok)
        lhs, callish = self.parse_additive()
        nxt = self.peek()
        if nxt.kind in ("EQ", "NEQ", "DOTOP"):
            self.next()
            rhs, _ = self.parse_additive()
            return CmpLit(nxt.text, lhs, rhs)
        if not callish:
            self.error("expected a constraint operator after expression", nxt)
        return self._as_lit(lhs, neg=False, tok=tok)

    def _as_lit(self, t, neg, tok):
        if isinstance(t, Const) and not t.is_number:
            return Lit(t.value, (), neg)
        if isinstance(t, Struct):
            return Lit(t.functor, t.args, neg)
        self.error("expected an atom", tok)

    def parse_head(self):
        tok = self.peek()
        if tok.kind != "NAME":
            self.error(f"expected a clause head, found {tok.text or 'end of input'!r}")
        if tok.text == "not":
            self.error("a clause head cannot be negated", tok)
        atom = self.parse_term()
        return self._as_lit(atom, neg=False, tok=tok)

    # -- clauses ------------------------------------------------------------

    def parse_program(self):
        program = Program()
        while self.peek().kind != "EOF":
            self.new_clause_scope()
            tok = self.peek()
            if tok.kind == "SHOW":
                self.next()
                while True:
                    name = self.expect("NAME", "a predicate name").text
                    self.expect("/", "'/'")
                    ar = self.expect("NUMBER", "an arity")
                    if "." in ar.text:
                        self.error("arity must be an integer", ar)
                    program.shows.add((name, int(ar.text)))
                    if self.peek().kind != ",":
                        break
                    self.next()
                self.expect(".", "'.'")
                continue
            if tok.kind == "QUERY":
                self.next()
                if self.peek().kind == ".":
                    self.error("query must contain at least one goal")
                goals = self.parse_body()
                self.expect(".", "'.'")
                program.query = Query(tuple(goals), self._query_vars(), tok.line, tok.col)
                continue
            if tok.kind == "ARROW":
                self.next()
                body = self.parse_body()
                self.expect(".", "'.'")
                program.rules.append(Rule(None, tuple(body), tok.line, tok.col))
                continue
            head = self.parse_head()
            if self.peek().kind == "ARROW":
                self.next()
                body = self.parse_body()
                self.expect(".", "'.'")
                program.rules.append(Rule(head, tuple(body), tok.line, tok.col))
            else:
                self.expect(".", "'.'")
                program.rules.append(Rule(head, (), tok.line, tok.col))
        return program

    def _query_vars(self):
        return tuple((name, v) for name, v in self.varmap.items())

    def parse_query(self):
        self.new_clause_scope()
        tok = self.peek()
        if tok.kind == "QUERY":
            self.next()
        if self.peek().kind in (".", "EOF"):
            self.error("query must contain at least one goal")
        goals = self.parse_body()
        if self.peek().kind == ".":
            self.next()
        self.expect("EOF", "end of query")
        return Query(tuple(goals), self._query_vars(), tok.line, tok.col)


def parse_program(text: str, filename: str = "<program>") -> Program:
    """Parse a program text into rules, #show directives, and an optional query."""
    return _Parser(text, filename).parse_program()


def parse_query(text: str, filename: str = "<query>") -> Query:
    """Parse a stand-alone query; the leading '?-' and trailing '.' are optional."""
    return _Parser(text, filename).parse_query()
