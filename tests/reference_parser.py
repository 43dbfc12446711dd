"""The statement parser as recursive descent, one method per precedence
level, over a tokenizer that scans character by character: the references
that the precedence-climbing parser and the one-pattern tokenizer in
deontic_mc.formula are compared against.  Its nesting depth is bounded by
the Python stack: seven frames per parenthesis level.
"""

from dataclasses import dataclass

from deontic_mc.errors import GrammarError, ParseError
from deontic_mc.formula import (
    FALSE,
    TRUE,
    Always,
    And,
    Atom,
    BoundedRelease,
    Cstit,
    Dstit,
    Eventually,
    EventuallyBounded,
    ExistsPaths,
    ForallPaths,
    Implies,
    Next,
    NextPow,
    Not,
    Or,
    OughtStatement,
    Release,
    Until,
    _classify,
    formula_to_obligation,
)

_FORMULA_START_SYMS = {"(", "[", "!"}


@dataclass(frozen=True)
class Token:
    kind: str  # "ident", "int", "sym", "eof"
    text: str
    line: int
    column: int


def tokenize(text):
    """What deontic_mc.formula._tokenize returns, or raises, for the text."""
    toks = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if text.startswith("->", i):
            toks.append(Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[]{},:/!&|^":
            toks.append(Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def parse(text):
    """What deontic_mc.formula.parse returns, or raises, for the text."""
    return RecursiveDescentParser(text).statement()


class RecursiveDescentParser:
    def __init__(self, text):
        self.toks = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.column)

    def expect_sym(self, sym):
        tok = self.next()
        if tok.kind != "sym" or tok.text != sym:
            self.error(f"expected {sym!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_ident(self, what="identifier"):
        tok = self.next()
        if tok.kind != "ident":
            self.error(f"expected {what}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def expect_int(self):
        tok = self.next()
        if tok.kind != "int":
            self.error(f"expected integer, found {tok.text or 'end of input'!r}", tok)
        return int(tok.text)

    # statement = ought | obligation | formula
    def statement(self):
        if self._at_ought():
            node = self.ought()
        else:
            f = self.formula()
            node = _classify(f)
        tok = self.peek()
        if tok.kind != "eof":
            self.error(f"unexpected trailing input {tok.text!r}", tok)
        return node

    def _at_ought(self):
        tok = self.peek()
        return tok.kind == "ident" and tok.text == "O" and \
            self.peek(1).kind == "sym" and self.peek(1).text == "["

    def ought(self):
        self.expect_ident()  # the O
        self.expect_sym("[")
        agents = [self.expect_ident("agent name").text]
        while self.peek().text == ",":
            self.next()
            agents.append(self.expect_ident("agent name").text)
        kw = self.expect_ident("'cstit'")
        if kw.text != "cstit":
            if kw.text == "dstit":
                self.error("oughts are built with cstit, not dstit", kw)
            self.error(f"expected 'cstit', found {kw.text!r}", kw)
        self.expect_sym(":")
        body = self.obligation()
        condition = None
        if self.peek().text == "/":
            self.next()
            condition = self.obligation()
        self.expect_sym("]")
        return OughtStatement(tuple(agents), body, condition)

    def obligation(self):
        tok = self.peek()
        f = self.formula()
        try:
            return formula_to_obligation(f)
        except GrammarError as exc:
            self.error(str(exc), tok)

    # formula = implied
    def formula(self):
        return self._implies()

    def _implies(self):
        left = self._or()
        if self.peek().text == "->":
            self.next()
            return Implies(left, self._implies())
        return left

    def _or(self):
        out = self._and()
        while self.peek().text == "|":
            self.next()
            out = Or(out, self._and())
        return out

    def _and(self):
        out = self._until()
        while self.peek().text == "&":
            self.next()
            out = And(out, self._until())
        return out

    def _until(self):
        left = self._brelease()
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("U", "R"):
            self.next()
            right = self._until()
            return Until(left, right) if tok.text == "U" else Release(left, right)
        return left

    def _brelease(self):
        left = self._unary()
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "BR":
            self.next()
            self.expect_sym("[")
            bound = self.expect_int()
            self.expect_sym("]")
            right = self._brelease()
            return BoundedRelease(bound, left, right)
        return left

    def _unary(self):
        tok = self.peek()
        if tok.text == "!":
            self.next()
            return Not(self._unary())
        if tok.text == "(":
            self.next()
            f = self.formula()
            self.expect_sym(")")
            return f
        if tok.text == "[":
            return self._stit_bracket()
        if tok.kind == "ident":
            return self._ident_formula()
        self.error(f"expected a formula, found {tok.text or 'end of input'!r}", tok)

    def _stit_bracket(self):
        self.expect_sym("[")
        agent = self.expect_ident("agent name").text
        kw = self.expect_ident("'cstit' or 'dstit'")
        if kw.text not in ("cstit", "dstit"):
            self.error(f"expected 'cstit' or 'dstit', found {kw.text!r}", kw)
        self.expect_sym(":")
        body = self.obligation()
        self.expect_sym("]")
        return (Cstit if kw.text == "cstit" else Dstit)(agent, body)

    def _ident_formula(self):
        tok = self.next()
        name = tok.text
        if name == "true":
            return TRUE
        if name == "false":
            return FALSE
        if name == "O":
            raise GrammarError(
                "an ought operator cannot appear inside a formula",
                production="formula")
        if name == "X":
            if self.peek().text == "^":
                self.next()
                steps = self.expect_int()
                return NextPow(steps, self._unary())
            return Next(self._unary())
        if name == "F":
            if self.peek().text == "[" and self.peek(1).kind == "int":
                self.next()
                lo = self.expect_int()
                self.expect_sym(":")
                hi = self.expect_int()
                self.expect_sym("]")
                if lo > hi:
                    self.error(f"F[{lo}:{hi}] needs lo <= hi", tok)
                return EventuallyBounded(lo, hi, self._unary())
            return Eventually(self._unary())
        if name == "G":
            return Always(self._unary())
        if name in ("A", "E") and self._starts_formula():
            inner = self.formula()
            return ForallPaths(inner) if name == "A" else ExistsPaths(inner)
        if name in ("U", "R", "BR", "cstit", "dstit"):
            self.error(f"{name!r} is an operator, not an atom", tok)
        return Atom(name)

    def _starts_formula(self):
        tok = self.peek()
        if tok.kind == "ident":
            return tok.text not in ("U", "R", "BR", "cstit", "dstit")
        return tok.kind == "sym" and tok.text in _FORMULA_START_SYMS
