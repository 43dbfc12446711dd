"""Statement syntax: formulas, obligations, oughts, parser and printer.

Three layers of abstract syntax:

* ``Formula`` -- CTL*-style path/state formulas extended with agentive
  see-to-it operators (``[a cstit: ...]``, ``[a dstit: ...]``).
* ``Obligation`` -- the restricted grammar ``A ::= phi | [a dstit: A] | !A``
  where ``phi`` is a pure (stit-free) formula.
* ``OughtStatement`` -- ``O[a cstit: A]`` and the conditional form
  ``O[a cstit: A / B]``; the agent slot may name a group.

The concrete grammar is documented in docs/grammar.ebnf.  Precedence, from
tightest to loosest: ``!`` and the unary temporal operators, then the binary
operators as the table ``_INFIX`` binds them: ``BR[n]``, ``U``/``R``, ``&``,
``|``, ``->``.  The path quantifiers ``A`` and ``E`` swallow the longest
formula to their right.

Two limits live here.  MAX_DEPTH bounds how deep a parsed statement nests,
so that the recursive passes over it stay inside Python's default
recursion limit; deeper text is a ParseError.  MAX_UNFOLD bounds how far
expand_bounded unfolds X^t, F[n:m] and BR[N]; past it the tableau would
refuse the result, so the operator is refused first, as a
ResourceLimitError.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import GrammarError, ParseError, ResourceLimitError

# X^n, F[lo:n] and BR[n] unfold into n or more next-step obligations, each
# one elementary bit of ctlstar's tableau: one cap bounds both.
MAX_UNFOLD = 16
# A statement nests at most this many operators, brackets and parentheses
# deep, so that every recursive pass over it stays inside Python's default
# recursion limit.
MAX_DEPTH = 400

# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

class Formula:
    """Base class for path/state formulas."""

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Atom(Formula):
    name: str


@dataclass(frozen=True)
class TrueFormula(Formula):
    pass


@dataclass(frozen=True)
class FalseFormula(Formula):
    pass


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula


@dataclass(frozen=True)
class NextPow(Formula):
    """``X^t f``: t-fold repetition of the next operator."""

    steps: int
    operand: Formula

    def __post_init__(self):
        if self.steps < 0:
            raise GrammarError("X^t needs t >= 0", production="next-pow")


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula


@dataclass(frozen=True)
class EventuallyBounded(Formula):
    """``F[lo:hi] f``: f within lo..hi steps from now."""

    lo: int
    hi: int
    operand: Formula

    def __post_init__(self):
        if self.lo < 0 or self.lo > self.hi:
            raise GrammarError(
                f"F[{self.lo}:{self.hi}] needs 0 <= lo <= hi",
                production="bounded-eventually")


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula


@dataclass(frozen=True)
class BoundedRelease(Formula):
    """``l BR[n] r``: within n steps, l now, or r continuously until l."""

    bound: int
    left: Formula
    right: Formula

    def __post_init__(self):
        if self.bound < 0:
            raise GrammarError("BR[n] needs n >= 0", production="bounded-release")


@dataclass(frozen=True)
class ForallPaths(Formula):
    operand: Formula


@dataclass(frozen=True)
class ExistsPaths(Formula):
    operand: Formula


@dataclass(frozen=True)
class Cstit(Formula):
    """``[agent cstit: body]``: the agent's current choice guarantees body."""

    agent: str
    body: "Obligation"


@dataclass(frozen=True)
class Dstit(Formula):
    """``[agent dstit: body]``: cstit plus a genuinely open alternative."""

    agent: str
    body: "Obligation"


TRUE = TrueFormula()
FALSE = FalseFormula()


class Obligation:
    """Base class for the obligation grammar ``A ::= phi | [a dstit: A] | !A``."""

    def __str__(self):
        return render(self)


@dataclass(frozen=True)
class Plain(Obligation):
    """A pure formula used as an obligation; must be stit-free."""

    formula: Formula

    def __post_init__(self):
        if contains_stit(self.formula):
            raise GrammarError(
                "the formula leaf of an obligation must be stit-free",
                production="obligation-plain")


@dataclass(frozen=True)
class DstitOf(Obligation):
    agent: str
    body: Obligation


@dataclass(frozen=True)
class NegatedObligation(Obligation):
    body: Obligation


@dataclass(frozen=True)
class OughtStatement:
    """``O[agents cstit: body]``, optionally conditioned: ``... / condition``."""

    agents: tuple[str, ...]
    body: Obligation
    condition: Obligation | None = None

    def __post_init__(self):
        if not self.agents:
            raise GrammarError("ought needs at least one agent", production="ought")
        if len(set(self.agents)) != len(self.agents):
            raise GrammarError("duplicate agent in ought", production="ought")

    def __str__(self):
        return render(self)


def ought(agent, body, condition=None):
    """Build an OughtStatement; `agent` is a name or an iterable of names."""
    agents = (agent,) if isinstance(agent, str) else tuple(agent)
    return OughtStatement(agents, body, condition)


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------

_UNARY = (Not, Next, Eventually, Always, ForallPaths, ExistsPaths)
_BINARY = (And, Or, Implies, Until, Release)


def children(f):
    """Immediate subterms of a formula/obligation node."""
    if isinstance(f, _UNARY):
        return (f.operand,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, (NextPow, EventuallyBounded)):
        return (f.operand,)
    if isinstance(f, BoundedRelease):
        return (f.left, f.right)
    if isinstance(f, (Cstit, Dstit, DstitOf, NegatedObligation)):
        return (f.body,)
    if isinstance(f, Plain):
        return (f.formula,)
    if isinstance(f, OughtStatement):
        return (f.body,) + ((f.condition,) if f.condition is not None else ())
    return ()


def walk(f):
    """All nodes of f, preorder; iterative, so any depth is walked."""
    todo = [f]
    while todo:
        g = todo.pop()
        yield g
        todo.extend(reversed(children(g)))


def contains_stit(f):
    return any(isinstance(g, (Cstit, Dstit, DstitOf)) for g in walk(f))


def atoms_of(f):
    """Names of all atoms occurring in f."""
    return {g.name for g in walk(f) if isinstance(g, Atom)}


def or_all(parts):
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def and_all(parts):
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def next_pow(steps, f):
    """steps-fold application of Next."""
    for _ in range(steps):
        f = Next(f)
    return f


# ---------------------------------------------------------------------------
# Printer
# ---------------------------------------------------------------------------

def render(x) -> str:
    """Canonical re-parsable text for a formula, obligation, or ought."""
    if isinstance(x, OughtStatement):
        head = ",".join(x.agents)
        if x.condition is None:
            return f"O[{head} cstit: {render(x.body)}]"
        return f"O[{head} cstit: {render(x.body)} / {render(x.condition)}]"
    if isinstance(x, Plain):
        return render(x.formula)
    if isinstance(x, DstitOf):
        return f"[{x.agent} dstit: {render(x.body)}]"
    if isinstance(x, NegatedObligation):
        return f"!{render(x.body)}"
    if isinstance(x, Atom):
        return x.name
    if isinstance(x, TrueFormula):
        return "true"
    if isinstance(x, FalseFormula):
        return "false"
    if isinstance(x, Not):
        return f"!{_tight(x.operand)}"
    if isinstance(x, And):
        return f"({render(x.left)} & {render(x.right)})"
    if isinstance(x, Or):
        return f"({render(x.left)} | {render(x.right)})"
    if isinstance(x, Implies):
        return f"({render(x.left)} -> {render(x.right)})"
    if isinstance(x, Next):
        return f"X {_tight(x.operand)}"
    if isinstance(x, NextPow):
        return f"X^{x.steps} {_tight(x.operand)}"
    if isinstance(x, Until):
        return f"({render(x.left)} U {render(x.right)})"
    if isinstance(x, Release):
        return f"({render(x.left)} R {render(x.right)})"
    if isinstance(x, Eventually):
        return f"F {_tight(x.operand)}"
    if isinstance(x, EventuallyBounded):
        return f"F[{x.lo}:{x.hi}] {_tight(x.operand)}"
    if isinstance(x, Always):
        return f"G {_tight(x.operand)}"
    if isinstance(x, BoundedRelease):
        return f"{_tight(x.left)} BR[{x.bound}] {_tight(x.right)}"
    if isinstance(x, ForallPaths):
        return f"(A {render(x.operand)})"
    if isinstance(x, ExistsPaths):
        return f"(E {render(x.operand)})"
    if isinstance(x, Cstit):
        return f"[{x.agent} cstit: {render(x.body)}]"
    if isinstance(x, Dstit):
        return f"[{x.agent} dstit: {render(x.body)}]"
    raise TypeError(f"cannot render {type(x).__name__}")


def _tight(f):
    # operand position of a unary operator: BR is the only construct whose
    # rendering is not self-delimiting
    if isinstance(f, BoundedRelease):
        return f"({render(f)})"
    return render(f)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "int", "sym", "eof"
    text: str
    line: int
    column: int


def _tokenize(text):
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
            toks.append(_Token("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch in "()[]{},:/!&|^":
            toks.append(_Token("sym", ch, line, col))
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_."):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


# The binary operators, the one binding table of the grammar: text ->
# (binding power, right-associative, constructor).  Every unary operator
# binds tighter than all of them.
_INFIX = {
    "->": (1, True, Implies),
    "|": (2, False, Or),
    "&": (3, False, And),
    "U": (4, True, Until),
    "R": (4, True, Release),
    "BR": (5, True, BoundedRelease),
}

# "A" and "E" double as path quantifiers and as plain atom names; the parser
# disambiguates on one token of lookahead.
_FORMULA_START_SYMS = {"(", "[", "!"}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text):
        self.toks = _tokenize(text)
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
            node = _classify(self.formula()[0])
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
        return self._as_obligation(self.formula()[0], tok)

    def _as_obligation(self, f, tok):
        """f coerced into the obligation grammar; a violation is reported
        at tok, where f starts."""
        try:
            return formula_to_obligation(f)
        except GrammarError as exc:
            self.error(str(exc), tok)

    # MAX_DEPTH bounds two nestings.  `level` counts the constructs and
    # parentheses open around the token being parsed, and is refused past
    # the limit before the parser recurses further; each level costs at
    # most two parser frames.  Each formula parse also returns its node's
    # depth, the operators and brackets on its longest path to an atom,
    # refused past the limit as soon as the construct is built.

    def _deepen(self, depth, tok):
        """The depth of the construct at tok over a part depth deep."""
        if depth >= MAX_DEPTH:
            self._too_deep(tok)
        return depth + 1

    def _too_deep(self, tok):
        self.error(f"formula nested deeper than {MAX_DEPTH} levels", tok)

    def formula(self, floor=1, level=0):
        """A formula whose binary operators bind at least as tightly as
        floor: precedence climbing over _INFIX."""
        left, depth = self._unary(level)
        while True:
            tok = self.peek()
            op = _INFIX.get(tok.text)
            if op is None or op[0] < floor:
                return left, depth
            power, right_assoc, build = op
            self.next()
            if build is BoundedRelease:
                self.expect_sym("[")
                build = functools.partial(BoundedRelease, self.expect_int())
                self.expect_sym("]")
            right, right_depth = self.formula(
                power if right_assoc else power + 1, level + 1)
            left = build(left, right)
            depth = self._deepen(max(depth, right_depth), tok)

    def _unary(self, level):
        tok = self.peek()
        if level > MAX_DEPTH:
            self._too_deep(tok)
        if tok.text == "!":
            self.next()
            f, depth = self._unary(level + 1)
            return Not(f), self._deepen(depth, tok)
        if tok.text == "(":
            self.next()
            f, depth = self.formula(1, level + 1)
            self.expect_sym(")")
            return f, depth
        if tok.text == "[":
            self.next()
            agent = self.expect_ident("agent name").text
            kw = self.expect_ident("'cstit' or 'dstit'")
            if kw.text not in ("cstit", "dstit"):
                self.error(f"expected 'cstit' or 'dstit', found {kw.text!r}",
                           kw)
            self.expect_sym(":")
            start = self.peek()
            f, depth = self.formula(1, level + 1)
            body = self._as_obligation(f, start)
            self.expect_sym("]")
            stit = Cstit if kw.text == "cstit" else Dstit
            return stit(agent, body), self._deepen(depth, tok)
        if tok.kind == "ident":
            if tok.text in ("A", "E") and self._starts_formula(1):
                self.next()
                f, depth = self.formula(1, level + 1)
                path = ForallPaths if tok.text == "A" else ExistsPaths
                return path(f), self._deepen(depth, tok)
            return self._ident_formula(level)
        self.error(f"expected a formula, found {tok.text or 'end of input'!r}", tok)

    def _ident_formula(self, level):
        tok = self.next()
        name = tok.text
        if name == "true":
            return TRUE, 0
        if name == "false":
            return FALSE, 0
        if name == "O":
            raise GrammarError(
                "an ought operator cannot appear inside a formula",
                production="formula")
        if name == "X":
            if self.peek().text == "^":
                self.next()
                steps = self.expect_int()
                f, depth = self._unary(level + 1)
                return NextPow(steps, f), self._deepen(depth, tok)
            f, depth = self._unary(level + 1)
            return Next(f), self._deepen(depth, tok)
        if name == "F":
            if self.peek().text == "[":
                self.next()
                lo = self.expect_int()
                self.expect_sym(":")
                hi = self.expect_int()
                self.expect_sym("]")
                if lo > hi:
                    self.error(f"F[{lo}:{hi}] needs lo <= hi", tok)
                f, depth = self._unary(level + 1)
                return EventuallyBounded(lo, hi, f), self._deepen(depth, tok)
            f, depth = self._unary(level + 1)
            return Eventually(f), self._deepen(depth, tok)
        if name == "G":
            f, depth = self._unary(level + 1)
            return Always(f), self._deepen(depth, tok)
        if name in ("U", "R", "BR", "cstit", "dstit"):
            self.error(f"{name!r} is an operator, not an atom", tok)
        return Atom(name), 0

    def _starts_formula(self, ahead):
        tok = self.peek(ahead)
        if tok.kind == "ident":
            return tok.text not in ("U", "R", "BR", "cstit", "dstit")
        return tok.kind == "sym" and tok.text in _FORMULA_START_SYMS


def formula_to_obligation(f) -> Obligation:
    """Coerce a parsed formula into the obligation grammar.

    ``[a dstit: ...]`` maps to a dstit obligation, negation folds into the
    formula when the body is plain, and anything embedding a stit operator
    inside boolean/temporal structure is rejected.
    """
    if isinstance(f, Dstit):
        return DstitOf(f.agent, f.body)
    if isinstance(f, Not):
        inner = formula_to_obligation(f.operand)
        if isinstance(inner, Plain):
            return Plain(Not(inner.formula))
        return NegatedObligation(inner)
    if isinstance(f, Cstit):
        raise GrammarError(
            "cstit is not part of the obligation grammar (phi | [a dstit: A] | !A)",
            production="obligation")
    if contains_stit(f):
        raise GrammarError(
            "a stit operator may not be embedded in formula structure inside "
            "an obligation (grammar: phi | [a dstit: A] | !A)",
            production="obligation")
    return Plain(f)


def _classify(f):
    """Most specific reading of a top-level formula parse."""
    try:
        ob = formula_to_obligation(f)
    except GrammarError:
        return f
    if isinstance(ob, (DstitOf, NegatedObligation)):
        return ob
    return f


def parse(text: str):
    """Parse text into the most specific of OughtStatement/Obligation/Formula."""
    return _Parser(text).statement()


def parse_formula(text: str) -> Formula:
    node = parse(text)
    if isinstance(node, OughtStatement):
        raise GrammarError("expected a formula, parsed an ought statement",
                           production="formula")
    if isinstance(node, Obligation):
        node = obligation_to_formula(node)
    return node


def parse_obligation(text: str) -> Obligation:
    node = parse(text)
    if isinstance(node, OughtStatement):
        raise GrammarError("expected an obligation, parsed an ought statement",
                           production="obligation")
    if isinstance(node, Formula):
        return formula_to_obligation(node)
    return node


def parse_ought(text: str) -> OughtStatement:
    node = parse(text)
    if not isinstance(node, OughtStatement):
        raise GrammarError("expected an ought statement", production="ought")
    return node


def obligation_to_formula(ob) -> Formula:
    """View an obligation as a formula (dstit obligations become Dstit nodes)."""
    if isinstance(ob, Plain):
        return ob.formula
    if isinstance(ob, DstitOf):
        return Dstit(ob.agent, ob.body)
    if isinstance(ob, NegatedObligation):
        return Not(obligation_to_formula(ob.body))
    raise TypeError(f"not an obligation: {type(ob).__name__}")


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def expand_bounded(f):
    """Rewrite X^t, F[n:m] and BR[N] into X / and / or structure, in a
    formula or an obligation.

    F[n:m] f  =  X^n f | ... | X^m f
    l BR[N] r =  l | (r & X l) | (r & X r & X^2 l) | ...
                   | (r & ... & X^(N-1) r & X^N l) | (r & X r & ... & X^N r)

    Each unfolds into a chain of t, m or N next-step obligations, nested in
    the chains of the bounded operators around it up to the nearest path
    quantifier or stit (nexts of them); past MAX_UNFOLD in all the tableau
    would refuse them, so the operator is refused before it is unfolded.
    """
    return _expand(f, 0)


def _expand(f, nexts):
    if isinstance(f, NextPow):
        if nexts + f.steps > MAX_UNFOLD:
            _refuse_unfolding(f"X^{f.steps}", f.steps, nexts)
        return next_pow(f.steps, _expand(f.operand, nexts + f.steps))
    if isinstance(f, EventuallyBounded):
        if nexts + f.hi > MAX_UNFOLD:
            _refuse_unfolding(f"F[{f.lo}:{f.hi}]", f.hi, nexts)
        inner = _expand(f.operand, nexts + f.hi)
        return or_all(next_pow(t, inner) for t in range(f.lo, f.hi + 1))
    if isinstance(f, BoundedRelease):
        if nexts + f.bound > MAX_UNFOLD:
            _refuse_unfolding(f"BR[{f.bound}]", f.bound, nexts)
        left = _expand(f.left, nexts + f.bound)
        right = _expand(f.right, nexts + f.bound)
        disjuncts = [left]
        for k in range(1, f.bound + 1):
            parts = [next_pow(j, right) for j in range(k)] + [next_pow(k, left)]
            disjuncts.append(and_all(parts))
        disjuncts.append(and_all(next_pow(j, right) for j in range(f.bound + 1)))
        return or_all(disjuncts)
    if isinstance(f, (ForallPaths, ExistsPaths)):
        return type(f)(_expand(f.operand, 0))
    if isinstance(f, _UNARY):
        return type(f)(_expand(f.operand, nexts))
    if isinstance(f, _BINARY):
        return type(f)(_expand(f.left, nexts), _expand(f.right, nexts))
    if isinstance(f, (Cstit, Dstit, DstitOf)):
        return type(f)(f.agent, _expand(f.body, 0))
    if isinstance(f, NegatedObligation):
        return NegatedObligation(_expand(f.body, nexts))
    if isinstance(f, Plain):
        return Plain(_expand(f.formula, nexts))
    return f


def _refuse_unfolding(op, n, nexts):
    inside = f" inside {nexts} more" if nexts else ""
    raise ResourceLimitError(
        f"{op} unfolds into {n} next-step obligations{inside}; the tableau "
        f"is capped at {MAX_UNFOLD} elementary bits")


def nnf(f: Formula, negated: bool = False) -> Formula:
    """Negation normal form over atoms, X, U and R.

    Bounded operators must be expanded first; F and G normalize to
    ``true U .`` and ``false R .``.  Negation survives only on atoms.
    """
    if isinstance(f, Atom):
        return Not(f) if negated else f
    if isinstance(f, TrueFormula):
        return FALSE if negated else TRUE
    if isinstance(f, FalseFormula):
        return TRUE if negated else FALSE
    if isinstance(f, Not):
        return nnf(f.operand, not negated)
    if isinstance(f, And):
        parts = (nnf(f.left, negated), nnf(f.right, negated))
        return Or(*parts) if negated else And(*parts)
    if isinstance(f, Or):
        parts = (nnf(f.left, negated), nnf(f.right, negated))
        return And(*parts) if negated else Or(*parts)
    if isinstance(f, Implies):
        return nnf(Or(Not(f.left), f.right), negated)
    if isinstance(f, Next):
        return Next(nnf(f.operand, negated))
    if isinstance(f, Until):
        parts = (nnf(f.left, negated), nnf(f.right, negated))
        return Release(*parts) if negated else Until(*parts)
    if isinstance(f, Release):
        parts = (nnf(f.left, negated), nnf(f.right, negated))
        return Until(*parts) if negated else Release(*parts)
    if isinstance(f, Eventually):
        return nnf(Until(TRUE, f.operand), negated)
    if isinstance(f, Always):
        return nnf(Release(FALSE, f.operand), negated)
    raise GrammarError(f"cannot normalize {type(f).__name__}; expand bounded "
                       f"operators and strip quantifiers first",
                       production="nnf")


def rewrite_dstit_idempotent(ob: Obligation) -> Obligation:
    """Collapse stacked same-agent dstits.

    ``[a dstit: [a dstit: A]]`` collapses to ``[a dstit: A]`` and the
    refrain-from-refraining form ``[a dstit: ![a dstit: ![a dstit: A]]]``
    collapses to ``[a dstit: A]``; different agents are left alone.
    """
    if isinstance(ob, Plain):
        return ob
    if isinstance(ob, NegatedObligation):
        return NegatedObligation(rewrite_dstit_idempotent(ob.body))
    if isinstance(ob, DstitOf):
        body = rewrite_dstit_idempotent(ob.body)
        if isinstance(body, DstitOf) and body.agent == ob.agent:
            return body
        if (isinstance(body, NegatedObligation)
                and isinstance(body.body, DstitOf)
                and body.body.agent == ob.agent
                and isinstance(body.body.body, NegatedObligation)
                and isinstance(body.body.body.body, DstitOf)
                and body.body.body.body.agent == ob.agent):
            return body.body.body.body
        return DstitOf(ob.agent, body)
    raise TypeError(f"not an obligation: {type(ob).__name__}")


def normalize_obligation(ob: Obligation) -> Obligation:
    """Fold negations (double negation, negated plain formulas) and apply
    the dstit collapses, to fixpoint."""
    def strip(a):
        if isinstance(a, NegatedObligation):
            inner = strip(a.body)
            if isinstance(inner, NegatedObligation):
                return inner.body
            if isinstance(inner, Plain):
                if isinstance(inner.formula, Not):
                    return Plain(inner.formula.operand)
                return Plain(Not(inner.formula))
            return NegatedObligation(inner)
        if isinstance(a, DstitOf):
            return DstitOf(a.agent, strip(a.body))
        return a

    previous = None
    while previous != ob:
        previous = ob
        ob = rewrite_dstit_idempotent(strip(ob))
    return ob
