"""Parser, printer, bounded-operator expansion, obligation normalisation."""

import dataclasses
import itertools
import random

import pytest

from deontic_mc import formula as fm
from deontic_mc.ctlstar import (
    Universality, buchi_accepts, eval_on_lasso, ltl_to_buchi, strip_weights)
from deontic_mc.errors import GrammarError, ParseError, ResourceLimitError
from deontic_mc.generate import random_model, random_path_formula
from deontic_mc.mc import check_ought

import oracle
import reference_obligation
import reference_parser
from conftest import make_t0
from reference_nnf import nnf_rows, reference_rows


# ======================== Parsing ========================

class TestParse:
    def test_plain_ought(self):
        st = fm.parse("O[alpha cstit: !collision]")
        assert st == fm.OughtStatement(
            ("alpha",), fm.Plain(fm.Not(fm.Atom("collision"))))

    def test_conditional_refraining_ought(self):
        st = fm.parse("O[alpha cstit: ![alpha dstit: (!p) BR[3] g] / w]")
        waiting = fm.BoundedRelease(3, fm.Not(fm.Atom("p")), fm.Atom("g"))
        assert st == fm.OughtStatement(
            ("alpha",),
            fm.NegatedObligation(fm.DstitOf("alpha", fm.Plain(waiting))),
            fm.Plain(fm.Atom("w")))

    def test_bounded_eventually(self):
        assert fm.parse("F[0:2] p") == fm.EventuallyBounded(0, 2, fm.Atom("p"))

    def test_classification_is_most_specific(self):
        assert isinstance(fm.parse("[a dstit: p]"), fm.DstitOf)
        assert isinstance(fm.parse("![a dstit: p]"), fm.NegatedObligation)
        assert isinstance(fm.parse("p U q"), fm.Formula)
        assert isinstance(fm.parse("[a cstit: p]"), fm.Cstit)

    def test_group_agents(self):
        st = fm.parse("O[a,b cstit: E (g_a | g_b)]")
        assert st.agents == ("a", "b")

    def test_precedence(self):
        assert fm.parse_formula("!p & q") == fm.And(
            fm.Not(fm.Atom("p")), fm.Atom("q"))
        assert fm.parse_formula("p U q & r") == fm.And(
            fm.Until(fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))
        assert fm.parse_formula("a -> b -> c") == fm.Implies(
            fm.Atom("a"), fm.Implies(fm.Atom("b"), fm.Atom("c")))
        assert fm.parse_formula("p BR[1] q U r") == fm.Until(
            fm.BoundedRelease(1, fm.Atom("p"), fm.Atom("q")), fm.Atom("r"))

    def test_quantifier_binds_maximally(self):
        assert fm.parse_formula("A p U q") == fm.ForallPaths(
            fm.Until(fm.Atom("p"), fm.Atom("q")))

    def test_a_and_e_double_as_atoms(self):
        assert fm.parse_formula("A") == fm.Atom("A")
        assert fm.parse_formula("(A & E)") == fm.And(fm.Atom("A"), fm.Atom("E"))
        assert fm.parse_formula("A F collision") == fm.ForallPaths(
            fm.Eventually(fm.Atom("collision")))

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            fm.parse("p &\n& q")
        assert err.value.line == 2 and err.value.column == 1

    def test_ought_inside_formula_rejected(self):
        with pytest.raises(GrammarError) as err:
            fm.parse("G O[alpha cstit: p]")
        assert "formula" == err.value.production

    def test_cstit_inside_obligation_rejected(self):
        with pytest.raises(ParseError) as err:
            fm.parse("O[alpha cstit: [b cstit: p]]")
        assert "obligation" in str(err.value)

    def test_stit_under_boolean_structure_is_not_an_obligation(self):
        with pytest.raises(GrammarError):
            fm.parse_obligation("[a dstit: p] & q")

    def test_bad_bounds_rejected(self):
        with pytest.raises((GrammarError, ParseError)):
            fm.parse("F[2:1] p")


# ======================== Parser against its reference ========================

_SOUP = ["(", ")", "[", "]", "!", "&", "|", "->", "U", "R", "BR", "BR[2]",
         "X", "X^2", "X^", "F", "F[1:2]", "F[2:1]", "G", "A", "E", "p", "q",
         "true", "false", "O", "O[", "alpha", "beta", "cstit", "dstit", ":",
         "/", ",", "1", "^", "$", "[alpha dstit:", "O[alpha cstit:", "-"]


def _token_soup(rng):
    sep = rng.choice([" ", ""])
    return sep.join(rng.choice(_SOUP) for _ in range(rng.randint(1, 14)))


def _shaped(rng, depth=0):
    """Grammar-shaped text with parentheses only where drawn, so operators
    of every binding power meet unparenthesized."""
    roll = rng.random()
    if depth > 4 or roll < 0.25:
        return rng.choice(["p", "q", "true", "false", "A", "E", "g_alpha"])
    if roll < 0.45:
        return rng.choice(["!", "X ", "X^2 ", "F ", "F[0:2] ", "G ", "A ",
                           "E "]) + _shaped(rng, depth + 1)
    if roll < 0.8:
        return (_shaped(rng, depth + 1)
                + rng.choice([" & ", " | ", " -> ", " U ", " R ", " BR[1] "])
                + _shaped(rng, depth + 1))
    if roll < 0.88:
        return f"({_shaped(rng, depth + 1)})"
    kind = rng.choice(["dstit", "cstit"])
    agent = rng.choice(["alpha", "beta"])
    return f"[{agent} {kind}: {_shaped(rng, depth + 1)}]"


def _shaped_statement(rng):
    if rng.random() < 0.3:
        cond = f" / {_shaped(rng, 1)}" if rng.random() < 0.4 else ""
        return f"O[alpha cstit: {_shaped(rng, 1)}{cond}]"
    text = _shaped(rng)
    if rng.random() < 0.1:  # a stray or missing token
        k = rng.randrange(len(text) + 1)
        text = text[:k] + rng.choice(["", ")", "(", " &", "]"]) + text[k:]
    return text


# The grammar's lexemes, and characters on which str's predicates and the
# regular expression classes could disagree: numerals that are no ASCII digit
# (superscript, Arabic-Indic, fullwidth, fraction, Roman), non-ASCII
# letters, and whitespace other than a space
_LEXEMES = ["(", ")", "[", "]", "{", "}", ",", ":", "/", "!", "&", "|", "^",
            "->", "-", ">", "U", "BR", "X", "p", "_q", "a.b", "g_alpha", "0",
            "12", "x1", ".", "$", " "]
_ODD_CHARS = ["\u00b2", "\u0663", "\uff13", "\u00bd", "\u216b", "\u00e9",
              "\u4e00", "\xa0", "\x85", "\x1c", "\u2028", "\r", "\n",
              "\r\n", "\t"]


def _lexer_soup(rng):
    return "".join(rng.choice(_ODD_CHARS if rng.random() < 0.2 else _LEXEMES)
                   for _ in range(rng.randint(0, 12)))


def _tokens(tokenize, text):
    """The tokens as (kind, text, line, column), or the error's text."""
    try:
        return [(t.kind, t.text, t.line, t.column) for t in tokenize(text)]
    except ParseError as exc:
        return str(exc)


def _outcome(parse, text):
    """The rendered parse with its kind, or the error's type and text."""
    try:
        node = parse(text)
    except Exception as exc:  # every error must match, whatever its type
        return type(exc).__name__, str(exc)
    return type(node).__name__, fm.render(node)


class TestParserReference:
    @pytest.mark.parametrize("draw", [_token_soup, _shaped_statement],
                             ids=["token-soup", "grammar-shaped"])
    def test_same_outcome_as_recursive_descent(self, draw):
        rng = random.Random(17)
        kinds = set()
        for _ in range(3000):
            text = draw(rng)
            got = _outcome(fm.parse, text)
            assert got == _outcome(reference_parser.parse, text), text
            kinds.add(got[0])
        # errors and several kinds of parse result are exercised
        assert "ParseError" in kinds and len(kinds) >= 4

    def test_same_tokens_as_the_character_scanner(self):
        rng = random.Random(29)
        draws = 50_000
        errors = 0
        for _ in range(draws):
            text = _lexer_soup(rng)
            got = _tokens(fm._tokenize, text)
            assert got == _tokens(reference_parser.tokenize, text), repr(text)
            errors += isinstance(got, str)
        # both outcomes are exercised
        assert 0.2 * draws < errors < 0.8 * draws

    def test_400_nested_parentheses(self):
        assert fm.parse("(" * 400 + "p" + ")" * 400) == fm.Atom("p")

    @pytest.mark.parametrize("nest", [
        lambda n: "(" * n + "p" + ")" * n,
        lambda n: " & ".join(["p"] * (n + 1)),
        lambda n: " -> ".join(["p"] * (n + 1)),
        lambda n: " U ".join(["p"] * (n + 1)),
        lambda n: " BR[1] ".join(["p"] * (n + 1)),
        lambda n: "!" * n + "p",
        lambda n: "X^2 " * n + "p",
        lambda n: "F[0:1] " * n + "p",
        lambda n: "A " * n + "p",
        lambda n: "(E " * (n // 2) + "p" + ")" * (n // 2),
        lambda n: "[a dstit: " * n + "p" + "]" * n,
        lambda n: "(!" * (n // 2) + "p" + ")" * (n // 2),
    ], ids=["parens", "and", "implies", "until", "br", "not", "next-pow",
            "bounded-f", "forall", "exists-parens", "dstit", "paren-not"])
    def test_depth_limit(self, nest):
        """MAX_DEPTH levels of any construct parse, more are a ParseError
        (the halving constructs nest two levels a step)."""
        fm.parse(nest(fm.MAX_DEPTH))
        with pytest.raises(ParseError, match="nested deeper than 400 levels"):
            fm.parse(nest(fm.MAX_DEPTH + 2))
        assert fm.MAX_DEPTH == 400

    @pytest.mark.parametrize("text", ["X^\u00b2 p", "F[0:\u00b2] p",
                                      "F[\u00b9:2] p", "p BR[\u00b3] q",
                                      "X^\u0663 p", "X^1\uff12 p"])
    def test_integers_are_ascii_digits(self, text):
        """Superscripts and other non-ASCII digits are not integers (int()
        would refuse some and silently read others)."""
        with pytest.raises(ParseError, match="unexpected character"):
            fm.parse(text)

    def test_printed_400_conjuncts_read_back(self):
        text = fm.render(fm.and_all(fm.Atom(f"p{i}") for i in range(400)))
        # compared as text: dataclass == recurses past the limit here
        assert fm.render(fm.parse(text)) == text


# ======================== Rendering ========================

class TestRender:
    def test_dstit(self):
        assert fm.render(fm.Dstit("alpha", fm.Plain(fm.Atom("p")))) == \
            "[alpha dstit: p]"

    def test_and(self):
        assert fm.render(fm.And(fm.Atom("a"), fm.Atom("b"))) == "(a & b)"

    def test_bounded_release(self):
        assert fm.render(fm.BoundedRelease(3, fm.Atom("g"), fm.Atom("q"))) == \
            "g BR[3] q"

    @pytest.mark.parametrize("wrap, read", [
        (lambda ob: ob, fm.parse_obligation),
        (lambda ob: fm.ought("a", ob), fm.parse_ought),
        (lambda ob: fm.ought("a", fm.Plain(fm.Atom("w")), ob), fm.parse_ought),
    ], ids=["obligation", "ought-body", "ought-condition"])
    def test_negated_bounded_release_is_parenthesised(self, wrap, read):
        """!A over a plain BR obligation keeps the BR whole under the !;
        it reads back as the plain obligation of the negated formula."""
        waiting = fm.BoundedRelease(2, fm.Atom("p"), fm.Atom("q"))
        text = fm.render(wrap(fm.NegatedObligation(fm.Plain(waiting))))
        assert "!(p BR[2] q)" in text
        assert read(text) == wrap(fm.Plain(fm.Not(waiting)))

    def test_round_trip_random(self):
        """parse(render(x)) == x structurally, over random formulas."""
        rng = random.Random(20240817)
        for _ in range(300):
            f = random_path_formula(rng, rng.randint(0, 6),
                                    ["p", "q", "grow_a_b"],
                                    allow_quantifiers=True)
            assert fm.parse_formula(fm.render(f)) == f

    @pytest.mark.parametrize("unary", [
        fm.Not, fm.Next, lambda f: fm.NextPow(2, f), fm.Eventually,
        lambda f: fm.EventuallyBounded(1, 2, f), fm.Always, fm.ForallPaths,
        fm.ExistsPaths], ids=["not", "next", "next-pow", "eventually",
                              "eventually-bounded", "always", "forall",
                              "exists"])
    @pytest.mark.parametrize("stit", [fm.Cstit, fm.Dstit])
    def test_round_trip_stit_operands(self, unary, stit):
        """A stit bracket right after a unary operator reads back as its
        operand; after F it is not taken for a bound."""
        f = unary(stit("a", fm.Plain(fm.Atom("p"))))
        assert fm.parse_formula(fm.render(f)) == f

    def test_round_trip_oughts(self):
        rng = random.Random(7)
        for _ in range(100):
            body = fm.Plain(random_path_formula(rng, 3, ["p", "q"]))
            ob = fm.DstitOf("a", body) if rng.random() < 0.5 else body
            if rng.random() < 0.3:
                ob = fm.NegatedObligation(fm.DstitOf("a", body))
            st = fm.OughtStatement(
                ("a",) if rng.random() < 0.7 else ("a", "b"), ob,
                fm.Plain(fm.Atom("w")) if rng.random() < 0.4 else None)
            assert fm.parse(fm.render(st)) == st


# ======================== Subterms ========================

class TestChildren:
    def test_children_are_the_subterm_fields_in_order(self):
        """children(x) is x's Formula and Obligation fields, in field order,
        for one instance of every node kind."""
        p, q = fm.Atom("p"), fm.Atom("q")
        ob, cond = fm.Plain(p), fm.Plain(q)
        nodes = [p, fm.TRUE, fm.FALSE, fm.Not(p), fm.And(p, q), fm.Or(p, q),
                 fm.Implies(p, q), fm.Next(p), fm.NextPow(2, p),
                 fm.Until(p, q), fm.Release(p, q), fm.Eventually(p),
                 fm.EventuallyBounded(1, 2, p), fm.Always(p),
                 fm.BoundedRelease(3, p, q), fm.ForallPaths(p),
                 fm.ExistsPaths(p), fm.Cstit("a", ob), fm.Dstit("a", ob), ob,
                 fm.DstitOf("a", ob), fm.NegatedObligation(ob),
                 fm.ought("a", ob), fm.ought("a", ob, cond)]
        assert {type(x) for x in nodes} == {
            kind for kind in vars(fm).values()
            if isinstance(kind, type) and dataclasses.is_dataclass(kind)
            and issubclass(kind, (fm.Formula, fm.Obligation,
                                  fm.OughtStatement))}
        for x in nodes:
            fields = [getattr(x, f.name) for f in dataclasses.fields(x)]
            assert fm.children(x) == tuple(
                v for v in fields
                if isinstance(v, (fm.Formula, fm.Obligation))), x


# ======================== Compiled rows ========================

def post_order(f):
    """f's nodes, children first and left to right, without recursion."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        out.append(g)
        todo.extend(fm.children(g))
    return out[::-1]


def next_rows(rows):
    return sum(kind is fm.Next for kind, _, _ in rows)


class TestCompile:
    def test_distinct_subformulas_children_first(self):
        """One row per distinct subformula, f last, and each row's kids
        point at earlier rows; the rows decompile to f."""
        rng = random.Random(31)
        for _ in range(200):
            f = random_path_formula(rng, rng.randint(0, 5), ["p", "q"],
                                    allow_quantifiers=True,
                                    allow_bounded=False)
            rows = fm.compile(f)
            assert fm.decompile(rows) == f
            assert len(rows) == len(set(rows)) == len(set(fm.walk(f)))
            for i, (_, _, kids) in enumerate(rows):
                assert all(k < i for k in kids)

    def test_equal_subtrees_built_apart_share_a_row(self):
        p = fm.Atom("p")
        f = fm.Or(fm.Next(fm.Atom("p")), fm.And(fm.Next(fm.Atom("p")), p))
        rows = fm.compile(f)
        assert len(rows) == 4  # p, X p, X p & p, the disjunction
        left, right = rows[-1][2]
        assert rows[right][2][0] == left

    def test_stits_of_two_agents_keep_two_rows(self):
        """Equal bodies, other agents: two stit rows over one body row."""
        rows = fm.compile(fm.parse_formula("[a cstit: p] & [b cstit: p]"))
        left, right = rows[-1][2]
        assert left != right
        assert [rows[left][1], rows[right][1]] == ["a", "b"]
        assert rows[left][2] == rows[right][2]

    def test_unfolded_next_chains_share_rows(self):
        """X^2 p & X^3 p is 5 rows: the X^3 chain runs through X^2 p."""
        rows = fm.compile(fm.parse_formula("X^2 p & X^3 p"))
        assert len(rows) == 5
        left, right = rows[-1][2]
        assert rows[right] == (fm.Next, None, (left,))

    @pytest.mark.parametrize("n", range(fm.MAX_UNFOLD + 1))
    def test_bounded_operators_unfold_into_n_next_rows(self, n):
        assert next_rows(fm.compile(fm.parse_formula(f"F[0:{n}] p"))) == n
        assert next_rows(fm.compile(fm.parse_formula(f"p BR[{n}] q"))) == n

    def test_deep_chain_without_recursion(self):
        wide = fm.and_all(fm.Atom(f"p{i}") for i in range(5000))
        rows = fm.compile(wide)
        assert len(rows) == 9999 and rows[-1][0] is fm.And
        narrow = fm.and_all([fm.Atom("p")] * 5000)
        assert len(fm.compile(narrow)) == 5000


# ======================== Bounded-operator expansion ========================

class TestExpandBounded:
    def test_bounded_eventually_base(self):
        got = fm.expand_bounded(fm.parse_formula("F[0:1] p"))
        assert got == fm.Or(fm.Atom("p"), fm.Next(fm.Atom("p")))

    def test_next_pow(self):
        assert fm.expand_bounded(fm.parse_formula("X^2 p")) == \
            fm.Next(fm.Next(fm.Atom("p")))

    def test_bounded_release_zero(self):
        """With bound 0 the operator degenerates to a disjunction."""
        got = fm.expand_bounded(fm.parse_formula("p BR[0] q"))
        assert got == fm.Or(fm.Atom("p"), fm.Atom("q"))

    def test_bounded_release_is_one_recurrence(self):
        """l BR[N] r = l | (r & X (l BR[N-1] r)): N distinct next-steps,
        and N + 1 copies of each operand in the tree."""
        p, q = fm.Atom("p"), fm.Atom("q")
        assert fm.expand_bounded(fm.parse_formula("p BR[1] q")) == \
            fm.Or(p, fm.And(q, fm.Next(fm.Or(p, q))))
        for n in range(fm.MAX_UNFOLD + 1):
            got = fm.expand_bounded(fm.parse_formula(f"(p U q) BR[{n}] q"))
            nexts = {g for g in fm.walk(got) if isinstance(g, fm.Next)}
            assert len(nexts) == n
            assert fm.render(got).count("U") == n + 1

    def test_bounded_release_zero_truth_table(self):
        """The bound-0 expansion agrees with direct evaluation on every
        labeling of a one-step trace."""
        f = fm.parse_formula("p BR[0] q")
        expanded = fm.expand_bounded(f)
        labelings = [frozenset(s) for s in
                     ((), ("p",), ("q",), ("p", "q"))]
        for first in labelings:
            for second in labelings:
                word = ([first], [second])
                assert oracle.scan_eval(f, *word) == \
                    oracle.scan_eval(expanded, *word)

    @pytest.mark.parametrize("text,message", [
        ("X^65 p", "X^65 unfolds into 65 next-step obligations; compile "
                   "unfolds at most 64"),
        ("F[2:65] p", "F[2:65] unfolds into 65 "),
        ("p BR[65] q", "BR[65] unfolds into 65 "),
    ])
    def test_refused_one_past_the_cap(self, text, message):
        """One bounded operator past MAX_UNFOLD is refused unexpanded."""
        with pytest.raises(ResourceLimitError) as err:
            fm.expand_bounded(fm.parse(text))
        assert message in str(err.value)

    @staticmethod
    def assert_lassos_agree(f, seed, words=40, tableau=False):
        """eval_on_lasso of f's unfolding, and with tableau also the Buchi
        automaton of f, agree with oracle.scan_eval on seeded lassos long
        enough for every bound to reach the loop, each with its own share
        of true atoms."""
        rng = random.Random(seed)
        atoms = sorted({g.name for g in fm.walk(f) if isinstance(g, fm.Atom)})
        buchi = ltl_to_buchi(f)
        for _ in range(words):
            density = rng.random()
            stem, loop = ([frozenset(a for a in atoms
                                     if rng.random() < density)
                           for _ in range(rng.randint(lo, 12))]
                          for lo in (0, 1))
            want = oracle.scan_eval(f, stem, loop)
            assert eval_on_lasso(f, stem, loop) == want, (stem, loop)
            if tableau:
                assert buchi_accepts(buchi, stem, loop) == want, (stem, loop)

    @pytest.mark.parametrize("text,bits", [
        ("X^10 (p & F[0:7] q)", 19), ("(p BR[9] q) BR[8] r", 20),
        ("[a dstit: X^9 X^9 p]", 19)])
    def test_nested_bounds_reach_the_tableau(self, t0, text, bits):
        """Bounds that nest past MAX_UNFOLD in all are unfolded, each into
        its own next-step rows, bits elementary formulas with the atoms,
        more than the eager tableau's 16.  The tableau built on demand
        accepts their language and decides them as the oracle does."""
        ob = fm.parse(text)
        f = ob.body.formula if isinstance(ob, fm.DstitOf) else ob
        atoms = {g.name for g in fm.walk(f) if isinstance(g, fm.Atom)}
        assert next_rows(fm.compile(ob)) == bits - len(atoms)
        self.assert_lassos_agree(f, 14, words=100, tableau=True)
        if f is ob:
            ts = strip_weights(t0)
            assert Universality(ts, f).holds_from("q0") == all(
                oracle.scan_eval(f, [ts.labels[q] for q in stem],
                                 [ts.labels[q] for q in loop])
                for stem, loop in oracle.enumerate_ts_lassos(ts, 3, 3))
        else:
            assert check_ought(t0, "a", ob).holds == \
                oracle.brute_force_ought(t0, "a", ob)

    def test_shared_operand_unfolds_once_and_the_tableau_decides(self, t0):
        """One operand object in two places is unfolded once, its rows
        shared by both; the tableau built on demand accepts the language
        of the whole, 18 elementary formulas, and decides it on t0."""
        inner = fm.parse_formula("F[0:7] q")
        f = fm.Or(inner, fm.NextPow(10, inner))
        rows, inner_rows = fm.compile(f), fm.compile(inner)
        assert rows[:len(inner_rows)] == inner_rows
        assert len(rows) == len(inner_rows) + 10 + 1  # X^10, then the or
        self.assert_lassos_agree(f, 15, words=100, tableau=True)
        t0q = make_t0(root_label=("q",))
        assert check_ought(t0q, "alpha", fm.Plain(f)).holds
        assert not check_ought(t0, "alpha", fm.Plain(f)).holds

    def test_cap_restarts_under_a_quantifier_or_stit(self):
        """Bounds under a path quantifier or a stit, or side by side, are
        unfolded whenever each one is within MAX_UNFOLD."""
        n = fm.MAX_UNFOLD
        for text in [f"X^{n} A X^{n} p", f"X^{n} (E F[0:{n}] p) BR[{n}] q",
                     f"X^{n} [a cstit: X^{n} p]", f"X^{n} p & X^{n} q"]:
            fm.expand_bounded(fm.parse_formula(text))

    def test_no_bounded_nodes_remain(self):
        """Not in a formula, nor in a stit's or an obligation's body."""
        rng = random.Random(3)
        for _ in range(100):
            f = random_path_formula(rng, 4, ["p", "q"])
            ob = fm.NegatedObligation(fm.DstitOf("a", fm.Plain(f)))
            for g in (f, ob, fm.Cstit("a", ob)):
                for node in fm.walk(fm.expand_bounded(g)):
                    assert not isinstance(node, (
                        fm.NextPow, fm.EventuallyBounded, fm.BoundedRelease))

    def test_expansion_preserves_tree_semantics(self):
        """Expanded and unexpanded formulas agree at every m/h of random
        explicit models (native bounded evaluation against expansion)."""
        rng = random.Random(11)
        for _ in range(80):
            model = random_model(rng, n_agents=1)
            f = random_path_formula(rng, 3, model.atoms)
            expanded = fm.expand_bounded(f)
            for mid in model.moments:
                for hid in model.histories_through(mid):
                    assert model.satisfies(mid, hid, f) == \
                        model.satisfies(mid, hid, expanded)

    def test_expansion_preserves_lasso_semantics(self):
        rng = random.Random(12)
        atoms = ["p", "q"]
        for _ in range(150):
            f = random_path_formula(rng, 3, atoms)
            stem = [frozenset(a for a in atoms if rng.random() < .5)
                    for _ in range(rng.randint(0, 3))]
            loop = [frozenset(a for a in atoms if rng.random() < .5)
                    for _ in range(rng.randint(1, 3))]
            assert oracle.scan_eval(f, stem, loop) == \
                oracle.scan_eval(fm.expand_bounded(f), stem, loop)


# ======================== dstit rewrites ========================

class TestDstitRewrite:
    def test_idempotence(self):
        ob = fm.parse_obligation("[a dstit: [a dstit: p]]")
        assert fm.normalize_obligation(ob) == \
            fm.parse_obligation("[a dstit: p]")

    def test_refrain_refrain(self):
        ob = fm.parse_obligation("[a dstit: ![a dstit: ![a dstit: p]]]")
        assert fm.normalize_obligation(ob) == \
            fm.parse_obligation("[a dstit: p]")

    def test_agent_mismatch_untouched(self):
        ob = fm.parse_obligation("[a dstit: [b dstit: p]]")
        assert fm.normalize_obligation(ob) == ob

    def test_rewrite_preserves_model_semantics(self):
        """Rewritten obligations agree with the originals at every m/h."""
        rng = random.Random(13)
        for _ in range(60):
            model = random_model(rng, n_agents=1)
            agent = model.agents[0]
            body = fm.Plain(random_path_formula(rng, 2, model.atoms))
            stacked = fm.DstitOf(agent, fm.DstitOf(agent, body))
            refrained = fm.DstitOf(agent, fm.NegatedObligation(
                fm.DstitOf(agent, fm.NegatedObligation(
                    fm.DstitOf(agent, body)))))
            for ob in (stacked, refrained):
                rewritten = fm.normalize_obligation(ob)
                for mid in model.moments:
                    for hid in model.histories_through(mid):
                        assert model.satisfies(mid, hid, ob) == \
                            model.satisfies(mid, hid, rewritten)

    def test_normalize_folds_negations(self):
        ob = fm.NegatedObligation(fm.NegatedObligation(fm.Plain(fm.Atom("p"))))
        assert fm.normalize_obligation(ob) == fm.Plain(fm.Atom("p"))
        ob2 = fm.NegatedObligation(fm.Plain(fm.Atom("p")))
        assert fm.normalize_obligation(ob2) == fm.Plain(fm.Not(fm.Atom("p")))


def chain(links, leaf):
    """leaf under the links, outermost first: an agent names a dstit, None
    a negation."""
    ob = leaf
    for agent in reversed(links):
        ob = fm.NegatedObligation(ob) if agent is None else \
            fm.DstitOf(agent, ob)
    return ob


def outcome(func, arg):
    """What func returns for arg, or the text of the GrammarError it raises."""
    try:
        return func(arg)
    except GrammarError as exc:
        return ("GrammarError", str(exc))


class TestObligationReference:
    """The one-pass normalisation and coercions against the fixpoint and
    recursions they replace (tests/reference_obligation.py)."""

    P = fm.Atom("p")
    LEAVES = [fm.Plain(P), fm.Plain(fm.Not(P)), fm.Plain(fm.Not(fm.Not(P))),
              fm.Plain(fm.Not(fm.Not(fm.Not(P))))]

    @staticmethod
    def same_normal_form(ob):
        got = fm.normalize_obligation(ob)
        expected = reference_obligation.normalize_obligation(ob)
        assert got == expected, ob
        if expected == ob:
            assert got is ob, ob

    def test_every_short_chain(self):
        """Every chain of at most 8 links over !, [a dstit:] and [b dstit:]
        on p, !p, !!p and !!!p: 39,364 obligations."""
        count = 0
        for n in range(9):
            for links in itertools.product((None, "a", "b"), repeat=n):
                for leaf in self.LEAVES:
                    self.same_normal_form(chain(links, leaf))
                    count += 1
        assert count == 39364

    def test_random_obligations(self):
        rng = random.Random(14)
        for _ in range(20000):
            leaf = fm.Plain(random_path_formula(rng, 3, ["p", "q"],
                                                allow_quantifiers=True))
            links = [rng.choice((None, None, "a", "b"))
                     for _ in range(rng.randint(0, 10))]
            self.same_normal_form(chain(links, leaf))

    def test_random_formulas(self):
        """Up to four negations over a dstit, a cstit, a formula embedding a
        stit or a stit-free formula: formula_to_obligation and _classify
        return what the reference returns, or raise its GrammarError."""
        rng = random.Random(15)
        for _ in range(20000):
            phi = random_path_formula(rng, 2, ["p", "q"],
                                      allow_quantifiers=True)
            body = chain([rng.choice((None, "a", "b"))
                          for _ in range(rng.randint(0, 3))], fm.Plain(phi))
            stit = rng.choice((fm.Dstit, fm.Cstit))(rng.choice("ab"), body)
            f = rng.choice((
                fm.Dstit(rng.choice("ab"), body),
                fm.Cstit(rng.choice("ab"), body),
                rng.choice((fm.And(phi, stit), fm.Eventually(stit),
                            fm.Or(fm.Not(stit), phi))),
                phi))
            for _ in range(rng.randint(0, 4)):
                f = fm.Not(f)
            assert outcome(fm.formula_to_obligation, f) == \
                outcome(reference_obligation.formula_to_obligation, f), f
            assert fm._classify(f) == reference_obligation._classify(f), f

    def test_chains_of_3000_links(self):
        """No pass recurses along a chain, so 3,000 links fit in Python's
        default recursion limit; results are compared link by link, as the
        dataclass equality itself recurses."""
        dstit = fm.DstitOf("a", fm.Plain(self.P))
        negated = chain([None] * 3000, dstit)
        assert fm.normalize_obligation(negated) == dstit
        assert fm.normalize_obligation(chain([None] * 3001, self.LEAVES[0])) \
            == self.LEAVES[1]
        alternating = chain(["a", "b"] * 1500, self.LEAVES[0])
        assert fm.normalize_obligation(alternating) is alternating
        refrained = chain(["a", None] * 1500, dstit)
        assert fm.normalize_obligation(refrained) == dstit

        f = fm.obligation_to_formula(negated)
        for _ in range(3000):
            assert type(f) is fm.Not
            f = f.operand
        assert f == fm.Dstit("a", self.LEAVES[0])
        ob = fm.formula_to_obligation(fm.obligation_to_formula(negated))
        for _ in range(3000):
            assert type(ob) is fm.NegatedObligation
            ob = ob.body
        assert ob == dstit

    def test_negations_over_a_formula_are_scanned_twice(self, monkeypatch):
        calls = []
        scan = fm.contains_stit
        monkeypatch.setattr(fm, "contains_stit",
                            lambda f: calls.append(f) or scan(f))
        f = self.P
        for _ in range(2000):
            f = fm.Not(f)
        assert fm.formula_to_obligation(f).formula is f
        assert len(calls) <= 2


# ======================== NNF ========================

def recursive_nnf(f, negated=False):
    """The normal form as a recursive rewrite: the reference nnf_rows and
    compile's normal-form modes are compared against."""
    dual = {fm.And: fm.Or, fm.Or: fm.And, fm.Until: fm.Release,
            fm.Release: fm.Until}
    kind = type(f)
    if kind is fm.Atom:
        return fm.Not(f) if negated else f
    if kind in (fm.TrueFormula, fm.FalseFormula):
        return fm.FALSE if (kind is fm.TrueFormula) == negated else fm.TRUE
    if kind is fm.Not:
        return recursive_nnf(f.operand, not negated)
    if kind is fm.Implies:
        return recursive_nnf(fm.Or(fm.Not(f.left), f.right), negated)
    if kind is fm.Eventually:
        return recursive_nnf(fm.Until(fm.TRUE, f.operand), negated)
    if kind is fm.Always:
        return recursive_nnf(fm.Release(fm.FALSE, f.operand), negated)
    if kind is fm.Next:
        return fm.Next(recursive_nnf(f.operand, negated))
    return (dual[kind] if negated else kind)(
        recursive_nnf(f.left, negated), recursive_nnf(f.right, negated))


class TestNnf:
    def test_matches_the_recursive_rewrite(self):
        """The same normal form, from the reference's second pass over the
        rows as written and from compile in one walk, and its rows in the
        order a post-order walk of it meets its distinct subformulas;
        compiling f negated is compiling !f."""
        rng = random.Random(4)
        for _ in range(200):
            f = random_path_formula(rng, 4, ["p", "q"])
            assert fm.compile(f, True) == fm.compile(fm.Not(f), False)
            for g in (f, fm.Not(f)):
                want = recursive_nnf(fm.expand_bounded(g))
                seen = []
                for node in post_order(want):
                    if node not in seen:
                        seen.append(node)
                for rows in (nnf_rows(fm.compile(g)), fm.compile(g, False)):
                    assert fm.decompile(rows) == want
                    assert [fm.decompile(rows[:i + 1])
                            for i in range(len(rows))] == seen

    def test_compiles_straight_to_the_reference_normal_form(self):
        """On 2,000 seeded path formulas, bounded operators included, in
        both polarities, compile(f, negated) gives the reference's rows, so
        its language and the order the tableau meets its rows in, and no
        Implies, Eventually or Always row; negation wraps atoms only.  On
        the first 200, both polarities also mean on 100 seeded lassos each
        what the independent scan finds for f and !f."""
        rng = random.Random(21)
        atoms = ["p", "q", "r"]
        for n in range(2000):
            f = random_path_formula(rng, rng.randint(0, 5), atoms)
            for negated in (False, True):
                rows = fm.compile(f, negated)
                assert rows == reference_rows(f, negated), \
                    (fm.render(f), negated)
                for kind, _, kids in rows:
                    assert kind not in (fm.Implies, fm.Eventually, fm.Always)
                    assert kind is not fm.Not or rows[kids[0]][0] is fm.Atom
            if n < 200:
                for _ in range(100):
                    stem, loop = ([frozenset(a for a in atoms
                                             if rng.random() < .5)
                                   for _ in range(rng.randint(lo, 4))]
                                  for lo in (0, 1))
                    want = oracle.scan_eval(f, stem, loop)
                    assert eval_on_lasso(fm.compile(f, False), stem,
                                         loop) == want
                    assert eval_on_lasso(fm.compile(f, True), stem,
                                         loop) != want

    def test_quantifiers_and_stits_stay_rows(self):
        """E psi is one row over psi's normal form and A psi is !E !psi;
        a stit row keeps its body as written, under a negation when
        negated."""
        def rows_of(text, negated):
            return fm.compile(fm.parse_formula(text), negated)

        assert rows_of("!E F p", False) == rows_of("E F p", True) == (
            (fm.TrueFormula, None, ()), (fm.Atom, "p", ()),
            (fm.Until, None, (0, 1)), (fm.ExistsPaths, None, (2,)),
            (fm.Not, None, (3,)))
        assert rows_of("A G p", False) == rows_of("!E F !p", False)
        assert rows_of("A G p", True) == rows_of("E F !p", False)
        stit = fm.parse_formula("[a cstit: G p]")
        written = fm.compile(stit)
        assert fm.compile(stit, True) == written + (
            (fm.Not, None, (len(written) - 1,)),)
        assert fm.compile(stit, False) == written

    def test_negations_reach_atoms_only(self):
        rng = random.Random(5)
        for _ in range(100):
            f = fm.nnf(fm.expand_bounded(
                random_path_formula(rng, 4, ["p", "q"])))
            for node in fm.walk(f):
                if isinstance(node, fm.Not):
                    assert isinstance(node.operand, fm.Atom)
                assert not isinstance(node, (fm.Implies, fm.Eventually,
                                             fm.Always))

    def test_nnf_preserves_lasso_semantics(self):
        rng = random.Random(6)
        atoms = ["p", "q"]
        for _ in range(150):
            f = fm.expand_bounded(random_path_formula(rng, 3, atoms))
            stem = [frozenset(a for a in atoms if rng.random() < .5)
                    for _ in range(rng.randint(0, 2))]
            loop = [frozenset(a for a in atoms if rng.random() < .5)
                    for _ in range(rng.randint(1, 3))]
            assert oracle.scan_eval(f, stem, loop) == \
                oracle.scan_eval(fm.nnf(f), stem, loop)
