"""Parser, printer, bounded-operator expansion, dstit rewrites."""

import random

import pytest

from deontic_mc import formula as fm
from deontic_mc.errors import GrammarError, ParseError, ResourceLimitError
from deontic_mc.generate import random_model, random_path_formula

import oracle
import reference_parser


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

    def test_round_trip_random(self):
        """parse(render(x)) == x structurally, over random formulas."""
        rng = random.Random(20240817)
        for _ in range(300):
            f = random_path_formula(rng, rng.randint(0, 6),
                                    ["p", "q", "grow_a_b"],
                                    allow_quantifiers=True)
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
        ("X^17 p", "X^17 unfolds into 17 next-step obligations; the tableau "
                   "is capped at 16 elementary bits"),
        ("F[2:17] p", "F[2:17] unfolds into 17 "),
        ("p BR[17] q", "BR[17] unfolds into 17 "),
        ("X^10 (p & F[0:7] q)", "F[0:7] unfolds into 7 next-step "
                                "obligations inside 10 more"),
        ("(p BR[9] q) BR[8] r", "BR[9] unfolds into 9 next-step "
                                "obligations inside 8 more"),
        ("[a dstit: X^9 X^9 p]", "X^9 unfolds into 9 next-step obligations "
                                 "inside 9 more"),
    ])
    def test_refused_past_the_cap(self, text, message):
        """One bounded operator past MAX_UNFOLD, or one nested in others
        with MAX_UNFOLD obligations in all, is refused unexpanded."""
        with pytest.raises(ResourceLimitError) as err:
            fm.expand_bounded(fm.parse(text))
        assert message in str(err.value)

    def test_cap_restarts_under_a_quantifier_or_stit(self):
        """A path quantifier's or a stit's body is checked on its own, so
        the obligations around it do not count against it."""
        for text in ["X^16 A X^16 p", "X^8 (E F[0:16] p) BR[8] q",
                     "X^16 [a cstit: X^16 p]", "X^16 p & X^16 q"]:
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
        assert fm.rewrite_dstit_idempotent(ob) == \
            fm.parse_obligation("[a dstit: p]")

    def test_refrain_refrain(self):
        ob = fm.parse_obligation("[a dstit: ![a dstit: ![a dstit: p]]]")
        assert fm.rewrite_dstit_idempotent(ob) == \
            fm.parse_obligation("[a dstit: p]")

    def test_agent_mismatch_untouched(self):
        ob = fm.parse_obligation("[a dstit: [b dstit: p]]")
        assert fm.rewrite_dstit_idempotent(ob) == ob

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
                rewritten = fm.rewrite_dstit_idempotent(ob)
                for mid in model.moments:
                    for hid in model.histories_through(mid):
                        assert model.satisfies(mid, hid, ob) == \
                            model.satisfies(mid, hid, rewritten)

    def test_normalize_folds_negations(self):
        ob = fm.NegatedObligation(fm.NegatedObligation(fm.Plain(fm.Atom("p"))))
        assert fm.normalize_obligation(ob) == fm.Plain(fm.Atom("p"))
        ob2 = fm.NegatedObligation(fm.Plain(fm.Atom("p")))
        assert fm.normalize_obligation(ob2) == fm.Plain(fm.Not(fm.Atom("p")))


# ======================== NNF ========================

class TestNnf:
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
