"""Seeded CLI fuzzing: every input ends in exit 0 (holds / valid), 1
(fails / invalid) or 2 (usage, parse, model or limit error), never in an
internal error, and `mc` agrees with the brute-force oracle.

The inputs are drawn from fixed seeds, so a failure repeats: statement
texts (token soups with non-ASCII digits and huge integers, and nestings
around formula.MAX_DEPTH), random automata and models, and one-field
mutations of the `rss --export` fixtures."""

import copy
import json
import random
from fractions import Fraction

import pytest

from deontic_mc import formula as fm
from deontic_mc.automaton import save_automaton
from deontic_mc.cli import main
from deontic_mc.generate import random_automaton, random_model, random_obligation
from deontic_mc.tree_model import save_model

import oracle

# fuzzed statements name atoms the models do not declare
pytestmark = pytest.mark.filterwarnings("ignore:atom .* is not declared")


def run_clean(capsys, *argv):
    """Run the CLI; assert it kept the exit-code contract."""
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    assert code in (0, 1, 2), (argv, code)
    assert "internal error" not in out.err, (argv[:2], out.err)
    return code, out.out


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    assert main(["rss", "--export", str(directory)]) == 0
    return {p.stem: p for p in sorted(directory.glob("*.json"))}


# ======================== Statement texts ========================

_SOUP = ["(", ")", "[", "]", "!", "&", "|", "->", "U", "R", "BR[1]", "BR[",
         "X", "X^2", "X^", "F", "F[1:2]", "F[0:", "G", "A", "E", "p", "q",
         "true", "false", "O[", "alpha", "dstit", "cstit", ":", "/", ",",
         "1", "^", "²", "٣", "３", "X^¹", "F[0:²]",
         "BR[³]", "X^17", "F[2:99999999999999999999]", "BR[17]",
         "[alpha dstit:", "-", "@", "\t", "\n", "p²"]

# (opening text, closing text) of one level of nesting
_LEVELS = [("!", ""), ("X ", ""), ("G ", ""), ("F ", ""), ("A ", ""),
           ("E ", ""), ("(", ")"), ("[alpha dstit: ", "]"), ("p & ", ""),
           ("p U ", ""), ("p -> ", ""), ("p BR[0] ", ""), ("F[0:0] ", "")]


def _soup(rng):
    sep = rng.choice([" ", ""])
    return sep.join(rng.choice(_SOUP) for _ in range(rng.randint(1, 12)))


def _nested(rng):
    """A formula nested about MAX_DEPTH levels deep, mixing constructs."""
    depth = fm.MAX_DEPTH + rng.randint(-3, 3)
    levels = [rng.choice(_LEVELS) for _ in range(depth)]
    return ("".join(o for o, _ in levels) + "p"
            + "".join(c for _, c in reversed(levels)))


@pytest.mark.parametrize("draw,count", [(_soup, 250), (_nested, 12)],
                         ids=["token-soup", "deep-nesting"])
def test_statement_texts(capsys, fixtures, draw, count):
    rng = random.Random(31)
    for _ in range(count):
        text = draw(rng)
        run_clean(capsys, "check", fixtures["fig1"], "--at", 0,
                  "--formula", text)
        run_clean(capsys, "mc", fixtures["merge"], "--agent", "alpha",
                  "--ought", f"O[alpha cstit: {text}]")


# ======================== Random automata and models ========================

def test_mc_agrees_with_the_oracle(capsys, tmp_path):
    """Random automata of at most 6 states and random (conditional) oughts:
    mc's exit code is the brute-force verdict."""
    rng = random.Random(47)
    path = tmp_path / "aut.json"
    for i in range(60):
        aut = random_automaton(rng, max_states=6)
        save_automaton(aut, path)
        assert run_clean(capsys, "validate", path)[0] == 0
        ob = random_obligation(rng, "alpha", 2, ["p", "q"])
        cond = random_obligation(rng, "alpha", 1, ["p", "q"]) if i % 3 == 0 \
            else None
        statement = fm.OughtStatement(("alpha",), ob, cond)
        code, _ = run_clean(capsys, "mc", path, "--agent", "alpha",
                            "--ought", fm.render(statement))
        expected = oracle.brute_force_ought(aut, "alpha", ob, cond)
        assert code == (0 if expected else 1), fm.render(statement)


def test_random_models(capsys, tmp_path):
    rng = random.Random(53)
    path = tmp_path / "model.json"
    for _ in range(40):
        model = random_model(rng, n_agents=rng.randint(1, 2))
        save_model(model, path)
        assert run_clean(capsys, "validate", path)[0] == 0
        ob = random_obligation(rng, model.agents[0], 2, model.atoms, True)
        statement = fm.OughtStatement((model.agents[0],), ob)
        for mid in sorted(model.moments)[:3]:
            run_clean(capsys, "check", path, "--at", mid,
                      "--formula", fm.render(statement))
            run_clean(capsys, "check", path, "--at", mid,
                      "--formula", fm.render(ob))


# ======================== Mutated fixture files ========================

_REPLACEMENTS = [None, True, False, 0, -1, 7, 2 ** 70, "x", "", "*", "1/0",
                 [], {}, ["x"], [["x"]], [7], {"a": 1}, Fraction(7, 2),
                 "h1", "q0", "alpha"]


def _paths(node, prefix=()):
    """Every key path into a JSON document, containers included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutate(data, rng):
    """data with one field replaced, removed or added."""
    data = copy.deepcopy(data)
    path = rng.choice([p for p in _paths(data) if p])
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    roll = rng.random()
    if roll < 0.1:
        del parent[path[-1]]
    elif roll < 0.15 and isinstance(parent, dict):
        parent["extra"] = 1
    else:
        parent[path[-1]] = rng.choice(_REPLACEMENTS)
    return data


def _dumps(data):
    return json.dumps(data, default=float)  # Fraction(7, 2) as 3.5


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig3", "unavoidable",
                                  "merge"])
def test_mutated_fixture_files(capsys, fixtures, tmp_path, name):
    rng = random.Random(name)
    data = json.loads(fixtures[name].read_text())
    path = tmp_path / "mutated.json"
    ought = "O[alpha cstit: ![alpha dstit: !p BR[2] q] / p]"
    for _ in range(120):
        path.write_text(_dumps(_mutate(data, rng)))
        run_clean(capsys, "validate", path)
        run_clean(capsys, "check", path, "--at", 0, "--formula", ought)
        run_clean(capsys, "mc", path, "--agent", "alpha", "--ought", ought)

