"""The four workloads: seeded input generation, set-up through the program's
loaders, the checks, and their reference verdicts.

A workload object has
  ``generate(seed, inputs_dir)`` -> JSON-able inputs; input files go in
      ``inputs_dir`` and are named relative to it.  The program sees
      nothing but these inputs,
  ``setup(dm, inputs, workdir)`` -> loaded state, timed as ``setup_s``,
  ``checks(dm, state)`` -> [(check id, callable returning a verdict)],
  ``begin_pass(dm, state)`` -> fresh per-pass state, outside the timing,
  ``reference(dm, oracle, inputs, state)`` -> expected verdict per check.
"""

from __future__ import annotations

import contextlib
import copy
import importlib
import io
import json
import os
import random


class Undecided(Exception):
    """A check that ended without a verdict for a reason of its own."""

    def __init__(self, cause):
        super().__init__(cause)
        self.cause = cause


# ---------------------------------------------------------------------------
# random-small: the criterion-5 distribution through check_ought
# ---------------------------------------------------------------------------

def tableau_key(fm, f):
    """Elementary-formula count of a path formula after unfolding X^t,
    F[n:m] and BR[n] (atoms plus one per temporal subformula).  The
    benchmark's own size estimate, used only to stratify sampling."""
    temporal = set()
    atoms = set()

    def visit(g):
        if isinstance(g, fm.Atom):
            atoms.add(g.name)
        elif isinstance(g, fm.NextPow):
            temporal.update(("X", i, g.operand) for i in range(g.steps))
            visit(g.operand)
        elif isinstance(g, fm.EventuallyBounded):
            temporal.update(("X", i, g.operand) for i in range(g.hi))
            visit(g.operand)
        elif isinstance(g, fm.BoundedRelease):
            temporal.update(("L", i, g.left) for i in range(g.bound + 1))
            temporal.update(("R", i, g.right) for i in range(g.bound + 1))
            visit(g.left)
            visit(g.right)
        else:
            if isinstance(g, (fm.Next, fm.Until, fm.Release, fm.Eventually,
                              fm.Always)):
                temporal.add(g)
            for c in fm.children(g):
                visit(c)

    visit(f)
    return len(temporal) + len(atoms)


class RandomSmall:
    """Seeded ``random_automaton`` instances (<= 6 states, weights 1-5), each
    paired with a depth-3 ``random_obligation`` in all three shapes, as in
    acceptance criterion 5.

    The tableau, whose cost is heavy-tailed in the formula, is ~80% of the
    check time, so the obligations come from one fixed catalogue of
    criterion-5 draws and the seed draws the automata and the pairing;
    otherwise a few hundred checks cannot repeat across seeds.  The
    catalogue is stratified by ``tableau_key`` with quotas that follow the
    key frequencies of criterion-5 draws.  Keys above 10 (about 4% of
    draws, up to tens of seconds each) are left out: the rulebook ladder
    carries large tableaux."""

    name = "random-small"
    limit_s = 2.0
    CATALOGUE_SEED = 200900738
    QUOTAS = {0: 7, 1: 49, 2: 22, 3: 29, 4: 31, 5: 21, 6: 11, 7: 10, 8: 7,
              9: 7, 10: 6}

    def catalogue(self, fm, random_obligation):
        need = dict(self.QUOTAS)
        out = []
        rng = random.Random(self.CATALOGUE_SEED)
        while any(need.values()):
            ob = random_obligation(rng, "alpha", 3, ["p", "q"])
            key = tableau_key(fm, fm.obligation_to_formula(ob))
            if need.get(key, 0) > 0:
                need[key] -= 1
                out.append(fm.render(ob))
        return out

    def generate(self, seed, inputs_dir):
        from deontic_mc import formula as fm
        from deontic_mc.generate import random_automaton, random_obligation
        obligations = self.catalogue(fm, random_obligation)
        rng = random.Random(seed)
        rng.shuffle(obligations)
        return [{"automaton": random_automaton(
                    rng, max_states=6, max_first_actions=3,
                    weights=(1, 2, 3, 4, 5)).to_json(),
                 "obligation": ob} for ob in obligations]

    def setup(self, dm, inputs, workdir):
        return [(dm.StitAutomaton.from_json(item["automaton"]),
                 dm.formula.parse_obligation(item["obligation"]))
                for item in inputs]

    def checks(self, dm, state):
        mc = dm.mc
        return [(f"rs{i}", lambda a=aut, o=ob: mc.check_ought(a, "alpha", o).holds)
                for i, (aut, ob) in enumerate(state)]

    def begin_pass(self, dm, state):
        pass

    def reference(self, dm, oracle, inputs, state):
        return [oracle.brute_force_ought(aut, "alpha", ob) for aut, ob in state]


# ---------------------------------------------------------------------------
# rulebook: RSS-style statements through the CLI, in-process
# ---------------------------------------------------------------------------

def _scenario(rng, waits):
    """Small lane-merge scenario: alpha wants to merge and either pushes in
    (go) or waits through `waits` waiting states for a gap (granted), then
    proceeds into a lane-keeping loop.  The structure is fixed per variant
    and the seed draws the weights, within ranges that keep both first
    actions optimal (pushing in is worth b, waiting at most a >= b)."""
    b = rng.randint(2, 4)
    ws = [f"w{i}" for i in range(waits)]
    tr = [("q0", "wait", ws[0], rng.randint(b, 4)), ("q0", "go", "p", b)]
    for i, w in enumerate(ws):
        tr.append((w, "wait", ws[min(i + 1, waits - 1)], rng.randint(1, 2)))
        tr.append((w, "gap", "g", rng.randint(5, 9)))
    tr += [("g", "go", "p", rng.randint(5, 9)),
           ("g", "wait", ws[0], rng.randint(1, 2)),
           ("p", "stay", "p", rng.randint(5, 9))]
    labels = {"q0": ["w_alpha"], "g": ["g_alpha", "w_alpha"], "p": ["p_alpha"]}
    labels.update({w: ["w_alpha"] for w in ws})
    return {
        "states": ["q0"] + ws + ["g", "p"], "init": "q0", "final": [],
        "actions": ["wait", "go", "gap", "stay"],
        "transitions": [{"from": s, "action": a, "to": d, "weight": str(w)}
                        for s, a, d, w in tr],
        "labels": labels, "accumulation": "min",
    }


def _merge():
    return {
        "states": ["q0", "q1"], "init": "q0", "final": [],
        "actions": ["wait", "go", "stay"],
        "transitions": [
            {"from": "q0", "action": "wait", "to": "q0", "weight": "1"},
            {"from": "q0", "action": "go", "to": "q1", "weight": "5"},
            {"from": "q1", "action": "stay", "to": "q1", "weight": "5"}],
        "labels": {"q0": ["w_alpha"], "q1": ["p_alpha"]},
        "accumulation": "min",
    }


def rulebook_statements():
    waiting = "!p_alpha BR[{n}] g_alpha"
    out = []
    for n in (1, 2, 3):  # rss6: do not wait forever for a perfect gap
        out.append(f"O[alpha cstit: ![alpha dstit: {waiting.format(n=n)}] "
                   f"/ w_alpha]")
    for n in (2, 3):
        out.append(f"O[alpha cstit: ![alpha dstit: {waiting.format(n=n)}]]")
        out.append(f"O[alpha cstit: [alpha dstit: F[0:{n}] p_alpha] / w_alpha]")
    for n in (2, 4, 6, 8):
        out.append(f"O[alpha cstit: F[0:{n}] p_alpha]")
        out.append(f"O[alpha cstit: X^{n} p_alpha]")
    for n in (3, 6):
        out.append(f"O[alpha cstit: F[0:{n}] p_alpha / w_alpha]")
        out.append(f"O[alpha cstit: [alpha dstit: X^{n} p_alpha]]")
    out.append("O[alpha cstit: G (!g_alpha -> !p_alpha)]")
    out.append("O[alpha cstit: G (!g_alpha -> !p_alpha) / w_alpha]")
    return out


class Rulebook:
    """Fixed RSS-style statements (the rss6 BR[n] ladder, F[0:n] and X^n
    rules, conditional and unconditional, in all three obligation shapes)
    on the merge fixture and four seeded scenario automata (one to three
    waiting states), each check one in-process
    ``deontic_mc.cli.main(["mc", ..., "--format", "machine"])``."""

    name = "rulebook"
    limit_s = 8.0

    def generate(self, seed, inputs_dir):
        rng = random.Random(seed)
        automata = {"merge": _merge()}
        for i, waits in enumerate((1, 2, 3, 2)):
            automata[f"scenario{i}"] = _scenario(rng, waits)
        return {"automata": automata, "statements": rulebook_statements()}

    def setup(self, dm, inputs, workdir):
        # each re-import leaves one typing.Union (rss.Fixture) in typing's
        # cache, so only the workload that drives the CLI imports it
        importlib.import_module("deontic_mc.cli")
        paths = {}
        for name, data in inputs["automata"].items():
            path = os.path.join(workdir, f"{name}.json")
            dm.automaton.save_automaton(dm.StitAutomaton.from_json(data), path)
            paths[name] = path
        return paths

    def checks(self, dm, state):
        cli = dm.cli
        out = []
        for name, path in state.items():
            for j, text in enumerate(rulebook_statements()):
                argv = ["--format", "machine", "mc", path, "--agent", "alpha",
                        "--ought", text]
                out.append((f"{name}/{j}",
                            lambda argv=argv: _run_cli(cli, argv)))
        return out

    def begin_pass(self, dm, state):
        pass

    def reference(self, dm, oracle, inputs, state):
        fm = dm.formula
        from reference import brute_conditional_ought
        out = []
        for name, data in inputs["automata"].items():
            aut = dm.StitAutomaton.from_json(data)
            for text in rulebook_statements():
                st = fm.parse_ought(text)
                if st.condition is None:
                    out.append(oracle.brute_force_ought(aut, "alpha", st.body))
                else:
                    out.append(brute_conditional_ought(
                        oracle, fm, aut, "alpha", st.body, st.condition))
        return out


def _run_cli(cli, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code == 2:
        raise Undecided("exit_2")
    holds = json.loads(stdout.getvalue())["result"]["holds"]
    if code != (0 if holds else 1):
        raise AssertionError(f"exit code {code} disagrees with holds={holds}")
    return holds


# ---------------------------------------------------------------------------
# wide: large weighted automata, first phase dominated
# ---------------------------------------------------------------------------

WIDE_OBLIGATIONS = (
    ("plain", "G", ("p",)), ("plain", "F", ("q",)), ("plain", "F", ("r",)),
    ("plain", "G", ("p", "q")), ("plain", "GF", ("q",)),
    ("dstit", "G", ("p",)), ("not_dstit", "F", ("q",)),
    ("dstit", "F", ("r",)),
)


def wide_text(obligation):
    shape, op, atoms = obligation
    prop = " | ".join(atoms)
    prop = f"({prop})" if len(atoms) > 1 else prop
    phi = {"G": f"G {prop}", "F": f"F {prop}", "GF": f"G F {prop}"}[op]
    if shape == "plain":
        return phi
    dstit = f"[alpha dstit: {phi}]"
    return dstit if shape == "dstit" else f"!{dstit}"


def _wide_automaton(rng, index, region_size, top):
    """Three closed regions behind first actions K1..K3.  In each region a
    backbone cycle through every state carries weights >= h with one edge
    at exactly h, and the extra edges weigh less than h, so the maximin of
    K_i is h by construction.  In odd-indexed automata region 3 weighs at
    least top - 8 everywhere and dominates the other two."""
    states = ["q0"]
    transitions = []
    labels = {"q0": ["p", "q"]}
    for k in range(3):
        names = [f"r{k}s{i}" for i in range(region_size)]
        states += names
        safe = k == 2 and index % 2 == 1
        h = top - 3 if safe else top - 10 - 10 * k
        low = top - 8 if safe else 1
        transitions.append(("q0", f"K{k + 1}", names[0], top))
        pinned = rng.randrange(region_size)
        flawed = rng.random() < 0.5
        for i, s in enumerate(names):
            nxt = names[(i + 1) % region_size]
            w = h if i == pinned else rng.randint(h, top)
            transitions.append((s, "a", nxt, w))
            other = rng.choice(names)
            if other not in (s, nxt):
                w2 = low if i == (pinned + 1) % region_size else \
                    rng.randint(low, h - 1)
                transitions.append((s, "b", other, w2))
            lab = []
            if not (flawed and i == pinned):
                lab.append("p")
            if rng.random() < (0.9 if k != 1 else 0.4):
                lab.append("q")
            if i == 0:
                lab.append("r")
            labels[s] = lab
    return {
        "states": states, "init": "q0", "final": [],
        "actions": ["K1", "K2", "K3", "a", "b"],
        "transitions": [{"from": s, "action": a, "to": d, "weight": str(w)}
                        for s, a, d, w in transitions],
        "labels": labels, "accumulation": "min",
    }


class Wide:
    """Fixed-size seeded automata (3 x 340 states, 300 distinct weights),
    loaded from JSON at set-up and checked through ``check_ought`` with
    short G/F/dstit obligations."""

    name = "wide"
    limit_s = 5.0
    AUTOMATA = 5
    REGION = 340
    TOP = 300

    def generate(self, seed, inputs_dir):
        rng = random.Random(seed)
        names = []
        for i in range(self.AUTOMATA):
            data = _wide_automaton(rng, i, self.REGION, self.TOP)
            names.append(f"wide{i}.json")
            with open(os.path.join(inputs_dir, names[-1]), "w",
                      encoding="utf-8") as fp:
                json.dump(data, fp)
        return {"automata": names,
                "obligations": [wide_text(o) for o in WIDE_OBLIGATIONS]}

    def setup(self, dm, inputs, workdir):
        paths = [os.path.join(workdir, "inputs", name)
                 for name in inputs["automata"]]
        automata = [dm.load_automaton(p) for p in paths]
        obligations = [dm.formula.parse_obligation(t)
                       for t in inputs["obligations"]]
        return automata, obligations, paths

    def checks(self, dm, state):
        mc = dm.mc
        automata, obligations, _ = state
        return [(f"wide{i}/{j}",
                 lambda a=aut, o=ob: mc.check_ought(a, "alpha", o).holds)
                for i, aut in enumerate(automata)
                for j, ob in enumerate(obligations)]

    def begin_pass(self, dm, state):
        pass

    def reference(self, dm, oracle, inputs, state):
        from reference import wide_ought
        out = []
        for path in state[2]:
            with open(path, encoding="utf-8") as fp:
                data = json.load(fp)
            out.extend(wide_ought(data, o) for o in WIDE_OBLIGATIONS)
        return out


# ---------------------------------------------------------------------------
# explicit: explicit models through tree_model
# ---------------------------------------------------------------------------

def _binary_automaton(rng, n_states=16):
    """Every state has two successors under two actions, so depth d unrolls
    to a full binary tree of 2^d histories with a two-way choice at every
    inner moment; each atom labels exactly half of the states."""
    states = [f"q{i}" for i in range(n_states)]
    tr = []
    for s in states:
        a, b = rng.sample(states, 2)
        tr.append((s, "x", a, rng.randint(1, 9)))
        tr.append((s, "y", b, rng.randint(1, 9)))
    labels = {s: [] for s in states}
    for atom in ("p", "q"):
        for s in rng.sample(states, n_states // 2):
            labels[s].append(atom)
    return {
        "states": states, "init": "q0", "final": [], "actions": ["x", "y"],
        "transitions": [{"from": s, "action": a, "to": d, "weight": str(w)}
                        for s, a, d, w in tr],
        "labels": labels, "accumulation": "min",
    }


EXPLICIT_STATEMENTS = (
    "O[{a} cstit: F p]", "O[{a} cstit: G q / p]", "O[{a} cstit: q U p]",
    "O[{a} cstit: F p & (q U p)]", "O[{a} cstit: ![{a} dstit: G q]]",
    "[{a} cstit: X p]", "[{a} dstit: F q]",
)

# the paper's worked figures: (fixture, moment, history, statement, answer)
FIGURE_CHECKS = (
    ("fig1", 0, "h5", "[alpha cstit: A]", True),
    ("fig1", 0, "h1", "[alpha cstit: A]", False),
    ("fig1", 0, "h5", "O[alpha cstit: A]", True),
    ("fig1", 1, "h1", "O[alpha cstit: A]", False),
    ("fig1", 0, "h5", "[alpha dstit: A]", True),
    ("fig2", 0, "ha", "O[alpha cstit: (A !p) & chi]", True),
    ("fig2", 5, "h0", "O[alpha cstit: F[0:2] p]", True),
    ("fig2", 5, "h0", "O[alpha cstit: F[0:1] p]", False),
    ("fig2", 0, "ha", "O[alpha cstit: E F[1:2] p]", False),
    ("fig3", 0, "htilde",
     "O[alpha cstit: ![alpha dstit: !p_alpha BR[2] g_alpha] / w_alpha]", True),
    ("fig3", 1, "hgood", "O[alpha cstit: G (!g_alpha -> !p_alpha)]", True),
)


class Explicit:
    """Explicit models: eight automata unrolled at set-up to 256 histories
    each, twelve theorem-suite ``random_model`` draws and the
    paper's figures 1-3, loaded through ``load_model``.  Each model is
    validated, then checked with fixed ought, conditional-ought and
    cstit/dstit statements at the root and at later moments."""

    name = "explicit"
    limit_s = 5.0
    DEPTHS = (8,) * 8
    RANDOM_MODELS = 12

    def generate(self, seed, inputs_dir):
        from deontic_mc import rss
        from deontic_mc.generate import random_model
        rng = random.Random(seed)
        unrolled = []
        for i, depth in enumerate(self.DEPTHS):
            name = f"aut{i}.json"
            with open(os.path.join(inputs_dir, name), "w",
                      encoding="utf-8") as fp:
                json.dump(_binary_automaton(rng), fp)
            unrolled.append({"file": name, "depth": depth})
        models = []
        for i in range(self.RANDOM_MODELS):
            mrng = random.Random(seed * 1_000_003 + i)
            model = random_model(mrng, max_depth=3, max_histories=6,
                                 n_agents=mrng.randint(1, 2),
                                 atoms=("p", "q", "z"), never_label=("z",))
            models.append(("random", model))
        for name in ("fig1", "fig2", "fig3"):
            models.append((name, getattr(rss, f"{name}_model")()))
        files = []
        for i, (name, model) in enumerate(models):
            file = f"model{i}.json"
            with open(os.path.join(inputs_dir, file), "w",
                      encoding="utf-8") as fp:
                json.dump(model.to_json(), fp)
            files.append({"name": name, "file": file})
        return {"unrolled": unrolled, "models": files}

    def setup(self, dm, inputs, workdir):
        models = []
        for u in inputs["unrolled"]:
            aut = dm.load_automaton(os.path.join(workdir, "inputs", u["file"]))
            models.append(("unrolled", dm.automaton.unroll(aut, u["depth"])))
        for f in inputs["models"]:
            models.append((f["name"], dm.load_model(
                os.path.join(workdir, "inputs", f["file"]))))
        return {"pristine": models, "live": None,
                "statements": [self._statements(dm, n, m) for n, m in models]}

    @staticmethod
    def _statements(dm, name, model):
        """(moment, history, text) per check on this model."""
        if name.startswith("fig"):
            return [(m, h, t) for fig, m, h, t, _ in FIGURE_CHECKS if fig == name]
        agent = model.agents[0]
        later = max((m for m in sorted(model.moments)
                     if model.moments[m].depth == 1),
                    key=lambda m: len(model.histories_through(m)))
        moments = [0, later]
        return [(m, sorted(model.histories_through(m))[0], t.format(a=agent))
                for m in moments for t in EXPLICIT_STATEMENTS]

    def checks(self, dm, state):
        parse = dm.formula.parse
        out = []
        for i, stmts in enumerate(state["statements"]):
            out.append((f"model{i}/validate",
                        lambda i=i: state["live"][i].validate() == []))
            for j, (mid, hid, text) in enumerate(stmts):
                st = parse(text)
                out.append((f"model{i}/{j}",
                            lambda i=i, m=mid, h=hid, s=st:
                            state["live"][i].satisfies(m, h, s)))
        return out

    def begin_pass(self, dm, state):
        # a fresh copy per pass, so no pass reads another's _sat cache
        state["live"] = [copy.deepcopy(m) for _, m in state["pristine"]]

    def reference(self, dm, oracle, inputs, state):
        from reference import explicit_invariants
        fm = dm.formula
        answers = {(fig, m, h, t): a for fig, m, h, t, a in FIGURE_CHECKS}
        out = []
        for (name, model), stmts in zip(state["pristine"], state["statements"]):
            fresh = copy.deepcopy(model)
            verdicts, problems = explicit_invariants(fresh, fm, stmts)
            if problems:
                raise AssertionError(f"{name}: " + "; ".join(problems))
            out.append(True)  # valid by construction
            for mid, hid, text in stmts:
                v = verdicts[(mid, hid, text)]
                expected = answers.get((name, mid, hid, text), v)
                if v != expected:
                    raise AssertionError(
                        f"{name}: {text} at {mid} is {v}, the paper says "
                        f"{expected}")
                out.append(expected)
        return out


WORKLOADS = {w.name: w for w in (RandomSmall(), Rulebook(), Wide(), Explicit())}
