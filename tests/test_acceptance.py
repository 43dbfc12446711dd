"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines and
timings.  Tolerances and trial counts are fixed here, not configurable.
"""

import random
import time

from deontic_mc import formula as fm
from deontic_mc import rss
from deontic_mc.automaton import (
    StitAutomaton,
    extremal_values,
    prime_automaton,
    restrict_first_action,
    unroll,
)
from deontic_mc.generate import (
    random_automaton,
    random_model,
    random_obligation,
    random_path_formula,
)
from deontic_mc.mc import check_ought
from deontic_mc.tree_model import check_inference_condition

import oracle
from reference_traces import bounded_traces


def report(number, name, elapsed, ok=True):
    print(f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.2f}s)")


def test_criterion_01_fig1_caption_suite(fig1):
    started = time.perf_counter()
    assert fig1.histories_through(0) == frozenset(
        {"h1", "h2", "h3", "h4", "h5", "h6"})
    assert fig1.histories_through(1) == frozenset({"h1", "h2", "h3", "h4"})
    assert fig1.choice_of("alpha", 0, "h5") == frozenset({"h5", "h6"})
    assert fig1.choice_of("alpha", 1, "h2") == frozenset({"h2"})
    assert fig1.satisfies(0, "h5", fm.parse_formula("[alpha cstit: A]"))
    assert not fig1.satisfies(0, "h1", fm.parse_formula("[alpha cstit: A]"))
    assert set(fig1.optimal_actions("alpha", 0).actions) == {
        frozenset({"h5", "h6"})}
    assert fig1.satisfies(0, "h5", fm.parse("O[alpha cstit: A]"))
    later = fig1.optimal_actions("alpha", 1).actions
    assert set(later) == {frozenset({"h2"}), frozenset({"h3", "h4"})}
    covered = frozenset({"h2"}) | frozenset({"h3", "h4"})
    for atom in fig1.atoms:
        assert not covered <= fig1.extension(1, fm.Plain(fm.Atom(atom)))
        assert not fig1.satisfies(1, "h1",
                                  fm.ought("alpha", fm.Plain(fm.Atom(atom))))
    assert fig1.satisfies(0, "h5", fm.parse_formula("[alpha dstit: A]"))
    assert fig1.extension(0, fm.Plain(fm.Atom("A"))) == frozenset(
        {"h1", "h2", "h3", "h5", "h6"})
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, "Fig 1 caption suite", elapsed)


def test_criterion_02_fig2_suite(fig2):
    started = time.perf_counter()
    assert fig2.satisfies(0, "ha", fm.parse("O[alpha cstit: (A !p) & chi]"))
    assert fig2.satisfies(5, "h0", fm.parse("O[alpha cstit: F[0:2] p]"))
    assert not fig2.satisfies(5, "h0", fm.parse("O[alpha cstit: F[0:1] p]"))
    assert not fig2.satisfies(0, "ha", fm.parse("O[alpha cstit: E F[1:2] p]"))
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, "Fig 2 obligations suite", elapsed)


def test_criterion_03_theorem_suites():
    started = time.perf_counter()
    trials = 1000
    violations = {"force-others": 0, "idempotence": 0, "refrain-refrain": 0,
                  "history-independence": 0, "conjunction": 0,
                  "optimal-nonempty": 0}
    force_others_premises = 0

    for i in range(trials):
        rng = random.Random(1_000_000 + i)
        model = random_model(rng, max_depth=3, max_histories=6,
                             n_agents=rng.randint(1, 2),
                             atoms=("p", "q", "z"), never_label=("z",))
        agent = model.agents[0]
        mid = rng.choice(sorted(model.moments))
        hs = sorted(model.histories_through(mid))
        h = hs[0]

        # Force-others: O[a: A|B] with |A| empty implies O[a: B], via the
        # union identity for extensions.
        a = random_path_formula(rng, 1, ["p", "z"])
        b = random_path_formula(rng, 2, ["p", "q"])
        ext_a = model.extension(mid, fm.Plain(a))
        ext_b = model.extension(mid, fm.Plain(b))
        if model.extension(mid, fm.Plain(fm.Or(a, b))) != ext_a | ext_b:
            violations["force-others"] += 1
        elif not ext_a:
            force_others_premises += 1
            premise = model.satisfies(mid, h,
                                      fm.ought(agent, fm.Plain(fm.Or(a, b))))
            if premise and not model.satisfies(mid, h,
                                               fm.ought(agent, fm.Plain(b))):
                violations["force-others"] += 1

        # dstit idempotence and refrain-refrain at one random pair
        body = fm.Plain(random_path_formula(rng, 2, ["p", "q"]))
        once = fm.DstitOf(agent, body)
        twice = fm.DstitOf(agent, once)
        thrice = fm.DstitOf(agent, fm.NegatedObligation(
            fm.DstitOf(agent, fm.NegatedObligation(once))))
        for h2 in hs:
            if model.satisfies(mid, h2, twice) != model.satisfies(mid, h2, once):
                violations["idempotence"] += 1
            if model.satisfies(mid, h2, thrice) != model.satisfies(mid, h2, once):
                violations["refrain-refrain"] += 1

        # ought history-independence
        ought_b = fm.ought(agent, fm.Plain(b))
        answers = {model.satisfies(mid, h2, ought_b) for h2 in hs}
        if len(answers) != 1:
            violations["history-independence"] += 1

        # conjunction distribution
        both = (model.satisfies(mid, h, fm.ought(agent, fm.Plain(a)))
                and model.satisfies(mid, h, fm.ought(agent, fm.Plain(b))))
        joint = model.satisfies(mid, h,
                                fm.ought(agent, fm.Plain(fm.And(a, b))))
        if both != joint:
            violations["conjunction"] += 1

        # optimal non-emptiness everywhere
        for ag in model.agents:
            for m2 in model.moments:
                if not model.optimal_actions(ag, m2).actions:
                    violations["optimal-nonempty"] += 1

    elapsed = time.perf_counter() - started
    assert violations == {k: 0 for k in violations}, violations
    assert force_others_premises > 50
    assert elapsed < 60.0
    report(3, f"theorem suites ({trials} models each, "
              f"{force_others_premises} force-others premises)", elapsed)


def test_criterion_04_rss1_dichotomy(unavoidable):
    started = time.perf_counter()
    naive, refined = rss.rss1("alpha", fm.Atom("collision"))
    h = sorted(unavoidable.histories_through(0))[0]
    assert not unavoidable.satisfies(0, h, naive)
    assert unavoidable.satisfies(0, h, refined)
    report(4, "RSS1 naive/refined dichotomy", time.perf_counter() - started)


def test_criterion_05_algorithm_oracle_equivalence():
    started = time.perf_counter()
    trials = 500
    disagreements = []
    for i in range(trials):
        rng = random.Random(5_000_000 + i)
        aut = random_automaton(rng, max_states=6, max_first_actions=3,
                               weights=(1, 2, 3, 4, 5))
        ob = random_obligation(rng, "alpha", 3, ["p", "q"])
        algo = check_ought(aut, "alpha", ob).holds
        brute = oracle.brute_force_ought(aut, "alpha", ob)
        if algo != brute:
            disagreements.append(i)
    elapsed = time.perf_counter() - started
    assert disagreements == []
    assert elapsed < 120.0
    report(5, f"algorithm/oracle equivalence ({trials} trials)", elapsed)


def test_criterion_06_extremal_values():
    started = time.perf_counter()
    trials = 500
    for i in range(trials):
        rng = random.Random(6_000_000 + i)
        aut = random_automaton(rng)
        iv = extremal_values(aut)
        lo, hi = oracle.brute_extremal(aut)
        assert (iv.lo, iv.hi) == (lo, hi), i
    # regression: the maximum reachable weight over-approximates the top value
    aut = StitAutomaton(
        ["q0", "q1", "q2"], "q0", ["K", "s"], [],
        [("q0", "K", "q1", 10), ("q1", "s", "q1", 1),
         ("q0", "K", "q2", 2), ("q2", "s", "q2", 3)], {})
    iv = extremal_values(aut)
    naive_claim = max(t.weight for t in aut.transitions)
    assert iv.hi == 2 and naive_claim == 10 and iv.hi != naive_claim
    elapsed = time.perf_counter() - started
    report(6, f"extremal bottleneck values ({trials} trials + regression)",
           elapsed)


def test_criterion_07_unroll_validates():
    started = time.perf_counter()
    trials = 200
    for i in range(trials):
        rng = random.Random(7_000_000 + i)
        aut = random_automaton(rng, max_states=4)
        depth = rng.randint(1, 4)
        assert unroll(aut, depth).validate() == [], i
    elapsed = time.perf_counter() - started
    report(7, f"unrolled automata satisfy the model axioms ({trials} trials)",
           elapsed)


def test_criterion_08_prime_trace_equality():
    started = time.perf_counter()
    trials = 200
    for i in range(trials):
        rng = random.Random(8_000_000 + i)
        aut = random_automaton(rng, max_states=4)
        action = rng.choice(aut.first_actions())
        primed = prime_automaton(restrict_first_action(aut, action), aut)
        assert bounded_traces(primed, 5) == \
            bounded_traces(aut, 5, first_action=action), i
    elapsed = time.perf_counter() - started
    report(8, f"primed automata keep exactly the first-action traces "
              f"({trials} trials)", elapsed)


def test_criterion_09_fig3_inference(fig3):
    started = time.perf_counter()
    ok, witnesses = check_inference_condition(fig3, "alpha", 0,
                                              "g_alpha", "p_alpha")
    assert ok and witnesses
    assert fig3.satisfies(0, "htilde", rss.rss6("alpha", 2))
    _, _, later = witnesses[0]
    assert fig3.satisfies(later, "hgood", rss.rss3(["alpha"]).prohib[0])
    report(9, "fig3 structure-inference condition and its obligations",
           time.perf_counter() - started)


def _family_automaton(m):
    """m first actions, each through its own entry state, into one fixed
    three-state cycle (every interval ties, so all actions get checked)."""
    states = ["q0", "a", "b", "c"] + [f"e{i + 1}" for i in range(m)]
    transitions = []
    for i in range(m):
        transitions.append(("q0", f"K{i + 1}", f"e{i + 1}", 1))
        transitions.append((f"e{i + 1}", "s", "a", 1))
    transitions += [("a", "s", "b", 1), ("b", "s", "c", 1), ("c", "s", "a", 1)]
    labels = {q: {"p"} for q in states}
    return StitAutomaton(states, "q0", [f"K{i + 1}" for i in range(m)] + ["s"],
                         [], transitions, labels)


def _fastest_checks(sizes, ob, rounds=7):
    """Per size m, the fastest of several checks, each on a freshly built
    family automaton, so that every sample includes the first phase (a
    second check on the same automaton reuses it).  Each round times every
    size once, so a change in the machine's speed meets all sizes alike."""
    best = dict.fromkeys(sizes, float("inf"))
    for _ in range(rounds):
        for m in sizes:
            aut = _family_automaton(m)
            t0 = time.perf_counter()
            check_ought(aut, "alpha", ob)
            best[m] = min(best[m], time.perf_counter() - t0)
    return best


def test_criterion_10_linear_complexity_shape():
    started = time.perf_counter()
    ob = fm.parse_obligation("G p")
    sizes = range(8, 65, 8)
    _fastest_checks(sizes, ob, rounds=1)  # warm caches
    times = _fastest_checks(sizes, ob)
    t8, t16 = times[8], times[16]
    slope = (t16 - t8) / 8
    for m in sizes[2:]:
        predicted = t8 + slope * (m - 8)
        bound = 2 * max(predicted, t8)
        assert times[m] <= bound, (
            f"m={m}: {times[m]:.4f}s exceeds 2x linear extrapolation "
            f"{bound:.4f}s (t8={t8:.4f}, t16={t16:.4f})")
    elapsed = time.perf_counter() - started
    report(10, "per-first-action cost stays within 2x linear growth", elapsed)
