"""Reference verdicts that do not come from the checker under test.

* random-small and unconditional rulebook statements: the lasso brute force
  ``tests/oracle.brute_force_ought``.
* conditional rulebook statements: ``brute_conditional_ought`` below, built
  from the same oracle's lasso enumeration and scan evaluation.
* wide: ``wide_ought`` below, a direct graph computation of the maximin
  intervals (threshold search by peeling dead ends) and of G/F/GF
  guarantees, with no tableau and no product.
* explicit: the paper's answers for figures 1 to 3, plus theorem-suite
  invariants checked on every model (see ``explicit_invariants``).
"""

from __future__ import annotations

import bisect


def brute_conditional_ought(oracle, fm, aut, agent, obligation, condition):
    """Conditional dominance ought on the enumerated lassos: the optimal
    first actions that guarantee the condition must guarantee the
    obligation; with none, the ought holds vacuously."""
    cells: dict[str, list] = {}
    for stem, loop in oracle.enumerate_lassos(aut):
        first = (stem[0] if stem else loop[0]).action
        cells.setdefault(first, []).append(
            (oracle.lasso_value(stem, loop), oracle.lasso_word(aut, stem, loop)))

    def sat(phi, word):
        return oracle.scan_eval(phi, word[0], word[1])

    def guarantees(action, ob):
        if isinstance(ob, fm.Plain):
            return all(sat(ob.formula, w) for _, w in cells[action])
        if isinstance(ob, fm.DstitOf):
            phi = ob.body.formula
            forced = all(sat(phi, w) for _, w in cells[action])
            avoidable = any(not sat(phi, w)
                            for acts in cells.values() for _, w in acts)
            return forced and avoidable
        if isinstance(ob, fm.NegatedObligation):
            return not guarantees(action, ob.body)
        raise TypeError(f"bad obligation {type(ob).__name__}")

    def dominated(action):
        hi = max(v for v, _ in cells[action])
        return any(min(v for v, _ in cells[o]) > hi for o in cells if o != action)

    ob = fm.normalize_obligation(obligation)
    cond = fm.normalize_obligation(condition)
    retained = [a for a in cells if not dominated(a) and guarantees(a, cond)]
    return all(guarantees(a, ob) for a in retained)


# ---------------------------------------------------------------------------
# wide: graph reference on plain dicts (the generated JSON, not the program's
# objects)
# ---------------------------------------------------------------------------

def _survivors(nodes, succ):
    """Nodes with an infinite path inside `nodes`: peel dead ends."""
    nodes = set(nodes)
    out_deg = {q: sum(1 for d in succ[q] if d in nodes) for q in nodes}
    pred: dict = {q: [] for q in nodes}
    for q in nodes:
        for d in succ[q]:
            if d in nodes:
                pred[d].append(q)
    dead = [q for q in nodes if out_deg[q] == 0]
    alive = set(nodes)
    while dead:
        q = dead.pop()
        alive.discard(q)
        for p in pred[q]:
            out_deg[p] -= 1
            if out_deg[p] == 0:
                dead.append(p)
    return alive


def _reach(starts, succ):
    seen = set(starts)
    stack = list(starts)
    while stack:
        q = stack.pop()
        for d in succ[q]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def wide_ought(data, obligation):
    """Verdict of the root ought on a generated wide automaton.

    `obligation` is (shape, op, atoms) with shape in plain/dstit/not_dstit,
    op in G/F/GF and the formula's propositional part a disjunction of the
    listed atoms."""
    shape, op, atoms = obligation
    init = data["init"]
    succ = {q: [] for q in data["states"]}
    edges = []
    for t in data["transitions"]:
        w = int(t["weight"])
        succ[t["from"]].append(t["to"])
        edges.append((t["from"], t["to"], w))
    good = {q for q, labs in data["labels"].items() if set(labs) & set(atoms)}
    firsts = sorted({t["action"] for t in data["transitions"]
                     if t["from"] == init})
    weights = sorted({w for _, _, w in edges})

    def infinite_from(targets, threshold):
        kept = {q: [d for (s, d, w) in edges_by_src[q] if w >= threshold]
                for q in succ}
        alive = _survivors(succ.keys(), kept)
        return any(t in alive for t in targets)

    edges_by_src = {q: [] for q in succ}
    for e in edges:
        edges_by_src[e[0]].append(e)

    intervals = {}
    forced = {}
    for k in firsts:
        k_edges = [(d, int(t["weight"])) for t in data["transitions"]
                   if t["from"] == init and t["action"] == k
                   for d in [t["to"]]]
        after = _reach([d for d, _ in k_edges], succ)
        lo = min([w for _, w in k_edges]
                 + [w for s, _, w in edges if s in after])
        hi = None
        for d, w in k_edges:
            # largest threshold at which d still has an infinite path
            i = bisect.bisect_right(weights, w) - 1
            lo_i, hi_i = 0, i
            best = None
            while lo_i <= hi_i:
                mid = (lo_i + hi_i) // 2
                if infinite_from([d], weights[mid]):
                    best = weights[mid]
                    lo_i = mid + 1
                else:
                    hi_i = mid - 1
            if best is not None and (hi is None or best > hi):
                hi = best
        intervals[k] = (lo, hi)
        visited = after | {init}
        if op == "G":
            ok = visited <= good
        elif op == "F":
            bad = {q for q in succ if q not in good}
            ok = init in good or not any(
                d in _survivors(bad, succ) for d, _ in k_edges)
        elif op == "GF":
            bad = {q for q in succ if q not in good}
            ok = not (after & _survivors(bad, succ))
        else:
            raise ValueError(op)
        forced[k] = ok
    avoidable = not all(forced.values())
    optimal = [k for k in firsts
               if not any(intervals[o][0] > intervals[k][1] for o in firsts)]

    def guarantees(k):
        if shape == "plain":
            return forced[k]
        dstit = forced[k] and avoidable
        return dstit if shape == "dstit" else not dstit

    return all(guarantees(k) for k in optimal)


# ---------------------------------------------------------------------------
# explicit: invariants from the theorem suite
# ---------------------------------------------------------------------------

def explicit_invariants(model, fm, statements):
    """Evaluate every (moment, statement) on a fresh model and check the
    theorem-suite invariants.  Returns ({(moment, text): verdict at the
    statement's history}, [violations])."""
    problems = []
    verdicts = {}
    for mid, hid, text in statements:
        st = fm.parse(text)
        if isinstance(st, fm.OughtStatement):
            # history independence: an ought has one truth value at a
            # moment (checked on at most 9 histories spread over H_m)
            hs = sorted(model.histories_through(mid))
            answers = {model.satisfies(mid, h, st)
                       for h in hs[::max(1, len(hs) // 8)]}
            if len(answers) != 1:
                problems.append(f"history dependence of {text} at {mid}")
        verdicts[(mid, hid, text)] = model.satisfies(mid, hid, st)
    # conjunction distribution on the plain oughts of each moment
    for mid, hid, text in statements:
        st = fm.parse(text)
        if not (isinstance(st, fm.OughtStatement) and st.condition is None
                and isinstance(st.body, fm.Plain)):
            continue
        for mid2, hid2, text2 in statements:
            st2 = fm.parse(text2)
            if mid2 != mid or text2 <= text or not (
                    isinstance(st2, fm.OughtStatement)
                    and st2.condition is None
                    and isinstance(st2.body, fm.Plain)
                    and st2.agents == st.agents):
                continue
            both = (model.satisfies(mid, hid, st)
                    and model.satisfies(mid, hid, st2))
            joint = model.satisfies(mid, hid, fm.ought(
                st.agents, fm.Plain(fm.And(st.body.formula,
                                           st2.body.formula))))
            if both != joint:
                problems.append(f"conjunction of {text} and {text2} at {mid}")
    # optimal actions are never empty
    for agent in model.agents:
        for mid in model.moments:
            if not model.optimal_actions(agent, mid).actions:
                problems.append(f"empty optimal set for {agent} at {mid}")
    return verdicts, problems
