"""Every model axiom checked path by path and set by set: the reference that
ExplicitStitModel.validate, which reads the paths off the evaluation index,
is compared against.  It reads only the model's public structure and never
builds the index.
"""

import itertools

from deontic_mc.tree_model import Violation


def reference_validate(model):
    """The violations of every structural axiom, in validate's order: root,
    parent, history-path (one at most per history), leaf-covered,
    partition, independence, undivided."""
    out = []
    roots = [m.id for m in model.moments.values() if m.parent is None]
    if len(roots) != 1 or (roots and roots[0] != 0):
        out.append(Violation("root", None, None,
                             f"expected a unique root moment 0, found {roots}"))
    for m in model.moments.values():
        if m.parent is not None and m.parent not in model.moments:
            out.append(Violation("parent", None, m.id,
                                 f"parent {m.parent} does not exist"))
    leaves = {m for m in model.moments
              if not any(x.parent == m for x in model.moments.values())}
    covered = set()
    linked = set()  # histories whose every step goes to a child
    for h in model.histories.values():
        ms = h.moments
        if not ms or not all(mid in model.moments for mid in ms):
            out.append(Violation("history-path", None, None,
                                 f"history {h.id} mentions unknown moments"))
            continue
        if model.moments[ms[0]].parent is not None:
            out.append(Violation("history-path", None, ms[0],
                                 f"history {h.id} does not start at the root"))
            continue
        for a, b in zip(ms, ms[1:]):
            if model.moments[b].parent != a:
                out.append(Violation(
                    "history-path", None, b,
                    f"history {h.id}: {b} is not a child of {a}"))
                break
        else:
            linked.add(h.id)
            covered.add(ms[-1])
            if ms[-1] not in leaves:
                out.append(Violation(
                    "history-path", None, ms[-1],
                    f"history {h.id} ends at a non-leaf moment"))
    for leaf in sorted(leaves - covered):
        out.append(Violation("leaf-covered", None, leaf,
                             "no history ends at this leaf"))
    for (agent, mid), cells in sorted(model.choices.items()):
        if agent not in model.agents:
            out.append(Violation("partition", agent, mid, "unknown agent"))
            continue
        if mid not in model.moments:
            out.append(Violation("partition", agent, mid, "unknown moment"))
            continue
        hm = model.histories_through(mid)
        seen = set()
        for cell in cells:
            if not cell:
                out.append(Violation("partition", agent, mid, "empty action"))
            overlap = cell & seen
            if overlap:
                out.append(Violation(
                    "partition", agent, mid,
                    f"histories {sorted(overlap)} appear in two actions"))
            seen |= cell
        if seen != hm:
            out.append(Violation(
                "partition", agent, mid,
                f"actions do not partition H_m: union {sorted(seen)} "
                f"vs H_m {sorted(hm)}"))
    out.extend(_independence(model))
    out.extend(_undivided(model, linked))
    return out


def _independence(model):
    out = []
    for mid in model.moments:
        per_agent = [model.actions_at(a, mid) for a in model.agents]
        if any(len(cells) > 1 for cells in per_agent):
            for pick in itertools.product(*per_agent):
                # one agent: the pick's intersection is its one cell
                if not (pick[0] if len(pick) == 1
                        else frozenset.intersection(*pick)):
                    out.append(Violation(
                        "independence", None, mid,
                        "a selection of one action per agent has empty "
                        "intersection: "
                        + " x ".join(str(sorted(c)) for c in pick)))
    return out


def _undivided(model, linked):
    """Pairs drawn from the histories that reach a common moment after the
    choice's moment; a history sits in the last cell that contains it."""
    out = []
    for (agent, mid), cells in sorted(model.choices.items()):
        if mid not in model.moments:
            continue
        cell_of = {}
        for i, cell in enumerate(cells):
            for h in cell:
                cell_of[h] = i
        # when every step is to a child, two histories share a later moment
        # iff they share the next one
        next_only = linked.issuperset(cell_of)
        reach: dict[int, set] = {}
        for h in cell_of:
            if h not in model.histories:
                continue
            ms = model.histories[h].moments
            pos = {m: i for i, m in enumerate(ms)}.get(mid)  # the last visit
            if pos is not None:
                end = pos + 2 if next_only else None
                for m in ms[pos + 1:end]:
                    reach.setdefault(m, set()).add(h)
        pairs = set()
        for group in reach.values():
            if len({cell_of[h] for h in group}) > 1:
                pairs.update(
                    (h1, h2)
                    for h1, h2 in itertools.combinations(sorted(group), 2)
                    if cell_of[h1] != cell_of[h2])
        out.extend(Violation(
            "undivided", agent, mid,
            f"histories {h1} and {h2} share a later moment but "
            f"sit in different actions") for h1, h2 in sorted(pairs))
    return out
