"""Depth-bounded trace sets: the reference that the first-action
constructions (restrict_first_action, prime_automaton) are compared
against.  It enumerates every trace recursively, so it suits small depths
only; the checker itself never enumerates traces.
"""

from deontic_mc.automaton import StitAutomaton


def bounded_traces(aut: StitAutomaton, depth: int,
                   first_action: str | None = None) -> frozenset:
    """Depth-bounded traces: (initial label, ((action, weight, label), ...)).

    State names are deliberately absent so traces compare across renamings.
    """
    out = set()

    def go(state, steps, acc):
        if steps == 0:
            out.add((aut.label(aut.initial), tuple(acc)))
            return
        for t in aut.out(state):
            if not acc and first_action is not None and t.action != first_action:
                continue
            go(t.dst, steps - 1,
               acc + [(t.action, t.weight, aut.label(t.dst))])

    go(aut.initial, depth, [])
    return frozenset(out)
