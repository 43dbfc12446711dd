"""Spans around the calls into each layer of deontic_mc, and the per-layer
metrics computed from them.

Every wrapper is installed from here, at the module or class attribute its
caller resolves at call time (``deontic_mc.mc.extremal_values``,
``deontic_mc.ctlstar.ltl_to_buchi``, ``ExplicitStitModel.satisfies``, ...),
so nothing inside ``src/`` changes.  Spans are kept in memory.  A layer's
self time is its span's duration minus the durations of its direct child
spans; the time a wrapper spends measuring sizes is taken out of the
enclosing spans too.
"""

from __future__ import annotations

import functools
import time

LAYERS = (
    "cli.main",
    "mc.check",
    "formula.parse",
    "formula.expand_bounded",
    "formula.nnf",
    "automaton.from_json",
    "automaton.unroll",
    "automaton.validate",
    "automaton.restrict_first_action",
    "automaton.prime_automaton",
    "automaton.extremal_values",
    "ctlstar.strip_weights",
    "ctlstar.check_universal",
    "ctlstar.ltl_to_buchi",
    "ctlstar.eval_on_lasso",
    "tree_model.validate",
    "tree_model.satisfies",
    "tree_model.optimal_actions",
    "tree_model.dominates",
    "tree_model.extension",
)

# recursive entry points: only the outermost call is a span
_OUTERMOST_ONLY = ("formula.expand_bounded", "formula.nnf", "mc.check")

FIRST_PHASE = ("automaton.restrict_first_action", "automaton.prime_automaton",
               "automaton.extremal_values")

# size attributes summed per layer: (layer, attribute) -> metric name
_SUMMED = (
    ("cli.main", "exit_2"),
    ("ctlstar.ltl_to_buchi", "states_out"),
    ("ctlstar.check_universal", "product_bound"),
    ("automaton.extremal_values", "edges_in"),
    ("automaton.extremal_values", "weights_in"),
    ("automaton.extremal_values", "scan_bound"),
    ("automaton.prime_automaton", "states_out"),
    ("automaton.unroll", "moments_out"),
    ("formula.expand_bounded", "nodes_out"),
)

# counts that must repeat exactly between two traced runs of the same inputs
DETERMINISTIC = tuple(
    [f"{name}.calls" for name in LAYERS]
    + [f"{layer}.{attr}" for layer, attr in _SUMMED]
    + ["ctlstar.ltl_to_buchi.rebuilds"])


class Span:
    __slots__ = ("name", "start", "end", "parent", "check", "attrs", "pad",
                 "formula")

    def __init__(self, name, parent, check):
        self.name = name
        self.parent = parent
        self.check = check
        self.start = self.end = 0.0
        self.attrs = {}
        self.pad = 0.0  # time spent measuring sizes after the span ended
        self.formula = None


class Tracer:
    """Records spans while installed; ``check`` tags the spans of one check."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.check = None
        self._installed = []
        self._depth = dict.fromkeys(_OUTERMOST_ONLY, 0)

    def install(self, dm):
        """Wrap the layer entry points of the imported package ``dm``."""
        mc, cst, aut, fm = dm.mc, dm.ctlstar, dm.automaton, dm.formula
        walk = fm.walk
        self._wrap(dm.cli, "main", "cli.main",
                   lambda a, out: {"exit_2": int(out == 2)})
        verdict = _verdict_sizes
        self._wrap(dm.cli, "check_ought_statement", "mc.check", verdict)
        self._wrap(mc, "check_ought", "mc.check", verdict)
        self._wrap(mc, "check_conditional_ought", "mc.check", verdict)
        self._wrap(fm, "parse", "formula.parse")
        self._wrap(fm, "expand_bounded", "formula.expand_bounded",
                   lambda a, out: {"nodes_out": sum(1 for _ in walk(out))})
        self._wrap(fm, "nnf", "formula.nnf")
        self._wrap(aut.StitAutomaton, "from_json", "automaton.from_json",
                   classmethod_=True)
        self._wrap(aut, "unroll", "automaton.unroll",
                   lambda a, out: {"moments_out": len(out.moments)})
        self._wrap(aut.StitAutomaton, "validate", "automaton.validate")
        self._wrap(mc, "restrict_first_action",
                   "automaton.restrict_first_action")
        self._wrap(mc, "prime_automaton", "automaton.prime_automaton",
                   lambda a, out: {"states_out": len(out.states)})
        self._wrap(mc, "extremal_values", "automaton.extremal_values",
                   _scan_sizes)
        self._wrap(mc, "strip_weights", "ctlstar.strip_weights")
        self._wrap(mc, "check_universal", "ctlstar.check_universal",
                   lambda a, out: {"ts_states": len(a[0].states)})
        self._wrap(cst, "ltl_to_buchi", "ctlstar.ltl_to_buchi",
                   lambda a, out: {"states_out": len(out.states)},
                   keep_formula=True)
        self._wrap(cst, "eval_on_lasso", "ctlstar.eval_on_lasso")
        for method in ("validate", "satisfies", "optimal_actions", "dominates",
                       "extension"):
            self._wrap(dm.tree_model.ExplicitStitModel, method,
                       f"tree_model.{method}")

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, owner, attr, name, sizes=None, classmethod_=False,
              keep_formula=False):
        original = owner.__dict__[attr] if classmethod_ else getattr(owner, attr)
        func = original.__func__ if classmethod_ else original
        outermost = name in self._depth
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if outermost and tracer._depth[name]:
                return func(*args, **kwargs)
            span = Span(name, tracer.stack[-1] if tracer.stack else None,
                        tracer.check)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            if outermost:
                tracer._depth[name] += 1
            span.start = time.perf_counter()
            try:
                out = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if outermost:
                    tracer._depth[name] -= 1
            if keep_formula:
                span.formula = args[0]
            if sizes is not None:
                try:
                    span.attrs = sizes(args[1:] if classmethod_ else args, out)
                except RecursionError:
                    span.attrs = {}
                span.pad = time.perf_counter() - span.end
            return out

        setattr(owner, attr, classmethod(wrapper) if classmethod_ else wrapper)
        self._installed.append((owner, attr, original))

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start + s.pad
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        for i, s in enumerate(spans):
            calls[s.name] += 1
            self_s[s.name] += s.end - s.start - child[i]
        out = {}
        for name in LAYERS:
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_ms"] = (self_s[name] * 1000.0, "ms")

        # TS states x Buchi states for the tableaux built inside each check
        for s in spans:
            if s.name == "ctlstar.ltl_to_buchi":
                j = s.parent
                while j is not None and spans[j].name != "ctlstar.check_universal":
                    j = spans[j].parent
                if j is not None:
                    host = spans[j].attrs
                    host["product_bound"] = host.get("product_bound", 0) + \
                        host["ts_states"] * s.attrs.get("states_out", 0)
        for layer, attr in _SUMMED:
            out[f"{layer}.{attr}"] = (
                sum(s.attrs.get(attr, 0) for s in spans if s.name == layer),
                "count")

        built = set()
        rebuilds = 0
        for s in spans:
            if s.name == "ctlstar.ltl_to_buchi":
                try:
                    rebuilds += s.formula in built
                    built.add(s.formula)
                except RecursionError:
                    pass
        out["ctlstar.ltl_to_buchi.rebuilds"] = (rebuilds, "count")

        first = sum(s.end - s.start for s in spans if s.name in FIRST_PHASE)
        out["mc.first_phase_ms"] = (first * 1000.0, "ms")
        n_optimal = sum(s.attrs.get("optimal", 0) for s in spans
                        if s.name == "mc.check")
        n_first = sum(s.attrs.get("first_actions", 0) for s in spans
                      if s.name == "mc.check")
        out["mc.optimal_share"] = (n_optimal / n_first if n_first else 0.0,
                                   "ratio")
        return out


def _verdict_sizes(args, verdict):
    return {"optimal": len(verdict.optimal_actions),
            "first_actions": len(verdict.intervals)}


def _scan_sizes(args, interval):
    transitions = args[0].transitions
    edges = len(transitions)
    weights = len({t.weight for t in transitions})
    return {"edges_in": edges, "weights_in": weights,
            "scan_bound": edges * weights}
