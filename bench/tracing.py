"""Spans and counters around diracladder's public functions, for traced runs.

The tracer replaces module attributes (and three RadialSolution methods)
with timing wrappers, in every diracladder module that binds them, so calls
between modules are seen too.  Nothing under src/ changes.  Spans stay in
memory; self time is a span's duration minus the time covered by its child
spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) -> layer; a layer may own several functions
SPANS = {
    ("channels", "make_channel"): "channels",
    ("channels", "bound_energy"): "channels",
    ("ladder", "apply_raising"): "ladder.raise",
    ("ladder", "commutator_check"): "ladder.relations",
    ("ladder", "apply_casimir"): "ladder.relations",
    ("ladder", "positive_operator_check"): "ladder.positive_form",
    ("radial", "build_solution"): "radial.assemble",
    ("radial", "physical_normalize"): "radial.assemble",
    ("radial", "count_radial_nodes"): "radial.nodes",
    ("oracle", "inner_product"): "oracle.quadrature",
    ("oracle", "component_norm_integral"): "oracle.quadrature",
    ("oracle", "laguerre_weighted_integral"): "oracle.quadrature",
    ("oracle", "ode_residual"): "oracle.residual",
    ("oracle", "matching_determinant"): "oracle.det",
    ("oracle", "shooting_solve"): "oracle.shoot",
    ("oracle", "shooting_solution"): "oracle.shoot",
    ("oracle", "solve_ivp"): "oracle.integrate",
}
# evaluations of F and G are counted, not timed: they are far too many and
# too short for spans, and their time belongs to the caller's layer
EVAL_METHODS = ("F", "G", "evaluate_with_derivatives")


class Tracer:
    def __init__(self):
        self.spans = []           # (op, name, start, end, parent index or -1)
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.op = -1
        self._stack = []          # [span index, name, start, child seconds]
        self._undo = []

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [len(self.spans), name, time.perf_counter(), 0.0]
            self.spans.append(None)
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                self.spans[frame[0]] = (self.op, name, frame[2], end, parent)
                self.self_s[name] += duration - frame[3]
                self.total_s[name] += duration
                if self._stack:
                    self._stack[-1][3] += duration
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every binding of the traced functions in loaded diracladder modules."""
        import diracladder
        from diracladder import oracle, radial

        def count_nfev(sol):
            self.counts["oracle.integrate.rhs_evals"] += int(sol.nfev)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "diracladder" or n.startswith("diracladder."))]
        for (home, attr), layer in SPANS.items():
            original = getattr(getattr(diracladder, home), attr)
            after = count_nfev if attr == "solve_ivp" else None
            wrapped = self._span(layer, original, after)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patch(module, attr, wrapped)
        self._patch(oracle, "roots_genlaguerre",
                    self._counted("oracle.quadrature.rule_builds", oracle.roots_genlaguerre))
        for method in EVAL_METHODS:
            self._patch(radial.RadialSolution, method,
                        self._counted("radial.eval.calls",
                                      getattr(radial.RadialSolution, method)))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
