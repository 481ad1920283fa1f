"""In-memory span recorder wrapped around the package's module boundaries.

The package has no tracing of its own, so the benchmark replaces the
module-level names that callers look up (``scheme.solve_fixed_point``,
``characteristics.deviation_sweep``, ...) with thin wrappers for the
duration of a traced operation and restores them afterwards.  A span
records its layer name, the operation it belongs to, start and end, its
parent span, and the units of work its arguments describe (cells swept,
particle-steps), so ratios are measured where the work happens.

A layer's self time is its span's duration minus the time its child spans
cover; the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from kuramoto_dephasing import characteristics, decay, particles, scheme


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start_ns: int
    end_ns: int = 0
    work: int = 0


def _field_cells(args):
    return int(args["field"].deviation.size)


def _sweep_cells(args):
    return int(np.size(args["deviation"]))


def _oracle_substep_cells(args):
    # cells times RK4 sub-steps, from the same step rule the oracle applies
    # to each frequency column; computed from the inputs, not counted inside
    grid = args["grid"]
    need = np.maximum(np.ceil(np.abs(grid.omega_nodes) * grid.dt / args["phase_step_cap"]), 1)
    return int(need.sum()) * (grid.n_times - 1) * grid.n_theta


def _particle_steps(args):
    return int(args["ens"].n) * int(args["n_steps"])


# (module, attribute looked up by callers, layer.function, (work units, unit))
BOUNDARIES = (
    (scheme, "outer_solve", "scheme.outer_solve", None),
    (scheme, "order_parameter_of", "scheme.order_parameter_of", (_field_cells, "cell")),
    (scheme, "reconstruct", "scheme.reconstruct", None),
    (scheme, "verify_lemmas", "scheme.verify_lemmas", None),
    (scheme, "solve_fixed_point", "characteristics.solve_fixed_point", None),
    (scheme, "gamma_field", "characteristics.gamma_field", (_field_cells, "cell")),
    (scheme, "weighted_norm", "norms_grids.weighted_norm", None),
    (scheme, "free_order_parameter", "spectral_state.free_order_parameter", None),
    (characteristics, "deviation_sweep", "characteristics.deviation_sweep",
     (_sweep_cells, "cell")),
    (characteristics, "weighted_norm", "norms_grids.weighted_norm", None),
    (characteristics, "backward_ode_oracle", "characteristics.backward_ode_oracle",
     (_oracle_substep_cells, "substep_cell")),
    (decay, "fit_decay", "decay.fit_decay", None),
    (decay, "certify_envelope", "decay.certify_envelope", None),
    (particles, "init_from_solution", "particles.init_from_solution", None),
    (particles, "simulate", "particles.simulate", (_particle_steps, "particle_step")),
    (particles, "sample_labels", "spectral_state.sample_labels", None),
)


class SpanRecorder:
    """Collects spans while ``installed()`` is active; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def _wrap(self, name, fn, work):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            units = 0
            if work is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                units = work(bound.arguments)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, self.op, parent, time.perf_counter_ns(), work=units))
            self._stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end_ns = time.perf_counter_ns()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, work in BOUNDARIES:
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(name, fn, work and work[0]))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_totals(self, op: int) -> dict:
        """{layer.function: {"calls", "self_s", "work"}} for one operation."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s.op == op and s.parent is not None:
                child_ns[s.parent] += s.end_ns - s.start_ns
        out = {}
        for i, s in enumerate(self.spans):
            if s.op != op:
                continue
            agg = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "work": 0})
            agg["calls"] += 1
            agg["self_s"] += (s.end_ns - s.start_ns - child_ns[i]) * 1e-9
            agg["work"] += s.work
        return out

    def to_json(self) -> list:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent,
             "start_ns": s.start_ns, "end_ns": s.end_ns, "work": s.work}
            for s in self.spans
        ]
