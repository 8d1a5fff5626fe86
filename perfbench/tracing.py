"""Spans and counters around the public functions of each polycycle layer.

Nothing inside the package is edited.  :class:`Tracer` replaces a public
function at the module attribute its caller looks it up through (for
example ``polycycle.pipeline.solve_theta`` for the call in
``run_analyze``, ``polycycle.linalg.rref`` for the calls inside the
linear solvers) with a wrapper that records a span, and puts the
originals back on exit.  Spans are kept in memory: name, start, end,
parent span, and the id of the analysis (the ``run_analyze`` span at the
root) they belong to.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import polycycle.change_of_variables as cov_mod
import polycycle.linalg as linalg_mod
import polycycle.oracle as oracle_mod
import polycycle.pipeline as pipeline_mod

ROOT = "pipeline.run_analyze"

# (module or class, attribute, span name).  One original function can sit
# behind several attributes (assemble_constraints is looked up both by
# run_analyze and by solve_theta); each call goes through exactly one.
TARGETS = (
    (pipeline_mod, "run_analyze", ROOT),
    (pipeline_mod, "instantiate", "definition.instantiate"),
    (pipeline_mod, "solve_theta", "change_of_variables.solve_theta"),
    (pipeline_mod, "assemble_constraints", "change_of_variables.assemble_constraints"),
    (cov_mod, "assemble_constraints", "change_of_variables.assemble_constraints"),
    (cov_mod.ConstraintSystem, "nullspace_dimension", "change_of_variables.nullspace_dimension"),
    (pipeline_mod, "residual_condition33", "change_of_variables.residual_condition33"),
    (cov_mod, "solve_min_norm_exact", "linalg.solve_min_norm"),
    (cov_mod, "solve_min_norm_float", "linalg.solve_min_norm"),
    (linalg_mod, "rref", "linalg.rref"),
    (pipeline_mod, "invert_to_cubic", "inversion.invert_to_cubic"),
    (pipeline_mod, "trust_radius", "inversion.trust_radius"),
    (pipeline_mod, "g_coefficients", "averaging.g_coefficients"),
    (pipeline_mod, "predict_cycle", "averaging.predict_cycle"),
    (pipeline_mod, "cycle_curve", "averaging.cycle_curve"),
    (pipeline_mod, "measure_cycle", "oracle.measure_cycle"),
    (pipeline_mod, "compare", "oracle.compare"),
)

# Spans reported as inclusive seconds per analysis, under "<name>_s".
TIMED = (
    "oracle.measure_cycle",
    "oracle.compare",
    "change_of_variables.solve_theta",
    "change_of_variables.assemble_constraints",
    "change_of_variables.nullspace_dimension",
    "change_of_variables.residual_condition33",
    "linalg.solve_min_norm",
    "linalg.rref",
    "inversion.trust_radius",
    "inversion.invert_to_cubic",
    "averaging.g_coefficients",
    "averaging.predict_cycle",
    "averaging.cycle_curve",
    "definition.instantiate",
    ROOT,
)
# Spans reported as calls per analysis, under "<name>_calls".
COUNTED = (
    "change_of_variables.solve_theta",
    "change_of_variables.assemble_constraints",
    "linalg.rref",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    analysis: int


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.field_evals = 0
        self.cycles_found = 0
        self.crossings = 0
        self.no_cycle = 0
        self.matrix_shapes: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._analyses = 0
        self._saved: list[tuple] = []

    def __enter__(self):
        for owner, attr, name in TARGETS:
            self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
        self._patch(oracle_mod, "compile_field", self._counting_compile(oracle_mod.compile_field))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            if parent is None:
                tracer._analyses += 1
                analysis = tracer._analyses
            else:
                analysis = tracer.spans[parent].analysis
            index = len(tracer.spans)
            tracer.spans.append(Span(name, time.perf_counter(), 0.0, parent, analysis))
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[index].end = time.perf_counter()
            tracer._observe(name, result)
            return result

        return wrapper

    def _observe(self, name, result):
        if name == "change_of_variables.assemble_constraints":
            self.matrix_shapes.append(result.matrix.shape)
        elif name == "oracle.measure_cycle":
            if result is None:
                self.no_cycle += 1
            else:
                self.cycles_found += 1
                self.crossings += result.crossings

    def _counting_compile(self, compile_field):
        tracer = self

        def wrapper(system):
            field = compile_field(system)

            def counted(u, v):
                tracer.field_evals += 1
                return field(u, v)

            return counted

        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def layer_metrics(self, overhead_share: float) -> dict:
        """Per-layer figures, per analysis unless the name says otherwise."""
        analyses = max(1, sum(1 for s in self.spans if s.name == ROOT))
        inclusive: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            inclusive[s.name] = inclusive.get(s.name, 0.0) + (s.end - s.start)
            calls[s.name] = calls.get(s.name, 0) + 1
        root_self = sum(t for s, t in zip(self.spans, self.self_times()) if s.name == ROOT)
        measured = self.no_cycle + self.cycles_found
        shapes = self.matrix_shapes
        out = {}
        for name in TIMED:
            out[f"{name}_s"] = (inclusive.get(name, 0.0) / analyses, "s")
        for name in COUNTED:
            out[f"{name}_calls"] = (calls.get(name, 0) / analyses, "count")
        out["pipeline.self_s"] = (root_self / analyses, "s")
        out["oracle.field_evals"] = (self.field_evals / analyses, "count")
        out["oracle.crossings"] = (self.crossings / max(1, self.cycles_found), "count")
        out["oracle.no_cycle_share"] = (self.no_cycle / measured if measured else 0.0, "ratio")
        out["change_of_variables.matrix_rows"] = (
            sum(r for r, _ in shapes) / len(shapes) if shapes else 0.0, "count")
        out["change_of_variables.matrix_cols"] = (
            sum(c for _, c in shapes) / len(shapes) if shapes else 0.0, "count")
        out["tracing.overhead_share"] = (overhead_share, "ratio")
        return out

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "analysis": s.analysis}
            for s in self.spans
        ]
