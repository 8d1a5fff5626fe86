"""End-to-end analysis: reduction, averaging, prediction, oracle.

:func:`run_analyze` takes one system (or a definition plus a parameter
value) through the stages :func:`reduce`, :func:`predict`, the oracle's
``measure_cycle`` and ``compare``, and assembles their results into an
:class:`AnalysisReport` that serializes to JSON and to a short text
summary.  Reports are deterministic: no timestamps, fixed key order,
floats through repr.

:func:`run_sweep` repeats the analysis over a parameter grid and
tabulates predicted against measured amplitudes; a point whose input
is refused gets an ``error`` row, and the other points still run.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .averaging import GCoefficients, KbmPrediction, cycle_curve, g_coefficients, p3_q3, predict_cycle
# assemble_constraints is not called here; perfbench/tracing.py wraps it
# under this module's name, so it stays imported.
from .change_of_variables import (  # noqa: F401
    ChangeOfVariables,
    NoSolutionError,
    assemble_constraints,
    residual_condition33,
    solve_theta,
)
from .definition import SystemDefinition, instantiate, load_definition, resolve_alpha
from .inversion import TRUST_GRID, InverseSeries, composition_residual, invert_to_cubic, trust_radius
from .oracle import CycleMeasurement, compare, measure_cycle
from .system import PlanarPolySystem, hopf_indicator

__all__ = ["AnalysisOptions", "AnalysisReport", "Reduction", "predict", "reduce", "run_analyze", "run_sweep",
           "sweep_to_csv"]


@dataclass
class AnalysisOptions:
    """Settings shared by analyze and sweep."""

    alpha: object = None
    exact: bool = True
    measure: bool = True


@dataclass(frozen=True)
class Reduction:
    """What :func:`reduce` gives for one system, with the warnings it raised;
    ``residual`` is condition (3.3)'s, exact on an exact system."""

    cov: ChangeOfVariables
    inv: InverseSeries
    g: GCoefficients
    residual: object
    trust_radius: float
    warnings: tuple[str, ...] = ()


@dataclass
class AnalysisReport:
    """Everything one analysis produced.

    ``predicted_curve`` and ``measured_cycle``, the oracle's
    measurement with the orbit its samples are formed from, stay out of
    ``to_dict`` (the curve and the samples go to CSV instead); everything
    else round-trips through JSON.
    """

    system_name: str
    alpha: float | None
    arithmetic: str
    status: str
    tau: float
    delta: float
    complex_pair: bool
    near_critical: bool
    degree: int
    m: int | None = None
    gamma_params: tuple | None = None
    unknown_count: int | None = None
    equation_count: int | None = None
    nullspace_dim: int | None = None
    condition_residual: float | None = None
    residual_is_exact_zero: bool | None = None
    trust_radius: float | None = None
    g2: list | None = None
    g3: list | None = None
    p3: float | None = None
    q3: float | None = None
    prediction: dict | None = None
    measurement: dict | None = None
    comparison: dict | None = None
    verdict: str | None = None
    warnings: list = field(default_factory=list)
    predicted_curve: np.ndarray | None = field(default=None, repr=False)
    measured_cycle: CycleMeasurement | None = field(default=None, repr=False)

    @property
    def measured_samples(self) -> np.ndarray | None:
        """One period of the measured cycle as (t, x1, x2) rows, formed
        when first read; None without a measurement."""
        return None if self.measured_cycle is None else self.measured_cycle.samples

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        del out["predicted_curve"], out["measured_cycle"]
        return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        alpha_part = "" if self.alpha is None else f", alpha={self.alpha!r}"
        pair = "yes" if self.complex_pair else "no"
        lines = [
            f"system: {self.system_name}{alpha_part} ({self.arithmetic} arithmetic)",
            f"origin: tau={self.tau!r}, delta={self.delta!r}, complex pair: {pair}",
        ]
        if self.status == "no_change_of_variables":
            lines.append("change of variables: none found")
        elif self.m is not None:
            lines.append(
                f"change of variables: m={self.m}, gamma=({self.gamma_params[0]},"
                f"{self.gamma_params[1]}), unknowns={self.unknown_count},"
                f" equations={self.equation_count}, nullspace dim={self.nullspace_dim}"
            )
            zero = " (exact zero)" if self.residual_is_exact_zero else ""
            lines.append(f"condition residual: {self.condition_residual!r}{zero}")
            lines.append(f"inverse trust radius: {self.trust_radius!r}")
            lines.append(f"g2: {self.g2}")
            lines.append(f"g3: {self.g3}")
            lines.append(f"p3={self.p3!r}, q3={self.q3!r}")
        pred = self.prediction
        if pred is not None and pred["exists"]:
            lines.append(
                f"prediction: limit cycle, z-amplitude={pred['z_amplitude']!r},"
                f" period={pred['period']!r}, {pred['stability']}"
            )
        elif pred is not None:
            # stability is set only when p3 = 0 ("undetermined")
            if pred["stability"] is not None:
                reason = pred["stability"]
            elif self.tau == 0:
                reason = "tau = 0"
            else:
                reason = "sign of tau differs from sign of p3"
            lines.append(f"prediction: no limit cycle ({reason})")
        if self.measurement is not None:
            meas = self.measurement
            lines.append(
                f"oracle: cycle found, amplitude={meas['amplitude']!r},"
                f" period={meas['period']!r}, "
                + {True: "stable", False: "unstable", None: "neutral"}[meas["stable"]]
                + f" (return-map slope magnitude {meas['convergence_rate']!r},"
                + f" section {meas['section']})"
            )
        elif self.comparison is not None:
            lines.append("oracle: no cycle found")
        if self.comparison is not None:
            comp = self.comparison
            detail = ""
            if comp["amplitude_rel_err"] is not None:
                detail = (
                    f" (amplitude err {comp['amplitude_rel_err']:.3%},"
                    f" period err {comp['period_rel_err']:.3%})"
                )
            lines.append(f"verdict: {comp['verdict']}{detail}")
        elif self.verdict is not None:
            lines.append(f"verdict: {self.verdict}")
        lines += [f"warning: {warning}" for warning in self.warnings]
        return "\n".join(lines) + "\n"


def _resolve(source, options):
    """Return (definition or None, system, exact alpha used or None).

    A built system has no alpha to set, so an alpha with one is a
    ValueError.  Every system is rounded here when ``options.exact`` is
    false: an overflow meets run_analyze's handler like every other one.
    """
    if isinstance(source, PlanarPolySystem):
        if options.alpha is not None:
            raise ValueError("a built system has no alpha parameter; pass its definition instead")
        defn, system, alpha = None, source, None
    else:
        defn = source if isinstance(source, SystemDefinition) else load_definition(source)
        alpha = resolve_alpha(defn, options.alpha)
        system = instantiate(defn, alpha)
    return defn, system if options.exact else system.to_float(), alpha


def run_analyze(source, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Analyze one system end to end.

    Raises ValueError when the origin is not of center-focus type
    (``delta <= 0`` or real eigenvalues): the method does not apply
    and there is nothing meaningful to report.  Also ValueError when an
    exact value of the system or of its analysis lies beyond the float
    range, since the report and the oracle are in floats.  A missing
    change of variables is NOT an error; the report comes back with
    status ``no_change_of_variables``.  The oracle's seed and the verdict
    line are fixed: the predicted amplitude (0.25 with no predicted
    cycle) and :data:`~polycycle.oracle.AGREE_TOL`.
    """
    options = options or AnalysisOptions()
    try:
        return _analyze(source, options)
    except OverflowError as err:
        # exact values meet float() at many places (alpha, tau and delta,
        # the G rows, the report's fields); each overflow is the input's
        raise ValueError(f"a value of the analysis overflows a float ({err})") from err


def reduce(system: PlanarPolySystem) -> Reduction:
    """The reduction stage: change of variables, inverse, G rows, certificate
    and trust radius.  Raises NoSolutionError if no change of variables exists."""
    cov = solve_theta(system)
    inv = invert_to_cubic(cov)
    g = g_coefficients(system, cov, inv)
    residual = residual_condition33(cov, system)
    trust = trust_radius(cov, inv)
    overflow = trust == 0.0 and not math.isfinite(composition_residual(cov, inv, TRUST_GRID[:1])[0][1])
    warning = f"trust radius 0.0: the scan overflows float64 at its smallest radius, {TRUST_GRID[0]:g}"
    return Reduction(cov, inv, g, residual, trust, (warning,) if overflow else ())


def predict(reduction: Reduction, tau: float, delta: float) -> tuple[KbmPrediction, np.ndarray | None]:
    """The prediction stage: first-order averaging at (tau, delta), and the
    predicted cycle in the original coordinates (None without one)."""
    pred = predict_cycle(tau, delta, *p3_q3(reduction.g.g3, delta))
    return pred, cycle_curve(reduction.cov, pred) if pred.exists else None


def _reduced_fields(red: Reduction, pred: KbmPrediction, exact: bool) -> dict:
    """The report fields the reduction and the prediction fill."""
    cov = red.cov
    return dict(
        m=cov.m,
        # solve_theta always solves at Gamma_1
        gamma_params=(1, 0),
        unknown_count=cov.unknown_count,
        equation_count=cov.equation_count,
        nullspace_dim=cov.unknown_count - cov.rank,
        condition_residual=float(red.residual),
        residual_is_exact_zero=bool(exact and red.residual == 0),
        trust_radius=float(red.trust_radius),
        g2=[float(v) for v in red.g.g2],
        g3=[float(v) for v in red.g.g3],
        p3=pred.p3,
        q3=pred.q3,
        prediction={k: getattr(pred, k) for k in ("exists", "r0", "omega0", "z_amplitude", "period", "stability")},
    )


def _analyze(source, options: AnalysisOptions) -> AnalysisReport:
    defn, system, alpha = _resolve(source, options)
    hopf = hopf_indicator(system)
    tau, delta = float(hopf.tau), float(hopf.delta)
    if not hopf.complex_pair:
        raise ValueError(
            "the origin has no complex eigenvalue pair"
            f" (tau={tau!r}, delta={delta!r}); the reduction does not apply"
        )
    warnings = []
    if abs(tau) > 0.25 * math.sqrt(delta):
        warnings.append("tau is not small next to sqrt(delta); first-order averaging error grows with tau")
    red = pred = curve = measured = comparison = None
    try:
        red = reduce(system)
    except NoSolutionError as err:
        warnings.append(str(err))
    else:
        warnings += red.warnings
        pred, curve = predict(red, tau, delta)
        if options.measure:
            # the predicted amplitude: its error shrinks as alpha -> 0
            seed = float(np.max(np.abs(curve[:, 1:]))) if pred.exists else 0.25
            measured = measure_cycle(system, seed)
            comparison = dataclasses.asdict(compare(pred, curve, measured))

    return AnalysisReport(
        system_name="<system>" if defn is None else defn.name,
        alpha=None if alpha is None else float(alpha),
        arithmetic="exact" if system.exact else "float",
        status="no_change_of_variables" if red is None else "ok",
        tau=tau,
        delta=delta,
        complex_pair=hopf.complex_pair,
        near_critical=hopf.near_critical,
        degree=system.degree,
        **({} if red is None else _reduced_fields(red, pred, system.exact)),
        # every field in declaration order, less the orbit behind the samples
        measurement=None if measured is None else {
            f.name: getattr(measured, f.name) for f in dataclasses.fields(measured) if f.name != "orbit"
        },
        comparison=comparison,
        verdict=None if comparison is None else comparison["verdict"],
        warnings=warnings,
        predicted_curve=curve,
        measured_cycle=measured,
    )


def run_sweep(source, alphas, options: AnalysisOptions | None = None) -> list[dict]:
    """Analyze a family over a grid of alpha values.

    Returns one row per alpha with the prediction, the measurement,
    and their relative amplitude error (None when either side has no
    cycle).  A point whose analysis raises ValueError (an input error,
    see :func:`run_analyze`) gets a row with verdict ``error``, the
    alpha as given, no other values and the message under ``error``;
    other exceptions propagate.  A source with no alpha to sweep, a
    built system among them, raises ValueError before any point runs.
    """
    options = options or AnalysisOptions()
    if isinstance(source, PlanarPolySystem):
        raise ValueError("a built system has no alpha parameter to sweep; pass its definition instead")
    defn = source if isinstance(source, SystemDefinition) else load_definition(source)
    if not defn.uses_alpha:
        raise ValueError(f"system {defn.name!r} has no alpha parameter to sweep")

    def one(alpha) -> dict:
        try:
            report = run_analyze(defn, dataclasses.replace(options, alpha=alpha))
        except ValueError as err:
            return {"alpha": alpha, "verdict": "error", "error": str(err)}
        curve = report.predicted_curve
        pred_amp = None if curve is None else float(np.max(np.abs(curve[:, 1])))
        return {
            "alpha": report.alpha,
            "tau": report.tau,
            "p3": report.p3,
            "q3": report.q3,
            "predicted_amplitude": pred_amp,
            "measured_amplitude": report.measurement["amplitude"] if report.measurement else None,
            "rel_err": report.comparison["amplitude_rel_err"] if report.comparison else None,
            "verdict": report.verdict if report.verdict is not None else report.status,
        }

    return [one(a) for a in alphas]


def sweep_to_csv(rows) -> str:
    """Serialize sweep rows; floats use repr, missing values are empty."""
    header = "alpha,tau,p3,q3,predicted_amplitude,measured_amplitude,rel_err,verdict"
    lines = [header]
    for row in rows:
        cells = []
        for key in header.split(","):
            value = row.get(key)
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(repr(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
