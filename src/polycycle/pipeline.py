"""End-to-end analysis: reduction, averaging, prediction, oracle.

:func:`run_analyze` takes one system (or a definition plus a parameter
value) through the whole chain and returns an :class:`AnalysisReport`
that serializes to JSON and to a short text summary.  Reports are
deterministic: no timestamps, fixed key order, floats through repr.

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

from .averaging import cycle_curve, g_coefficients, p3_q3, predict_cycle
# assemble_constraints is not called here; perfbench/tracing.py wraps it
# under this module's name, so it stays imported.
from .change_of_variables import (  # noqa: F401
    NoSolutionError,
    assemble_constraints,
    residual_condition33,
    solve_theta,
)
from .definition import SystemDefinition, instantiate, load_definition, resolve_alpha
from .inversion import invert_to_cubic, trust_radius
from .oracle import CycleMeasurement, check_seed_radius, check_tolerances, compare, measure_cycle
from .system import PlanarPolySystem, hopf_indicator

__all__ = ["AnalysisOptions", "AnalysisReport", "run_analyze", "run_sweep", "sweep_to_csv"]

# Points on the predicted cycle curve (the oracle's seed and the
# amplitude that compare() judges are read off it).
CURVE_SAMPLES = 512


@dataclass
class AnalysisOptions:
    """Settings shared by analyze and sweep."""

    alpha: object = None
    exact: bool = True
    measure: bool = True
    seed_radius: float | None = None
    amp_tol: float = 0.1
    period_tol: float = 0.1


def _prediction_dict(pred) -> dict:
    return {
        "exists": pred.exists,
        "r0": pred.r0,
        "omega0": pred.omega0,
        "z_amplitude": pred.z_amplitude,
        "period": pred.period,
        "stability": pred.stability,
    }


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
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("predicted_curve", "measured_cycle"):
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        lines = []
        alpha_part = "" if self.alpha is None else f", alpha={self.alpha!r}"
        lines.append(f"system: {self.system_name}{alpha_part} ({self.arithmetic} arithmetic)")
        pair = "yes" if self.complex_pair else "no"
        lines.append(
            f"origin: tau={self.tau!r}, delta={self.delta!r}, complex pair: {pair}"
        )
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
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines) + "\n"


def _checked(options: AnalysisOptions | None) -> AnalysisOptions:
    """The options, or the defaults, after the oracle's own checks."""
    options = options or AnalysisOptions()
    if options.seed_radius is not None:
        check_seed_radius(options.seed_radius)
    check_tolerances(options.amp_tol, options.period_tol)
    return options


def _resolve(source, options):
    """Return (definition or None, system, exact alpha used or None)."""
    if isinstance(source, PlanarPolySystem):
        return None, source, None
    defn = source if isinstance(source, SystemDefinition) else load_definition(source)
    alpha = resolve_alpha(defn, options.alpha)
    # the one place a definition's system is rounded: an overflow here
    # meets run_analyze's handler like every other one
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
    status ``no_change_of_variables``.  A seed radius or tolerance that
    :func:`~polycycle.oracle.measure_cycle` or
    :func:`~polycycle.oracle.compare` would refuse is a ValueError even
    when the oracle does not run.
    """
    options = _checked(options)
    try:
        return _analyze(source, options)
    except OverflowError as err:
        # exact values meet float() at many places (alpha, tau and delta,
        # the G rows, the report's fields); each overflow is the input's
        raise ValueError(f"a value of the analysis overflows a float ({err})") from err


def _analyze(source, options: AnalysisOptions) -> AnalysisReport:
    defn, system, alpha = _resolve(source, options)
    name = defn.name if defn is not None else "<system>"
    alpha_out = None if alpha is None else float(alpha)

    hopf = hopf_indicator(system)
    tau, delta = float(hopf.tau), float(hopf.delta)
    if not hopf.complex_pair:
        raise ValueError(
            "the origin has no complex eigenvalue pair"
            f" (tau={tau!r}, delta={delta!r}); the reduction does not apply"
        )
    warnings = []
    if abs(tau) > 0.25 * math.sqrt(delta):
        warnings.append(
            "tau is not small next to sqrt(delta); first-order averaging error grows with tau"
        )

    base = dict(
        system_name=name,
        alpha=alpha_out,
        arithmetic="exact" if system.exact else "float",
        tau=tau,
        delta=delta,
        complex_pair=hopf.complex_pair,
        near_critical=hopf.near_critical,
        degree=system.degree,
    )

    try:
        cov = solve_theta(system)
    except NoSolutionError as err:
        warnings.append(str(err))
        return AnalysisReport(
            status="no_change_of_variables", warnings=warnings, **base
        )

    inv = invert_to_cubic(cov)
    g = g_coefficients(system, cov, inv)
    p3, q3 = p3_q3(g.g3, delta)
    residual = residual_condition33(cov, system)
    trust = trust_radius(cov, inv)
    pred = predict_cycle(tau, delta, p3, q3)

    curve = None
    if pred.exists:
        curve = cycle_curve(cov, pred, sample_count=CURVE_SAMPLES)

    measurement = None
    comparison = None
    measured = None
    if options.measure:
        seed = options.seed_radius
        if seed is None:
            # the predicted amplitude: its error shrinks as alpha -> 0
            seed = float(np.max(np.abs(curve[:, 1:]))) if pred.exists else 0.25
        measurement = measure_cycle(system, seed)
        comp = compare(
            pred, curve, measurement, amp_tol=options.amp_tol, period_tol=options.period_tol
        )
        comparison = dataclasses.asdict(comp)
        if measurement is not None:
            measured = measurement
            measurement = {
                "amplitude": measurement.amplitude,
                "radius_rms": measurement.radius_rms,
                "period": measurement.period,
                "stable": measurement.stable,
                "convergence_rate": measurement.convergence_rate,
                "section": measurement.section,
                "crossings": measurement.crossings,
                "steps": measurement.steps,
                "rejected_steps": measurement.rejected_steps,
                "field_evals": measurement.field_evals,
            }

    return AnalysisReport(
        status="ok",
        m=cov.m,
        # solve_theta always solves at Gamma_1
        gamma_params=(1, 0),
        unknown_count=cov.unknown_count,
        equation_count=cov.equation_count,
        nullspace_dim=cov.unknown_count - cov.rank,
        condition_residual=float(residual),
        residual_is_exact_zero=bool(system.exact and residual == 0),
        trust_radius=float(trust),
        g2=[float(v) for v in g.g2],
        g3=[float(v) for v in g.g3],
        p3=p3,
        q3=q3,
        prediction=_prediction_dict(pred),
        measurement=measurement,
        comparison=comparison,
        verdict=comparison["verdict"] if comparison is not None else None,
        warnings=warnings,
        predicted_curve=curve,
        measured_cycle=measured,
        **base,
    )


def run_sweep(source, alphas, options: AnalysisOptions | None = None) -> list[dict]:
    """Analyze a family over a grid of alpha values.

    Returns one row per alpha with the prediction, the measurement,
    and their relative amplitude error (None when either side has no
    cycle).  A point whose analysis raises ValueError (an input error,
    see :func:`run_analyze`) gets a row with verdict ``error``, the
    alpha as given, no other values and the message under ``error``;
    other exceptions propagate.  Bad options raise ValueError once, as
    for :func:`run_analyze`, before any point runs.
    """
    options = _checked(options)
    defn = source if isinstance(source, SystemDefinition) else load_definition(source)
    if not defn.uses_alpha:
        raise ValueError(f"system {defn.name!r} has no alpha parameter to sweep")

    def one(alpha) -> dict:
        try:
            report = run_analyze(defn, dataclasses.replace(options, alpha=alpha))
        except ValueError as err:
            return {"alpha": alpha, "verdict": "error", "error": str(err)}
        pred_amp = None
        if report.predicted_curve is not None:
            pred_amp = float(np.max(np.abs(report.predicted_curve[:, 1])))
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
