"""End-to-end analysis: reduction, averaging, prediction, oracle.

:func:`run_analyze` takes one system (or a definition plus a parameter
value) through the whole chain and returns an :class:`AnalysisReport`
that serializes to JSON and to a short text summary.  Reports are
deterministic: no timestamps, fixed key order, floats through repr.

:func:`run_sweep` repeats the analysis over a parameter grid and
tabulates predicted against measured amplitudes.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .averaging import (
    FORMULA_VARIANTS,
    cycle_curve,
    g_coefficients,
    p3_q3,
    predict_cycle,
)
# assemble_constraints is not called here; perfbench/tracing.py wraps it
# under this module's name, so it stays imported.
from .change_of_variables import (  # noqa: F401
    NoSolutionError,
    assemble_constraints,
    residual_condition33,
    solve_theta,
)
from .definition import SystemDefinition, instantiate, load_definition
from .inversion import invert_to_cubic, trust_radius
from .oracle import IntegratorControls, compare, measure_cycle
from .system import PlanarPolySystem, hopf_indicator

__all__ = ["AnalysisOptions", "AnalysisReport", "run_analyze", "run_sweep", "sweep_to_csv"]


@dataclass
class AnalysisOptions:
    """Settings shared by analyze and sweep."""

    alpha: object = None
    exact: bool = True
    variant: str = "scaled"
    m: int | None = None
    measure: bool = True
    seed_radius: float | None = None
    rtol: float = 1e-10
    atol: float = 1e-10
    amp_tol: float = 0.1
    period_tol: float = 0.1
    sample_count: int = 512
    tau_threshold: float = 1e-9

    def __post_init__(self):
        if self.variant not in FORMULA_VARIANTS:
            raise ValueError(f"variant must be one of {FORMULA_VARIANTS}, got {self.variant!r}")


def _prediction_dict(pred) -> dict:
    return {
        "exists": pred.exists,
        "r0": pred.r0,
        "omega0": pred.omega0,
        "z_amplitude": pred.z_amplitude,
        "period": (
            2.0 * math.pi / (math.sqrt(pred.delta) * pred.omega0) if pred.exists else None
        ),
        "stability": pred.stability,
    }


@dataclass
class AnalysisReport:
    """Everything one analysis produced.

    ``predicted_curve`` and the measurement samples stay out of
    ``to_dict`` (they go to CSV instead); everything else round-trips
    through JSON.
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
    variant: str = "scaled"
    predictions: dict = field(default_factory=dict)
    measurement: dict | None = None
    comparison: dict | None = None
    verdict: str | None = None
    warnings: list = field(default_factory=list)
    predicted_curve: np.ndarray | None = field(default=None, repr=False)
    measured_samples: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("predicted_curve", "measured_samples"):
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
        for name in self.predictions:
            pred = self.predictions[name]
            mark = " <-- selected" if name == self.variant else ""
            if pred["exists"]:
                lines.append(
                    f"prediction ({name}): limit cycle, z-amplitude={pred['z_amplitude']!r},"
                    f" period={pred['period']!r}, {pred['stability']}{mark}"
                )
            else:
                lines.append(f"prediction ({name}): no limit cycle ({pred['stability']}){mark}")
        if self.measurement is not None:
            meas = self.measurement
            lines.append(
                f"oracle: cycle found, amplitude={meas['amplitude']!r},"
                f" period={meas['period']!r}, "
                + ("stable" if meas["stable"] else "unstable")
                + f" (return-map slope magnitude {meas['convergence_rate']!r},"
                + f" section {meas['section']}"
                + (", reversed time)" if meas["reversed_time"] else ")")
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


def _resolve(source, options):
    """Return (definition or None, system, alpha used)."""
    if isinstance(source, PlanarPolySystem):
        return None, source, options.alpha
    if isinstance(source, SystemDefinition):
        defn = source
    else:
        defn = load_definition(source)
    alpha = options.alpha
    if alpha is None and defn.uses_alpha:
        alpha = defn.alpha_default
        if alpha is None:
            raise ValueError(f"system {defn.name!r} needs alpha and has no default")
    system = instantiate(defn, alpha, exact=options.exact)
    return defn, system, alpha


def _compute_p3(system, m):
    """The p3 moment alone, for the degeneracy probe."""
    cov = solve_theta(system, m=m)
    inv = invert_to_cubic(cov)
    g = g_coefficients(system, cov, inv)
    hopf = hopf_indicator(system)
    return p3_q3(g.g3, float(hopf.delta))[0]


def run_analyze(source, options: AnalysisOptions | None = None) -> AnalysisReport:
    """Analyze one system end to end.

    Raises ValueError when the origin is not of center-focus type
    (``delta <= 0`` or real eigenvalues): the method does not apply
    and there is nothing meaningful to report.  A missing change of
    variables is NOT an error; the report comes back with status
    ``no_change_of_variables``.
    """
    options = options or AnalysisOptions()
    defn, system, alpha = _resolve(source, options)
    name = defn.name if defn is not None else "<system>"
    alpha_out = None
    if alpha is not None and defn is not None and defn.uses_alpha:
        alpha_out = float(Fraction(alpha) if isinstance(alpha, str) else alpha)

    hopf = hopf_indicator(system, tau_threshold=options.tau_threshold)
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
        variant=options.variant,
    )

    try:
        cov = solve_theta(system, m=options.m)
    except NoSolutionError as err:
        warnings.append(str(err))
        return AnalysisReport(
            status="no_change_of_variables", warnings=warnings, **base
        )

    residual = residual_condition33(cov, system)
    inv = invert_to_cubic(cov)
    trust = trust_radius(cov, inv)
    g = g_coefficients(system, cov, inv)
    p3, q3 = p3_q3(g.g3, delta)

    predictions = {}
    for variant in FORMULA_VARIANTS:
        predictions[variant] = predict_cycle(tau, delta, p3, q3, variant=variant)
    chosen = predictions[options.variant]

    amps = [p.z_amplitude for p in predictions.values() if p.exists]
    if len(amps) == len(predictions) and min(amps) > 0:
        spread = (max(amps) - min(amps)) / min(amps)
        if spread > 0.1:
            pairs = ", ".join(
                f"{name_} {p.z_amplitude!r}" for name_, p in predictions.items()
            )
            warnings.append(
                f"formula variants disagree on the amplitude ({pairs});"
                " the numerical measurement arbitrates"
            )

    if chosen.degenerate and defn is not None and defn.uses_alpha and alpha_out:
        try:
            p3_half = _compute_p3(
                instantiate(defn, _half_alpha(alpha), exact=options.exact), options.m
            )
            if abs(p3_half) > 1e-9:
                warnings.append(
                    f"p3 vanishes at alpha={alpha_out!r} but not at alpha/2"
                    f" (p3={p3_half!r}); the degeneracy is specific to this parameter value"
                )
            else:
                warnings.append(
                    "p3 also vanishes at alpha/2; cubic averaging looks inconclusive"
                    " for this family, higher-order terms decide"
                )
        except (NoSolutionError, ValueError):
            pass

    curve = None
    if chosen.exists:
        curve = cycle_curve(cov, chosen, sample_count=options.sample_count)

    measurement = None
    comparison = None
    samples = None
    if options.measure:
        controls = IntegratorControls(rtol=options.rtol, atol=options.atol)
        if chosen.exists:
            seed = options.seed_radius or 0.5 * float(np.max(np.abs(curve[:, 1:])))
            reverse = chosen.stability == "unstable_subcritical"
        else:
            seed = options.seed_radius or 0.25
            reverse = False
        measurement = measure_cycle(system, seed, controls, reverse_time=reverse)
        comp = compare(
            chosen, curve, measurement, amp_tol=options.amp_tol, period_tol=options.period_tol
        )
        comparison = dataclasses.asdict(comp)
        if measurement is not None:
            samples = measurement.samples
            measurement = {
                "amplitude": measurement.amplitude,
                "radius_rms": measurement.radius_rms,
                "period": measurement.period,
                "stable": measurement.stable,
                "convergence_rate": measurement.convergence_rate,
                "section": measurement.section,
                "crossings": measurement.crossings,
                "reversed_time": measurement.reversed_time,
            }

    pred_dicts = {name_: _prediction_dict(p) for name_, p in predictions.items()}
    return AnalysisReport(
        status="ok",
        m=cov.m,
        gamma_params=tuple(int(c) for c in cov.gamma_params),
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
        predictions=pred_dicts,
        measurement=measurement,
        comparison=comparison,
        verdict=comparison["verdict"] if comparison is not None else None,
        warnings=warnings,
        predicted_curve=curve,
        measured_samples=samples,
        **base,
    )


def _half_alpha(alpha):
    if isinstance(alpha, str):
        return Fraction(alpha) / 2
    return alpha / 2


def run_sweep(source, alphas, options: AnalysisOptions | None = None) -> list[dict]:
    """Analyze a family over a grid of alpha values.

    Returns one row per alpha with the prediction, the measurement,
    and their relative amplitude error (None when either side has no
    cycle).
    """
    options = options or AnalysisOptions()
    defn = source if isinstance(source, SystemDefinition) else load_definition(source)
    if not defn.uses_alpha:
        raise ValueError(f"system {defn.name!r} has no alpha parameter to sweep")

    def one(alpha) -> dict:
        report = run_analyze(defn, dataclasses.replace(options, alpha=alpha))
        pred_amp = None
        if report.predicted_curve is not None:
            pred_amp = float(np.max(np.abs(report.predicted_curve[:, 1])))
        meas_amp = report.measurement["amplitude"] if report.measurement else None
        rel_err = None
        if pred_amp is not None and meas_amp:
            rel_err = abs(pred_amp - meas_amp) / abs(meas_amp)
        return {
            "alpha": float(Fraction(alpha)) if isinstance(alpha, str) else float(alpha),
            "tau": report.tau,
            "p3": report.p3,
            "q3": report.q3,
            "predicted_amplitude": pred_amp,
            "measured_amplitude": meas_amp,
            "rel_err": rel_err,
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
