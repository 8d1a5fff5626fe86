"""Benchmark for polycycle: one workload per call, closed loop, one caller.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload corpus_analyze --seed 1 --seconds 25 --trace 0

The four workloads are described in ``perfbench/inputs.py`` and
``perfbench/README.md``.  Each run builds one pass of seeded inputs and
calls the program on them one after another, each call starting when the
previous one returned, for at least ``--seconds`` and at least one full
pass.  Each output is checked right after its call, outside the call's
timer.  With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` the untraced loop is followed by one traced pass and
the last line holds the per-layer metrics from that pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RESIDUAL_BOUND = 1e-10  # acceptance criterion 3, float backend
REFERENCE_REL_TOL = 1e-3  # acceptance criterion 1, oracle against the exact cycle
OUT_DIR = ROOT / "perfbench" / "out"


def _checkout_or_exit():
    if not (ROOT / "src" / "polycycle" / "__init__.py").is_file() or not (ROOT / "systems").is_dir():
        sys.stderr.write(f"perfbench: no polycycle source tree (src/polycycle, systems/) under {ROOT}\n")
        sys.exit(2)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="a few cheap inputs, for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclass
class Call:
    """One completed analysis, reduced to what the checks and shares need;
    the report itself is dropped, so memory and GC work stay the program's."""

    item: int
    latency: float  # wall seconds
    scaled: float | None = None  # seconds at the reference host speed (hostspeed.py)
    error: str | None = None  # raised, or a status other than ok
    wrong: str | None = None  # an output check that failed
    verdict: str | None = None
    predicted_amplitude: float | None = None
    measured: tuple | None = None  # oracle (amplitude, period)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


def _setup(args):
    """Import the program and build one pass of inputs (what setup_s times)."""
    import inputs
    import polycycle

    return inputs.build(args.workload, args.seed, polycycle.load_definition, ROOT / "systems", args.tiny)


def _time_setup(args) -> list[float]:
    """Time of fresh processes that only import, load and generate, in
    seconds at the reference host speed."""
    from hostspeed import burst, scale

    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    before = burst()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        after = burst()
        times.append(wall * scale(before, after))
        before = after
    return times


class Program:
    """Calls into polycycle through its module attributes, so that any
    wrapper the tracer installs is the one that runs."""

    def __init__(self):
        import polycycle.pipeline as pipeline

        self.pipeline = pipeline
        self._last = None
        original = pipeline.run_analyze

        def keep_report(*a, **kw):
            self._last = original(*a, **kw)
            return self._last

        # run_sweep returns rows only; the report behind each row is kept
        # here so the output checks can read it.
        pipeline.run_analyze = keep_report

    def analyze(self, item):
        opts = self.pipeline.AnalysisOptions(alpha=item.alpha, exact=item.exact, measure=item.measure)
        self._last = None
        if item.sweep:
            self.pipeline.run_sweep(item.definition, [item.alpha], opts)
        else:
            self.pipeline.run_analyze(item.definition, opts)
        return self._last


class Checker:
    """Output checks, run on each report as soon as its call is timed.

    A call fails when the analysis raised or returned a status other than
    ``ok`` (the program refused the input), or when its output is wrong:
    a certificate that is not zero, a float residual over the bound, or a
    ``to_json()`` that differs from the first run of the same input.
    """

    def __init__(self, items):
        self.items = items
        self.first_json: dict[int, str] = {}

    def observe(self, call: Call, report) -> None:
        item = self.items[call.item]
        if call.error is None and report.status != "ok":
            call.error = f"status {report.status}"
        if call.error is not None:
            return
        call.wrong = _wrong_output(item, report)
        text = report.to_json()
        if call.item not in self.first_json:
            self.first_json[call.item] = text
        elif call.wrong is None and text != self.first_json[call.item]:
            call.wrong = "to_json differs from the first run of the same input"
        call.verdict = report.verdict
        call.predicted_amplitude = _predicted_amplitude(report)
        if report.measurement is not None:
            call.measured = (report.measurement["amplitude"], report.measurement["period"])


def closed_loop(program, checker, seconds, min_calls=None) -> list[Call]:
    """Call the program on the inputs in order, cycling, until ``seconds``
    have passed and one pass is complete (or ``min_calls`` calls, if
    given).  Only the call itself is timed; a host-speed burst and its
    check follow it."""
    from hostspeed import burst, scale

    items = checker.items
    calls = []
    start = time.perf_counter()
    before = burst()
    while True:
        idx = len(calls) % len(items)
        report, error = None, None
        t0 = time.perf_counter()
        try:
            report = program.analyze(items[idx])
        except Exception as err:  # a failed analysis is counted, not fatal
            error = f"{type(err).__name__}: {err}"
        call = Call(idx, time.perf_counter() - t0, error=error)
        after = burst()
        call.scaled = call.latency * scale(before, after)
        before = after
        checker.observe(call, report)
        calls.append(call)
        if min_calls is not None:
            if len(calls) >= min_calls:
                break
        elif len(calls) >= len(items) and time.perf_counter() - start >= seconds:
            break
    return calls


def _predicted_amplitude(report):
    curve = report.predicted_curve
    return None if curve is None else float(max(abs(curve[:, 1])))


def repeat_once(program, checker, calls) -> None:
    """If no input ran twice in the loop, repeat one, untimed, so the
    to_json comparison still happens."""
    if len(calls) > len(checker.items):
        return
    done = next((c for c in calls if c.error is None), None)
    if done is None:
        return
    again = Call(done.item, 0.0)
    try:
        report = program.analyze(checker.items[done.item])
    except Exception as err:  # it returned the first time
        again.error = f"{type(err).__name__}: {err}"
        report = None
    checker.observe(again, report)
    done.wrong = done.wrong or again.wrong or again.error


def shares(items, calls) -> dict:
    """The deterministic figures, over the first pass: its outputs do not
    depend on timing, so they repeat exactly for a seed."""
    first = calls[: len(items)]
    measured = [c for c in first if items[c.item].measure]
    refs = [c for c in first if items[c.item].ref_radius is not None]
    misses, pred_errs = 0, []
    for c in refs:
        item = items[c.item]
        pred = c.predicted_amplitude
        pred_errs.append(1.0 if pred is None else abs(pred - item.ref_radius) / item.ref_radius)
        if item.measure and not _oracle_hits(item, c.measured):
            misses += 1
    ref_measured = sum(1 for c in refs if items[c.item].measure)
    return {
        "error_share": sum(1 for c in first if c.failed) / len(first),
        "oracle_miss_share": misses / ref_measured if ref_measured else None,
        "pred_err_max": max(pred_errs) if pred_errs else None,
        "agreement_share": (
            sum(1 for c in measured if c.verdict == "agreement") / len(measured)
            if measured else None
        ),
        "reference_points": len(refs),
    }


def failures(items, calls) -> dict:
    return dict(Counter(f"{items[c.item].label}: {c.error or c.wrong}" for c in calls if c.failed))


def _wrong_output(item, report) -> str | None:
    if item.exact and report.residual_is_exact_zero is not True:
        return f"exact certificate is not zero ({report.condition_residual!r})"
    if not item.exact and not report.condition_residual <= RESIDUAL_BOUND:
        return f"float condition residual {report.condition_residual!r} > {RESIDUAL_BOUND}"
    return None


def _oracle_hits(item, measured) -> bool:
    if measured is None:
        return False
    amp_err = abs(measured[0] - item.ref_radius) / item.ref_radius
    period_err = abs(measured[1] - item.ref_period) / item.ref_period
    return amp_err <= REFERENCE_REL_TOL and period_err <= REFERENCE_REL_TOL


def scaled_medians(items, calls) -> list[float]:
    """Each input's median scaled time over its calls, in pass order.  The
    timed metrics are built from these, so each input counts once
    wherever in a pass the run ended."""
    by_item = [[] for _ in items]
    for c in calls:
        by_item[c.item].append(c.scaled)
    return [statistics.median(v) for v in by_item]


def _per_input_medians(items, calls) -> dict:
    by_item = {}
    for c in calls:
        by_item.setdefault(items[c.item].label, []).append(c.latency)
    return {label: statistics.median(v) for label, v in by_item.items()}


def tail(latencies) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Below 21 samples that percentile would fall
    under the median, and the maximum is reported instead."""
    s = sorted(latencies)
    n = len(s)
    if n < 21:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polycycle").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_head(),
        "source_sha256": digest.hexdigest(),
        "POLYCYCLE_THREADS": os.environ.get("POLYCYCLE_THREADS"),
        **{name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
    }


def _git_head() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _emit(lines, record, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _quality_lines(q) -> list[str]:
    lines = []
    for name in ("error_share", "oracle_miss_share", "pred_err_max", "agreement_share"):
        value = q[name]
        lines.append(f"metric {name} " + ("n/a" if value is None else f"{value!r} ratio"))
    return lines


def _run_all(argv, workloads) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in workloads:
        args = [a if a != "all" else workload for a in argv]
        status |= subprocess.run([sys.executable, str(Path(__file__).resolve()), *args], cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    _checkout_or_exit()
    # Pinned: ROADMAP measured the sweep thread pool making sweeps slower.
    os.environ.pop("POLYCYCLE_THREADS", None)
    # One BLAS thread, set before numpy loads (here and in the set-up
    # processes, which inherit it): otherwise importing numpy starts a
    # thread pool on the other core, and set-up time depends on whether
    # that core is free.  polycycle's float matrices have a few dozen
    # rows at most, too few to gain from BLAS threads.
    os.environ.update({name: "1" for name in BLAS_THREAD_VARIABLES})
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    if args.setup_only:
        _setup(args)
        return 0

    import inputs

    if args.workload == "all":
        return _run_all(argv if argv is not None else sys.argv[1:], inputs.WORKLOADS)
    if args.workload not in inputs.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {inputs.WORKLOADS}\n")
        return 2
    setup_times = [] if args.trace else _time_setup(args)
    items = _setup(args)
    import polycycle

    if not Path(polycycle.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"perfbench: imported polycycle from {polycycle.__file__}, not {ROOT / 'src'}\n")
        return 2

    program = Program()
    checker = Checker(items)
    calls = closed_loop(program, checker, args.seconds)
    repeat_once(program, checker, calls)
    quality = shares(items, calls)
    latencies = [c.latency for c in calls]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "inputs_per_pass": len(items),
        "calls": len(calls),
        "per_input_median_s": _per_input_medians(items, calls),
        "failures": failures(items, calls),
        "quality": quality,
    }
    lines = [f"workload {args.workload} seed {args.seed} inputs/pass {len(items)} calls {len(calls)}"]

    per_input = scaled_medians(items, calls)
    repeats = Counter(c.item for c in calls)
    record.update(per_input_scaled_median_s={item.label: m for item, m in zip(items, per_input)},
                  fewest_repeats=min(repeats[i] for i in range(len(items))),
                  median_scale=statistics.median(c.scaled / c.latency for c in calls))
    if not args.trace:
        tail_value, tail_pct = tail(per_input)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_per_s": (len(per_input) / sum(per_input), "1/s"),
            "latency_p50_s": (statistics.median(per_input), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record.update(setup_samples_s=setup_times, tail_percentile=tail_pct, latency_samples=len(latencies),
                      latency_tail_s=tail_value)
        notes = {"latency_p50_s": f" (inputs={len(per_input)}, calls={len(latencies)})"}
        lines += [f"metric {k} {v!r} {u}{notes.get(k, '')}" for k, (v, u) in metrics.items()]
        # printed, not in the last line: it is the one most expensive
        # drawn input of a small pass, so it moves with the seed
        lines.append(f"metric latency_tail_s {tail_value!r} s (p{tail_pct:.1f} of inputs={len(per_input)})")
        lines += _quality_lines(quality)
    else:
        from tracing import Tracer

        with Tracer() as tracer:
            traced = closed_loop(program, checker, 0.0, min_calls=len(items))
        record["traced_failures"] = failures(items, traced)
        # scaled times on both sides, so a change of host speed between
        # the two loops does not read as tracing cost
        overhead = sum(c.scaled for c in traced) / sum(per_input) - 1.0
        calls += traced
        metrics = tracer.layer_metrics(overhead)
        lines += [f"metric {k} {v!r} {u}" for k, (v, u) in metrics.items()]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        out = OUT_DIR / f"trace_{args.workload}_{args.seed}.json"
        out.write_text(json.dumps({"record": record, "spans": tracer.to_json()}))
        lines.append(f"spans written to {out.relative_to(ROOT)}")
    # A refused input (raised, or status not ok) counts as failed; only a
    # wrong output makes the run incorrect.
    correct = not any(c.wrong for c in calls)
    _emit(lines, record, correct, len(calls), sum(1 for c in calls if c.failed), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
