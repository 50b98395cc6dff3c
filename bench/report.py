"""Turn op timings, spans and facts into the metrics named in BENCHMARK.json."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
from pathlib import Path

from spans import Tracer
from workloads import Tally

LAYERS = ("signals", "informativity", "interpolation", "systems", "cli")


def tail(values: list[float]) -> tuple[float, float]:
    """Tail op time, as ``(value, percentile)``.

    A run of 100 ops or more reports the highest percentile with at least ten
    ops beyond it. A shorter run has no such percentile at or above the 90th,
    so it reports the 90th, interpolated between its ops.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], 100.0 * (n - 10) / n
    if n == 1:
        return ordered[0], 100.0
    return statistics.quantiles(ordered, n=10, method="inclusive")[-1], 90.0


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(setup_s: float, op_ms: list[float], points: int, rss_mb: float) -> tuple[dict, dict]:
    """The end-to-end metrics, and what the run record keeps beside them.

    ``points_per_s`` divides the mean points per op by the median op time,
    so one stalled op moves it no more than it moves ``op_p50_ms``.
    """
    p50 = statistics.median(op_ms)
    value, pct = tail(op_ms)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50, "ms"),
        "op_tail_ms": (value, "ms"),
        "points_per_s": (points / len(op_ms) / (p50 / 1e3), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }, {"op_tail_percentile": pct, "ops": len(op_ms), "op_ms": op_ms}


class LayerReport:
    """Per-layer metrics from one traced run.

    A figure comes from the timed ops when they call that layer, otherwise
    from the probe passes, which call it on the same workload's inputs.
    """

    def __init__(self, tracer: Tracer, tally: Tally, ops: set[str], probes: set[str]) -> None:
        self.tracer = tracer
        self.tally = tally
        self.ops = ops
        self.probes = probes
        self.missing: list[str] = []

    def _source(self, present: set[str]) -> set[str]:
        return self.ops if present & self.ops else self.probes

    def spans(self, name: str, **match):
        found = [s for s in self.tracer.spans
                 if s.name == name and all(s.attrs.get(k) == v for k, v in match.items())]
        src = self._source({s.op for s in found})
        return [s for s in found if s.op in src]

    def ms(self, name: str, per: str | None = None, **match) -> float:
        """Median span time, divided by the span's ``per`` attribute when given."""
        found = self.spans(name, **match)
        if not found:
            return self._missing(name)
        return statistics.median(s.ms / (s.attrs[per] if per else 1) for s in found)

    def rate(self, name: str, attr: str) -> float:
        """Median of the span's ``attr`` per second."""
        found = self.spans(name)
        if not found:
            return self._missing(name)
        return statistics.median(s.attrs[attr] / (s.ms / 1e3) for s in found)

    def _facts(self, name: str) -> list[list[float]]:
        by_op = self.tally.facts.get(name, {})
        src = self._source(set(by_op))
        return [v for op, v in by_op.items() if op in src]

    def per_op(self, name: str) -> float:
        """A count, as the median over ops of its per-op sum."""
        sums = [sum(v) for v in self._facts(name)]
        return statistics.median(sums) if sums else self._missing(name)

    def total(self, name: str) -> float:
        return sum(sum(v) for v in self._facts(name))

    def worst(self, name: str) -> float:
        vals = [x for v in self._facts(name) for x in v]
        return max(vals) if vals else self._missing(name)

    def sample(self, name: str) -> float:
        vals = [x for v in self._facts(name) for x in v]
        return statistics.median(vals) if vals else self._missing(name)

    def self_ms(self, layer: str) -> float:
        """Self time of ``layer`` per op, over traced ops or else probe passes."""
        for src in (self.ops, self.probes):
            total = self.tracer.self_ms(src).get(layer)
            if total is not None and src:
                return total / len(src)
        return self._missing(f"{layer}.self_ms")

    def _missing(self, name: str) -> float:
        self.missing.append(name)
        return 0.0

    def metrics(self, overhead_pct: float) -> dict:
        m = {
            "signals.load_csv.ms": (self.ms("signals.load_csv"), "ms"),
            "signals.load_csv.rows_per_s": (self.rate("signals.load_csv", "rows"), "1/s"),
            "signals.hankel.ms": (self.ms("signals.hankel"), "ms"),
            "informativity.sweep.rich.ms_per_point":
                (self.ms("informativity.informative_sweep", per="points", label="rich"), "ms"),
            "informativity.sweep.narrowband.ms_per_point":
                (self.ms("informativity.informative_sweep", per="points", label="narrowband"), "ms"),
            "informativity.value.ms_per_point": (self.ms("informativity.transfer_value_from_data"), "ms"),
            "informativity.points": (self.per_op("informativity.points"), "count"),
            "informativity.informative": (self.per_op("informativity.informative"), "count"),
            "informativity.oracle_mismatches": (self.per_op("informativity.oracle_mismatches"), "count"),
            "informativity.value.max_rel_err": (self.worst("informativity.value.max_rel_err"), "ratio"),
            "interpolation.conjugate_close.ms": (self.ms("interpolation.conjugate_close"), "ms"),
            "interpolation.interpolate_minimal.ms": (self.ms("interpolation.interpolate_minimal"), "ms"),
            "interpolation.verify.ms": (self.ms("interpolation.verify_interpolation"), "ms"),
            "interpolation.pairs": (self.per_op("interpolation.pairs"), "count"),
            "interpolation.model_order": (self.per_op("interpolation.model_order"), "count"),
            "interpolation.orders_tried": (self.per_op("interpolation.orders_tried"), "count"),
            "interpolation.max_interp_error": (self.worst("interpolation.max_interp_error"), "abs"),
            "systems.simulate.ms": (self.ms("systems.simulate"), "ms"),
            "systems.simulate.samples_per_s": (self.rate("systems.simulate", "samples"), "1/s"),
            "systems.simulate.diverged": (self.per_op("systems.simulate.diverged"), "count"),
            "systems.drift_max": (self.worst("systems.drift_max"), "abs"),
            "cli.interpreter.ms": (self.ms("cli.interpreter"), "ms"),
            "cli.import.ms": (self.sample("cli.import.ms"), "ms"),
            "cli.import.numpy_ms": (self.sample("cli.import.numpy_ms"), "ms"),
            "cli.import.click_ms": (self.sample("cli.import.click_ms"), "ms"),
            "cli.import.ddmr_self_ms": (self.sample("cli.import.ddmr_self_ms"), "ms"),
            "cli.check.ms": (self.ms("cli.check"), "ms"),
            "cli.reduce.ms": (self.ms("cli.reduce"), "ms"),
            "cli.exit_code_mismatches": (self.total("cli.exit_code_mismatches"), "count"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = (self.self_ms(layer), "ms")
        m["trace.overhead_pct"] = (overhead_pct, "%")
        return m


def environment(root: Path, seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "git_commit": _git_commit(root),
        "seed": seed,
        "executable": Path(sys.executable).name,
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree; read directly, no git process."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None
