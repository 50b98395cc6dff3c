"""The benchmark's workloads and the checked stages they are built from.

A stage makes one public ddmr call inside a span, then checks the output
against an oracle from ``oracle.py``. Oracle work runs on a separate clock, so
it never counts as op time. Each checked output is one attempted operation; a
wrong output is one failed operation.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. One op answers one full question.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import ddmr
import inputs
import oracle
from spans import NullTracer

CLEAN = ddmr.RankTolerance(rel_tol=1e-10)  # float-clean synthetic records
RL_POLICY = ddmr.RankTolerance()  # the CLI default, calibrated for the RL record
CLOSE_TOL = 1e-6  # the closure tolerance `ddmr reduce` uses
VERIFY_TOL = 1e-6

# What the `ddmr` console script runs.
CLI_ENTRY = "from ddmr.cli import main; main()"
CLI_TIMEOUT_S = 60
RL_SIGMAS = ("0", "0.5", "0.7071067811865476+0.7071067811865476i",
             "0.7071067811865476-0.7071067811865476i", "1")
CLI_ARGS = {
    "check": ["check", "--data", "@paper-rl", "--order", "4",
              *(a for s in RL_SIGMAS for a in ("--sigma", s)), "--json"],
    "reduce": ["reduce", "--data", "@paper-rl", "--order", "4", "--sigma", RL_SIGMAS[1],
               "--sigma", RL_SIGMAS[2], "--r-max", "4", "--json"],
}
CLI_POINTS = {"check": len(RL_SIGMAS), "reduce": 2}

NULL_TRACER = NullTracer()


class Tally:
    """Operations attempted and failed, and per-op facts for the per-layer report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.facts: dict[str, dict[str, list[float]]] = {}


class Ctx:
    """What a stage needs: where to count, where to trace, and the current op id."""

    def __init__(self, tally: Tally, env: dict) -> None:
        self.tally = tally
        self.env = env
        self.tracer = NULL_TRACER
        self.op = ""
        self.oracle_s = 0.0

    def begin(self, op: str, tracer) -> None:
        self.op = op
        self.tracer = tracer
        self.oracle_s = 0.0

    def span(self, name: str, **attrs):
        return self.tracer.span(name, self.op, **attrs)

    @contextmanager
    def oracle(self):
        """Oracle work: traced as its own layer, excluded from op time."""
        t0 = time.perf_counter()
        try:
            with self.span("oracle.check"):
                yield
        finally:
            self.oracle_s += time.perf_counter() - t0

    def check(self, ok: bool) -> bool:
        self.tally.attempted += 1
        if not ok:
            self.tally.failed += 1
        return ok

    def fact(self, name: str, value: float) -> None:
        self.tally.facts.setdefault(name, {}).setdefault(self.op, []).append(float(value))


def as_data(record: inputs.Record) -> ddmr.DataSet:
    return ddmr.DataSet(ddmr.TimeSeries(record.u), ddmr.TimeSeries(record.y))


def expect_at(points, omega: float) -> np.ndarray:
    """Which points are e^{+-i omega}: the informative set of a single-sine record."""
    points = np.asarray(points, dtype=complex)
    return (np.abs(points - np.exp(1j * omega)) < 1e-12) | (np.abs(points - np.exp(-1j * omega)) < 1e-12)


# --- stages -----------------------------------------------------------------

def load(ctx: Ctx, path: Path, record: inputs.Record) -> ddmr.DataSet:
    with ctx.span("signals.load_csv", rows=record.u.size):
        data = ddmr.load_csv(path)
    with ctx.oracle():
        ctx.check(np.array_equal(data.input.samples, record.u) and np.array_equal(data.output.samples, record.y))
    return data


def hankels(ctx: Ctx, data: ddmr.DataSet, order: int) -> None:
    """``hankel(U, n)`` and ``hankel(Y, n)``, each timed on its own."""
    for series in (data.input, data.output):
        with ctx.span("signals.hankel"):
            H = ddmr.hankel(series, order)
        with ctx.oracle():
            s = series.samples
            width = s.size - order
            ctx.check(np.array_equal(H, np.array([s[i:i + width] for i in range(order + 1)])))


def sweep(ctx: Ctx, label: str, data: ddmr.DataSet, order: int, points, policy,
          expect: np.ndarray, truth: oracle.Truth):
    with ctx.span("informativity.informative_sweep", label=label, points=len(points)):
        verdicts = ddmr.informative_sweep(data, order, points, policy)
    with ctx.oracle():
        true = truth.value(points)
        mismatches = 0
        for v, exp, t in zip(verdicts, expect, true):
            ok = v.informative == bool(exp)
            if ok and v.informative:
                ok = v.m is not None and truth.close(v.m, t)
                if v.m is not None:
                    ctx.fact("informativity.value.max_rel_err", abs(v.m - t) / abs(t))
            mismatches += not ctx.check(ok)
        ctx.fact("informativity.points", len(verdicts))
        ctx.fact("informativity.informative", sum(v.informative for v in verdicts))
        ctx.fact("informativity.oracle_mismatches", mismatches)
    return verdicts


def values(ctx: Ctx, data: ddmr.DataSet, order: int, points, policy, truth: oracle.Truth):
    """Residual-checked values, one point at a time; every point is expected informative."""
    recovered = []
    for sigma in points:
        with ctx.span("informativity.transfer_value_from_data"):
            try:
                m, _ = ddmr.transfer_value_from_data(data, order, sigma, policy)
            except ValueError:  # the documented "not determined by the data" outcome
                m = None
        if m is not None:
            recovered.append((complex(sigma), m))
    with ctx.oracle():
        got = dict(recovered)
        true = truth.value(points)
        mismatches = 0
        for sigma, t in zip(points, true):
            m = got.get(complex(sigma))
            if m is not None:
                ctx.fact("informativity.value.max_rel_err", abs(m - t) / abs(t))
            mismatches += not ctx.check(m is not None and truth.close(m, t))
        ctx.fact("informativity.points", len(points))
        ctx.fact("informativity.informative", len(recovered))
        ctx.fact("informativity.oracle_mismatches", mismatches)
    return recovered


def fit(ctx: Ctx, pairs, r_max: int, policy, truth: oracle.Truth, system_order: int, verify_tol: float):
    """Close, interpolate and verify; the model is checked against the truth."""
    with ctx.span("interpolation.pair_set", pairs=len(pairs)):
        pair_set = ddmr.PairSet(tuple(ddmr.InterpolationPair(s, m) for s, m in pairs))
    with ctx.span("interpolation.conjugate_close", pairs=len(pair_set)):
        closed = ddmr.conjugate_close(pair_set, tol=CLOSE_TOL)
    with ctx.span("interpolation.interpolate_minimal", pairs=len(closed)):
        try:
            model = ddmr.interpolate_minimal(closed, r_max=r_max, tol_policy=policy)
        except ValueError:  # empty pair set or order budget exhausted
            model = None
    verified = None
    if model is not None:
        with ctx.span("interpolation.verify_interpolation", pairs=len(closed)):
            verified = ddmr.verify_interpolation(model, closed, verify_tol)
    with ctx.oracle():
        ctx.fact("interpolation.pairs", len(closed))
        if model is None:
            ctx.fact("interpolation.orders_tried", r_max + 1)
            ctx.check(False)
            return None
        sigmas = np.array([p.sigma for p in closed])
        given = np.array([p.m for p in closed])
        fitted = oracle.model_values(model.params.p, model.params.q, sigmas)
        true = truth.value(sigmas)
        own_ok = bool(np.all(np.abs(fitted - given) <= verify_tol))
        ctx.fact("interpolation.model_order", model.order)
        ctx.fact("interpolation.orders_tried", model.order + 1)  # the search runs r = 0, 1, ...
        ctx.fact("interpolation.max_interp_error", float(np.max(np.abs(fitted - true))))
        ctx.check(model.order == oracle.expected_order([s for s, _ in pairs], system_order)
                  and verified.ok == own_ok
                  and all(truth.close(f, t) for f, t in zip(fitted, true)))
    return model


def simulate(ctx: Ctx, params: ddmr.SystemParams, u: ddmr.TimeSeries, y_measured: np.ndarray) -> None:
    """Run the reduced model over the record's input, from zero initial outputs."""
    with ctx.span("systems.simulate", samples=len(u)):
        try:
            with np.errstate(all="ignore"):
                y = ddmr.simulate(params, u, np.zeros(params.order)).samples
        except ValueError as exc:  # raised when the response overflows
            y = exc
    with ctx.oracle():
        ref = oracle.simulate_reference(params.p, params.q, u.samples)
        finite = np.isfinite(ref)
        diverged = not finite.all()
        if diverged:
            ok = isinstance(y, ValueError) and "finite" in str(y)
        else:
            ok = isinstance(y, np.ndarray) and oracle.simulate_ok(y, ref)
        ctx.fact("systems.simulate.diverged", diverged)
        if finite.any():
            ctx.fact("systems.drift_max", float(np.max(np.abs(ref[finite] - y_measured[finite]))))
        ctx.check(ok)


def cli_call(ctx: Ctx, kind: str) -> int:
    """One `ddmr check` or `ddmr reduce` process on the bundled RL record."""
    with ctx.span(f"cli.{kind}"):
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *CLI_ARGS[kind]], env=ctx.env,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    with ctx.oracle():
        try:
            out = json.loads(proc.stdout)
        except json.JSONDecodeError:
            out = None
        if kind == "check":
            ok = isinstance(out, list) and [v.get("informative") for v in out] == list(oracle.RL_CHECK_VERDICTS)
        else:
            ok = isinstance(out, dict) and oracle.rl_model_ok(out.get("p", []), out.get("q", []))
        code_ok = proc.returncode == oracle.RL_EXIT[kind]
        ctx.fact("cli.exit_code_mismatches", not code_ok)
        ctx.check(ok and code_ok)
    return CLI_POINTS[kind]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``-X importtime`` output into the figures the report names, in ms."""
    out = {"cli.import.ms": 0.0, "cli.import.numpy_ms": 0.0, "cli.import.click_ms": 0.0,
           "cli.import.ddmr_self_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        pkg = name.strip()
        if pkg == "ddmr.cli" and not name[1:].startswith(" "):
            out["cli.import.ms"] = int(cum_us) / 1e3
        elif pkg in ("numpy", "click"):
            out[f"cli.import.{pkg}_ms"] = int(cum_us) / 1e3
        if pkg == "ddmr" or pkg.startswith("ddmr."):
            out["cli.import.ddmr_self_ms"] += int(self_us) / 1e3
    return out


def cli_startup(ctx: Ctx) -> None:
    """A bare interpreter, then `import ddmr.cli` under ``-X importtime``."""
    with ctx.span("cli.interpreter"):
        subprocess.run([sys.executable, "-c", "pass"], env=ctx.env, check=True, timeout=CLI_TIMEOUT_S)
    with ctx.span("cli.import"):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ddmr.cli"], env=ctx.env,
                              capture_output=True, text=True, check=True, timeout=CLI_TIMEOUT_S)
    with ctx.oracle():
        figures = parse_importtime(proc.stderr)
        if ctx.check(figures["cli.import.ms"] > 0):
            for name, ms in figures.items():
                ctx.fact(name, ms)


# --- workloads --------------------------------------------------------------
# ``op`` is what the timed loop repeats; ``probe`` runs only in the traced run
# and calls, on the workload's own inputs, each layer that ``op`` does not.

class RlCli:
    """The paper's own example as a user runs it: ``ddmr check`` then
    ``ddmr reduce`` on the bundled record, each a fresh process. Interpreter
    and imports dominate, so this is where `cli` changes show and where an
    informativity speed-up must show no change.

    One op is the pair. The two calls take different times, so op times of
    single calls would have two humps, and their median would sit in the gap
    between them, where a small shift of either hump moves it far."""

    name = "rl-cli"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def build(self) -> None:
        pass  # the record is bundled with ddmr; the CLI arguments are fixed

    def op(self, ctx: Ctx, i: int) -> int:
        return cli_call(ctx, "check") + cli_call(ctx, "reduce")

    def probe(self, ctx: Ctx) -> None:
        rl = ddmr.builtin_dataset("paper-rl")
        record = inputs.Record(rl.input.samples, rl.output.samples)
        path = self.workdir / "paper-rl.csv"
        if not path.exists():
            inputs.write_csv(record, path)
        data = load(ctx, path, record)
        hankels(ctx, data, 4)
        # The RL circuit's coefficients are unknown, so the sweeps run on
        # records of the same order and length from a seeded hidden system.
        rng = np.random.default_rng([self.seed, 1])
        system = inputs.hidden_system(rng, 4, 0.05, 0.2)
        truth = oracle.Truth(system.value, oracle.VALUE_RTOL)
        points = np.array(oracle.RL_CHECK_POINTS, dtype=complex)
        T = data.horizon
        sweep(ctx, "rich", as_data(inputs.white_record(rng, system, T)), 4, points, CLEAN,
              np.ones(points.size, bool), truth)
        omega = np.pi / 4
        sweep(ctx, "narrowband", as_data(inputs.sine_record(rng, system, T, omega)), 4, points, CLEAN,
              expect_at(points, omega), truth)
        pairs = values(ctx, data, 4, oracle.RL_REDUCE_POINTS, RL_POLICY, oracle.RL_TRUTH)
        model = fit(ctx, pairs, 4, RL_POLICY, oracle.RL_TRUTH, 4, oracle.RL_TOL)
        if model is not None:
            simulate(ctx, model.params, data.input, record.y)


class GridSweep:
    """Many points on mid-length records, in process: n = 4, T = 2000, a fixed
    256-point grid swept on a white-noise record (every point informative, every
    value recovered) and on a single-sine record (informative only at
    e^{i omega}, decision-only path), then a fit through the 512 closed pairs.
    The sweep dominates today; once it is fast, interpolation shows here."""

    name = "grid-sweep"
    order = 4
    horizon = 2000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.model = None

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        system = inputs.hidden_system(rng, self.order, 0.05, 0.2)  # poles well inside |sigma| >= 0.3
        self.truth = oracle.Truth(system.value, oracle.VALUE_RTOL)
        self.rich = inputs.white_record(rng, system, self.horizon)
        self.rich_data = as_data(self.rich)
        self.narrow_data = as_data(inputs.sine_record(rng, system, self.horizon, inputs.SINE_OMEGA))
        self.points = inputs.grid_points()
        self.narrow_expect = expect_at(self.points, inputs.SINE_OMEGA)

    def op(self, ctx: Ctx, i: int) -> int:
        n, pts = self.order, self.points
        rich = sweep(ctx, "rich", self.rich_data, n, pts, CLEAN, np.ones(pts.size, bool), self.truth)
        sweep(ctx, "narrowband", self.narrow_data, n, pts, CLEAN, self.narrow_expect, self.truth)
        pairs = [(v.sigma, v.m) for v in rich if v.informative]
        self.model = fit(ctx, pairs, 8, CLEAN, self.truth, n, VERIFY_TOL)
        return 2 * pts.size

    def probe(self, ctx: Ctx) -> None:
        path = self.workdir / "grid-rich.csv"
        if not path.exists():
            inputs.write_csv(self.rich, path)
        load(ctx, path, self.rich)
        hankels(ctx, self.rich_data, self.order)
        values(ctx, self.rich_data, self.order, inputs.LONG_POINTS, CLEAN, self.truth)
        if self.model is not None:
            simulate(ctx, self.model.params, self.rich_data.input, self.rich.y)
        for kind in ("check", "reduce"):
            cli_call(ctx, kind)


class LongRecord:
    """A long record read from CSV: n = 10, T = 2e4. Each op loads the file,
    recovers values one point at a time at 8 points on |sigma| = 0.95 (the
    residual-checked path, on wide SVDs), fits, and simulates the reduced
    model over the whole input. The only workload where record length, CSV
    parsing and `simulate` carry weight."""

    name = "long-record"
    order = 10
    horizon = 20_000

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.path = workdir / "long-record.csv"

    def build(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.system = inputs.hidden_system(rng, self.order, 0.5, 0.8)  # poles well inside |sigma| = 0.95
        self.truth = oracle.Truth(self.system.value, oracle.VALUE_RTOL)
        self.record = inputs.white_record(rng, self.system, self.horizon)
        inputs.write_csv(self.record, self.path)

    def op(self, ctx: Ctx, i: int) -> int:
        data = load(ctx, self.path, self.record)
        pairs = values(ctx, data, self.order, inputs.LONG_POINTS, CLEAN, self.truth)
        model = fit(ctx, pairs, 10, CLEAN, self.truth, self.order, VERIFY_TOL)
        if model is not None:
            simulate(ctx, model.params, data.input, self.record.y)
        return inputs.LONG_POINTS.size

    def probe(self, ctx: Ctx) -> None:
        data = as_data(self.record)
        hankels(ctx, data, self.order)
        pts = inputs.LONG_POINTS
        sweep(ctx, "rich", data, self.order, pts, CLEAN, np.ones(pts.size, bool), self.truth)
        sine = inputs.sine_record(np.random.default_rng([self.seed, 1]), self.system, self.horizon,
                                  inputs.SINE_OMEGA)
        sweep(ctx, "narrowband", as_data(sine), self.order, pts, CLEAN, expect_at(pts, inputs.SINE_OMEGA),
              self.truth)
        for kind in ("check", "reduce"):
            cli_call(ctx, kind)


WORKLOADS = {w.name: w for w in (RlCli, GridSweep, LongRecord)}
