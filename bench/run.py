#!/usr/bin/env python3
"""Run one ddmr benchmark workload and print its metrics.

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a ddmr source tree; the library is imported from
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a traced run. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. Run
records and spans go to ``.bench_work/results/``.
"""

import os
import time

# Pinned before numpy loads, and inherited by every CLI process the run starts.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 3
PROBE_PASSES = 3
STARTUP_PROBES = 5


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_op(ctx, op_id: str, tracer, work) -> tuple[float, int]:
    """Run ``work()`` as one op, timed without its oracle work.

    An unexpected exception is one failed operation. Returns the op time in
    ms and the points ``work`` answered.
    """
    ctx.begin(op_id, tracer)
    t0 = time.perf_counter()
    points = 0
    try:
        with ctx.span("op"):
            points = work()
    except Exception:  # boundary: count it, keep the traceback, keep running
        ctx.tally.attempted += 1
        ctx.tally.failed += 1
        ctx.tally.errors.append(f"{op_id}: {traceback.format_exc()}")
    return (time.perf_counter() - t0 - ctx.oracle_s) * 1e3, points or 0


def run(args, import_s: float) -> dict:
    import report
    import spans
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                   os.environ.get("PYTHONPATH")])))
    tally = workloads.Tally()
    ctx = workloads.Ctx(tally, env)
    tracer = spans.Tracer() if args.trace else None
    null = workloads.NULL_TRACER
    try:
        # Set-up: build the inputs and run the first op, several times; the
        # import of ddmr before it happens once per process.
        setups = []
        for k in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl = cls(args.seed, workdir)
            wl.build()
            run_op(ctx, f"setup{k}", null, lambda: wl.op(ctx, 0))
            setups.append(time.perf_counter() - t0 - ctx.oracle_s)
        setup_s = import_s + statistics.median(setups)

        # Timed closed loop. In the traced run, ops alternate between untraced
        # and traced, so the two medians give the tracing overhead.
        timed, traced = [], []
        deadline = time.perf_counter() + args.seconds
        min_ops = 2 if tracer else 1
        i = 0
        while i < min_ops or time.perf_counter() < deadline:
            on = tracer is not None and i % 2 == 1
            ms, points = run_op(ctx, f"op{i}", tracer if on else null, lambda: wl.op(ctx, i))
            (traced if on else timed).append((ms, points))
            i += 1
        op_ms = [ms for ms, _ in timed]

        if tracer is None:
            metrics, extra = report.end_to_end(setup_s, op_ms, sum(p for _, p in timed),
                                               report.peak_rss_mb(children=args.workload == "rl-cli"))
            return {"metrics": metrics, "extra": extra, "tally": tally, "tracer": None}

        for k in range(PROBE_PASSES):
            run_op(ctx, f"probe{k}", tracer, lambda: wl.probe(ctx))
        for k in range(STARTUP_PROBES):
            run_op(ctx, f"startup{k}", tracer, lambda: workloads.cli_startup(ctx))
        traced_ms = [ms for ms, _ in traced]
        overhead = (100.0 * (statistics.median(traced_ms) / statistics.median(op_ms) - 1.0)
                    if traced_ms else 0.0)
        ops = {s.op for s in tracer.spans if s.op.startswith("op")}
        probes = {s.op for s in tracer.spans if s.op.startswith(("probe", "startup"))}
        layers = report.LayerReport(tracer, tally, ops, probes)
        metrics = layers.metrics(overhead)
        extra = {"traced_ops": len(traced), "untraced_ops": len(timed), "missing": layers.missing}
        return {"metrics": metrics, "extra": extra, "tally": tally, "tracer": tracer}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    if not (ROOT / "src" / "ddmr" / "__init__.py").is_file():
        print("error: run from the root of a ddmr source tree (src/ddmr not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import ddmr  # noqa: F401  the program's import cost is part of set-up; the benchmark's own is not
    import_s = time.perf_counter() - t0
    import report  # the benchmark's modules import ddmr, so they load after src/ is on the path
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    out = run(args, import_s)
    tally, metrics = out["tally"], out["metrics"]
    env = report.environment(ROOT, args.seed, BLAS_THREADS)

    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seconds": args.seconds, "env": env, **out["extra"],
              "attempted": tally.attempted, "failed": tally.failed, "errors": tally.errors,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if out["tracer"] is not None:
        out["tracer"].write(results / f"{stem}-spans.json", {"workload": args.workload, "env": env})

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"{'failed_frac':<44} {frac:>14.6g} ratio ({tally.failed}/{tally.attempted})")
    for key in ("op_tail_percentile", "ops", "traced_ops", "untraced_ops", "missing"):
        if key in out["extra"]:
            print(f"{key:<44} {out['extra'][key]}")
    for err in tally.errors[:3]:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
