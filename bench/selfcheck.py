#!/usr/bin/env python3
"""Check the benchmark itself.

    python3 bench/selfcheck.py

Run from the repository root. Part one runs each workload briefly, untraced
and traced, and checks that the result line names exactly the metrics of
BENCHMARK.json with their units and that the oracles pass. Part two feeds
deliberately corrupted ddmr outputs to the stages and checks that the oracles
catch and count every one. Exits 0 when all checks hold.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SEED = 1


def short_runs(spec: dict) -> list[str]:
    problems = []
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [*spec["command"], "--workload", wl, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            tag = f"{wl} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: {set(got) ^ set(wanted[trace])}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] > 0):
                problems.append(f"{tag}: oracles failed {res['failed']} of {res['attempted']}")
            print(f"{tag}: {len(got)} metrics, {res['attempted']} checked, {res['failed']} failed")
    return problems


def corrupted_outputs() -> list[str]:
    """Each case perturbs one ddmr output by 1e-4 relative; its stage must count the failure."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import numpy as np

    import ddmr
    import inputs
    import oracle
    import workloads as W

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    rng = np.random.default_rng(SEED)
    system = inputs.hidden_system(rng, 4, 0.05, 0.2)
    truth = oracle.Truth(system.value, oracle.VALUE_RTOL)
    record = inputs.white_record(rng, system, 200)
    data = W.as_data(record)
    pts = np.array([0.5 + 0.5j, -0.3 + 0.9j])
    hidden = ddmr.SystemParams(4, system.den[:0:-1], system.num[::-1])
    bad = 1.0 + 1e-4

    def scaled_model(model):
        params = ddmr.SystemParams(model.order, model.params.p, model.params.q * bad)
        return ddmr.ReducedModel(params, model.source_pairs, model.max_interp_error)

    # stage, the ddmr function it calls, and how to corrupt that function's result
    cases = {
        "hankel": (lambda ctx: W.hankels(ctx, data, 4), "hankel", lambda H: H * bad),
        "sweep": (lambda ctx: W.sweep(ctx, "rich", data, 4, pts, W.CLEAN, np.ones(2, bool), truth),
                  "informative_sweep", lambda vs: [dataclasses.replace(v, m=v.m * bad) for v in vs]),
        "values": (lambda ctx: W.values(ctx, data, 4, pts, W.CLEAN, truth),
                   "transfer_value_from_data", lambda r: (r[0] * bad, r[1])),
        "fit": (lambda ctx: W.fit(ctx, list(zip(pts, truth.value(pts))), 4, W.CLEAN, truth, 4, W.VERIFY_TOL),
                "interpolate_minimal", scaled_model),
        "simulate": (lambda ctx: W.simulate(ctx, hidden, data.input, record.y),
                     "simulate", lambda y: ddmr.TimeSeries(y.samples * bad)),
    }

    def run(stage) -> W.Tally:
        tally = W.Tally()
        ctx = W.Ctx(tally, env)
        ctx.begin("selfcheck", W.NULL_TRACER)
        stage(ctx)
        return tally

    problems = []
    for name, (stage, target, corrupt) in cases.items():
        clean = run(stage)
        real = getattr(ddmr, target)
        setattr(ddmr, target, lambda *a, real=real, corrupt=corrupt, **k: corrupt(real(*a, **k)))
        try:
            dirty = run(stage)
        finally:
            setattr(ddmr, target, real)
        problems += _verdict(f"corrupted {name}", clean.failed == 0 and dirty.failed > 0,
                             f"clean {clean.failed}/{clean.attempted}, corrupted {dirty.failed}/{dirty.attempted}")

    # A `ddmr check` answer with one verdict flipped, and one with exit code 0.
    real_run = subprocess.run
    edits = {
        "cli verdict": lambda p: subprocess.CompletedProcess(
            p.args, p.returncode, p.stdout.replace('"informative": false', '"informative": true', 1), p.stderr),
        "cli exit code": lambda p: subprocess.CompletedProcess(p.args, 0, p.stdout, p.stderr),
    }
    for name, edit in edits.items():
        W.subprocess.run = lambda *a, edit=edit, **k: edit(real_run(*a, **k))
        try:
            tally = run(lambda ctx: W.cli_call(ctx, "check"))
        finally:
            W.subprocess.run = real_run
        problems += _verdict(f"corrupted {name}", tally.failed > 0, f"{tally.failed}/{tally.attempted}")
    return problems


def _verdict(label: str, caught: bool, detail: str) -> list[str]:
    print(f"{label}: {detail} failed -> {'caught' if caught else 'MISSED'}")
    return [] if caught else [f"{label} not caught"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = short_runs(spec) + corrupted_outputs()
    for p in problems:
        print("PROBLEM:", p)
    print("selfcheck:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
