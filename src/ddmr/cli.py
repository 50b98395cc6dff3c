"""Command-line front end.

Subcommands: ``check`` (informativity verdicts), ``value`` (verdicts plus
recovered transfer values), ``reduce`` (fit a minimal interpolant from
informative points), ``simulate`` (run a model over an input record), and
``verify`` (check a model against point/value pairs).

Exit codes: 0 clean, 2 ran-but-found-negatives (non-informative points or
failed verification), 1 could-not-run (bad usage, unreadable data, solver
errors).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import numpy as np

from .datasets import builtin_dataset
from .informativity import DEFAULT_REL_TOL, RankTolerance, informative_sweep
from .interpolation import (
    InterpolationPair,
    PairSet,
    ReducedModel,
    conjugate_close,
    interpolate_minimal,
    verify_interpolation,
)
from .signals import DataSet, load_csv, save_csv
from .systems import SystemParams, simulate as simulate_model

__all__ = ["main", "cli", "parse_complex", "format_complex"]


def parse_complex(text: str) -> complex:
    """Parse a shell-safe complex literal: ``a``, ``bi``, ``a+bi``, or ``a-bi``.

    No spaces are allowed inside the literal; exponents like ``1e-3`` work in
    both parts. An ``i`` literal is read by Python's ``complex`` with ``i``
    turned into ``j``; its own ``j`` suffix and parentheses are refused.
    """
    s = text.strip()
    if not s or any(ch.isspace() or ch in "jJ()" for ch in s):
        raise ValueError(f"invalid complex literal {text!r}")
    try:
        return complex(s[:-1] + "j") if s.endswith("i") else complex(float(s), 0.0)
    except ValueError:
        raise ValueError(f"invalid complex literal {text!r}") from None


def format_complex(z: complex, digits: int = 6) -> str:
    """Render a complex number in the CLI's ``a+bi`` syntax."""
    real = f"{z.real:.{digits}g}"
    if z.imag == 0:
        return real
    sign = "+" if z.imag >= 0 else "-"
    return f"{real}{sign}{abs(z.imag):.{digits}g}i"


def _load_data(spec: str) -> DataSet:
    if spec.startswith("@"):
        return builtin_dataset(spec[1:])
    return load_csv(spec)


def _load_model(path: str) -> SystemParams:
    return SystemParams.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _parse_sigmas(sigmas: tuple[str, ...]) -> list[complex]:
    if not sigmas:
        raise click.UsageError("at least one --sigma is required")
    return [parse_complex(s) for s in sigmas]


def _validated_order(order: int) -> int:
    if order < 1:
        raise click.UsageError("--order must be at least 1")
    return order


def _emit(payload, as_json: bool, out: str | None, human_lines: list[str]) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    if as_json:
        click.echo(text)
    else:
        for line in human_lines:
            click.echo(line)


def _sweep_table(verdicts, show_value: bool) -> list[str]:
    lines = [f"{'sigma':<24} {'informative':<12} {'ranks a/e/b':<12} {'tolerance':<10} {'m' if show_value else ''}"]
    for v in verdicts:
        ranks = f"{v.rank_augmented}/{v.rank_extended}/{v.rank_base}"
        m_txt = ""
        if show_value:
            m_txt = format_complex(v.m) if v.m is not None else "null"
        lines.append(
            f"{format_complex(v.sigma):<24} {('yes' if v.informative else 'no'):<12} "
            f"{ranks:<12} {v.tolerance_used:<10.2e} {m_txt}"
        )
    return lines


_data_option = click.option(
    "--data", "data_spec", required=True,
    help="CSV file with header t,u,y, or @NAME for a bundled dataset (e.g. @paper-rl).",
)
_sweep_option_stack = (
    _data_option,
    click.option("--order", type=int, required=True, help="Model order n of the data identity."),
    click.option(
        "--sigma", "sigmas", multiple=True,
        help="Interpolation point as a+bi (repeatable, no spaces inside the literal).",
    ),
    click.option(
        "--rank-rel-tol", type=float, default=DEFAULT_REL_TOL, show_default=True,
        help="Relative singular-value cutoff for rank decisions.",
    ),
    click.option(
        "--rank-abs-tol", type=float, default=None,
        help="Absolute singular-value cutoff; overrides the relative policy.",
    ),
)
_out_option = click.option("--out", default=None, help="Write the JSON report/artifact to this path.")
_json_option = click.option("--json", "as_json", is_flag=True, help="Print JSON to stdout instead of a table.")


def _sweep_options(command):
    """The record, order, points and rank policy that every sweep command takes."""
    for option in reversed(_sweep_option_stack):
        command = option(command)
    return command


@click.group()
def cli() -> None:
    """Data-driven reduced-order modeling from t,u,y records."""


def _run_sweep(data_spec, order, sigmas, rel_tol, abs_tol):
    """The rank policy from the flags and the sweep's verdicts under it."""
    data = _load_data(data_spec)
    order = _validated_order(order)
    points = _parse_sigmas(sigmas)
    policy = RankTolerance(rel_tol=rel_tol, abs_tol=abs_tol)
    return policy, informative_sweep(data, order, points, policy)


def _sweep_command(name: str, show_value: bool, summary: str) -> None:
    """Register a command that reports the sweep's verdicts, and with
    ``show_value`` their recovered values; it exits 2 on any negative."""

    @cli.command(name, help=summary)
    @_sweep_options
    @_out_option
    @_json_option
    def command(data_spec, order, sigmas, rank_rel_tol, rank_abs_tol, out, as_json) -> None:
        _, verdicts = _run_sweep(data_spec, order, sigmas, rank_rel_tol, rank_abs_tol)
        _emit([v.to_json_dict() for v in verdicts], as_json, out, _sweep_table(verdicts, show_value))
        sys.exit(0 if all(v.informative for v in verdicts) else 2)


_sweep_command("check", False, "Decide informativity for interpolation at each requested point.")
_sweep_command("value", True, "Recover transfer-function values at each informative point.")


@cli.command()
@_sweep_options
@click.option("--r-max", type=int, default=4, show_default=True, help="Largest interpolant order to try.")
@_out_option
@_json_option
def reduce(data_spec, order, sigmas, rank_rel_tol, rank_abs_tol, r_max, out, as_json) -> None:
    """Fit a minimal rational interpolant through the recovered values.

    All requested points must be informative; --out receives the model JSON.
    """
    policy, verdicts = _run_sweep(data_spec, order, sigmas, rank_rel_tol, rank_abs_tol)
    bad = [v for v in verdicts if not v.informative]
    if bad:
        for v in bad:
            click.echo(f"not informative at sigma={format_complex(v.sigma)}", err=True)
        sys.exit(2)
    pairs = PairSet(tuple(InterpolationPair(v.sigma, v.m) for v in verdicts))
    model = interpolate_minimal(conjugate_close(pairs), r_max=r_max, tol_policy=policy)
    payload = model.to_json_dict()
    human = [
        f"order r = {model.order}",
        f"p = {[float(v) for v in model.params.p]}",
        f"q = {[float(v) for v in model.params.q]}",
        f"max interpolation error = {model.max_interp_error:.3e}",
        f"rank cutoff used for recovery = {verdicts[0].tolerance_used:.3e}",
    ]
    _emit(payload, as_json, out, human)
    sys.exit(0)


@cli.command("simulate")
@click.option("--model", "model_path", required=True, help="Model JSON file ({'n':..,'p':..,'q':..}).")
@_data_option
@click.option("--init", "init_values", type=float, multiple=True,
              help="Initial output value (repeat n times; defaults to zeros).")
@_out_option
def simulate_cmd(model_path, data_spec, init_values, out) -> None:
    """Simulate a model over the input column of a record; emits t,u,y CSV."""
    params = _load_model(model_path)
    data = _load_data(data_spec)
    init = list(init_values) if init_values else [0.0] * params.order
    y = simulate_model(params, data.input, init)
    result = DataSet(data.input, y)
    if out:
        save_csv(result, out)
    else:
        click.echo("t,u,y")
        for t, (u, yv) in enumerate(zip(result.input.samples, result.output.samples)):
            click.echo(f"{t},{float(u)!r},{float(yv)!r}")
    sys.exit(0)


def _pairs_from_file(path: str) -> list[InterpolationPair]:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    items = obj["pairs"] if isinstance(obj, dict) else obj
    return list(PairSet.from_json_list(items))


@cli.command()
@click.option("--model", "model_path", required=True, help="Model JSON file.")
@click.option("--pair", "pair_specs", multiple=True,
              help="Pair literal sigma=m with both sides in a+bi syntax (repeatable).")
@click.option("--pairs-from", default=None,
              help="JSON file holding pairs (e.g. a reduce report).")
@click.option("--tol", type=float, default=1e-6, show_default=True,
              help="Per-pair absolute tolerance on the interpolation error.")
@_out_option
@_json_option
def verify(model_path, pair_specs, pairs_from, tol, out, as_json) -> None:
    """Check a model's transfer values against point/value pairs."""
    params = _load_model(model_path)
    pairs_list: list[InterpolationPair] = []
    for spec in pair_specs:
        left, sep, right = spec.partition("=")
        if not sep:
            raise click.UsageError(f"--pair must look like sigma=m, got {spec!r}")
        pairs_list.append(InterpolationPair(parse_complex(left), parse_complex(right)))
    if pairs_from:
        pairs_list.extend(_pairs_from_file(pairs_from))
    if not pairs_list:
        click.echo("warning: vacuous verification, no pairs given", err=True)
        _emit({"ok": True, "errors": [], "kinds": [], "tol": tol}, as_json, out, ["ok (vacuous)"])
        sys.exit(0)
    pairs = PairSet(tuple(pairs_list))
    model = ReducedModel(params, pairs, 0.0)
    result = verify_interpolation(model, pairs, tol)
    payload = {
        "ok": result.ok,
        "errors": [None if not np.isfinite(e) else float(e) for e in result.errors],
        "kinds": list(result.kinds),
        "tol": tol,
    }
    human = []
    for pair, err, kind in zip(pairs, result.errors, result.kinds):
        status = f"error {err:.3e}" if kind == "value" else f"no finite value ({kind})"
        human.append(f"sigma={format_complex(pair.sigma):<24} {status}")
    human.append("PASS" if result.ok else "FAIL")
    _emit(payload, as_json, out, human)
    sys.exit(0 if result.ok else 2)


def main(argv=None) -> None:
    """Entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        sys.exit(1)
    except (ValueError, OSError, KeyError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
