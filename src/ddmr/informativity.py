"""Rank-based data informativity tests and transfer-value recovery.

Whether input-output data pins down a system's transfer-function value at a
point ``sigma`` reduces to two rank conditions on the data stack
``B = [H_n(U); H_n(Y)]`` extended by power columns of ``sigma``. ``B`` does
not depend on ``sigma``, so it is factored once per (record, order) and every
point is then decided by projecting its power columns off the range of
``B``. When both conditions hold, the (unique) value falls out of the same
projection as a one-unknown least-squares solve.

Exact rank is a fiction in floating point, and doubly so for data recorded
with a few printed decimals, so every decision here goes through an explicit
:class:`RankTolerance` policy and every verdict reports the cutoff and the
quantities it was compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .signals import DataSet, hankel

__all__ = [
    "DEFAULT_REL_TOL",
    "RankTolerance",
    "InformativityVerdict",
    "power_vector",
    "is_informative",
    "transfer_value_from_data",
    "informative_sweep",
]

# Deliberately looser than machine-precision heuristics: measured data often
# carries only a handful of decimals, and the rank decisions must reflect the
# dominant structure rather than the rounding noise. Override per call via
# RankTolerance when the data quality warrants it.
DEFAULT_REL_TOL = 5e-6


@dataclass(frozen=True)
class RankTolerance:
    """Threshold policy for numerical rank decisions.

    A singular value counts as nonzero when it exceeds
    ``rel_tol * s_max * max(rows, cols)``; a non-``None`` ``abs_tol``
    overrides the formula with a fixed cutoff.
    """

    rel_tol: float = DEFAULT_REL_TOL
    abs_tol: float | None = None

    def __post_init__(self) -> None:
        if not self.rel_tol > 0:
            raise ValueError("rel_tol must be positive")
        if self.abs_tol is not None and not self.abs_tol > 0:
            raise ValueError("abs_tol must be positive when given")

    def threshold(self, singular_values: np.ndarray, shape: tuple[int, int]) -> float:
        if self.abs_tol is not None:
            return float(self.abs_tol)
        s_max = float(singular_values[0]) if len(singular_values) else 0.0
        return self.rel_tol * s_max * max(shape)

    def zero_tol(self) -> float:
        """Scalar zero test reused for coefficient admissibility checks."""
        return float(self.abs_tol) if self.abs_tol is not None else self.rel_tol


def power_vector(sigma: complex | np.ndarray, degree: int) -> np.ndarray:
    """Column of powers ``[1, sigma, sigma**2, ..., sigma**degree]``.

    Each power is the previous one times ``sigma`` (a running product), so
    the recurrence ``w[k] = sigma * w[k-1]`` holds exactly, also where the
    powers underflow into the subnormal range. A 1-D array of K points gives
    the ``(degree + 1) x K`` matrix of their power columns.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    z = np.asarray(sigma, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise ValueError("sigma must be finite")
    factors = np.ones((degree + 1,) + z.shape, dtype=complex)
    factors[1:] = z
    return np.cumprod(factors, axis=0)


@dataclass(frozen=True)
class InformativityVerdict:
    """Outcome of the two rank tests at one interpolation point.

    ``condition_a`` is the solvability test (augmented rank equals extended
    rank); ``condition_b`` is the uniqueness test (extended rank exceeds the
    base data rank by one). The point is informative exactly when both hold,
    and ``m`` then carries the recovered value with its ``solve_residual``.
    ``tolerance_used`` is the cutoff of the record's data stack ``B``, shared
    by every point of a sweep; ``spectra`` holds ``B``'s singular values and
    the two projection norms that were compared with that cutoff.
    """

    sigma: complex
    informative: bool
    m: complex | None
    condition_a: bool
    condition_b: bool
    rank_augmented: int
    rank_extended: int
    rank_base: int
    tolerance_used: float
    solve_residual: float | None = None
    spectra: tuple = field(default=(), repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "sigma": [self.sigma.real, self.sigma.imag],
            "informative": self.informative,
            "m": None if self.m is None else [self.m.real, self.m.imag],
            "condition_a": self.condition_a,
            "condition_b": self.condition_b,
            "ranks": {
                "augmented": self.rank_augmented,
                "extended": self.rank_extended,
                "base": self.rank_base,
            },
            "tolerance": self.tolerance_used,
        }


def _check_order_and_horizon(data: DataSet, order: int) -> None:
    if order < 1:
        raise ValueError("order must be at least 1")
    if data.horizon < order:
        raise ValueError(f"insufficient data for order {order}: horizon T={data.horizon}")


def informative_sweep(
    data: DataSet,
    order: int,
    sigmas,
    tol_policy: RankTolerance | None = None,
) -> list[InformativityVerdict]:
    """Decide informativity at every point of ``sigmas``, preserving order.

    The data stack ``B = [H_n(U); H_n(Y)]`` is factored once by a thin SVD;
    its singular values above the policy cutoff ``tau`` span the numerical
    range ``U_r`` (rank r). With ``w`` the power column of a point,
    ``e = [0; w]`` and ``f = [w; 0]``:

    - ``c = e - U_r U_r^T e`` leaves the range when ``||c|| > tau``
      (condition b: the extended rank is r + 1);
    - ``g = f - U_r U_r^T f`` minus its component ``t c`` along ``c`` leaves
      ``d``; ``[w; 0]`` lies in the extended range when ``||d|| <= tau``
      (condition a).

    At an informative point the value is ``m = -t`` and ``||d||`` is the
    residual of that solve. All points are decided together by matrix
    products; no per-point factorisation is made.
    """
    policy = tol_policy if tol_policy is not None else RankTolerance()
    _check_order_and_horizon(data, order)
    base = np.vstack([hankel(data.input, order), hankel(data.output, order)])
    u, s, _ = np.linalg.svd(base, full_matrices=False)
    tau = policy.threshold(s, base.shape)
    rank = int(np.count_nonzero(s > tau))
    u_r = u[:, :rank]

    points = np.asarray(list(sigmas), dtype=complex)
    w = power_vector(points, order)
    zero = np.zeros_like(w)
    c = np.vstack([zero, w]) - u_r @ (u_r[order + 1 :].T @ w)
    g = np.vstack([w, zero]) - u_r @ (u_r[: order + 1].T @ w)
    c_sq = np.sum(np.abs(c) ** 2, axis=0)
    c_norm = np.sqrt(c_sq)
    cond_b = c_norm > tau
    t = np.zeros(points.size, dtype=complex)
    np.divide(np.sum(c.conj() * g, axis=0), c_sq, out=t, where=cond_b)
    d_norm = np.linalg.norm(g - t * c, axis=0)
    cond_a = d_norm <= tau

    verdicts = []
    for k, sigma in enumerate(points):
        a, b = bool(cond_a[k]), bool(cond_b[k])
        informative = a and b
        verdicts.append(InformativityVerdict(
            sigma=complex(sigma),
            informative=informative,
            m=complex(-t[k]) if informative else None,
            condition_a=a,
            condition_b=b,
            rank_augmented=rank + b + (not a),
            rank_extended=rank + b,
            rank_base=rank,
            tolerance_used=tau,
            solve_residual=float(d_norm[k]) if informative else None,
            spectra=(s, float(c_norm[k]), float(d_norm[k])),
        ))
    return verdicts


def is_informative(
    data: DataSet,
    order: int,
    sigma: complex,
    tol_policy: RankTolerance | None = None,
) -> InformativityVerdict:
    """Decide informativity for interpolation at one point.

    A sweep over the single point ``sigma``; see :func:`informative_sweep`.
    When both conditions hold, the unique value is recovered and attached.
    """
    return informative_sweep(data, order, [sigma], tol_policy)[0]


def transfer_value_from_data(
    data: DataSet,
    order: int,
    sigma: complex,
    tol_policy: RankTolerance | None = None,
) -> tuple[complex, float]:
    """Recover the transfer-function value at ``sigma`` from the data alone.

    The point must be informative; otherwise the value is not determined by
    the data and a ``ValueError`` is raised. Returns ``(m, residual)``: the
    residual is the solve residual ``||d||``, which condition a already
    bounds by the cutoff ``tolerance_used`` at every informative point.
    """
    verdict = is_informative(data, order, sigma, tol_policy)
    if not verdict.informative:
        raise ValueError(
            f"transfer value not determined by data at sigma={complex(sigma)} "
            f"(condition_a={verdict.condition_a}, condition_b={verdict.condition_b})"
        )
    return verdict.m, verdict.solve_residual
