"""Discrete-time SISO difference-equation models.

Representation, transfer-function evaluation (including the degenerate
pole/indeterminate cases), forward simulation, and the row-vector identity
that decides whether a parameter set explains a measured record.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Literal

import numpy as np
from numpy.polynomial import polynomial as npoly

from .signals import DataSet, TimeSeries, hankel, hankel_trimmed

__all__ = [
    "SystemParams",
    "TransferValue",
    "TransferKind",
    "poly_zero_tol",
    "transfer_kinds",
    "eval_transfer",
    "simulate",
    "explains_data",
]

TransferKind = Literal["value", "pole", "indeterminate"]


def _frozen_vector(values, size: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size != size:
        raise ValueError(f"{what} must have {size} entries, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemParams:
    """Coefficients of an order-n difference equation.

    The model is ``y[t+n] + p[n-1] y[t+n-1] + ... + p[0] y[t]
    = q[n] u[t+n] + ... + q[0] u[t]`` with a monic output side, so ``p``
    has n entries and ``q`` has n+1. Order 0 is the static gain
    ``y[t] = q[0] u[t]``.
    """

    order: int
    p: np.ndarray
    q: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemParams):
            return NotImplemented
        return (
            self.order == other.order
            and np.array_equal(self.p, other.p)
            and np.array_equal(self.q, other.q)
        )

    def __post_init__(self) -> None:
        if not isinstance(self.order, (int, np.integer)) or self.order < 0:
            raise ValueError(f"order must be a nonnegative integer, got {self.order!r}")
        object.__setattr__(self, "order", int(self.order))
        object.__setattr__(self, "p", _frozen_vector(self.p, self.order, "p"))
        object.__setattr__(self, "q", _frozen_vector(self.q, self.order + 1, "q"))

    def to_row(self) -> np.ndarray:
        """Stack as the row vector [q, -p] used by the data identity."""
        return np.concatenate([self.q, -self.p])

    @classmethod
    def from_row(cls, row, order: int) -> "SystemParams":
        row = np.asarray(row, dtype=float).reshape(-1)
        if row.size != 2 * order + 1:
            raise ValueError(f"row must have {2 * order + 1} entries, got {row.size}")
        return cls(order, -row[order + 1 :], row[: order + 1])

    def to_json_dict(self) -> dict:
        return {"n": self.order, "p": [float(v) for v in self.p], "q": [float(v) for v in self.q]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SystemParams":
        return cls(int(obj["n"]), obj["p"], obj["q"])


@dataclass(frozen=True)
class TransferValue:
    """Outcome of evaluating a transfer function at one point.

    ``kind`` is "value" with ``m`` set when the denominator is nonzero,
    "pole" when only the denominator vanishes, and "indeterminate" when
    numerator and denominator both vanish (every value is then consistent
    with the defining relation).
    """

    kind: TransferKind
    m: complex | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("value", "pole", "indeterminate"):
            raise ValueError(f"unknown transfer value kind {self.kind!r}")
        if self.kind == "value":
            if self.m is None:
                raise ValueError("kind 'value' requires m")
            object.__setattr__(self, "m", complex(self.m))
        elif self.m is not None:
            raise ValueError(f"kind {self.kind!r} must not carry m")


def poly_zero_tol(order: int, sigma: complex) -> float:
    """Absolute zero threshold for P(sigma), Q(sigma).

    Scales with the largest monomial magnitude so near-poles far from the
    origin are not misclassified.
    """
    return 1e-10 * (1.0 + abs(sigma) ** order)


def transfer_kinds(pv, qv, zero_tol) -> np.ndarray:
    """Kind of Q/P at each point from the values ``pv`` of P and ``qv`` of Q.

    "value" where ``|pv|`` exceeds ``zero_tol``, else "pole" where ``|qv|``
    does, else "indeterminate". The arguments broadcast; a scalar call
    gives a 0-d array.
    """
    return np.where(np.abs(pv) > zero_tol, "value",
                    np.where(np.abs(qv) > zero_tol, "pole", "indeterminate"))


def eval_transfer(params: SystemParams, sigma: complex) -> TransferValue:
    """Transfer-function value of the model at ``sigma``.

    With the monic denominator P = ``[p, 1]`` and the numerator Q = ``q``
    (ascending powers), returns Q(sigma)/P(sigma) when the denominator is
    nonzero (up to :func:`poly_zero_tol`), a "pole" when only P vanishes,
    and "indeterminate" when both vanish.
    """
    sigma = complex(sigma)
    if not cmath.isfinite(sigma):
        raise ValueError("sigma must be finite")
    pv = complex(npoly.polyval(sigma, np.concatenate([params.p, [1.0]])))
    qv = complex(npoly.polyval(sigma, params.q))
    kind = str(transfer_kinds(pv, qv, poly_zero_tol(params.order, sigma)))
    return TransferValue(kind, qv / pv if kind == "value" else None)


def simulate(params: SystemParams, input: TimeSeries, initial_output=()) -> TimeSeries:
    """Run the difference equation forward over an input signal.

    The first ``order`` output samples are the supplied initial values;
    from t = order on, each sample follows the recursion
    ``y[t] = sum_i q[i] u[t-n+i] - sum_i p[i] y[t-n+i]``.
    """
    n = params.order
    u = input.samples
    init = np.asarray(initial_output, dtype=float).reshape(-1)
    if init.size != n:
        raise ValueError(f"expected {n} initial output values, got {init.size}")
    if u.size < n + 1:
        raise ValueError(f"input too short for order {n}: need at least {n + 1} samples")
    y = np.empty(u.size)
    y[:n] = init
    for t in range(n, u.size):
        y[t] = params.q @ u[t - n : t + 1] - params.p @ y[t - n : t]
    return TimeSeries(y)


def explains_data(params: SystemParams, data: DataSet, tol: float) -> tuple[bool, float]:
    """Check whether the parameters are consistent with a measured record.

    Forms the row-vector identity ``[q, -p] @ [H_n(U); H_n(Y) without its
    last row] = [y_n ... y_T]`` and compares sides. Returns
    ``(ok, residual)`` where ``residual`` is the maximum absolute defect;
    it is reported even when the check fails.
    """
    n = params.order
    T = data.horizon
    if T < n:
        raise ValueError(f"insufficient data for order {n}: horizon T={T}")
    target = data.output.samples[n:]
    if n == 0:
        lhs = params.q[0] * data.input.samples
    else:
        G = np.vstack([hankel(data.input, n), hankel_trimmed(data.output, n)])
        lhs = params.to_row() @ G
    residual = float(np.max(np.abs(lhs - target)))
    return residual <= tol, residual
