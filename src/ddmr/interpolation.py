"""Minimal real rational interpolation of point/value pairs.

Given pairs (sigma_j, m_j), find the lowest order r such that a real
rational function b(z)/a(z) with monic denominator of degree r matches every
pair, and package it as a difference-equation model. The construction
linearizes each constraint ``b(sigma_j) - m_j a(sigma_j) = 0`` into real
rows over the 2r+2 polynomial coefficients and reads candidates off the
null space of the stacked system.

The coefficients are ordered ``[a_0, b_0, a_1, b_1, ...]``, so every order's
system is the leading ``2r+2`` columns of the highest order's, and one QR
factorisation serves every order. Conjugate partners and duplicate points
are matched by sorting, not by comparing every pair with every other.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.polynomial import polynomial as npoly

from .informativity import RankTolerance, power_vector
from .systems import SystemParams, poly_zero_tol, transfer_kinds

__all__ = [
    "InterpolationPair",
    "PairSet",
    "ReducedModel",
    "InterpolationCheck",
    "conjugate_close",
    "interpolate_minimal",
    "verify_interpolation",
]

# Matching cutoff used only to recognize that a point *is* the conjugate of
# another; value consistency between partners has its own user-facing tol.
_PARTNER_ATOL = 1e-12

# How far a partner's value may stray from the conjugate of its mate. One
# default for closing a set and for checking it, so that a set
# ``conjugate_close`` accepts is never rejected by ``interpolate_minimal``.
_CONJUGATE_TOL = 1e-6


@dataclass(frozen=True)
class InterpolationPair:
    """One interpolation constraint: prescribed value ``m`` at point ``sigma``."""

    sigma: complex
    m: complex

    def __post_init__(self) -> None:
        sigma = complex(self.sigma)
        m = complex(self.m)
        if not cmath.isfinite(sigma):
            raise ValueError("sigma must be finite")
        if not cmath.isfinite(m):
            raise ValueError("m must be finite")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "m", m)

    def conjugate(self) -> "InterpolationPair":
        return InterpolationPair(self.sigma.conjugate(), self.m.conjugate())


@dataclass(frozen=True)
class PairSet:
    """Ordered collection of interpolation pairs with pairwise distinct points."""

    pairs: tuple[InterpolationPair, ...]

    def __post_init__(self) -> None:
        pairs = tuple(self.pairs)
        z = _points(pairs)
        i, k = _matches(z, z)
        dup = i[k > i]
        if dup.size:
            raise ValueError(f"duplicate interpolation point sigma={pairs[dup.min()].sigma}")
        object.__setattr__(self, "pairs", pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[InterpolationPair]:
        return iter(self.pairs)

    def to_json_list(self) -> list:
        return [
            {"sigma": [p.sigma.real, p.sigma.imag], "m": [p.m.real, p.m.imag]}
            for p in self.pairs
        ]

    @classmethod
    def from_json_list(cls, items) -> "PairSet":
        return cls(
            tuple(
                InterpolationPair(complex(it["sigma"][0], it["sigma"][1]),
                                  complex(it["m"][0], it["m"][1]))
                for it in items
            )
        )


@dataclass(frozen=True)
class ReducedModel:
    """A rational interpolant packaged as a difference-equation model."""

    params: SystemParams
    source_pairs: PairSet
    max_interp_error: float

    @property
    def order(self) -> int:
        return self.params.order

    def to_json_dict(self) -> dict:
        out = self.params.to_json_dict()
        out["r"] = self.order
        out["pairs"] = self.source_pairs.to_json_list()
        out["max_interp_error"] = float(self.max_interp_error)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ReducedModel":
        return cls(
            SystemParams.from_json_dict(obj),
            PairSet.from_json_list(obj.get("pairs", [])),
            float(obj.get("max_interp_error", 0.0)),
        )


@dataclass(frozen=True, eq=False)
class InterpolationCheck:
    """Per-pair verification record: ``errors[j]`` is ``inf`` where the model
    has no finite value (kind recorded in ``kinds[j]``)."""

    ok: bool
    errors: np.ndarray
    kinds: tuple[str, ...]


def _points(pairs) -> np.ndarray:
    return np.array([p.sigma for p in pairs], dtype=complex)


def _values(pairs) -> np.ndarray:
    return np.array([p.m for p in pairs], dtype=complex)


def _matches(queries: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs ``(i, k)``, ordered by i then k, such that ``points[k]``
    lies within ``_PARTNER_ATOL * (1 + |queries[i]|)`` of ``queries[i]``.

    The points are sorted on their real parts, and each query is tested only
    against the points in a window around its own real part. The window
    reaches twice the largest tolerance to each side, so rounding in its
    bounds never drops a match.
    """
    order = np.argsort(points.real, kind="stable")
    keys = points.real[order]
    width = 2.0 * _PARTNER_ATOL * (1.0 + np.abs(queries).max(initial=0.0))
    lo = np.searchsorted(keys, queries.real - width, side="left")
    counts = np.searchsorted(keys, queries.real + width, side="right") - lo
    i = np.repeat(np.arange(queries.size), counts)
    k = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(i.size)]
    hit = np.abs(points[k] - queries[i]) <= _PARTNER_ATOL * (1.0 + np.abs(queries[i]))
    i, k = i[hit], k[hit]
    by_query = np.lexsort((k, i))
    return i[by_query], k[by_query]


def conjugate_close(pairs: PairSet, tol: float = _CONJUGATE_TOL) -> PairSet:
    """Extend a pair set so every complex point has its conjugate partner.

    A real-coefficient interpolant forces conjugate values at conjugate
    points (a real point is its own partner). Missing partners are appended
    in input order; a present partner whose value disagrees beyond ``tol``
    means no real system can match the set, which is an error. A point's
    partner is the first match among the input pairs, then among the
    partners appended so far.
    """
    z = _points(pairs)
    n = z.size
    # Slots 0..n-1 hold the input pairs, slot n+i the partner appended for
    # pair i; a partner is looked up only among the filled slots.
    slots: list[InterpolationPair | None] = list(pairs.pairs) + [None] * n
    hits: list[list[int]] = [[] for _ in range(n)]
    for i, j in zip(*(a.tolist() for a in _matches(z.conj(), np.concatenate([z, z.conj()])))):
        hits[i].append(j)
    for i, pair in enumerate(pairs.pairs):
        partner = next((slots[j] for j in hits[i] if slots[j] is not None), None)
        if partner is None:
            slots[n + i] = pair.conjugate()
        elif abs(partner.m - pair.m.conjugate()) > tol:
            raise ValueError(
                "pair set inconsistent with a real system: value at "
                f"sigma={partner.sigma} is {partner.m}, expected "
                f"{pair.m.conjugate()} (conjugate of the value at {pair.sigma})"
            )
    return PairSet(tuple(p for p in slots if p is not None))


def interpolate_minimal(
    pairs: PairSet,
    r_max: int,
    tol_policy: RankTolerance | None = None,
) -> ReducedModel:
    """Lowest-order real rational interpolant through a conjugate-closed set.

    Orders r = 0, 1, ..., r_max are searched in turn; for each, candidates
    are the right singular vectors of the constraint matrix whose singular
    values fall below the policy cutoff, scanned from the smallest singular
    value upward. When that null space has two or more dimensions, they are
    followed by the projections onto it of a fixed probe vector and of each
    coordinate axis, which depend on the null space and not on the basis
    the SVD picks in it. A candidate is rejected when its leading denominator
    coefficient is below the policy's zero test (not proper at order r) or
    when its denominator vanishes at a pair's point. In exact arithmetic a
    candidate whose polynomials share a factor deflates to an interpolant of
    lower order, which the search meets first, so it needs no test. The first
    admissible candidate is normalized to a monic denominator and returned,
    so the result is minimal by search order.

    The constraint matrix of order ``r_max`` is built once with columns
    ``[a_0, b_0, a_1, b_1, ...]`` and factored by one QR; order r reads the
    leading ``2r+2`` columns of R, whose singular values and right singular
    vectors are those of its own constraint matrix.

    Raises ``ValueError`` when the pair set is not conjugate-closed or no
    order within the budget admits an interpolant.
    """
    policy = tol_policy if tol_policy is not None else RankTolerance()
    if len(pairs) == 0:
        raise ValueError("cannot interpolate an empty pair set")
    z, m = _points(pairs), _values(pairs)
    i, k = _matches(z.conj(), z)
    partner = np.full(z.size, -1)
    first = np.flatnonzero(np.diff(i, prepend=-1))
    partner[i[first]] = k[first]
    unmatched = (partner < 0) | (np.abs(m[partner] - m.conj()) > _CONJUGATE_TOL)
    if unmatched.any():
        raise ValueError(
            "pair set is not conjugate-closed; run conjugate_close first "
            f"(offending point sigma={pairs.pairs[int(np.argmax(unmatched))].sigma})"
        )
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    eps = policy.zero_tol()

    # Orders whose power columns overflow cannot be searched in floating
    # point; only the finite leading columns are factored.
    with np.errstate(over="ignore", invalid="ignore"):
        w = power_vector(z, r_max)
        constraints = np.empty((z.size, 2 * r_max + 2), dtype=complex)
        constraints[:, 0::2] = -m[:, None] * w.T
        constraints[:, 1::2] = w.T
        scale = np.sqrt(np.cumsum(np.abs(w) ** 2, axis=0))
    A = np.empty((2 * z.size, 2 * r_max + 2))
    A[0::2], A[1::2] = constraints.real, constraints.imag
    finite = np.isfinite(A).all(axis=0)
    r_top = r_max if finite.all() else int(np.argmin(finite)) // 2 - 1
    R = np.linalg.qr(A[:, : 2 * r_top + 2], mode="r")

    # A fixed vector with no rational relations among its entries, so its
    # projection onto a null space avoids the inadmissible vectors in it
    # (a_r = 0 or a(sigma_j) = 0) unless they fill it.
    probe = np.cos(np.arange(2 * r_top + 2))
    for r in range(r_top + 1):
        cols = 2 * r + 2
        _, s, vh = np.linalg.svd(R[:cols, :cols])
        null = vh[np.count_nonzero(s > policy.threshold(s, (A.shape[0], cols))):]
        # vh rows follow descending singular values; scan null vectors from
        # the smallest singular value upward. When the null space has two or
        # more dimensions, the SVD's basis is arbitrary, so then also try
        # vectors fixed by the null space alone: the projections of a probe
        # and of each coordinate axis.
        candidates = list(null[::-1])
        if len(null) > 1:
            P = null.T @ null
            candidates += [P @ probe[:cols], *P[::-1]]
        for v in candidates:
            a, b = v[0::2], v[1::2]
            size = np.linalg.norm(v)
            if abs(a[-1]) <= eps * size:
                continue
            a, b = a / size, b / size
            if np.any(np.abs(a @ w[: r + 1]) <= eps * scale[r]):
                continue
            params = SystemParams(r, a[:-1] / a[-1], b / a[-1])
            fitted = npoly.polyval(z, params.q) / npoly.polyval(z, np.append(params.p, 1.0))
            return ReducedModel(params, pairs, float(np.max(np.abs(fitted - m))))
    raise ValueError(f"order budget exhausted: no admissible interpolant with order <= {r_max}")


def verify_interpolation(model: ReducedModel, pairs: PairSet, tol: float) -> InterpolationCheck:
    """Evaluate the model at every pair and compare with the stored values.

    Each pair's kind is that of :func:`ddmr.systems.eval_transfer` at its
    point. A pole or indeterminate evaluation counts as failure with an
    infinite error. An empty pair set verifies vacuously.
    """
    z, m = _points(pairs), _values(pairs)
    params = model.params
    pv = npoly.polyval(z, np.append(params.p, 1.0))
    qv = npoly.polyval(z, params.q)
    kinds = transfer_kinds(pv, qv, poly_zero_tol(params.order, z))
    is_value = kinds == "value"
    errors = np.full(z.size, np.inf)
    errors[is_value] = np.abs(qv[is_value] / pv[is_value] - m[is_value])
    return InterpolationCheck(bool(np.all(errors <= tol)), errors, tuple(kinds.tolist()))
