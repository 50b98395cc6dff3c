"""Minimal real rational interpolation of point/value pairs.

Given pairs (sigma_j, m_j), find the lowest order r such that a real
rational function b(z)/a(z) with monic denominator of degree r matches every
pair, and package it as a difference-equation model. The construction
linearizes each constraint ``b(sigma_j) - m_j a(sigma_j) = 0`` into real
rows over the 2r+2 polynomial coefficients and reads candidates off the
null space of the stacked system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.polynomial import polynomial as npoly

from .informativity import RankTolerance, power_vector
from .systems import SystemParams, eval_transfer

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
        if not (np.isfinite(sigma.real) and np.isfinite(sigma.imag)):
            raise ValueError("sigma must be finite")
        if not (np.isfinite(m.real) and np.isfinite(m.imag)):
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
        for i, a in enumerate(pairs):
            for b in pairs[i + 1 :]:
                if abs(a.sigma - b.sigma) <= _PARTNER_ATOL * (1.0 + abs(a.sigma)):
                    raise ValueError(f"duplicate interpolation point sigma={a.sigma}")
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


def _find_partner(pairs: list[InterpolationPair], sigma: complex) -> InterpolationPair | None:
    for cand in pairs:
        if abs(cand.sigma - sigma) <= _PARTNER_ATOL * (1.0 + abs(sigma)):
            return cand
    return None


def conjugate_close(pairs: PairSet, tol: float = _CONJUGATE_TOL) -> PairSet:
    """Extend a pair set so every complex point has its conjugate partner.

    A real-coefficient interpolant forces conjugate values at conjugate
    points (a real point is its own partner). Missing partners are appended;
    a present partner whose value disagrees beyond ``tol`` means no real
    system can match the set, which is an error.
    """
    out = list(pairs.pairs)
    for pair in pairs.pairs:
        partner = _find_partner(out, pair.sigma.conjugate())
        if partner is None:
            out.append(pair.conjugate())
        elif abs(partner.m - pair.m.conjugate()) > tol:
            raise ValueError(
                "pair set inconsistent with a real system: value at "
                f"sigma={partner.sigma} is {partner.m}, expected "
                f"{pair.m.conjugate()} (conjugate of the value at {pair.sigma})"
            )
    return PairSet(tuple(out))


def _require_conjugate_closed(pairs: PairSet, tol: float = _CONJUGATE_TOL) -> None:
    for pair in pairs.pairs:
        partner = _find_partner(list(pairs.pairs), pair.sigma.conjugate())
        if partner is None or abs(partner.m - pair.m.conjugate()) > tol:
            raise ValueError(
                "pair set is not conjugate-closed; run conjugate_close first "
                f"(offending point sigma={pair.sigma})"
            )


def _constraint_matrix(pairs: PairSet, r: int) -> np.ndarray:
    """Real matrix of the linearized constraints in [a_0..a_r, b_0..b_r]."""
    rows = []
    for pair in pairs:
        powers = power_vector(pair.sigma, r)
        crow = np.concatenate([-pair.m * powers, powers])
        rows.append(crow.real)
        rows.append(crow.imag)
    return np.asarray(rows)


def _trimmed_degree(coeffs: np.ndarray, eps: float) -> int:
    mags = np.abs(coeffs)
    scale = mags.max()
    if scale <= eps:
        return -1
    nz = np.flatnonzero(mags > eps * scale)
    return int(nz[-1])


def _gcd_degree(a: np.ndarray, b: np.ndarray, eps: float) -> int:
    """Degree of the (tolerant) polynomial GCD of two coefficient vectors.

    Euclid's algorithm with max-norm renormalization at each step; a
    remainder whose coefficients all fall below ``eps`` relative to its
    dividend counts as zero.
    """
    fa = np.asarray(a, dtype=float)
    fb = np.asarray(b, dtype=float)
    da, db = _trimmed_degree(fa, eps), _trimmed_degree(fb, eps)
    if da < 0:
        return max(db, 0)
    if db < 0:
        return max(da, 0)
    fa, fb = fa[: da + 1], fb[: db + 1]
    if da < db:
        fa, fb = fb, fa
    while True:
        fb = fb / np.abs(fb).max()
        _, rem = npoly.polydiv(fa, fb)
        d_rem = _trimmed_degree(rem, eps)
        if d_rem < 0:
            return _trimmed_degree(fb, eps)
        fa, fb = fb, rem[: d_rem + 1]


def _candidate_model(v: np.ndarray, r: int, pairs: PairSet, eps: float) -> SystemParams | None:
    """Turn one unit null vector into a model, or reject it.

    Rejections: leading denominator coefficient below ``eps`` (candidate is
    not proper at order r), denominator vanishing at an interpolation point
    (that point is unattainable with this candidate), or a nontrivial common
    factor between the two polynomials (the candidate deflates to a lower
    order).
    """
    a = v[: r + 1]
    b = v[r + 1 :]
    if abs(a[-1]) <= eps:
        return None
    for pair in pairs:
        scale = float(np.linalg.norm(power_vector(pair.sigma, r)))
        if abs(npoly.polyval(pair.sigma, a)) <= eps * scale:
            return None
    if r >= 1 and _gcd_degree(a, b, eps) > 0:
        return None
    a_monic = a / a[-1]
    b_monic = b / a[-1]
    return SystemParams(r, a_monic[:-1], b_monic)


def interpolate_minimal(
    pairs: PairSet,
    r_max: int,
    tol_policy: RankTolerance | None = None,
) -> ReducedModel:
    """Lowest-order real rational interpolant through a conjugate-closed set.

    Orders r = 0, 1, ..., r_max are searched in turn; for each, candidates
    are the right singular vectors of the constraint matrix whose singular
    values fall below the policy cutoff, scanned from the smallest singular
    value upward. The first admissible candidate is normalized to a monic
    denominator and returned, so the result is minimal by search order.

    Raises ``ValueError`` when the pair set is not conjugate-closed or no
    order within the budget admits an interpolant.
    """
    policy = tol_policy if tol_policy is not None else RankTolerance()
    if len(pairs) == 0:
        raise ValueError("cannot interpolate an empty pair set")
    _require_conjugate_closed(pairs)
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    eps = policy.zero_tol()

    for r in range(r_max + 1):
        A = _constraint_matrix(pairs, r)
        _, s, vh = np.linalg.svd(A)
        tau = policy.threshold(s, A.shape)
        rank = int(np.count_nonzero(s > tau))
        if rank == A.shape[1]:
            continue
        # vh rows follow descending singular values; scan null vectors from
        # the smallest singular value upward.
        for v in vh[rank:][::-1]:
            params = _candidate_model(v, r, pairs, eps)
            if params is None:
                continue
            denom = np.concatenate([params.p, [1.0]])
            errors = [
                abs(npoly.polyval(p.sigma, params.q) / npoly.polyval(p.sigma, denom) - p.m)
                for p in pairs
            ]
            return ReducedModel(params, pairs, float(max(errors)))
    raise ValueError(f"order budget exhausted: no admissible interpolant with order <= {r_max}")


def verify_interpolation(model: ReducedModel, pairs: PairSet, tol: float) -> InterpolationCheck:
    """Evaluate the model at every pair and compare with the stored values.

    A pole or indeterminate evaluation at a pair counts as failure with an
    infinite error. An empty pair set verifies vacuously.
    """
    errors = []
    kinds = []
    for pair in pairs:
        tv = eval_transfer(model.params, pair.sigma)
        kinds.append(tv.kind)
        if tv.kind == "value":
            errors.append(abs(tv.m - pair.m))
        else:
            errors.append(np.inf)
    err_arr = np.asarray(errors, dtype=float)
    ok = bool(np.all(err_arr <= tol)) if err_arr.size else True
    return InterpolationCheck(ok, err_arr, tuple(kinds))
