"""Independent oracles and instance generators for the test suite.

The oracles work from first principles (exact rational arithmetic, direct
sampling of solution sets, randomized brute-force searches) so they share no
decision logic with the implementations they check.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from numpy.polynomial import polynomial as npoly

from ddmr.signals import DataSet, TimeSeries, hankel, hankel_trimmed
from ddmr.systems import SystemParams, eval_transfer, simulate

# Interpolation points exercised on the bundled RL-circuit record, with the
# reference verdicts and transfer values the suite pins (four decimals, like
# the record itself).
RL_ORDER = 4
RL_POINTS = (
    0.0 + 0.0j,
    0.5 + 0.0j,
    complex(2 ** -0.5, 2 ** -0.5),
    complex(2 ** -0.5, -(2 ** -0.5)),
    1.0 + 0.0j,
)
RL_EXPECTED_INFORMATIVE = (False, True, True, True, False)
RL_REFERENCE_VALUES = {
    0.5 + 0.0j: -0.2985 + 0.0j,
    complex(2 ** -0.5, 2 ** -0.5): -0.0101 - 0.2792j,
    complex(2 ** -0.5, -(2 ** -0.5)): -0.0101 + 0.2792j,
}
RL_REFERENCE_MODEL = {"p0": -1.0790, "q0": 0.1045, "q1": 0.1367}


# --- exact-arithmetic rank oracle ------------------------------------------

def exact_rank(rows) -> int:
    """Rank over the rationals via fraction-exact Gaussian elimination."""
    M = [list(row) for row in rows]
    n_rows = len(M)
    n_cols = len(M[0]) if n_rows else 0
    rank = 0
    pivot_row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(pivot_row, n_rows) if M[r][col] != 0), None)
        if pivot is None:
            continue
        M[pivot_row], M[pivot] = M[pivot], M[pivot_row]
        lead = M[pivot_row][col]
        for r in range(pivot_row + 1, n_rows):
            if M[r][col] != 0:
                factor = M[r][col] / lead
                M[r] = [a - factor * b for a, b in zip(M[r], M[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == n_rows:
            break
    return rank


def decimal_matrix(values, places: int = 4):
    """Exact Fractions of floats that are known to carry fixed decimals."""
    return [[Fraction(f"{v:.{places}f}") for v in row] for row in np.asarray(values)]


# --- definition-level informativity oracle ----------------------------------

def sample_explaining_rows(data: DataSet, order: int, count: int, rng, rel_cut: float = 1e-11):
    """Sample parameter rows [q, -p] consistent with the data.

    Solves the data identity by SVD (tight cutoff; intended for clean
    simulated records) and returns the minimum-norm solution plus random
    null-space perturbations.
    """
    G = np.vstack([hankel(data.input, order), hankel_trimmed(data.output, order)])
    A = G.T
    rhs = data.output.samples[order:]
    u, s, vh = np.linalg.svd(A, full_matrices=True)
    cut = rel_cut * max(A.shape) * (float(s[0]) if s.size else 0.0)
    r = int(np.sum(s > cut))
    coeff = (u[:, :r].T @ rhs) / s[:r]
    x0 = vh[:r].T @ coeff
    null_rows = vh[r:]
    rows = [x0]
    spread = 1.0 + float(np.linalg.norm(x0))
    for _ in range(count - 1):
        if null_rows.shape[0]:
            c = spread * rng.standard_normal(null_rows.shape[0])
            rows.append(x0 + null_rows.T @ c)
        else:
            rows.append(x0.copy())
    return rows


def oracle_informative(data: DataSet, order: int, sigma: complex, rng,
                       count: int = 60, value_tol: float = 1e-6):
    """Decide informativity straight from its definition.

    Every sampled system explaining the data must admit the same transfer
    value at sigma. A member with a pole there admits none; a member where
    numerator and denominator both vanish accepts any value and cannot
    object. Returns ``(informative, value_or_None)``.
    """
    values = []
    for row in sample_explaining_rows(data, order, count, rng):
        tv = eval_transfer(SystemParams.from_row(row, order), sigma)
        if tv.kind == "pole":
            return False, None
        if tv.kind == "value":
            values.append(tv.m)
    if not values:
        return False, None
    m0 = values[0]
    tol = value_tol * (1.0 + abs(m0))
    if any(abs(v - m0) > tol for v in values[1:]):
        return False, None
    return True, m0


# --- brute-force interpolant existence (minimality oracle) ------------------

def exists_interpolant(pairs, r: int, rng, tries: int = 100, fit_tol: float = 1e-7) -> bool:
    """Is there ANY admissible real rational interpolant of order r?

    Independently assembles the linearized constraints, then searches the
    null space (basis vectors plus random combinations) for a vector whose
    denominator is usable and whose rational function matches every pair by
    direct evaluation.
    """
    sigmas = np.array([p.sigma for p in pairs])
    values = np.array([p.m for p in pairs])
    V = np.vander(sigmas, r + 1, increasing=True)
    C = np.hstack([-values[:, None] * V, V])
    A = np.vstack([C.real, C.imag])
    _, s, vh = np.linalg.svd(A)
    cut = 1e-12 * max(A.shape) * (float(s[0]) if s.size else 0.0)
    rank = int(np.sum(s > cut))
    null = vh[rank:]
    if null.shape[0] == 0:
        return False
    candidates = [row for row in null]
    candidates += [null.T @ rng.standard_normal(null.shape[0]) for _ in range(tries)]
    for v in candidates:
        norm = np.linalg.norm(v)
        if norm == 0:
            continue
        v = v / norm
        a, b = v[: r + 1], v[r + 1 :]
        if abs(a[-1]) < 1e-9:
            continue
        av = npoly.polyval(sigmas, a)
        if np.any(np.abs(av) < 1e-9):
            continue
        fitted = npoly.polyval(sigmas, b) / av
        if np.all(np.abs(fitted - values) <= fit_tol * (1.0 + np.abs(values))):
            return True
    return False


# --- reference interpolation layer (per-pair loops, per-order full SVD) ------
#
# A line-by-line copy of the interpolation layer before it moved to one QR
# and sort-based matching, with the common-factor (GCD) rejection that the
# library has since dropped. The library must give the same errors and
# messages, the same pair order, the same minimal order, and the same
# coefficients up to rounding where the null space has one dimension.

PARTNER_ATOL = 1e-12
CONJUGATE_TOL = 1e-6


def _reference_find_partner(pairs, sigma: complex):
    for cand in pairs:
        if abs(cand.sigma - sigma) <= PARTNER_ATOL * (1.0 + abs(sigma)):
            return cand
    return None


def reference_check_distinct(pairs) -> None:
    """O(K^2) duplicate-point check of a sequence of pairs."""
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            if abs(a.sigma - b.sigma) <= PARTNER_ATOL * (1.0 + abs(a.sigma)):
                raise ValueError(f"duplicate interpolation point sigma={a.sigma}")


def reference_conjugate_close(pairs, tol: float = CONJUGATE_TOL) -> tuple:
    """O(K^2) conjugate closure; returns the closed tuple of pairs."""
    out = list(pairs)
    for pair in pairs:
        partner = _reference_find_partner(out, pair.sigma.conjugate())
        if partner is None:
            out.append(pair.conjugate())
        elif abs(partner.m - pair.m.conjugate()) > tol:
            raise ValueError(
                "pair set inconsistent with a real system: value at "
                f"sigma={partner.sigma} is {partner.m}, expected "
                f"{pair.m.conjugate()} (conjugate of the value at {pair.sigma})"
            )
    reference_check_distinct(out)
    return tuple(out)


def reference_require_closed(pairs) -> None:
    """O(K^2) check that every pair's conjugate partner is present."""
    for pair in pairs:
        partner = _reference_find_partner(pairs, pair.sigma.conjugate())
        if partner is None or abs(partner.m - pair.m.conjugate()) > CONJUGATE_TOL:
            raise ValueError(
                "pair set is not conjugate-closed; run conjugate_close first "
                f"(offending point sigma={pair.sigma})"
            )


def _reference_trimmed_degree(coeffs: np.ndarray, eps: float) -> int:
    mags = np.abs(coeffs)
    scale = mags.max()
    if scale <= eps:
        return -1
    nz = np.flatnonzero(mags > eps * scale)
    return int(nz[-1])


def _reference_gcd_degree(a: np.ndarray, b: np.ndarray, eps: float) -> int:
    """Degree of the (tolerant) polynomial GCD of two coefficient vectors.

    Euclid's algorithm with max-norm renormalization at each step; a
    remainder whose coefficients all fall below ``eps`` relative to its
    dividend counts as zero.
    """
    fa = np.asarray(a, dtype=float)
    fb = np.asarray(b, dtype=float)
    da, db = _reference_trimmed_degree(fa, eps), _reference_trimmed_degree(fb, eps)
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
        d_rem = _reference_trimmed_degree(rem, eps)
        if d_rem < 0:
            return _reference_trimmed_degree(fb, eps)
        fa, fb = fb, rem[: d_rem + 1]


def _reference_powers(sigma: complex, r: int) -> np.ndarray:
    return np.cumprod(np.concatenate([[1.0], np.full(r, sigma)]).astype(complex))


def _reference_candidate(v, r: int, pairs, eps: float):
    a = v[: r + 1]
    b = v[r + 1 :]
    if abs(a[-1]) <= eps:
        return None
    for pair in pairs:
        scale = float(np.linalg.norm(_reference_powers(pair.sigma, r)))
        if abs(npoly.polyval(pair.sigma, a)) <= eps * scale:
            return None
    if r >= 1 and _reference_gcd_degree(a, b, eps) > 0:
        return None
    return SystemParams(r, a[:-1] / a[-1], b / a[-1])


def reference_interpolate_minimal(pairs, r_max: int, policy) -> SystemParams:
    """Per-order search: a full SVD of each order's constraint matrix, with
    columns ``[a_0..a_r, b_0..b_r]`` and rows (real, imag) per pair."""
    eps = policy.zero_tol()
    for r in range(r_max + 1):
        rows = []
        for pair in pairs:
            powers = _reference_powers(pair.sigma, r)
            crow = np.concatenate([-pair.m * powers, powers])
            rows.append(crow.real)
            rows.append(crow.imag)
        A = np.asarray(rows)
        _, s, vh = np.linalg.svd(A)
        tau = policy.threshold(s, A.shape)
        rank = int(np.count_nonzero(s > tau))
        if rank == A.shape[1]:
            continue
        for v in vh[rank:][::-1]:
            params = _reference_candidate(v, r, pairs, eps)
            if params is not None:
                return params
    raise ValueError(f"order budget exhausted: no admissible interpolant with order <= {r_max}")


# --- reference complex-literal scanner ---------------------------------------

def reference_parse_complex(text: str) -> complex:
    """The CLI's ``a+bi`` parser before it handed the literal to ``complex``:
    split at the last sign that does not follow an exponent marker."""
    s = text.strip()
    if not s or any(ch.isspace() for ch in s):
        raise ValueError(f"invalid complex literal {text!r}")
    if s.endswith("i"):
        body = s[:-1]
        re_part = ""
        im_part = body
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                re_part, im_part = body[:k], body[k:]
                break
        if im_part in ("", "+", "-"):
            im_part += "1"
        try:
            return complex(float(re_part) if re_part else 0.0, float(im_part))
        except ValueError:
            raise ValueError(f"invalid complex literal {text!r}") from None
    try:
        return complex(float(s), 0.0)
    except ValueError:
        raise ValueError(f"invalid complex literal {text!r}") from None


# --- Loewner-rank oracle for the minimal order --------------------------------

def loewner_rank(pairs, rel_cut: float = 1e-8) -> int:
    """Numerical rank of the Loewner matrix of a pair set.

    The pairs are split alternately into left data (mu_i, v_i) and right
    data (lam_j, w_j), and ``L[i, j] = (v_i - w_j) / (mu_i - lam_j)``. For
    enough pairs taken from a rational function, the rank is its McMillan
    degree (Mayo & Antoulas, Linear Algebra Appl. 425, 2007), found here
    with no null-space search.
    """
    sigmas = np.array([p.sigma for p in pairs])
    values = np.array([p.m for p in pairs])
    mu, v = sigmas[0::2], values[0::2]
    lam, w = sigmas[1::2], values[1::2]
    L = (v[:, None] - w[None, :]) / (mu[:, None] - lam[None, :])
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.count_nonzero(s > rel_cut * s[0])) if s.size and s[0] > 0 else 0


# --- instance generators -----------------------------------------------------

INPUT_KINDS = ("white", "constant", "sine", "two_sines", "decaying", "impulse", "zero")


def stable_monic(rng, order: int, radius: float = 0.9) -> np.ndarray:
    """Ascending coefficients of a random real monic polynomial, roots in a disk."""
    roots: list[complex] = []
    remaining = order
    while remaining > 0:
        if remaining >= 2 and rng.random() < 0.5:
            rr = radius * np.sqrt(rng.random())
            th = rng.uniform(0.0, np.pi)
            z = rr * np.exp(1j * th)
            roots += [z, np.conj(z)]
            remaining -= 2
        else:
            roots.append(rng.uniform(-radius, radius))
            remaining -= 1
    return np.real(npoly.polyfromroots(roots))


def random_params(rng, order: int, radius: float = 0.9, q_scale: float = 1.0) -> SystemParams:
    mon = stable_monic(rng, order, radius)
    q = q_scale * rng.standard_normal(order + 1)
    return SystemParams(order, mon[:-1], q)


def coprime_params(rng, order: int, margin: float = 5e-2) -> SystemParams:
    """Random system whose numerator does not (nearly) cancel a pole.

    Ensures the transfer function genuinely has order ``order``, which the
    minimality tests rely on.
    """
    while True:
        params = random_params(rng, order)
        if order == 0:
            if abs(params.q[0]) > 0.1:
                return params
            continue
        denom = np.concatenate([params.p, [1.0]])
        poles = npoly.polyroots(denom)
        q_norm = max(1.0, float(np.max(np.abs(params.q))))
        if np.all(np.abs(npoly.polyval(poles, params.q.astype(complex))) > margin * q_norm):
            return params


def input_signal(rng, T: int, kind: str) -> TimeSeries:
    t = np.arange(T + 1, dtype=float)
    if kind == "white":
        return TimeSeries(rng.standard_normal(T + 1))
    if kind == "constant":
        return TimeSeries(np.full(T + 1, rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)))
    if kind == "sine":
        w = rng.uniform(0.3, 2.8)
        return TimeSeries(np.cos(w * t + rng.uniform(0.0, 2 * np.pi)))
    if kind == "two_sines":
        w1, w2 = rng.uniform(0.3, 2.8, size=2)
        return TimeSeries(np.cos(w1 * t) + rng.uniform(0.5, 1.5) * np.sin(w2 * t + rng.uniform(0.0, np.pi)))
    if kind == "decaying":
        rho = rng.uniform(0.3, 0.9)
        return TimeSeries(rng.uniform(0.5, 2.0) * rho ** t)
    if kind == "impulse":
        x = np.zeros(T + 1)
        x[0] = 1.0
        return TimeSeries(x)
    if kind == "zero":
        return TimeSeries(np.zeros(T + 1))
    raise ValueError(f"unknown input kind {kind!r}")


def simulated_instance(rng, order: int, T: int, kind: str, random_init: bool = True):
    """Random system plus a record it generated."""
    params = random_params(rng, order)
    u = input_signal(rng, T, kind)
    y0 = rng.standard_normal(order) if random_init else np.zeros(order)
    y = simulate(params, u, y0)
    return DataSet(u, y), params


def generic_sigma(rng, params: SystemParams | None = None,
                  min_denom: float = 5e-2, radius: float = 1.5) -> complex:
    """Random interpolation point, kept away from the poles of ``params``."""
    while True:
        if rng.random() < 0.4:
            s = complex(rng.uniform(-radius, radius), 0.0)
        else:
            s = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if params is None:
            return s
        denom = np.concatenate([params.p, [1.0]])
        if abs(npoly.polyval(s, denom.astype(complex))) > min_denom:
            return s


def persistently_exciting(series: TimeSeries, order_pe: int) -> bool:
    """Full-row-rank test on the Hankel matrix with ``order_pe`` rows."""
    H = hankel(series, order_pe - 1)
    return int(np.linalg.matrix_rank(H)) == order_pe
