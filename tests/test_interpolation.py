import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

import ddmr
from ddmr.informativity import RankTolerance, informative_sweep
from ddmr.interpolation import (
    InterpolationPair,
    PairSet,
    ReducedModel,
    conjugate_close,
    interpolate_minimal,
    verify_interpolation,
)
from ddmr.signals import DataSet
from ddmr.systems import SystemParams, eval_transfer, simulate

from support import (
    PARTNER_ATOL,
    RL_REFERENCE_MODEL,
    RL_REFERENCE_VALUES,
    coprime_params,
    exists_interpolant,
    input_signal,
    loewner_rank,
    reference_check_distinct,
    reference_conjugate_close,
    reference_interpolate_minimal,
    reference_require_closed,
)

REFERENCE_PAIRS = PairSet(tuple(InterpolationPair(s, m) for s, m in RL_REFERENCE_VALUES.items()))
REF_MODEL_PARAMS = SystemParams(1, [RL_REFERENCE_MODEL["p0"]],
                                [RL_REFERENCE_MODEL["q0"], RL_REFERENCE_MODEL["q1"]])


CLEAN_POLICY = RankTolerance(rel_tol=1e-10)


def _pairs_from(params, sigmas):
    return PairSet(tuple(InterpolationPair(s, eval_transfer(params, s).m) for s in sigmas))


def _upper_circle_points(rng, count, radius=1.2):
    """Points spread over the upper half of a circle, with a little jitter."""
    angles = (np.arange(count) + 0.5) * np.pi / count + rng.uniform(-0.1, 0.1, count)
    return radius * np.exp(1j * angles)


def _outcome(call):
    try:
        return "ok", call()
    except ValueError as exc:
        return "error", str(exc)


def _distinct_real_points(rng, count, params, lo=-2.0, hi=2.0, min_gap=5e-2, min_denom=0.1):
    denom = np.concatenate([params.p, [1.0]])
    points: list[float] = []
    while len(points) < count:
        x = rng.uniform(lo, hi)
        if abs(npoly.polyval(x, denom)) < min_denom:
            continue
        if any(abs(x - other) < min_gap for other in points):
            continue
        points.append(x)
    return [complex(x, 0.0) for x in points]


class TestPairSet:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate interpolation point"):
            PairSet((InterpolationPair(1.0, 2.0), InterpolationPair(1.0, 3.0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            InterpolationPair(np.inf, 1.0)
        with pytest.raises(ValueError, match="finite"):
            InterpolationPair(1.0, complex(np.nan, 0))

    def test_json_roundtrip(self):
        ps = PairSet((InterpolationPair(0.5, -0.3), InterpolationPair(1j, 2 - 1j)))
        assert PairSet.from_json_list(ps.to_json_list()) == ps


class TestConjugateClose:
    def test_real_point_unchanged(self):
        ps = PairSet((InterpolationPair(0.5, -0.2985),))
        assert conjugate_close(ps) == ps

    def test_adds_missing_partner(self):
        sigma = complex(2 ** -0.5, 2 ** -0.5)
        ps = conjugate_close(PairSet((InterpolationPair(sigma, -0.0101 - 0.2792j),)))
        assert len(ps) == 2
        assert ps.pairs[1].sigma == sigma.conjugate()
        assert ps.pairs[1].m == -0.0101 + 0.2792j

    def test_inconsistent_partner_rejected(self):
        ps = PairSet((InterpolationPair(1j, 1.0 + 0j), InterpolationPair(-1j, 2.0 + 0j)))
        with pytest.raises(ValueError, match="inconsistent with a real system"):
            conjugate_close(ps)

    def test_real_point_with_complex_value_rejected(self):
        # A real point is its own conjugate partner.
        ps = PairSet((InterpolationPair(0.5, 1.0 + 0.5j),))
        with pytest.raises(ValueError, match="inconsistent with a real system"):
            conjugate_close(ps)

    def test_existing_consistent_partner_kept(self):
        ps = PairSet((InterpolationPair(1j, 1.0 + 2.0j), InterpolationPair(-1j, 1.0 - 2.0j)))
        assert conjugate_close(ps) == ps

    def test_accepted_set_is_accepted_by_interpolation(self):
        # Partners whose values disagree by 1e-7, as values recovered from
        # printed-decimal data do: closing and interpolating share a default.
        sigma = complex(2 ** -0.5, 2 ** -0.5)
        m = -0.0101 - 0.2792j
        ps = PairSet((InterpolationPair(0.5, -0.2985),
                      InterpolationPair(sigma, m),
                      InterpolationPair(sigma.conjugate(), m.conjugate() + 1e-7)))
        closed = conjugate_close(ps)
        assert closed == ps
        assert interpolate_minimal(closed, r_max=4).order == 1


# Near-duplicate points are planted at these multiples of the matching
# tolerance, and partner values at these offsets from the conjugate value,
# so that both sides of each cutoff are exercised.
EDGE_FACTORS = st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.000001, 2.0, 1e3])
VALUE_OFFSETS = st.sampled_from([0.0, 5e-7, 1e-6, 1.000001e-6, 2e-6, 1j * 1e-6, 0.3])
COORDS = st.floats(-2.0, 2.0).map(lambda x: round(x, 1))
POINTS = st.builds(complex, COORDS, st.one_of(st.just(0.0), COORDS))
VALUES = st.builds(complex, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))


@st.composite
def planted_pairs(draw):
    """Pairs on a coarse grid (many shared real parts), plus points planted
    next to earlier ones: shifted along the real or imaginary axis, or next
    to their conjugate, with values at or near the conjugate value."""
    pairs = [InterpolationPair(draw(POINTS), draw(VALUES)) for _ in range(draw(st.integers(0, 6)))]
    for _ in range(draw(st.integers(0, 6)) if pairs else 0):
        src = pairs[draw(st.integers(0, len(pairs) - 1))]
        kind = draw(st.sampled_from(["real", "imag", "conj", "conj", "conj_real"]))
        step = draw(EDGE_FACTORS) * PARTNER_ATOL * (1.0 + abs(src.sigma))
        sigma = src.sigma.conjugate() if kind.startswith("conj") else src.sigma
        sigma += step if kind.endswith("real") else 1j * step
        m = src.m.conjugate() + draw(VALUE_OFFSETS) if draw(st.booleans()) else draw(VALUES)
        pairs.insert(draw(st.integers(0, len(pairs))), InterpolationPair(sigma, m))
    return pairs


class TestMatchingAgainstBruteForce:
    """Sort-based matching against the pairwise O(K^2) reference: the same
    sets are accepted, with the same errors, messages and pair order."""

    @given(pairs=planted_pairs())
    def test_pair_set(self, pairs):
        want = _outcome(lambda: reference_check_distinct(pairs) or tuple(pairs))
        assert _outcome(lambda: PairSet(tuple(pairs)).pairs) == want

    @given(pairs=planted_pairs(), tol=st.sampled_from([1e-6, 1e-9, 1e-3]))
    def test_conjugate_close(self, pairs, tol):
        try:
            reference_check_distinct(pairs)
        except ValueError:
            return
        want = _outcome(lambda: reference_conjugate_close(pairs, tol))
        assert _outcome(lambda: conjugate_close(PairSet(tuple(pairs)), tol).pairs) == want

    @given(pairs=planted_pairs())
    def test_closedness_check_of_interpolation(self, pairs):
        # r_max = -1 is rejected right after the closedness check, so this
        # isolates the check from the search.
        try:
            reference_check_distinct(pairs)
        except ValueError:
            return
        if not pairs:
            return
        ps = PairSet(tuple(pairs))
        want = _outcome(lambda: reference_require_closed(pairs))
        got = _outcome(lambda: interpolate_minimal(ps, r_max=-1))
        if want[0] == "ok":
            assert got == ("error", "r_max must be nonnegative")
        else:
            assert got == want

    def test_partner_found_among_appended_conjugates(self):
        # The duplicate test takes its tolerance from the earlier point and
        # the partner test from the queried one, so b sits just outside a's
        # duplicate radius yet inside the partner radius of conj(b). Neither
        # has a partner among the inputs; conj(a) is appended first and
        # then serves as b's partner, so conj(b) is not appended.
        a = 0.6e-12j
        b = (0.6e-12 + 1e-12 + 1e-24) * 1j
        pairs = [InterpolationPair(a, 1.0 + 2.0j), InterpolationPair(b, 1.0 + 2.0j)]
        want = reference_conjugate_close(pairs)
        assert len(want) == 3
        assert conjugate_close(PairSet(tuple(pairs))).pairs == want

    def test_vertical_line(self):
        # Every point shares one real part; matching must not depend on it.
        sigmas = 0.3 + 1j * np.linspace(-2.0, 2.0, 401)
        pairs = tuple(InterpolationPair(s, complex(k)) for k, s in enumerate(sigmas))
        assert PairSet(pairs).pairs == pairs
        with pytest.raises(ValueError, match="duplicate interpolation point"):
            PairSet(pairs + (InterpolationPair(sigmas[7] + 1e-13j, 0.0),))


class TestInterpolateMinimal:
    def test_reference_pair_set_gives_first_order_model(self):
        model = interpolate_minimal(REFERENCE_PAIRS, r_max=4)
        assert model.order == 1
        assert abs(model.params.p[0] - RL_REFERENCE_MODEL["p0"]) <= 1e-3
        assert abs(model.params.q[0] - RL_REFERENCE_MODEL["q0"]) <= 1e-3
        assert abs(model.params.q[1] - RL_REFERENCE_MODEL["q1"]) <= 1e-3
        assert model.max_interp_error <= 1e-9

    def test_single_pair_constant_model(self):
        model = interpolate_minimal(PairSet((InterpolationPair(0.5, 2.0),)), r_max=4)
        assert model.order == 0
        assert model.params.q[0] == pytest.approx(2.0)

    def test_recovers_second_order_function(self):
        rng = np.random.default_rng(11)
        params = coprime_params(rng, 2)
        pairs = _pairs_from(params, _distinct_real_points(rng, 5, params))
        model = interpolate_minimal(pairs, r_max=4)
        assert model.order == 2
        for x in _distinct_real_points(rng, 20, params):
            got = eval_transfer(model.params, x)
            want = eval_transfer(params, x)
            assert got.kind == want.kind == "value"
            np.testing.assert_allclose(got.m, want.m, rtol=1e-6, atol=1e-9)

    def test_requires_conjugate_closed(self):
        ps = PairSet((InterpolationPair(1j, 1.0 + 2.0j),))
        with pytest.raises(ValueError, match="not conjugate-closed"):
            interpolate_minimal(ps, r_max=2)

    def test_order_budget_exhausted(self):
        rng = np.random.default_rng(5)
        params = coprime_params(rng, 2)
        pairs = _pairs_from(params, _distinct_real_points(rng, 5, params))
        with pytest.raises(ValueError, match="order budget exhausted"):
            interpolate_minimal(pairs, r_max=1)

    def test_order_budget_past_float_range(self):
        # 2**r overflows for r > 1023: orders the search never reaches must
        # not spoil the factorisation of the orders it does.
        pairs = PairSet((InterpolationPair(2.0, 1.5), InterpolationPair(-2.0, 0.5)))
        model = interpolate_minimal(pairs, r_max=1100)
        assert model.order == 1
        assert verify_interpolation(model, pairs, tol=1e-12).ok

    def test_empty_pair_set_rejected(self):
        with pytest.raises(ValueError, match="empty pair set"):
            interpolate_minimal(PairSet(()), r_max=2)

    def test_realness_from_conjugate_closed_input(self):
        rng = np.random.default_rng(23)
        params = coprime_params(rng, 2)
        sigmas = [0.3 + 0.0j, 1.4 + 0.0j, complex(0.2, 0.9)]
        pairs = conjugate_close(_pairs_from(params, sigmas), tol=1e-9)
        model = interpolate_minimal(pairs, r_max=3)
        assert np.isrealobj(model.params.p) and np.all(np.isfinite(model.params.p))
        assert np.isrealobj(model.params.q)
        assert model.order == 2

    @given(lam=st.floats(0.2, 5.0), sign=st.sampled_from([1.0, -1.0]))
    def test_value_scaling_scales_transfer_function(self, lam, sign):
        lam = lam * sign
        rng = np.random.default_rng(77)
        params = coprime_params(rng, 1)
        sigmas = _distinct_real_points(rng, 3, params)
        pairs = _pairs_from(params, sigmas)
        scaled = PairSet(tuple(InterpolationPair(p.sigma, lam * p.m) for p in pairs))
        base = interpolate_minimal(pairs, r_max=3)
        boosted = interpolate_minimal(scaled, r_max=3)
        for s in sigmas:
            m0 = eval_transfer(base.params, s).m
            m1 = eval_transfer(boosted.params, s).m
            np.testing.assert_allclose(m1, lam * m0, rtol=1e-8, atol=1e-10)

    def test_minimality_against_bruteforce_oracle(self):
        rng = np.random.default_rng(101)
        for order in (1, 2):
            params = coprime_params(rng, order)
            pairs = _pairs_from(params, _distinct_real_points(rng, 2 * order + 1, params))
            model = interpolate_minimal(pairs, r_max=3)
            assert model.order == order
            for lower in range(order):
                assert not exists_interpolant(pairs, lower, rng)


class TestAgainstReference:
    """The one-QR search against the per-order full-SVD search it replaced."""

    @pytest.mark.parametrize("order", range(1, 7))
    def test_same_order_and_coefficients(self, order):
        rng = np.random.default_rng(600 + order)
        for _ in range(5):
            params = coprime_params(rng, order)
            pairs = conjugate_close(_pairs_from(params, _upper_circle_points(rng, order + 1)))
            model = interpolate_minimal(pairs, r_max=order + 2, tol_policy=CLEAN_POLICY)
            ref = reference_interpolate_minimal(pairs.pairs, order + 2, CLEAN_POLICY)
            assert model.order == ref.order == order
            got = np.concatenate([model.params.p, model.params.q])
            want = np.concatenate([ref.p, ref.q])
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @pytest.mark.parametrize("points, values, rel_tol, order", [
        ((-0.3, 0.0), (1.0, -1.0), 5e-6, 1),
        ((-0.3, 0.0), (1.0, -1.0), 1e-10, 1),
        ((0.0, -0.1), (1.0, -1.0), 1e-10, 1),
        ((-0.1, 0.0), (0.0, 2.0), 1e-10, 1),
        ((-1.4, -1.5), (1e4, 1.0), 5e-6, 3),
    ])
    def test_short_pair_sets(self, points, values, rel_tol, order):
        # Each real point gives one nonzero row, so with K <= 2r the order-r
        # null space has dimension two or more. Two real points with distinct values always admit an order-1
        # interpolant, which the reference misses when none of its basis
        # vectors is admissible. In the last set |m| * rel_tol is large, so
        # the zero tests reject every order-1 and order-2 candidate.
        pairs = PairSet(tuple(InterpolationPair(s, m) for s, m in zip(points, values)))
        policy = RankTolerance(rel_tol=rel_tol)
        model = interpolate_minimal(pairs, r_max=4, tol_policy=policy)
        assert len(pairs) <= 2 * order
        assert model.order == order <= reference_interpolate_minimal(pairs.pairs, 4, policy).order
        assert verify_interpolation(model, pairs, tol=1e-9 * max(abs(m) for m in values)).ok

    def test_axis_aligned_null_vectors(self):
        # The order-1 constraint matrix has an all-zero a_1 column, so e_{a_1}
        # (with a(0) = 0) is a null vector, and the other basis vector has
        # a_1 = 0. Only a combination of the two is admissible.
        pairs = PairSet((InterpolationPair(-0.1, 0.0), InterpolationPair(0.0, 2.0)))
        model = interpolate_minimal(pairs, r_max=4, tol_policy=CLEAN_POLICY)
        assert model.order == 1
        assert verify_interpolation(model, pairs, tol=1e-12).ok

    def test_small_degenerate_sets_never_worse_than_reference(self):
        # One to three real points on a coarse grid, with repeated and zero
        # values: null spaces of two or more dimensions at most orders.
        # Wherever the reference returns a model, the search returns one of
        # no higher order, and every returned model interpolates.
        grid, values = (-0.1, 0.0, 0.1, 0.2), (0.0, 1.0, -1.0, 2.0, 1e3)
        lower = 0
        for count in (1, 2, 3):
            for points in itertools.combinations(grid, count):
                for ms in itertools.product(values, repeat=count):
                    pairs = PairSet(tuple(InterpolationPair(s, m) for s, m in zip(points, ms)))
                    got = _outcome(lambda: interpolate_minimal(pairs, 4, CLEAN_POLICY))
                    want = _outcome(lambda: reference_interpolate_minimal(pairs.pairs, 4, CLEAN_POLICY))
                    if want[0] == "ok":
                        assert got[0] == "ok" and got[1].order <= want[1].order, (points, ms)
                        lower += got[1].order < want[1].order
                    if got[0] == "ok":
                        tol = 1e-9 * (1.0 + max(abs(m) for m in ms))
                        assert verify_interpolation(got[1], pairs, tol).ok, (points, ms)
        assert lower > 0

    @pytest.mark.parametrize("points, values", [
        ((-0.2, -0.1, 0.2), (-1.0, 0.0, 3.0)),
        ((-0.1, 0.0, 0.1), (1e3, 0.5, 1e3)),
    ])
    def test_sets_once_rejected_for_a_common_factor(self, points, values):
        # The search's first admissible order-2 candidate was once rejected
        # by a Euclid common-factor test: in the first set its polynomials
        # have nearly common roots (-0.020836 and -0.020869), in the second
        # none. The search now returns it, so only the order and the fit
        # are compared, not the coefficients.
        pairs = PairSet(tuple(InterpolationPair(s, m) for s, m in zip(points, values)))
        policy = RankTolerance(5e-6)
        model = interpolate_minimal(pairs, r_max=4, tol_policy=policy)
        assert model.order == reference_interpolate_minimal(pairs.pairs, 4, policy).order == 2
        assert verify_interpolation(model, pairs, tol=1e-9 * max(abs(m) for m in values)).ok

    def test_short_pair_set_exhausts_like_reference(self):
        # |m| far above 1/zero_tol: every candidate at every order has a
        # vanishing denominator, including the short orders r >= 1.
        pairs = PairSet((InterpolationPair(0.5, 1e7),))
        want = _outcome(lambda: reference_interpolate_minimal(pairs.pairs, 4, RankTolerance()))
        assert want[0] == "error"
        assert _outcome(lambda: interpolate_minimal(pairs, r_max=4)) == want


class TestOneFactorisation:
    def test_one_qr_and_small_svds_per_fit(self, monkeypatch):
        rng = np.random.default_rng(8)
        params = coprime_params(rng, 4)
        sigmas = rng.uniform(0.3, 1.5, 256) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, 256))
        pairs = conjugate_close(_pairs_from(params, sigmas))
        assert len(pairs) == 512
        qr_calls, svd_shapes = [], []
        real_qr, real_svd = np.linalg.qr, np.linalg.svd

        def counting_qr(*args, **kwargs):
            qr_calls.append(np.shape(args[0]))
            return real_qr(*args, **kwargs)

        def counting_svd(*args, **kwargs):
            svd_shapes.append(np.shape(args[0]))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        model = interpolate_minimal(pairs, r_max=8, tol_policy=CLEAN_POLICY)
        assert model.order == 4
        assert qr_calls == [(1024, 18)]
        assert len(svd_shapes) == model.order + 1
        assert max(rows for rows, _ in svd_shapes) <= 2 * 8 + 2


def test_fit_loads_no_further_modules():
    # `ddmr reduce` runs as its own process, so a module that the fit loads
    # on first use (numpy.ma, behind np.unique, costs ~15 ms) is paid by
    # every call.
    code = (
        "import sys, ddmr\n"
        "before = set(sys.modules)\n"
        "pairs = ddmr.conjugate_close(ddmr.PairSet((ddmr.InterpolationPair(0.5, -0.3),"
        " ddmr.InterpolationPair(0.7 + 0.7j, -0.01 - 0.28j))))\n"
        "model = ddmr.interpolate_minimal(pairs, r_max=4)\n"
        "ddmr.verify_interpolation(model, pairs, 1e-6)\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    src = str(Path(ddmr.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestLoewnerOracle:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_minimal_order_equals_loewner_rank(self, order):
        # Values recovered from clean records of random stable real systems;
        # the Loewner rank gives the minimal order with no null-space search.
        rng = np.random.default_rng(40 + order)
        for _ in range(4):
            params = coprime_params(rng, order)
            u = input_signal(rng, 8 * order + 20, "white")
            data = DataSet(u, simulate(params, u, rng.standard_normal(order)))
            verdicts = informative_sweep(data, order, _upper_circle_points(rng, order + 2, 1.1),
                                         CLEAN_POLICY)
            assert all(v.informative for v in verdicts)
            pairs = conjugate_close(PairSet(tuple(InterpolationPair(v.sigma, v.m) for v in verdicts)))
            model = interpolate_minimal(pairs, r_max=order + 2, tol_policy=CLEAN_POLICY)
            assert model.order == loewner_rank(pairs.pairs) == order


class TestVerifyInterpolation:
    def test_reference_model_satisfies_reference_pairs(self):
        model = ReducedModel(REF_MODEL_PARAMS, REFERENCE_PAIRS, 0.0)
        check = verify_interpolation(model, REFERENCE_PAIRS, tol=1e-3)
        assert check.ok
        assert np.max(check.errors) <= 1e-3
        assert set(check.kinds) == {"value"}

    def test_empty_pairs_vacuous(self):
        model = ReducedModel(REF_MODEL_PARAMS, PairSet(()), 0.0)
        check = verify_interpolation(model, PairSet(()), tol=1e-12)
        assert check.ok
        assert check.errors.size == 0

    def test_constant_model_mismatch(self):
        model = ReducedModel(SystemParams(0, [], [2.0]), PairSet(()), 0.0)
        check = verify_interpolation(model, PairSet((InterpolationPair(0.5, 3.0),)), tol=0.5)
        assert not check.ok
        assert check.errors[0] == pytest.approx(1.0)

    def test_pole_reported_as_failure(self):
        model = ReducedModel(SystemParams(1, [-1.0], [1.0, 0.0]), PairSet(()), 0.0)
        check = verify_interpolation(model, PairSet((InterpolationPair(1.0, 0.0),)), tol=1e3)
        assert not check.ok
        assert np.isinf(check.errors[0])
        assert check.kinds[0] == "pole"

    def test_matches_per_pair_evaluation(self):
        # Denominator (z - 0.5)(z + 0.8), numerator vanishing at 0.5: an
        # indeterminate pair at 0.5, a pole at -0.8, values elsewhere.
        params = SystemParams(2, npoly.polyfromroots([0.5, -0.8])[:-1],
                              npoly.polyfromroots([0.5, 0.1]) * 0.7)
        rng = np.random.default_rng(3)
        sigmas = [0.5, -0.8, 0.5 + 1e-9, -0.8 + 1e-11, *rng.uniform(-1.5, 1.5, 6),
                  *(rng.uniform(0.2, 1.5, 6) * np.exp(1j * rng.uniform(-3.0, 3.0, 6)))]
        pairs = PairSet(tuple(InterpolationPair(s, complex(*rng.standard_normal(2))) for s in sigmas))
        check = verify_interpolation(ReducedModel(params, pairs, 0.0), pairs, tol=2.0)
        per_pair = [eval_transfer(params, p.sigma) for p in pairs]
        assert check.kinds == tuple(tv.kind for tv in per_pair)
        assert {"value", "pole", "indeterminate"} <= set(check.kinds)
        want = np.array([abs(tv.m - p.m) if tv.kind == "value" else np.inf
                         for tv, p in zip(per_pair, pairs)])
        np.testing.assert_allclose(check.errors, want, rtol=1e-12)
        assert check.ok == bool(np.all(want <= 2.0))

    def test_perturbed_model_fails(self):
        params = SystemParams(1, [RL_REFERENCE_MODEL["p0"] + 0.1],
                              [RL_REFERENCE_MODEL["q0"], RL_REFERENCE_MODEL["q1"]])
        check = verify_interpolation(ReducedModel(params, REFERENCE_PAIRS, 0.0),
                                     REFERENCE_PAIRS, tol=1e-3)
        assert not check.ok


class TestReducedModelJson:
    def test_roundtrip(self):
        model = interpolate_minimal(REFERENCE_PAIRS, r_max=4)
        obj = model.to_json_dict()
        assert obj["r"] == obj["n"] == 1
        assert len(obj["pairs"]) == 3
        back = ReducedModel.from_json_dict(obj)
        assert back.params == model.params
        assert back.source_pairs == model.source_pairs
