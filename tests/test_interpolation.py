import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from ddmr.interpolation import (
    InterpolationPair,
    PairSet,
    ReducedModel,
    conjugate_close,
    interpolate_minimal,
    verify_interpolation,
)
from ddmr.interpolation import _gcd_degree
from ddmr.systems import SystemParams, eval_transfer

from support import RL_REFERENCE_MODEL, RL_REFERENCE_VALUES, coprime_params, exists_interpolant

REFERENCE_PAIRS = PairSet(tuple(InterpolationPair(s, m) for s, m in RL_REFERENCE_VALUES.items()))
REF_MODEL_PARAMS = SystemParams(1, [RL_REFERENCE_MODEL["p0"]],
                                [RL_REFERENCE_MODEL["q0"], RL_REFERENCE_MODEL["q1"]])


def _pairs_from(params, sigmas):
    return PairSet(tuple(InterpolationPair(s, eval_transfer(params, s).m) for s in sigmas))


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


class TestGcdDegree:
    def test_coprime(self):
        assert _gcd_degree(np.array([1.0, 1.0]), np.array([2.0, 0.0]), 1e-9) == 0

    def test_common_linear_factor(self):
        # (z - 1)(z + 2) and (z - 1)(z - 3)
        a = npoly.polyfromroots([1.0, -2.0])
        b = npoly.polyfromroots([1.0, 3.0])
        assert _gcd_degree(a, b, 1e-9) == 1

    def test_zero_numerator(self):
        assert _gcd_degree(np.array([0.5, 1.0]), np.array([0.0, 0.0]), 1e-9) == 1


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
