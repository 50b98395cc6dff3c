import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ddmr.informativity import (
    InformativityVerdict,
    RankTolerance,
    informative_sweep,
    is_informative,
    power_vector,
    transfer_value_from_data,
)
from ddmr.signals import DataSet, TimeSeries, hankel
from ddmr.systems import SystemParams, eval_transfer, simulate

from support import (
    INPUT_KINDS,
    RL_EXPECTED_INFORMATIVE,
    RL_ORDER,
    RL_POINTS,
    RL_REFERENCE_VALUES,
    decimal_matrix,
    exact_rank,
    generic_sigma,
    input_signal,
    oracle_informative,
    random_params,
    simulated_instance,
)


class TestPowerVector:
    def test_small_integers(self):
        np.testing.assert_array_equal(power_vector(2.0, 2), [1.0, 2.0, 4.0])

    def test_zero_point(self):
        np.testing.assert_array_equal(power_vector(0.0, 3), [1.0, 0.0, 0.0, 0.0])

    def test_unit_modulus_powers(self):
        w = power_vector(complex(2 ** -0.5, 2 ** -0.5), 4)
        expected = [1.0, np.exp(1j * np.pi / 4), 1j, np.exp(3j * np.pi / 4), -1.0]
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="nonnegative"):
            power_vector(1.0, -1)

    # Tiny parts whose fourth power is subnormal, where one rounding step is
    # 3.6e-8 relative: only a running product meets the recurrence there.
    @example(re=7.663747445745764e-80, im=7.663747445745764e-80, degree=4)
    @given(re=st.floats(-3, 3), im=st.floats(-3, 3), degree=st.integers(1, 8))
    def test_recurrence(self, re, im, degree):
        sigma = complex(re, im)
        w = power_vector(sigma, degree)
        assert w[0] == 1.0
        np.testing.assert_allclose(w[1:], sigma * w[:-1], rtol=1e-12, atol=0)

    def test_batched_columns_match_single_points(self):
        sigmas = np.array([0.0, 0.5, 1.2 - 0.7j, -2.0 + 1e-3j])
        batch = power_vector(sigmas, 5)
        assert batch.shape == (6, 4)
        for k, sigma in enumerate(sigmas):
            np.testing.assert_array_equal(batch[:, k], power_vector(sigma, 5))


class TestNumericalRank:
    """Rank of the data stack [H_n(U); H_n(Y)] as a verdict reports it."""

    def test_rl_stack_matches_exact_arithmetic_oracle(self, rl_data):
        # The printed record carries exactly four decimals, so its entries are
        # exact rationals; fraction-exact elimination gives the true rank of
        # the matrix actually loaded, and a tight SVD cutoff must agree.
        stacked = np.vstack([hankel(rl_data.input, 4), hankel(rl_data.output, 4)])
        oracle = exact_rank(decimal_matrix(stacked))
        verdict = is_informative(rl_data, 4, 0.5, RankTolerance(rel_tol=1e-12))
        assert verdict.rank_base == oracle == 10

    def test_rl_stack_default_policy_sees_structure(self, rl_data):
        # At the default policy the same matrix ranks by its dominant
        # structure (six directions), not by its rounding noise.
        assert is_informative(rl_data, 4, 0.5).rank_base == 6

    def test_abs_tol_overrides(self, rl_data):
        stacked = np.vstack([hankel(rl_data.input, 4), hankel(rl_data.output, 4)])
        s = np.linalg.svd(stacked, compute_uv=False)
        for k in (1, 3, 6, 8):
            cutoff = float(np.sqrt(s[k - 1] * s[k]))
            verdict = is_informative(rl_data, 4, 0.5, RankTolerance(abs_tol=cutoff))
            assert verdict.rank_base == k
            assert verdict.tolerance_used == cutoff

    def test_zero_matrix(self):
        data = DataSet(TimeSeries(np.zeros(8)), TimeSeries(np.zeros(8)))
        verdict = is_informative(data, 2, 0.5)
        assert verdict.rank_base == 0
        assert not verdict.informative

    def test_non_finite_rejected(self, rl_data):
        with pytest.raises(ValueError, match="finite"):
            is_informative(rl_data, 4, complex(np.inf, 0.0))
        with pytest.raises(ValueError, match="finite"):
            informative_sweep(rl_data, 4, [0.5, complex(0.0, np.nan)])

    def test_insufficient_horizon(self):
        data = DataSet(TimeSeries([1.0, 2.0]), TimeSeries([1.0, 2.0]))
        with pytest.raises(ValueError, match="insufficient data"):
            is_informative(data, 3, 1.0)


class TestRlVerdicts:
    def test_verdict_pattern(self, rl_data):
        verdicts = informative_sweep(rl_data, RL_ORDER, RL_POINTS)
        assert [v.informative for v in verdicts] == list(RL_EXPECTED_INFORMATIVE)

    def test_recovered_values(self, rl_data):
        for sigma, reference in RL_REFERENCE_VALUES.items():
            m, residual = transfer_value_from_data(rl_data, RL_ORDER, sigma)
            assert abs(m - reference) <= 5e-4
            assert residual <= 1e-3

    def test_not_informative_point_raises(self, rl_data):
        with pytest.raises(ValueError, match="transfer value not determined by data"):
            transfer_value_from_data(rl_data, RL_ORDER, 0.0)
        with pytest.raises(ValueError, match="transfer value not determined by data"):
            transfer_value_from_data(rl_data, RL_ORDER, 1.0)

    def test_verdict_serialization_schema(self, rl_data):
        verdict = is_informative(rl_data, RL_ORDER, 0.5)
        obj = verdict.to_json_dict()
        assert set(obj) == {"sigma", "informative", "m", "condition_a", "condition_b", "ranks", "tolerance"}
        assert obj["sigma"] == [0.5, 0.0]
        assert obj["informative"] is True
        assert set(obj["ranks"]) == {"augmented", "extended", "base"}
        json.dumps(obj)  # must be serializable as-is

    def test_non_informative_serializes_null_m(self, rl_data):
        obj = is_informative(rl_data, RL_ORDER, 0.0).to_json_dict()
        assert obj["m"] is None
        assert obj["informative"] is False


class TestSweep:
    def test_order_preserved(self, rl_data):
        verdicts = informative_sweep(rl_data, RL_ORDER, RL_POINTS)
        assert [v.sigma for v in verdicts] == [complex(s) for s in RL_POINTS]

    def test_empty(self, rl_data):
        assert informative_sweep(rl_data, RL_ORDER, []) == []

    def test_duplicates_identical(self, rl_data):
        verdicts = informative_sweep(rl_data, RL_ORDER, [0.5, 0.5])
        assert verdicts[0] == verdicts[1]

    def test_deterministic(self, rl_data):
        first = informative_sweep(rl_data, RL_ORDER, RL_POINTS)
        second = informative_sweep(rl_data, RL_ORDER, RL_POINTS)
        assert first == second

    def test_shuffled_grid_permutes_verdicts_exactly(self):
        rng = np.random.default_rng(17)
        data, _ = simulated_instance(rng, 3, 60, "white")
        grid = rng.uniform(-1.5, 1.5, 64) + 1j * rng.uniform(-1.5, 1.5, 64)
        grid[::8] = 0.5  # repeated points are decided identically wherever they sit
        perm = rng.permutation(grid.size)
        verdicts = informative_sweep(data, 3, grid, CLEAN_POLICY)
        shuffled = informative_sweep(data, 3, grid[perm], CLEAN_POLICY)
        assert any(v.informative for v in verdicts)
        assert shuffled == [verdicts[k] for k in perm]

    def test_one_factorisation_per_call(self, rl_data, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        grid = np.exp(1j * np.linspace(0.0, np.pi, 64))
        informative_sweep(rl_data, RL_ORDER, grid)
        assert calls == [(10, 16)]
        is_informative(rl_data, RL_ORDER, 0.5)
        transfer_value_from_data(rl_data, RL_ORDER, 0.5)
        assert len(calls) == 3


# Float-clean synthetic records warrant a float-precision rank cutoff; the
# default policy is calibrated for printed-decimal data and is exercised by
# the bundled-dataset tests above.
CLEAN_POLICY = RankTolerance(rel_tol=1e-10)


class TestSolveGuards:
    def test_recovery_on_simulated_system(self):
        # Simulate-then-recover: with a rich input the recovered value must
        # match the generating system's transfer function.
        rng = np.random.default_rng(7)
        for _ in range(5):
            order = int(rng.integers(1, 4))
            params = random_params(rng, order)
            u = input_signal(rng, 6 * order + 8, "white")
            data = DataSet(u, simulate(params, u, rng.standard_normal(order)))
            sigma = generic_sigma(rng, params)
            m, residual = transfer_value_from_data(data, order, sigma, CLEAN_POLICY)
            tv = eval_transfer(params, sigma)
            assert tv.kind == "value"
            assert abs(m - tv.m) <= 1e-6 * (1.0 + abs(tv.m))
            assert residual <= 1e-8

    def test_residual_within_cutoff_at_every_informative_point(self, rl_data):
        # Condition a is ||d|| <= cutoff and the solve residual is ||d||, so
        # no informative value can carry a residual above the cutoff.
        rng = np.random.default_rng(19)
        grid = rng.uniform(0.0, 1.5, 64) * np.exp(1j * rng.uniform(-np.pi, np.pi, 64))
        cases = [(rl_data, RL_ORDER, None)]
        for kind in ("white", "two_sines", "decaying"):
            data, _ = simulated_instance(rng, 3, 40, kind)
            cases += [(data, 3, None), (data, 3, CLEAN_POLICY)]
        informative = 0
        for data, order, policy in cases:
            for verdict in informative_sweep(data, order, grid, policy):
                if verdict.informative:
                    informative += 1
                    assert verdict.solve_residual <= verdict.tolerance_used
                    m, residual = transfer_value_from_data(data, order, verdict.sigma, policy)
                    assert residual <= verdict.tolerance_used
                    assert abs(m - verdict.m) <= 1e-9 * (1.0 + abs(m))
        assert informative > 64


class TestNonUniquenessWhenConditionBFails:
    def _instance(self):
        # True system with a pole at 0.6 and numerator proportional to the
        # denominator: the transfer function is the constant 1.5 wherever it
        # is defined, so a two-mode input yields equal values at both input
        # modes and keeps the stacked system solvable at sigma = 0.6, while
        # the free response injects the 0.6-mode into the output and kills
        # uniqueness there.
        params = SystemParams(1, [-0.6], [-0.9, 1.5])
        t = np.arange(10, dtype=float)
        u = TimeSeries(0.3 ** t + (-0.5) ** t)
        y = simulate(params, u, [2.0])
        return DataSet(u, y), params

    def test_condition_pattern(self):
        data, _ = self._instance()
        verdict = is_informative(data, 1, 0.6)
        assert verdict.condition_a
        assert not verdict.condition_b
        assert not verdict.informative

    def test_two_solutions_with_different_value(self):
        data, _ = self._instance()
        # [[H_1(U), 0], [H_1(Y), -w]] [xi; M] = [w; 0] with w = [1, 0.6]
        w = np.array([1.0, 0.6])
        A = np.block([[hankel(data.input, 1), np.zeros((2, 1))],
                      [hankel(data.output, 1), -w[:, None]]])
        b = np.concatenate([w, np.zeros(2)])
        x1, *_ = np.linalg.lstsq(A, b, rcond=None)
        _, s, vh = np.linalg.svd(A)
        null = vh[np.sum(s > 1e-10 * s[0]) :].conj()
        idx = np.argmax(np.abs(null[:, -1]))
        w = null[idx]
        assert abs(w[-1]) > 1e-8
        x2 = x1 + w / w[-1]
        assert np.linalg.norm(A @ x1 - b) < 1e-8
        assert np.linalg.norm(A @ x2 - b) < 1e-8
        assert abs(x2[-1] - x1[-1]) == pytest.approx(1.0, abs=1e-9)

    def test_oracle_agrees(self):
        data, _ = self._instance()
        rng = np.random.default_rng(3)
        informative, _ = oracle_informative(data, 1, 0.6, rng)
        assert not informative


class TestDefinitionOracleEquivalence:
    def test_random_instances(self):
        rng = np.random.default_rng(20250801)
        specials = [0.0 + 0.0j, 1.0 + 0.0j, 0.5 + 0.0j, -1.0 + 0.0j]
        checked = 0
        for _ in range(60):
            order = int(rng.integers(1, 4))
            T = int(rng.integers(order + 2, 13))
            kind = INPUT_KINDS[int(rng.integers(len(INPUT_KINDS)))]
            data, params = simulated_instance(rng, order, T, kind)
            sigmas = [generic_sigma(rng, params), specials[int(rng.integers(len(specials)))]]
            for sigma in sigmas:
                verdict = is_informative(data, order, sigma, CLEAN_POLICY)
                expected, _ = oracle_informative(data, order, sigma, rng)
                assert verdict.informative == expected, (
                    f"verdict {verdict.informative} vs oracle {expected} at "
                    f"sigma={sigma} (order={order}, T={T}, kind={kind})"
                )
                if verdict.informative:
                    tv = eval_transfer(params, sigma)
                    if tv.kind == "value":
                        assert abs(verdict.m - tv.m) <= 1e-6 * (1.0 + abs(tv.m))
                checked += 1
        assert checked >= 120


class TestInvariances:
    @given(data=st.data())
    def test_scaling_leaves_verdict_and_value(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        alpha = data.draw(st.floats(0.1, 10.0)) * data.draw(st.sampled_from([1.0, -1.0]))
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 4))
        T = int(rng.integers(order + 2, 13))
        kind = INPUT_KINDS[int(rng.integers(len(INPUT_KINDS)))]
        ds, params = simulated_instance(rng, order, T, kind)
        sigma = generic_sigma(rng, params)
        v1 = is_informative(ds, order, sigma, CLEAN_POLICY)
        v2 = is_informative(ds.scaled(alpha), order, sigma, CLEAN_POLICY)
        assert (v1.informative, v1.condition_a, v1.condition_b) == (
            v2.informative, v2.condition_a, v2.condition_b)
        assert (v1.rank_augmented, v1.rank_extended, v1.rank_base) == (
            v2.rank_augmented, v2.rank_extended, v2.rank_base)
        if v1.informative:
            assert abs(v1.m - v2.m) <= 1e-7 * (1.0 + abs(v1.m))

    @given(data=st.data())
    def test_conjugate_symmetry(self, data):
        seed = data.draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        order = int(rng.integers(1, 4))
        T = int(rng.integers(order + 2, 13))
        kind = INPUT_KINDS[int(rng.integers(len(INPUT_KINDS)))]
        ds, params = simulated_instance(rng, order, T, kind)
        sigma = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.05, 1.5))
        v = is_informative(ds, order, sigma, CLEAN_POLICY)
        v_conj = is_informative(ds, order, sigma.conjugate(), CLEAN_POLICY)
        assert v.informative == v_conj.informative
        assert (v.rank_augmented, v.rank_extended, v.rank_base) == (
            v_conj.rank_augmented, v_conj.rank_extended, v_conj.rank_base)
        if v.informative:
            assert abs(v_conj.m - v.m.conjugate()) <= 1e-9 * (1.0 + abs(v.m))

    def test_rl_conjugate_pair_agrees(self, rl_data):
        plus = is_informative(rl_data, RL_ORDER, RL_POINTS[2])
        minus = is_informative(rl_data, RL_ORDER, RL_POINTS[3])
        assert plus.informative and minus.informative
        assert abs(minus.m - plus.m.conjugate()) <= 1e-9

    def test_rl_scaling_moderate(self, rl_data):
        base = [v.informative for v in informative_sweep(rl_data, RL_ORDER, RL_POINTS)]
        for alpha in (0.5, 2.0, -3.0):
            scaled = [v.informative for v in informative_sweep(rl_data.scaled(alpha), RL_ORDER, RL_POINTS)]
            assert scaled == base


class TestPolicyValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError, match="rel_tol"):
            RankTolerance(rel_tol=0.0)
        with pytest.raises(ValueError, match="abs_tol"):
            RankTolerance(abs_tol=-1.0)

    def test_order_validation(self, rl_data):
        with pytest.raises(ValueError, match="order must be at least 1"):
            is_informative(rl_data, 0, 0.5)
