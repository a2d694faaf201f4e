"""Density layer: covariances, factored inverse, conditionals, transitions."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibrownian import exact
from ibrownian.densities import (
    TimeScaling,
    conditional_density,
    covariance_r,
    density_w,
    drift_matrix,
    log_conditional_density,
    log_density_w,
    log_stationary_density,
    log_transition_density,
    mean_mu,
    normalizing_k,
    r_inverse,
    star_vector,
    stationary_density,
    transition_density,
)
from ibrownian.sampling import covariance_root
from ibrownian.spectral import cross_correlation, sigma_sq
from oracles import fraction_covariance, gaussian_log_density

F = Fraction

finite_states = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=6
)


def law_probe(n, t, rng):
    """(w, a) drawn from the process's own law at horizon t, so the densities
    evaluated on them are far from underflow."""
    root = covariance_root(n, t)
    a = root @ rng.standard_normal(n + 1)
    w = drift_matrix(n, t) @ a + root @ rng.standard_normal(n + 1)
    return w, a


class TestCovariance:
    def test_order0(self):
        assert covariance_r(0, 2.0) == pytest.approx(np.array([[2.0]]))

    def test_order1_unit_time(self):
        expected = np.array([[1.0, 0.5], [0.5, 1 / 3]])
        assert covariance_r(1, 1.0) == pytest.approx(expected, rel=1e-15)

    def test_equals_rho_inverse_scaling(self):
        got = covariance_r(2, 1.0)
        expected = np.array(exact.rho_inverse_matrix(2), dtype=float)
        fact = np.array([1.0, 1.0, 2.0])
        assert got == pytest.approx(expected / np.outer(fact, fact), rel=1e-15)

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(min_value=0.05, max_value=40.0))
    def test_homogeneity(self, t):
        n = 3
        j = np.arange(n + 1)
        scale = t ** -(j[:, None] + j[None, :] + 1.0)
        assert covariance_r(n, t) * scale == pytest.approx(covariance_r(n, 1.0), rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_time(self, t):
        with pytest.raises(ValueError):
            covariance_r(2, t)


class TestRInverse:
    def test_order1_unit_time(self):
        expected = np.array([[4.0, -6.0], [-6.0, 12.0]])
        assert r_inverse(1, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_order2_unit_time_matches_exact_rho(self):
        rho = exact.rho_matrix(2)
        fact = [1, 1, 2]
        expected = np.array(
            [[float(rho[j][k] * fact[j] * fact[k]) for k in range(3)] for j in range(3)]
        )
        assert expected[2, 2] == 720.0
        assert r_inverse(2, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_order0(self):
        assert r_inverse(0, 4.0) == pytest.approx(np.array([[0.25]]), rel=1e-15)

    @pytest.mark.parametrize("n,t", [(1, 0.5), (2, 1.0), (3, 2.0), (4, 1.3)])
    def test_inverse_of_covariance(self, n, t):
        product = r_inverse(n, t) @ covariance_r(n, t)
        assert product == pytest.approx(np.eye(n + 1), abs=1e-8)

    @pytest.mark.parametrize("n,t", [(2, 0.7), (3, 1.9), (4, 0.35)])
    def test_entrywise_scaling_of_rho(self, n, t):
        rho = exact.rho_matrix(n)
        expected = np.array(
            [
                [
                    t ** -(j + k + 1) * math.factorial(j) * math.factorial(k) * float(rho[j][k])
                    for k in range(n + 1)
                ]
                for j in range(n + 1)
            ]
        )
        assert r_inverse(n, t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_bit_exact_at_powers_of_two(self, t):
        # One rounding of the exact t = 1 matrix and an exact power of t:
        # every entry must be the nearest double to its exact value.
        for n in range(7):
            rho = exact.rho_matrix(n)
            expected = np.array(
                [
                    [
                        float(
                            Fraction(t) ** -(j + k + 1)
                            * math.factorial(j)
                            * math.factorial(k)
                            * rho[j][k]
                        )
                        for k in range(n + 1)
                    ]
                    for j in range(n + 1)
                ]
            )
            np.testing.assert_array_equal(r_inverse(n, t), expected, err_msg=f"n={n}")

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            r_inverse(2, -0.5)


class TestDriftAndMean:
    def test_order1_formula(self):
        a = np.array([0.7, -1.2])
        assert mean_mu(a, 2.5) == pytest.approx(np.array([0.7, -1.2 + 2.5 * 0.7]), rel=1e-15)

    def test_zero_lag_is_identity(self):
        a = np.array([0.3, 1.0, -2.0])
        assert mean_mu(a, 0.0) == pytest.approx(a)
        assert mean_mu(a, 1e-12) == pytest.approx(a, rel=1e-9)

    def test_order2_example(self):
        assert mean_mu(np.array([1.0, 0.0, 0.0]), 2.0) == pytest.approx(
            np.array([1.0, 2.0, 2.0])
        )

    @pytest.mark.parametrize("n,t", [(1, 0.4), (3, 2.2), (5, 0.9)])
    def test_drift_is_scaled_gamma(self, n, t):
        # B(t) = T^-1(t) Gamma T(t)
        ts = TimeScaling(n, t)
        gamma = np.array(exact.gamma_matrix(n), dtype=float)
        expected = ts.inverse_diag()[:, None] * gamma * ts.diag()[None, :]
        assert drift_matrix(n, t) == pytest.approx(expected, rel=1e-12)

    def test_drift_semigroup(self):
        b1, b2 = drift_matrix(3, 0.7), drift_matrix(3, 1.1)
        assert b1 @ b2 == pytest.approx(drift_matrix(3, 1.8), rel=1e-12)

    @pytest.mark.parametrize("t", [0.0, 1e-300, 0.37, 1.0, 2.5, 1e10, np.float64(3.3), 2])
    @pytest.mark.parametrize("n", [0, 1, 2, 6, 24])
    def test_entries_bit_for_bit(self, n, t):
        # numpy's power t^(j-k) over (j-k)! below the diagonal, +0.0 above.
        # numpy's array power can differ from math.pow in the last bit.
        got = drift_matrix(n, t)
        for j in range(n + 1):
            for k in range(n + 1):
                entry = 0.0
                if j >= k:
                    entry = (float(t) ** np.array([j - k]))[0] / float(math.factorial(j - k))
                assert got[j, k].hex() == float(entry).hex(), (j, k)


class TestTimeScaling:
    def test_diag_values(self):
        ts = TimeScaling(2, 4.0)
        assert ts.diag() == pytest.approx(np.array([0.5, 0.125, 0.03125]))

    def test_inverse_is_reciprocal(self):
        ts = TimeScaling(3, 0.7)
        assert ts.diag() * ts.inverse_diag() == pytest.approx(np.ones(4), rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TimeScaling(2, 0.0)
        with pytest.raises(ValueError):
            TimeScaling(-1, 1.0)


class TestStationaryDensity:
    def test_order0_peak(self):
        assert stationary_density([0.0]) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_order1_peak_is_k1(self):
        assert stationary_density([0.0, 0.0]) == pytest.approx(
            math.sqrt(12.0) / (2 * math.pi), rel=1e-13
        )

    @settings(max_examples=30, deadline=None)
    @given(x=finite_states)
    def test_log_ratio_is_quadratic_form(self, x):
        n = len(x) - 1
        a = np.array(exact.a_matrix(n), dtype=float)
        lam = np.arange(1, 2 * n + 2, 2, dtype=float)
        y = a @ np.asarray(x)
        expected = -0.5 * y @ (lam * y)
        got = log_stationary_density(x) - log_stationary_density([0.0] * (n + 1))
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_peak_dominates(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=3)
            assert stationary_density(x) <= stationary_density([0.0, 0.0, 0.0])

    def test_equals_density_w_at_unit_time(self):
        x = [0.4, -0.1, 0.2]
        assert stationary_density(x) == pytest.approx(density_w(x, 1.0), rel=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            stationary_density([math.nan, 0.0])

    @pytest.mark.parametrize("x", [[1e200], [0.0, 1e308, 1e308], [-1e308, 1e-300, 1e308]])
    def test_overflowing_state_is_minus_inf(self, x):
        assert log_stationary_density(x) == -math.inf
        assert stationary_density(x) == 0.0

    @pytest.mark.parametrize("x", [[0.3, -0.7, 1.1], [1e-160, 2e-160], [3e150, -1e150]])
    def test_power_of_two_scaling_does_not_move_bits(self, x):
        # The quadratic form is evaluated at a power-of-two scale, which is
        # exact: compare with the plain unscaled formula, bit for bit.
        y = np.array(exact.a_matrix(len(x) - 1), dtype=float) @ np.asarray(x)
        lam = np.arange(1, 2 * len(x), 2, dtype=float)
        plain = -0.5 * float(y @ (lam * y))
        zero = log_stationary_density([0.0] * len(x))
        assert log_stationary_density(x) == zero + plain


class TestConditionalDensity:
    def test_order1_at_origin(self):
        assert conditional_density(0.0, [0.0]) == pytest.approx(
            math.sqrt(12 / (2 * math.pi)), rel=1e-13
        )

    def test_order0_is_standard_normal(self):
        assert conditional_density(0.7, []) == pytest.approx(
            math.exp(-0.245) / math.sqrt(2 * math.pi), rel=1e-13
        )

    @settings(max_examples=30, deadline=None)
    @given(x=finite_states)
    def test_chain_product_reproduces_joint(self, x):
        log_chain = math.fsum(
            log_conditional_density(x[k], x[:k]) for k in range(len(x))
        )
        assert log_chain == pytest.approx(log_stationary_density(x), rel=1e-12, abs=1e-12)

    def test_conditional_mean_is_projection(self):
        prefix = [0.5, -0.3, 0.8]
        n = len(prefix)
        a_row = [float(v) for v in exact.a_matrix(n)[n]]
        center = -sum(a_row[k] * prefix[k] for k in range(n)) / a_row[n]
        for d in (0.1, 0.45):
            assert conditional_density(center + d, prefix) == pytest.approx(
                conditional_density(center - d, prefix), rel=1e-11
            )
        assert conditional_density(center, prefix) > conditional_density(center + 0.2, prefix)


class TestNormalizingK:
    def test_order0(self):
        assert normalizing_k(0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_order1(self):
        assert normalizing_k(1) == pytest.approx(0.5513288954217921, rel=1e-13)

    @pytest.mark.parametrize("n", range(11))
    def test_closed_form_matches_sigma_product(self, n):
        product = math.prod(
            1.0 / math.sqrt(2 * math.pi * float(sigma_sq(k))) for k in range(n + 1)
        )
        assert normalizing_k(n) == pytest.approx(product, rel=1e-12)


class TestDensityW:
    def test_order0_brownian_marginal(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            w, t = rng.uniform(-3, 3), rng.uniform(0.1, 5)
            expected = math.exp(-w * w / (2 * t)) / math.sqrt(2 * math.pi * t)
            assert density_w([w], t) == pytest.approx(expected, rel=1e-13)

    def test_order1_origin_unit_time(self):
        assert density_w([0.0, 0.0], 1.0) == pytest.approx(normalizing_k(1), rel=1e-13)

    @pytest.mark.parametrize("n", range(5))
    def test_matches_exact_gaussian_oracle(self, n):
        # dense-normal oracle with exact rational covariance: inverse and
        # determinant by elimination, nothing shared with the factored path
        rng = np.random.default_rng(17 + n)
        for _ in range(6):
            t_frac = F(int(rng.integers(1, 40)), int(rng.integers(1, 8)))
            t = float(t_frac)
            w = covariance_root(n, t) @ rng.standard_normal(n + 1)
            oracle = gaussian_log_density(w, fraction_covariance(n, t_frac))
            assert density_w(w, t) == pytest.approx(math.exp(oracle), rel=1e-10)

    @pytest.mark.parametrize("n,t", [(0, 0.8), (1, 1.7)])
    def test_normalizes_to_one(self, n, t):
        sigmas = np.sqrt(np.diag(covariance_r(n, t)))
        axes = [np.linspace(-8 * s, 8 * s, 201) for s in sigmas]
        if n == 0:
            values = np.array([density_w([w], t) for w in axes[0]])
            total = np.trapezoid(values, axes[0])
        else:
            values = np.array(
                [[density_w([w0, w1], t) for w1 in axes[1]] for w0 in axes[0]]
            )
            total = np.trapezoid(np.trapezoid(values, axes[1], axis=1), axes[0])
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            density_w([0.0], 0.0)


class TestTransitionDensity:
    def test_order0_brownian_kernel(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            w, a, t = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 4)
            expected = math.exp(-((w - a) ** 2) / (2 * t)) / math.sqrt(2 * math.pi * t)
            assert transition_density([w], [a], t) == pytest.approx(expected, rel=1e-13)

    def test_states_near_float_range(self):
        # w is exactly the conditional mean B(1) a, so the form is 0, although
        # A T w alone overflows; and a start of the same size as w, far from it.
        big = 1e308
        at_mean = log_transition_density([big, big], [big, 0.0], 1.0)
        assert at_mean == log_transition_density([0.0, 0.0], [0.0, 0.0], 1.0)
        assert log_transition_density([big, big], [big, big], 1.0) == -math.inf
        assert log_transition_density([1e200, 0.0], [0.0, 0.0], 1.0) == -math.inf

    def test_zero_start_reduces_to_marginal(self):
        w = [0.3, -0.6, 0.1]
        assert transition_density(w, [0.0] * 3, 1.4) == pytest.approx(
            density_w(w, 1.4), rel=1e-13
        )

    def test_factored_equals_renewal_form(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(0, 5))
            t = 10.0 ** rng.uniform(-1, 1)
            w, a = law_probe(n, t, rng)
            renewal = log_density_w(np.asarray(w) - mean_mu(a, t), t)
            assert abs(math.expm1(log_transition_density(w, a, t) - renewal)) < 1e-8

    def test_star_symmetry(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(0, 5))
            t = 10.0 ** rng.uniform(-1, 1)
            w, a = law_probe(n, t, rng)
            lhs = log_transition_density(w, a, t)
            rhs = log_transition_density(star_vector(a), star_vector(w), t)
            assert abs(math.expm1(rhs - lhs)) < 1e-9

    def test_star_vector_involution(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert star_vector(x) == pytest.approx(np.array([1.0, -2.0, 3.0, -4.0]))
        assert star_vector(star_vector(x)) == pytest.approx(x)

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.lists(st.floats(min_value=-2, max_value=2), min_size=2, max_size=5),
        t=st.floats(min_value=0.3, max_value=3.0),
    )
    def test_quadratic_form_consistency(self, x, t):
        # w' R^-1(t) w computed densely equals the factored form [A T w]' Lambda [A T w]
        n = len(x) - 1
        w = np.asarray(x)
        dense = w @ r_inverse(n, t) @ w
        d = TimeScaling(n, t).diag()
        y = np.array(exact.a_matrix(n), dtype=float) @ (d * w)
        lam = np.arange(1, 2 * n + 2, 2, dtype=float)
        factored = y @ (lam * y)
        assert dense == pytest.approx(factored, rel=1e-10, abs=1e-10)

    def test_sign_flip_intertwines_drift(self):
        # A Gamma equals the sign-flipped A. Exact equality is covered by the
        # exact layer; here the float conversions must still satisfy it to
        # rounding, measured relative to the entry scale (entries reach 5e8
        # at n = 8, so an absolute bound would only measure their size).
        for n in range(9):
            a = np.array(exact.a_matrix(n), dtype=float)
            gamma = np.array(exact.gamma_matrix(n), dtype=float)
            a_star = np.array(exact.star(exact.a_matrix(n)), dtype=float)
            gap = np.abs(a @ gamma - a_star).max() / np.abs(a_star).max()
            assert gap < 1e-9

    def test_rejects_mismatched_orders(self):
        with pytest.raises(ValueError):
            transition_density([0.0, 0.0], [0.0], 1.0)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            transition_density([0.0], [0.0], -2.0)


class TestTimeScalingCovarianceLink:
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.7, 11.0])
    def test_scaled_covariance_is_lag_zero_correlation(self, t):
        n = 3
        r = covariance_r(n, t)
        for j in range(n + 1):
            for k in range(n + 1):
                scaled = r[j, k] * t ** -(j + 0.5) * t ** -(k + 0.5)
                expected = float(cross_correlation(j, k).at_zero())
                assert scaled == pytest.approx(expected, rel=1e-12)
