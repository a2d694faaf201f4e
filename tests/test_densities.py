"""Density layer: covariances, factored inverse, conditionals, transitions."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import trapezoid

from ibrownian import densities, exact
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
from oracles import (
    a_lambda_a_by_products,
    fraction_covariance,
    fraction_half_form,
    fraction_transition_form,
    gaussian_log_density,
    rounded,
)

F = Fraction

finite_states = st.lists(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False), min_size=1, max_size=6
)

# The whole positive float range, and the whole finite range for a state
# entry (zeros and subnormals included); the moderate ranges keep some
# forms inside the float range.
any_times = st.floats(min_value=5e-324, max_value=1e308) | st.floats(
    min_value=0.05, max_value=20.0
)
any_entries = st.floats(min_value=-1e308, max_value=1e308) | st.floats(
    min_value=-4.0, max_value=4.0
)


@st.composite
def any_states(draw, count):
    """count states of one order from 0 to 30."""
    n = draw(st.integers(min_value=0, max_value=30))
    return [draw(st.lists(any_entries, min_size=n + 1, max_size=n + 1)) for _ in range(count)]


def log_scale(n, t):
    """The terms of a log density at horizon or lag t besides its quadratic form."""
    return -0.5 * (n + 1) ** 2 * math.log(t) + densities._log_k(n)


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

    def test_tables_are_the_fraction_products_bit_for_bit(self):
        # A' Lambda A is read as j! k! rho[j][k] from rho_matrix's integers;
        # the two Fraction products give the same integers.
        for n in range(75):
            products = [[int(v) for v in row] for row in a_lambda_a_by_products(n)]
            assert [list(row) for row in densities._a_lambda_a(n)] == products, n

    @pytest.mark.parametrize("n", range(75, 81))
    def test_a_lambda_a_beyond_the_float_range_overflows_on_both_routes(self, n):
        # From n = 75 on, A' Lambda A has entries beyond the float range.
        with pytest.raises(ValueError, match="beyond the float range"):
            r_inverse(n, 1.0)
        with pytest.raises(OverflowError):
            np.array(a_lambda_a_by_products(n), dtype=float)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=0, max_value=30), t=any_times)
    @example(n=3, t=1e-300)
    def test_each_entry_is_the_rounded_fraction_entry(self, n, t):
        # Every entry is the nearest double to t^-(j+k+1) j! k! rho[j][k], or,
        # when one is beyond the float range, r_inverse raises ValueError.
        rho, f = exact.rho_matrix(n), math.factorial
        expected = [
            [rounded(Fraction(t) ** -(j + k + 1) * f(j) * f(k) * rho[j][k]) for k in range(n + 1)]
            for j in range(n + 1)
        ]
        if any(math.isinf(v) for row in expected for v in row):
            with pytest.raises(ValueError):
                r_inverse(n, t)
        else:
            assert r_inverse(n, t).tolist() == expected


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

    @pytest.mark.parametrize("t,method", [(1e-5, "diag"), (1e5, "inverse_diag")])
    def test_power_beyond_the_float_range_is_value_error(self, t, method):
        with pytest.raises(ValueError, match="beyond the float range"):
            getattr(TimeScaling(300, t), method)()


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
        # The states are read as integers over one power-of-two denominator,
        # which is exact, also near the ends of the float range: the form is
        # the exact Fraction form rounded once. ([3e150, -1e150] is where the
        # plain float formula, -4.2e+301, is not correctly rounded.)
        form = rounded(fraction_half_form(x, [0.0] * len(x), 1.0))
        assert log_stationary_density(x) == densities._log_k(len(x) - 1) - form

    @settings(max_examples=40, deadline=None)
    @given(states=any_states(1))
    def test_form_is_the_rounded_fraction_form(self, states):
        (x,) = states
        zero = [0.0] * len(x)
        form = rounded(fraction_half_form(x, zero, 1.0))
        assert log_stationary_density(x) == densities._log_k(len(x) - 1) - form

    def test_value_beyond_the_float_range_is_value_error(self):
        # normalizing_k(22), the peak at order 22, is about 1e338.
        with pytest.raises(ValueError, match="beyond the float range"):
            stationary_density([0.0] * 23)


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

    @settings(max_examples=40, deadline=None)
    @given(states=any_states(1))
    def test_form_is_the_rounded_fraction_row(self, states):
        # Row n of the stationary quadratic form: the gain n!/(2n)! of the
        # projection residual cancels against sigma_n^2.
        (x,) = states
        n = len(x) - 1
        s2 = sigma_sq(n)
        log_s2 = math.log(s2.numerator) - math.log(s2.denominator)
        normal = -0.5 * (math.log(2.0 * math.pi) + log_s2)
        form = rounded(fraction_half_form(x, [0.0] * (n + 1), 1.0, first=n))
        assert log_conditional_density(x[-1], x[:-1]) == normal - form

    @pytest.mark.parametrize("n", [78, 80])
    def test_orders_whose_variance_is_below_the_float_range(self, n):
        # sigma_n^2 is below the smallest double from n = 78; its log is taken
        # from its integers.  At x = 0.1 the form is about 1e321 (n = 78) or
        # 1e331 (n = 80), beyond the float range.
        s2 = sigma_sq(n)
        log_s2 = math.log(s2.numerator) - math.log(s2.denominator)
        peak = -0.5 * (math.log(2.0 * math.pi) + log_s2)
        assert 370.0 < log_conditional_density(0.0, [0.0] * n) == peak
        assert log_conditional_density(0.1, [0.1] * n) == -math.inf
        assert conditional_density(0.1, [0.1] * n) == 0.0

    def test_value_beyond_the_float_range_is_value_error(self):
        # The peak -log(2 pi sigma_n^2)/2 passes 709.8 near n = 140.
        with pytest.raises(ValueError, match="beyond the float range"):
            conditional_density(0.0, [0.0] * 150)


class TestNormalizingK:
    def test_order0(self):
        assert normalizing_k(0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-15)

    def test_order1(self):
        assert normalizing_k(1) == pytest.approx(0.5513288954217921, rel=1e-13)

    def test_beyond_the_float_range_is_value_error(self):
        assert normalizing_k(21) < 1e308
        with pytest.raises(ValueError, match="beyond the float range"):
            normalizing_k(22)

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
            total = trapezoid(values, axes[0])
        else:
            values = np.array(
                [[density_w([w0, w1], t) for w1 in axes[1]] for w0 in axes[0]]
            )
            total = trapezoid(trapezoid(values, axes[1], axis=1), axes[0])
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            density_w([0.0], 0.0)

    @settings(max_examples=40, deadline=None)
    @given(t=any_times, states=any_states(1))
    def test_form_is_the_rounded_fraction_form(self, t, states):
        (w,) = states
        n = len(w) - 1
        form = rounded(fraction_half_form(w, [0.0] * (n + 1), t))
        assert log_density_w(w, t) == log_scale(n, t) - form

    def test_law_draw_at_order_24(self):
        # One draw from the law at t = 0.7; its exact form, from the dense
        # inverse covariance, rounds to the value the factored form gives.
        n, t = 24, 0.7
        w = covariance_root(n, t) @ np.random.default_rng(0).standard_normal(n + 1)
        got = log_density_w(w, t)
        assert got == log_scale(n, t) - float(fraction_transition_form(w, [0.0] * (n + 1), t))
        assert got == pytest.approx(1047.7188327, rel=1e-9)

    def test_value_beyond_the_float_range_is_value_error(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            density_w([0.0, 0.0], 1e-300)


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

    @settings(max_examples=40, deadline=None)
    @given(t=any_times, states=any_states(2))
    @example(t=1e-300, states=[[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
    def test_form_is_the_rounded_fraction_form(self, t, states):
        w, a = states
        form = rounded(fraction_half_form(w, a, t))
        assert log_transition_density(w, a, t) == log_scale(len(w) - 1, t) - form

    def test_the_two_fraction_oracles_are_one_rational(self):
        # The factored A route and the dense R^-1(t), B(t) route share nothing
        # but the exact layer, and give the same rational.
        rng = np.random.default_rng(31)
        for n in range(9):
            t = float(10.0 ** rng.uniform(-2.0, 1.0))
            w, a = rng.standard_normal((2, n + 1)).tolist()
            assert fraction_half_form(w, a, t) == fraction_transition_form(w, a, t), n

    @pytest.mark.parametrize(
        "n,start,lag,seed,value",
        [(6, 1.0, 0.01, 2, 150.1761798), (8, 2.5, 0.1, 1, 168.5430967)],
    )
    def test_short_lag_from_a_law_draw(self, n, start, lag, seed, value):
        # a is the state at time start and w the state a lag later.  A T w
        # and A* T a cancel to many digits here, so only a form taken exactly
        # gets the log density right; the dense inverse route must agree.
        rng = np.random.default_rng(seed)
        a = covariance_root(n, start) @ rng.standard_normal(n + 1)
        w = drift_matrix(n, lag) @ a + covariance_root(n, lag) @ rng.standard_normal(n + 1)
        got = log_transition_density(w, a, lag)
        assert got == log_scale(n, lag) - float(fraction_transition_form(w, a, lag))
        assert got == pytest.approx(value, rel=1e-9)

    def test_value_beyond_the_float_range_is_value_error(self):
        with pytest.raises(ValueError, match="beyond the float range"):
            transition_density([0.0, 0.0], [0.0, 0.0], 1e-300)


@pytest.mark.parametrize(
    "call",
    [
        lambda: log_transition_density([1, 1, 1], [0, 0, 0], 1e-300),
        lambda: r_inverse(3, 1e-300),
        lambda: r_inverse(75, 1.0),
        lambda: log_density_w([0.1] * 201, 1.0),
        lambda: log_stationary_density([0.1] * 201),
        lambda: normalizing_k(22),
        lambda: TimeScaling(300, 1e-5).diag(),
    ],
    ids=["transition-tiny-lag", "r_inverse-tiny-t", "r_inverse-75", "density_w-200",
         "stationary-200", "normalizing_k-22", "time-scaling-300"],
)
def test_extreme_inputs_give_a_value_or_value_error_without_warnings(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call()
        except ValueError:
            pass


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
