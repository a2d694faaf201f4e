"""Exact-arithmetic matrix families: pinned values, identities, dimension-freeness."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ibrownian.exact as ex
from ibrownian import cli, densities, sampling, spectral
from oracles import (
    exact_inverse,
    mat_mul_fraction_loop,
    rho_matrix_binomial_sum,
    rho_matrix_fraction_sum,
    rho_matrix_product_form,
)

F = Fraction


def frac_matrix(rows):
    return [[F(v) for v in row] for row in rows]


class TestStar:
    def test_identity_fixed(self):
        eye = ex.identity(4)
        assert ex.star(eye) == eye

    def test_gamma_n1(self):
        assert ex.star(frac_matrix([[1, 0], [1, 1]])) == frac_matrix([[1, 0], [-1, 1]])

    @given(
        st.lists(
            st.lists(st.fractions(min_value=-99, max_value=99, max_denominator=20),
                     min_size=5, max_size=5),
            min_size=5, max_size=5,
        )
    )
    def test_involution(self, m):
        assert ex.star(ex.star(m)) == m

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            ex.star([[F(1), F(2)]])


class TestGamma:
    def test_n0(self):
        assert ex.gamma_matrix(0) == [[F(1)]]

    def test_n2(self):
        assert ex.gamma_matrix(2) == frac_matrix([[1, 0, 0], [1, 1, 0], [F(1, 2), 1, 1]])

    def test_unit_diagonal_lower_triangular(self):
        g = ex.gamma_matrix(6)
        for j in range(7):
            assert g[j][j] == 1
            assert all(g[j][k] == 0 for k in range(j + 1, 7))

    def test_block_of_larger(self):
        small, big = ex.gamma_matrix(2), ex.gamma_matrix(5)
        assert all(small[j][k] == big[j][k] for j in range(3) for k in range(3))


class TestB:
    def test_n1(self):
        assert ex.b_matrix(1) == frac_matrix([[1, 0], [1, 2]])

    def test_entry_22(self):
        assert ex.b_matrix(2)[2][2] == 12

    def test_diagonal(self):
        b = ex.b_matrix(8)
        for n in range(9):
            assert b[n][n] == math.factorial(2 * n) // math.factorial(n)

    @pytest.mark.parametrize("dim", range(0, 13))
    def test_b_equals_a_times_gamma(self, dim):
        assert ex.mat_mul(ex.a_matrix(dim), ex.gamma_matrix(dim)) == ex.b_matrix(dim)


class TestA:
    def test_n2(self):
        assert ex.a_matrix(2) == frac_matrix([[1, 0, 0], [-1, 2, 0], [1, -6, 12]])

    @pytest.mark.parametrize("dim", range(0, 13))
    def test_equals_star_of_b(self, dim):
        assert ex.a_matrix(dim) == ex.star(ex.b_matrix(dim))

    def test_a1_times_gamma1(self):
        assert ex.mat_mul(ex.a_matrix(1), ex.gamma_matrix(1)) == frac_matrix([[1, 0], [1, 2]])


class TestAInverse:
    def test_n1(self):
        assert ex.a_inverse_matrix(1) == frac_matrix([[1, 0], [F(1, 2), F(1, 2)]])

    def test_row2_entries(self):
        c = ex.a_inverse_matrix(2)
        assert (c[2][0], c[2][1], c[2][2]) == (F(1, 6), F(1, 4), F(1, 12))

    @pytest.mark.parametrize("dim", range(0, 13))
    def test_two_sided_inverse(self, dim):
        a, c = ex.a_matrix(dim), ex.a_inverse_matrix(dim)
        eye = ex.identity(dim)
        assert ex.mat_mul(a, c) == eye
        assert ex.mat_mul(c, a) == eye

    def test_matches_elimination_oracle(self):
        assert ex.a_inverse_matrix(6) == exact_inverse(ex.a_matrix(6))


class TestLambda:
    def test_n0(self):
        assert ex.lambda_matrix(0) == [[F(1)]]

    def test_n2(self):
        assert ex.lambda_matrix(2) == frac_matrix([[1, 0, 0], [0, 3, 0], [0, 0, 5]])

    def test_odd_positive_diagonal(self):
        lam = ex.lambda_matrix(9)
        for k in range(10):
            v = lam[k][k]
            assert v > 0 and v.denominator == 1 and v.numerator % 2 == 1


class TestRhoInverse:
    def test_n1(self):
        assert ex.rho_inverse_matrix(1) == frac_matrix([[1, F(1, 2)], [F(1, 2), F(1, 3)]])

    def test_n2(self):
        assert ex.rho_inverse_matrix(2) == frac_matrix(
            [[1, F(1, 2), F(1, 3)], [F(1, 2), F(1, 3), F(1, 4)], [F(1, 3), F(1, 4), F(1, 5)]]
        )

    @pytest.mark.parametrize("dim", [0, 3, 7])
    def test_symmetric(self, dim):
        m = ex.rho_inverse_matrix(dim)
        assert m == ex.transpose(m)


class TestRho:
    def test_n1(self):
        assert ex.rho_matrix(1) == frac_matrix([[4, -6], [-6, 12]])

    def test_n2(self):
        # the (2,0)/(0,2) entries are 30: the inverse of a symmetric matrix
        # is symmetric, and exact elimination agrees with the closed form
        assert ex.rho_matrix(2) == frac_matrix(
            [[9, -36, 30], [-36, 192, -180], [30, -180, 180]]
        )

    @pytest.mark.parametrize("dim", range(0, 13))
    def test_inverse_pair(self, dim):
        eye = ex.identity(dim)
        rho, rho_inv = ex.rho_matrix(dim), ex.rho_inverse_matrix(dim)
        assert ex.mat_mul(rho, rho_inv) == eye
        assert ex.mat_mul(rho_inv, rho) == eye

    @pytest.mark.parametrize("dim", range(0, 9))
    def test_closed_form_matches_elimination(self, dim):
        assert ex.rho_matrix(dim) == exact_inverse(ex.rho_inverse_matrix(dim))

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_equals_scaled_quadratic_form(self, dim):
        # rho = D^-1 A' Lambda A D^-1 with D = diag(j!)
        a = ex.a_matrix(dim)
        core = ex.mat_mul(ex.transpose(a), ex.mat_mul(ex.lambda_matrix(dim), a))
        scaled = [
            [core[j][k] / (math.factorial(j) * math.factorial(k)) for k in range(dim + 1)]
            for j in range(dim + 1)
        ]
        assert ex.rho_matrix(dim) == scaled

    def test_not_dimension_free(self):
        small, big = ex.rho_matrix(2), ex.rho_matrix(3)
        assert any(small[j][k] != big[j][k] for j in range(3) for k in range(3))

    @pytest.mark.parametrize("dim", range(0, 41))
    def test_integer_form_matches_fraction_sum(self, dim):
        rho = ex.rho_matrix(dim)
        assert rho == rho_matrix_fraction_sum(dim)
        assert all(type(v) is Fraction for row in rho for v in row)

    def test_inverse_pair_at_dim_100(self):
        rho, rho_inv = ex.rho_matrix(100), ex.rho_inverse_matrix(100)
        assert ex.mat_mul(rho, rho_inv) == ex.identity(100)

    @pytest.mark.parametrize("dim", [*range(0, 121), 360])
    def test_product_form_matches_binomial_sum(self, dim):
        rho = ex.rho_matrix(dim)
        assert rho == rho_matrix_binomial_sum(dim)
        assert all(type(v) is Fraction for row in rho for v in row)

    @pytest.mark.parametrize("dim", [*range(0, 61), 200])
    def test_cauchy_form_matches_product_of_binomials(self, dim):
        rho = ex.rho_matrix(dim)
        assert rho == rho_matrix_product_form(dim)
        assert all(type(v) is Fraction for row in rho for v in row)


def random_rational_matrix(rng, rows, cols, zero_share=0.3):
    return [
        [
            F(0) if rng.random() < zero_share else F(rng.randint(-60, 60), rng.randint(1, 36))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]


class TestMatMul:
    """The common-denominator product against plain Fraction accumulation."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("shape", [(1, 1, 1), (3, 5, 2), (6, 1, 4), (2, 7, 7), (8, 8, 8)])
    def test_random_rational_matches_oracle(self, seed, shape):
        rows, inner, cols = shape
        rng = random.Random(1000 * seed + rows * 100 + inner * 10 + cols)
        x = random_rational_matrix(rng, rows, inner)
        y = random_rational_matrix(rng, inner, cols)
        product = ex.mat_mul(x, y)
        assert product == mat_mul_fraction_loop(x, y)
        assert all(type(v) is Fraction for row in product for v in row)

    def test_zero_rows_and_columns(self):
        rng = random.Random(7)
        x = random_rational_matrix(rng, 5, 6, zero_share=0.0)
        y = random_rational_matrix(rng, 6, 4, zero_share=0.0)
        x[2] = [F(0)] * 6
        for row in y:
            row[1] = F(0)
        for k in (0, 5):  # an inner index that is zero in every row of x
            for row in x:
                row[k] = F(0)
        product = ex.mat_mul(x, y)
        assert product == mat_mul_fraction_loop(x, y)
        assert product[2] == [0, 0, 0, 0]
        assert all(row[1] == 0 for row in product)

    def test_all_zero(self):
        zeros = [[F(0)] * 3 for _ in range(3)]
        assert ex.mat_mul(zeros, ex.rho_inverse_matrix(2)) == zeros
        assert ex.mat_mul(ex.rho_inverse_matrix(2), zeros) == zeros

    def test_negative_one_by_one(self):
        assert ex.mat_mul([[F(-3, 4)]], [[F(-8, 9)]]) == [[F(2, 3)]]
        assert ex.mat_mul([[F(-3, 4)]], [[F(8, 9)]]) == [[F(-2, 3)]]

    @pytest.mark.parametrize("dim", [3, 12, 30])
    def test_factorial_families_match_oracle(self, dim):
        pairs = [
            (ex.a_matrix(dim), ex.gamma_matrix(dim)),
            (ex.a_inverse_matrix(dim), ex.star(ex.gamma_matrix(dim))),
            (ex.rho_matrix(dim), ex.transpose(ex.a_inverse_matrix(dim))),
        ]
        for x, y in pairs:
            assert ex.mat_mul(x, y) == mat_mul_fraction_loop(x, y)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch: 3x3 times 4x4"):
            ex.mat_mul(ex.gamma_matrix(2), ex.gamma_matrix(3))
        with pytest.raises(ValueError, match="shape mismatch"):
            ex.mat_mul([[F(1), F(2)]], [[F(1), F(2)]])

    def test_ragged_right_factor(self):
        with pytest.raises(ValueError):
            ex.mat_mul([[F(1), F(2)]], [[F(1), F(2)], [F(3)]])


DIM_FREE_FAMILIES = {
    "gamma": ex.GAMMA,
    "b": ex.B,
    "a": ex.A,
    "a_inverse": ex.A_INVERSE,
    "lambda": ex.LAMBDA,
    "rho_inverse": ex.RHO_INVERSE,
}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(DIM_FREE_FAMILIES)),
    small=st.integers(min_value=0, max_value=9),
    extra=st.integers(min_value=1, max_value=5),
)
def test_dimension_free_block_property(name, small, extra):
    family = DIM_FREE_FAMILIES[name]
    lo, hi = family.realize(small), family.realize(small + extra)
    assert all(lo[j][k] == hi[j][k] for j in range(small + 1) for k in range(small + 1))


class TestValidationAndJson:
    @pytest.mark.parametrize("bad", [-1, -7])
    def test_negative_dimension_rejected(self, bad):
        for fn in (ex.gamma_matrix, ex.b_matrix, ex.a_matrix, ex.a_inverse_matrix,
                   ex.lambda_matrix, ex.rho_matrix, ex.rho_inverse_matrix):
            with pytest.raises(ValueError):
                fn(bad)

    def test_mat_mul_shape_mismatch(self):
        with pytest.raises(ValueError):
            ex.mat_mul(ex.gamma_matrix(2), ex.gamma_matrix(3))

    @pytest.mark.parametrize("bad", [-1, 1.5, "2", None])
    def test_one_validator_names_the_quantity(self, bad):
        dimension = re.escape(f"matrix dimension must be a non-negative integer, got {bad!r}")
        order = re.escape(f"order must be a non-negative integer, got {bad!r}")
        for fn in (ex.rho_matrix, ex.identity):
            with pytest.raises(ValueError, match=dimension):
                fn(bad)
        with pytest.raises(ValueError, match=dimension):
            ex.matrix_from_json({"dim": bad, "entries": []})
        for fn in (spectral.transfer_h, spectral.sigma_sq, densities.normalizing_k):
            with pytest.raises(ValueError, match=order):
                fn(bad)
        with pytest.raises(ValueError, match=order):
            spectral.cross_correlation(0, bad)
        with pytest.raises(ValueError, match=order):
            densities.covariance_r(bad, 1.0)
        with pytest.raises(ValueError, match=order):
            sampling.sample_w(bad, (1.0,), 0)

    # A NaN time or lag, and an infinite time where the result would hold
    # inf or NaN, raise instead of returning NaN.
    @pytest.mark.parametrize("call", [
        lambda: spectral.impulse_response(2, math.nan),
        lambda: spectral.cross_correlation(2, 3).at(math.nan),
        lambda: densities.drift_matrix(2, math.nan),
        lambda: densities.drift_matrix(2, math.inf),
        lambda: densities.mean_mu([1, 1], math.nan),
        lambda: densities.mean_mu([0, 0], math.inf),
    ], ids=["impulse_response", "at", "drift_matrix", "drift_matrix-inf", "mean_mu",
            "mean_mu-inf"])
    def test_nan_real_argument_raises(self, call):
        with pytest.raises(ValueError, match="must be"):
            call()

    def test_validator_canonicalizes_numpy_ints(self):
        assert ex.rho_matrix(np.int64(2)) == ex.rho_matrix(2)
        assert spectral.transfer_h(np.uint8(3)) == spectral.transfer_h(3)

    def test_json_round_trip(self):
        m = ex.rho_matrix(2)
        doc = ex.matrix_to_json(m)
        assert doc["dim"] == 2
        assert doc["entries"][0] == ["9", "-36", "30"]
        assert ex.matrix_from_json(doc) == m

    def test_json_fraction_strings(self):
        doc = ex.matrix_to_json(ex.gamma_matrix(2))
        assert doc["entries"][2][0] == "1/2"

    def test_json_entry_types(self):
        # A plain Fraction is printed as it is; any other entry, a Fraction
        # subclass with its own str included, goes through Fraction first.
        class Labelled(Fraction):
            def __str__(self):
                return "labelled"

        m = [[7, F(-3, 4)], [Labelled(6, 4), 0.5]]
        assert ex.matrix_to_json(m)["entries"] == [["7", "-3/4"], ["3/2", "1/2"]]
        assert ex.matrix_to_json([[F(-36)]])["entries"] == [["-36"]]

    @pytest.mark.parametrize("which", sorted(cli._MATRIX_BUILDERS))
    def test_entry_strings_are_fraction_strings_for_every_family(self, which):
        for row in cli._MATRIX_BUILDERS[which](9):
            assert ex._entry_strings(row) == [str(Fraction(v)) for v in row]

    @pytest.mark.parametrize("row", [
        [0, 1, -1, 7, -36],
        [F(0), F(-0), F(5), F(-5)],
        [F(-(10**400) - 1), F(10**400 + 7), -(10**300), 10**300],
        [F(1, 2), F(-3, 4), F(10**50, 3), F(-7, 10**40)],
        [F(4, 2), F(-9, 3), np.int64(-12), True, 0.5],
    ])
    def test_entry_strings_are_fraction_strings(self, row):
        assert ex._entry_strings(row) == [str(Fraction(v)) for v in row]

    def test_json_shape_validation(self):
        with pytest.raises(ValueError):
            ex.matrix_from_json({"dim": 2, "entries": [["1"]]})
