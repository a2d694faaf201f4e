"""Transfer functions and the exact residue calculus, checked against quadrature."""

import math
from fractions import Fraction

import numpy as np
import pytest

from ibrownian import exact
from ibrownian.spectral import (
    _closed_form_terms,
    _correlation_rows,
    _exp_sum,
    _float_coeffs,
    _left_residue_terms,
    CorrelationExpansion,
    RationalTransfer,
    cross_correlation,
    half_integer,
    impulse_response,
    sigma_sq,
    spectral_inner_product,
    transfer_g,
    transfer_h,
    transfer_h_hat,
)
from oracles import (
    expansion_at_per_call,
    fourier_pair_quadrature,
    fourier_quadrature,
    inner_product_quadrature,
    time_domain_energy,
)

F = Fraction


class TestTransferH:
    def test_n0_structure(self):
        h0 = transfer_h(0)
        assert h0.gain == 1 and h0.conj_zeros == () and h0.poles == (F(1, 2),)

    def test_n2_structure(self):
        assert transfer_h(2).poles == (F(1, 2), F(3, 2), F(5, 2))

    @pytest.mark.parametrize("n", range(6))
    def test_dc_gain(self, n):
        expected = 1 / math.prod(F(2 * k + 1, 2) for k in range(n + 1)) ** 2
        value = transfer_h(n).at_iv(F(0)) ** 2
        assert value == expected

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            transfer_h(-1)


class TestTransferG:
    def test_n0_equals_h0(self):
        assert transfer_g(0) == transfer_h(0)

    def test_n1_structure(self):
        g1 = transfer_g(1)
        assert g1.gain == 1
        assert g1.conj_zeros == (F(1, 2),)
        assert g1.poles == (F(1, 2), F(3, 2))

    def test_magnitude_ratio(self):
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            g, h, h_prev = transfer_g(n), transfer_h(n), transfer_h(n - 1)
            for v in rng.uniform(-20, 20, size=8):
                lhs = abs(g(v)) * abs(h_prev(v))
                rhs = abs(h(v))
                assert lhs == pytest.approx(rhs, rel=1e-12)


class TestTransferHHat:
    def test_n0_equals_h0(self):
        assert transfer_h_hat(0) == transfer_h(0)

    def test_n1(self):
        hh = transfer_h_hat(1)
        assert hh.gain == F(1, 2)
        assert hh.conj_zeros == (F(1, 2),)
        assert hh.poles == (F(1, 2), F(3, 2))

    @pytest.mark.parametrize("n", range(9))
    def test_gain_normalization(self, n):
        # multiplying away the pole cascade and evaluating at iv = -(n + 1/2)
        # must give exactly 1
        hh = transfer_h_hat(n)
        s = -half_integer(n)
        residue_factor = hh.gain * math.prod((z - s for z in hh.conj_zeros), start=F(1))
        assert residue_factor == 1


class TestRationalTransferType:
    def test_rejects_integer_locations(self):
        with pytest.raises(ValueError):
            RationalTransfer(F(1), (), (F(1),))

    def test_rejects_degree_violation(self):
        # numerator degree must stay below denominator degree, which is what
        # keeps every spectrum integrable
        with pytest.raises(ValueError):
            RationalTransfer(F(1), (F(1, 2), F(3, 2)), (F(1, 2), F(3, 2)))

    def test_rejects_zero_gain(self):
        with pytest.raises(ValueError):
            RationalTransfer(F(0), (), (F(1, 2),))

    def test_multiply_merges_structure(self):
        prod = transfer_h(1).multiply(transfer_g(1))
        assert prod.gain == 1
        assert prod.conj_zeros == (F(1, 2),)
        assert prod.poles == (F(1, 2), F(1, 2), F(3, 2), F(3, 2))

    def test_evaluate_matches_factors(self):
        h1 = transfer_h(1)
        v = 0.37
        expected = 1.0 / ((0.5 + 1j * v) * (1.5 + 1j * v))
        assert h1(v) == pytest.approx(expected, rel=1e-15)


class TestInnerProduct:
    def test_h0_h0_is_one(self):
        assert spectral_inner_product(transfer_h(0), transfer_h(0)) == 1

    @pytest.mark.parametrize("j,k", [(0, 0), (1, 1), (2, 1), (3, 0), (4, 2), (5, 5)])
    def test_matches_quadrature(self, j, k):
        value = float(spectral_inner_product(transfer_h(j), transfer_h(k)))
        assert value == pytest.approx(inner_product_quadrature(transfer_h(j), transfer_h(k)),
                                      abs=1e-10)

    def test_g_orthogonality(self):
        for j in range(7):
            for k in range(7):
                expected = F(1, 2 * k + 1) if j == k else F(0)
                assert spectral_inner_product(transfer_g(j), transfer_g(k)) == expected

    def test_innovation_orthogonal_to_past(self):
        for n in range(1, 7):
            for m in range(n):
                assert spectral_inner_product(transfer_h_hat(n), transfer_h(m)) == 0

    def test_repeated_pole_rejected(self):
        doubled = RationalTransfer(F(1), (), (F(1, 2), F(1, 2)))
        with pytest.raises(ValueError, match="repeated pole"):
            spectral_inner_product(doubled, transfer_h(0))


class TestSigmaSq:
    def test_pinned_values(self):
        assert sigma_sq(0) == 1
        assert sigma_sq(1) == F(1, 12)
        assert sigma_sq(2) == F(1, 720)

    @pytest.mark.parametrize("n", range(9))
    def test_equals_innovation_inner_product(self, n):
        hh = transfer_h_hat(n)
        assert sigma_sq(n) == spectral_inner_product(hh, hh)


class TestImpulseResponse:
    def test_h0_at_one(self):
        assert impulse_response(0, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-15)

    def test_zero_for_negative_times(self):
        for n in range(4):
            assert impulse_response(n, -0.3) == 0.0
            assert impulse_response(n, -1e-12) == 0.0

    def test_continuous_at_zero_for_positive_order(self):
        for n in range(1, 5):
            assert impulse_response(n, 0.0) == 0.0
            assert impulse_response(n, 1e-9) == pytest.approx(0.0, abs=1e-8)

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_matches_fourier_inversion_of_h2(self, t):
        assert impulse_response(2, t) == pytest.approx(
            fourier_quadrature(transfer_h(2), t), abs=1e-8
        )

    @pytest.mark.parametrize("n", range(5))
    def test_energy_equals_inner_product(self, n):
        energy = time_domain_energy(lambda t: impulse_response(n, t))
        assert energy == pytest.approx(
            float(spectral_inner_product(transfer_h(n), transfer_h(n))), abs=1e-10
        )


class TestCrossCorrelation:
    def test_autocovariance_order0(self):
        expansion = cross_correlation(0, 0)
        assert expansion.pos_terms == ((F(1), F(1, 2)),)
        assert expansion.neg_terms == ((F(1), F(1, 2)),)
        assert expansion.at(0.8) == pytest.approx(math.exp(-0.4), rel=1e-14)

    def test_order1_diagonal_at_zero(self):
        assert cross_correlation(1, 1).at_zero() == F(1, 3)

    @pytest.mark.parametrize("n", range(6))
    def test_diagonal_at_zero_closed_form(self, n):
        expected = F(1, math.factorial(n) ** 2 * (2 * n + 1))
        assert cross_correlation(n, n).at_zero() == expected

    @pytest.mark.parametrize("j,k", [(0, 1), (1, 0), (2, 2), (3, 1)])
    def test_at_zero_equals_inner_product(self, j, k):
        assert cross_correlation(j, k).at_zero() == spectral_inner_product(
            transfer_h(j), transfer_h(k)
        )

    @pytest.mark.parametrize("j,k,tau", [(0, 1, 0.7), (1, 0, 0.7), (2, 1, 1.3), (3, 3, 0.4)])
    def test_positive_lag_matches_quadrature(self, j, k, tau):
        assert cross_correlation(j, k).at(tau) == pytest.approx(
            fourier_pair_quadrature(transfer_h(j), transfer_h(k), tau), abs=1e-9
        )

    def test_negative_lag_is_swapped_pair(self):
        for tau in (0.3, 1.1):
            assert cross_correlation(0, 1).at(-tau) == pytest.approx(
                cross_correlation(1, 0).at(tau), rel=1e-14
            )

    def test_two_sides_meet_at_zero(self):
        e = cross_correlation(0, 2)
        assert e.at(1e-14) == pytest.approx(e.at(-1e-14), rel=1e-12)

    def test_json_shape(self):
        doc = cross_correlation(1, 0).to_json_dict()
        assert set(doc) == {"terms", "terms_negative"}
        for term in doc["terms"]:
            assert isinstance(term["coeff"], float)
            Fraction(term["rate"])  # parses back exactly

    def test_rates_positive_distinct_enforced(self):
        with pytest.raises(ValueError):
            CorrelationExpansion(((F(1), F(1, 2)), (F(2), F(1, 2))), ())

    def test_closed_form_equals_residue_terms(self):
        # The closed form and the residue calculus agree term for term, as
        # Fractions and in order, on both sides of every pair up to order 24.
        for j in range(25):
            for k in range(25):
                expansion = cross_correlation(j, k)
                assert expansion.pos_terms == tuple(
                    _left_residue_terms(transfer_h(j), transfer_h(k))
                ), (j, k)
                assert expansion.neg_terms == tuple(
                    _left_residue_terms(transfer_h(k), transfer_h(j))
                ), (j, k)
                assert all(type(c) is Fraction and type(r) is Fraction
                           for c, r in expansion.pos_terms + expansion.neg_terms)

    def test_table_coefficients_are_the_exact_terms_as_floats(self):
        # Every pair the correlate CLI accepts (--n up to 70), bit for bit.
        for j in range(71):
            for k in range(71):
                want = [float(c) for c, _ in _closed_form_terms(j, k)]
                got = _float_coeffs(j, k)
                assert [x.hex() for x in got] == [x.hex() for x in want], (j, k)

    def test_shared_evaluator_at_signed_zero(self):
        # At tau = +0.0 and -0.0 both callers of _exp_sum take the tau >= 0
        # side with every decay 1.0, so each value is the fsum of that side's
        # float coefficients, with the same sign of zero.
        n = 6
        plus, minus = _correlation_rows(n, [0.0, -0.0])
        for index, (j, k) in enumerate((j, k) for j in range(n + 1) for k in range(n + 1)):
            expansion = cross_correlation(j, k)
            coeffs = [float(c) for c, _ in expansion.pos_terms]
            want = math.fsum(coeffs)
            assert _exp_sum(coeffs, [1.0] * len(coeffs)) == want
            for got in (expansion.at(0.0), expansion.at(-0.0), plus[index], minus[index]):
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)
        assert math.copysign(1.0, _exp_sum((), ())) == 1.0
        assert _exp_sum((2.0, -3.0, 5.0), (1.0, 1.0)) == -1.0  # stops at the shorter

    def test_at_bit_identical_to_per_call_conversion(self):
        taus = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 5e-324, -5e-324, math.inf, -math.inf]
        taus += np.linspace(-4.0, 4.0, 81).tolist()
        for j, k in [(0, 0), (0, 3), (3, 0), (5, 5), (16, 9), (24, 24)]:
            expansion = cross_correlation(j, k)
            for tau in taus:
                assert expansion.at(tau) == expansion_at_per_call(expansion, tau), (j, k, tau)
                assert math.copysign(1.0, expansion.at(tau)) == math.copysign(
                    1.0, expansion_at_per_call(expansion, tau)
                )
        # an expansion built by hand converts its own terms
        custom = CorrelationExpansion(((F(-7, 3), F(5, 2)),), ((F(1, 9), F(1, 2)), (F(2), F(3, 2))))
        for tau in taus:
            assert custom.at(tau) == expansion_at_per_call(custom, tau)

    def test_expansion_holds_only_its_exact_terms(self):
        # No float copy of the terms is kept beside them.
        for j, k in [(0, 0), (2, 5), (7, 3)]:
            expansion = cross_correlation(j, k)
            assert vars(expansion) == {
                "pos_terms": expansion.pos_terms, "neg_terms": expansion.neg_terms
            }


class TestMatrixSpectralConsistency:
    """The exact matrix layer and the transfer functions describe one object:
    stacking the cascade filters and applying the coefficient matrix must
    reproduce the innovation shapes pointwise."""

    def _relative_gap(self, terms, target):
        scale = np.abs(terms).sum()
        return abs(terms.sum() - target) / scale

    def test_a_maps_h_to_g(self):
        rng = np.random.default_rng(11)
        vs = rng.uniform(-25.0, 25.0, size=200)
        for n in range(9):
            a_row = np.array([float(v) for v in exact.a_matrix(n)[n]])
            hs = np.array([transfer_h(k)(v) for v in vs for k in range(n + 1)]).reshape(
                len(vs), n + 1
            )
            for i, v in enumerate(vs):
                terms = a_row * hs[i]
                assert self._relative_gap(terms, transfer_g(n)(v)) < 1e-12

    def test_a_inverse_maps_g_to_h(self):
        rng = np.random.default_rng(12)
        vs = rng.uniform(-25.0, 25.0, size=200)
        for n in range(9):
            c_row = np.array([float(v) for v in exact.a_inverse_matrix(n)[n]])
            for v in vs:
                terms = c_row * np.array([transfer_g(k)(v) for k in range(n + 1)])
                assert self._relative_gap(terms, transfer_h(n)(v)) < 1e-12
