r"""Rational transfer functions with half-integer poles, and their exact residue calculus.

The stationary components of power-scaled, log-time integrated Brownian
motion are outputs of a cascade of one-pole filters driven by one white
noise.  Component n has transfer function

    H_n(v) = prod_{k=0}^{n} 1 / (k + 1/2 + i v)

and two derived families matter: the zero-padded ratio

    G_n(v) = prod_{k=0}^{n-1} (k + 1/2 - i v) / prod_{k=0}^{n} (k + 1/2 + i v)

and the innovation filter h_hat_n = (n!/(2n)!) G_n, which is the transfer
function of the residual of component n after projecting onto components
0..n-1.

Spectral inner products  (1/2pi) \int F(v) conj(G(v)) dv  of such functions
are rational numbers.  They are computed exactly here by partial fractions
in the variable s = i v: the poles of F sit at s = -(k + 1/2), the poles of
conj(G) at s = +(k + 1/2), the contour closes around the left half-plane,
and the integral collapses to a finite sum of rational residues.  No
floating point enters the inner-product path.

The same residue sum with the kernel e^{s tau} kept symbolic yields
closed-form covariance functions: sums of c_m e^{-(m + 1/2)|tau|} terms,
represented by CorrelationExpansion.  For the cascade pair (H_j, H_k) those
residues have the explicit form that cross_correlation uses,

    c_m = (-1)^m / ((j - m)! (m + k + 1)!),    m = 0..j,

which is also what integrating the impulse responses term by term gives;
the residue calculus stays as its oracle and as the inner-product path.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exact import _check_nonnegative

_HALF = Fraction(1, 2)


def half_integer(k: int) -> Fraction:
    """The half-integer k + 1/2 as an exact Fraction."""
    return Fraction(2 * k + 1, 2)


def _is_half_integer(x: Fraction) -> bool:
    return x.denominator == 2 and x >= _HALF


@dataclass(frozen=True)
class RationalTransfer:
    """gain * prod_z (z - iv) / prod_p (p + iv), all z and p half-integers k + 1/2.

    `conj_zeros` lists the z locations (numerator factors conjugate to the
    pole factors), `poles` the p locations.  The denominator degree always
    exceeds the numerator degree, which keeps every spectrum built from
    these objects integrable.
    """

    gain: Fraction
    conj_zeros: tuple[Fraction, ...]
    poles: tuple[Fraction, ...]

    def __post_init__(self):
        for loc in (*self.conj_zeros, *self.poles):
            if not _is_half_integer(Fraction(loc)):
                raise ValueError(f"pole/zero locations must be k + 1/2 with k >= 0, got {loc}")
        if len(self.poles) <= len(self.conj_zeros):
            raise ValueError("denominator degree must exceed numerator degree")
        if self.gain == 0:
            raise ValueError("gain must be nonzero")

    def __call__(self, v):
        """Evaluate at real (or complex) frequency v; numpy arrays broadcast."""
        out = complex(self.gain) + 0.0 * (1j * v)
        for z in self.conj_zeros:
            out = out * (float(z) - 1j * v)
        for p in self.poles:
            out = out / (float(p) + 1j * v)
        return out

    def at_iv(self, s: Fraction) -> Fraction:
        """Exact value at the real spectral point i v = s (so v = -i s)."""
        out = self.gain
        for z in self.conj_zeros:
            out *= z - s
        for p in self.poles:
            if p + s == 0:
                raise ZeroDivisionError(f"pole at iv = {s}")
            out /= p + s
        return out

    def multiply(self, other: "RationalTransfer") -> "RationalTransfer":
        return RationalTransfer(
            self.gain * other.gain,
            tuple(sorted(self.conj_zeros + other.conj_zeros)),
            tuple(sorted(self.poles + other.poles)),
        )


def transfer_h(n: int) -> RationalTransfer:
    """Cascade filter for component n: poles at 1/2, 3/2, ..., n + 1/2, gain 1."""
    n = _check_nonnegative(n)
    return RationalTransfer(Fraction(1), (), tuple(half_integer(k) for k in range(n + 1)))


def transfer_g(n: int) -> RationalTransfer:
    """Unit-gain innovation shape: conjugate zeros below n, poles up to n.

    For n = 0 the numerator product is empty and this is just transfer_h(0).
    """
    n = _check_nonnegative(n)
    return RationalTransfer(
        Fraction(1),
        tuple(half_integer(k) for k in range(n)),
        tuple(half_integer(k) for k in range(n + 1)),
    )


def transfer_h_hat(n: int) -> RationalTransfer:
    """Innovation filter: gain n!/(2n)! on the transfer_g(n) pole/zero structure."""
    n = _check_nonnegative(n)
    g = transfer_g(n)
    return RationalTransfer(
        Fraction(math.factorial(n), math.factorial(2 * n)), g.conj_zeros, g.poles
    )


def _paired_factors(f: RationalTransfer, g: RationalTransfer):
    """Factor data of f(v) * conj(g(v)) as a rational function of s = iv.

    Returns (gain, num_minus, num_plus, left, right) where the function is

        gain * prod(z - s for z in num_minus) * prod(z + s for z in num_plus)
             / (prod(p + s for p in left) * prod(q - s for q in right))

    after cancelling numerator factors against equal-location poles.
    """
    left = list(f.poles)
    right = list(g.poles)
    num_minus = []
    for z in f.conj_zeros:
        if z in right:
            right.remove(z)
        else:
            num_minus.append(z)
    num_plus = []
    for z in g.conj_zeros:
        if z in left:
            left.remove(z)
        else:
            num_plus.append(z)
    return f.gain * g.gain, num_minus, num_plus, left, right


def _left_residue_terms(
    f: RationalTransfer, g: RationalTransfer
) -> list[tuple[Fraction, Fraction]]:
    r"""(coefficient, rate) pairs from the left-half-plane poles of f * conj(g).

    Closing the contour to the left gives

        (1/2pi) \int f(v) conj(g(v)) e^{iv tau} dv
            = sum coefficient * e^{-rate * tau}      for tau >= 0.
    """
    gain, num_minus, num_plus, left, right = _paired_factors(f, g)
    if len(left) + len(right) - len(num_minus) - len(num_plus) < 2:
        raise ValueError(
            "non-integrable spectrum: denominator degree must exceed "
            "numerator degree by at least 2 in the product"
        )
    if len(set(left)) != len(left) or len(set(right)) != len(right):
        # Conjugation reflects poles to the opposite half-plane, so the
        # families built here never produce a repeated pole on one side.
        raise ValueError("repeated pole after cancellation; higher-order residues unsupported")
    terms = []
    for p0 in left:
        num = gain
        for z in num_minus:
            num *= z + p0
        for z in num_plus:
            num *= z - p0
        den = Fraction(1)
        for p in left:
            if p != p0:
                den *= p - p0
        for q in right:
            den *= q + p0
        coeff = num / den
        if coeff:
            terms.append((coeff, p0))
    terms.sort(key=lambda t: t[1])
    return terms


def spectral_inner_product(f: RationalTransfer, g: RationalTransfer) -> Fraction:
    r"""Exact value of (1/2pi) \int f(v) conj(g(v)) dv via rational residues.

    Raises ValueError if the product spectrum is not integrable.
    """
    return sum((c for c, _ in _left_residue_terms(f, g)), Fraction(0))


@dataclass(frozen=True)
class CorrelationExpansion:
    """A stationary (cross-)covariance as a finite sum of decaying exponentials.

    For tau >= 0 the value is sum over pos_terms of c * e^{-rate * tau};
    for tau <= 0 it is the same sum over neg_terms in |tau|.  The two sides
    meet at tau = 0.  Rates are positive distinct half-integers, coefficients
    exact rationals.
    """

    pos_terms: tuple[tuple[Fraction, Fraction], ...]
    neg_terms: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        for side in (self.pos_terms, self.neg_terms):
            rates = [r for _, r in side]
            if any(r <= 0 for r in rates):
                raise ValueError("decay rates must be positive")
            if len(set(rates)) != len(rates):
                raise ValueError("decay rates must be distinct")
        # at() runs once per lag and pair, so the terms go to float here, once.
        for name, side in (("_pos_floats", self.pos_terms), ("_neg_floats", self.neg_terms)):
            floats = tuple(tuple(map(float, column)) for column in zip(*side)) or ((), ())
            object.__setattr__(self, name, floats)

    def at(self, tau: float) -> float:
        coeffs, rates = self._pos_floats if tau >= 0 else self._neg_floats
        return _exp_sum(coeffs, [math.exp(-r * abs(tau)) for r in rates])

    def at_zero(self) -> Fraction:
        """Exact variance/covariance at lag zero."""
        return sum((c for c, _ in self.pos_terms), Fraction(0))

    def to_json_dict(self) -> dict:
        """{"terms": [{"coeff": float, "rate": "num/den"}, ...], "terms_negative": [...]}

        "terms" covers tau >= 0; "terms_negative" covers tau <= 0 (identical
        for an autocovariance).
        """
        def side(terms):
            return [{"coeff": float(c), "rate": str(r)} for c, r in terms]

        return {"terms": side(self.pos_terms), "terms_negative": side(self.neg_terms)}


def _exp_sum(coeffs, decays) -> float:
    """Sum of coefficients times decays e^{-rate |tau|}: every float value of an expansion."""
    return math.fsum(map(operator.mul, coeffs, decays))


def _closed_form_terms(j: int, k: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """(coefficient, rate) pairs of E X_j(t) X_k(s) for tau = t - s >= 0.

    Integrating the impulse responses (1/n!) e^{-t/2} (1 - e^{-t})^n term by
    term gives

        c_jk(tau) = sum over a from 0 to j of
                    (-1)^a e^{-(a + 1/2) tau} / ((j - a)! (a + k + 1)!),

    which are exactly the left-half-plane residues of H_j conj(H_k), rates
    ascending; _left_residue_terms computes the same pairs the long way.
    """
    return tuple(zip(_closed_form_coeffs(j, k), map(half_integer, range(j + 1))))


def _closed_form_coeffs(j: int, k: int) -> list[Fraction]:
    """The coefficients of _closed_form_terms(j, k) alone, without their rates."""
    f = math.factorial
    return [Fraction((-1) ** a, f(j - a) * f(a + k + 1)) for a in range(j + 1)]


def _correlation_rows(n: int, taus):
    """Per tau, [cross_correlation(j, k).at(tau) for j, k in 0..n], bit for bit, from
    one decay row e^{-(a + 1/2)|tau|}, a = 0..n, per tau (_exp_sum stops at a pair's last term).

    The float coefficients of every pair are listed once per side, in pair
    order: the tau >= 0 side of (j, k) is its own closed form, the tau < 0
    side that of (k, j).
    """
    size = n + 1
    pos_side = [list(map(float, _closed_form_coeffs(j, k)))
                for j in range(size) for k in range(size)]
    neg_side = [pos_side[k * size + j] for j in range(size) for k in range(size)]
    rates = [float(half_integer(a)) for a in range(size)]
    for tau in taus:
        decays = [math.exp(-r * abs(tau)) for r in rates]
        yield [_exp_sum(coeffs, decays) for coeffs in (pos_side if tau >= 0 else neg_side)]


def cross_correlation(j: int, k: int) -> CorrelationExpansion:
    """Closed-form stationary cross-covariance of components j and k.

    The returned expansion evaluates E X_j(t) X_k(s) at tau = t - s.  The
    tau <= 0 side is the tau >= 0 side of the (k, j) pair.
    """
    j = _check_nonnegative(j)
    k = _check_nonnegative(k)
    return CorrelationExpansion(_closed_form_terms(j, k), _closed_form_terms(k, j))


def sigma_sq(n: int) -> Fraction:
    """Innovation variance of component n: (1/(2n+1)) (n!/(2n)!)^2.

    Exactly equals spectral_inner_product(transfer_h_hat(n), transfer_h_hat(n)).
    """
    n = _check_nonnegative(n)
    c = Fraction(math.factorial(n), math.factorial(2 * n))
    return Fraction(1, 2 * n + 1) * c * c


def impulse_response(n: int, t: float) -> float:
    """Time-domain kernel of transfer_h(n): (1/n!) e^{-t/2} (1 - e^{-t})^n for t >= 0.

    Zero for t < 0; continuous at 0 for n >= 1.
    """
    n = _check_nonnegative(n)
    if t < 0:
        return 0.0
    return math.exp(-0.5 * t) * (1.0 - math.exp(-t)) ** n / math.factorial(n)
