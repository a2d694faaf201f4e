"""Joint, conditional, marginal, and transition densities.

State convention: a state vector for order n has n+1 components, component
k being the k-fold integral of the driving Brownian motion (component 0 is
the Brownian motion itself).

The covariance of the state at horizon t is the Hilbert-type matrix

    R(t)[j][k] = t^(j+k+1) / (j! k! (j+k+1))

which is catastrophically ill-conditioned, so nothing in this module ever
inverts it numerically.  Instead every density and r_inverse go through the
exact factorization of the inverse,

    R^-1(t) = T(t) A' Lambda A T(t),        T(t) = diag(t^-(k+1/2)),

whose A, Lambda and A' Lambda A are integer matrices.  The float inputs are
read as the exact binary rationals they are, the quadratic form (or an
entry of r_inverse) is formed in integers, and it is rounded once, to the
nearest double.  Each density has a log-space twin; the plain versions are
exponentials of the log versions, which is what to call when |w| is large
or t is small.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exact
from .exact import _check_nonnegative, _check_real
from .spectral import sigma_sq

_LOG_2PI = math.log(2.0 * math.pi)


def _as_state(x, name: str = "state") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a one-dimensional vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def _a_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row m of A as the integers A[m][0..m], its lower-triangular part."""
    return tuple(tuple(int(v) for v in row[: m + 1]) for m, row in enumerate(exact.a_matrix(n)))


@lru_cache(maxsize=None)
def _half_powers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """-(k + 1/2) and k + 1/2 for k = 0..n: the powers of t in T(t) and T^-1(t)."""
    up = np.arange(n + 1) + 0.5
    return _readonly(-up), _readonly(up)


@lru_cache(maxsize=None)
def _drift_pattern(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Powers j - k of t in drift_matrix(n, t) and their factorials, 0 and inf where j < k."""
    diff = np.subtract.outer(np.arange(n + 1), np.arange(n + 1))
    fact = np.array([math.factorial(d) if d >= 0 else math.inf for d in diff.flat], dtype=float)
    return _readonly(np.maximum(diff, 0)), _readonly(fact.reshape(diff.shape))


@lru_cache(maxsize=None)
def _a_lambda_a(n: int) -> tuple[tuple[int, ...], ...]:
    """The t = 1 inverse covariance A' Lambda A, as the integers j! k! rho[j][k]."""
    f, rho = [math.factorial(j) for j in range(n + 1)], exact.rho_matrix(n)
    return tuple(tuple(f[j] * f[k] * int(v) for k, v in enumerate(r)) for j, r in enumerate(rho))


def _exp(log_value: float) -> float:
    """e^log_value, with a value beyond the float range a ValueError."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ValueError(f"exp({log_value!r}) is beyond the float range") from None


@lru_cache(maxsize=None)
def _log_k(n: int) -> float:
    """log of the joint-density normalizer, from exact integer factorials.

    K_n = (2 pi)^-(n+1)/2 * sqrt((2n+1)!/(2^n n!)) * prod_{m<=n} (2m)!/m!
    and also equals prod_k (2 pi sigma_k^2)^-1/2.
    """
    odd_product = Fraction(math.factorial(2 * n + 1), 2**n * math.factorial(n))
    col = math.prod(math.factorial(2 * m) // math.factorial(m) for m in range(n + 1))
    log_odd = math.log(odd_product.numerator) - math.log(odd_product.denominator)
    return -0.5 * (n + 1) * _LOG_2PI + 0.5 * log_odd + math.log(col)


@dataclass(frozen=True)
class TimeScaling:
    """The diagonal change of scale t^-(k+1/2) tying horizon t to the stationary frame."""

    order: int
    t: float

    def __post_init__(self):
        object.__setattr__(self, "order", _check_nonnegative(self.order))
        _check_real(self.t, positive=True)

    def diag(self) -> np.ndarray:
        return self._power(_half_powers(self.order)[0])

    def inverse_diag(self) -> np.ndarray:
        return self._power(_half_powers(self.order)[1])

    def _power(self, exponents: np.ndarray) -> np.ndarray:
        """t to each exponent; a power beyond the float range is a ValueError."""
        try:
            with np.errstate(over="raise"):
                return self.t ** exponents
        except FloatingPointError:
            raise ValueError(
                f"t = {self.t!r} to the powers of order {self.order} is beyond the float range"
            ) from None


def covariance_r(n: int, t: float) -> np.ndarray:
    """State covariance at horizon t: entries t^(j+k+1)/(j! k! (j+k+1))."""
    n = _check_nonnegative(n)
    _check_real(t, positive=True)
    j = np.arange(n + 1)
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    ssum = j[:, None] + j[None, :]
    return t ** (ssum + 1) / (fact[:, None] * fact[None, :] * (ssum + 1))


def r_inverse(n: int, t: float) -> np.ndarray:
    """Inverse state covariance via the factored form T(t) A' Lambda A T(t).

    Entrywise this equals t^-(j+k+1) j! k! rho[j][k] with rho from the exact
    layer; the factored route avoids ever inverting the Hilbert-type
    covariance in floating point.  With t = p/q exactly, each entry is one
    quotient of integers, j! k! rho[j][k] q^(j+k+1) / p^(j+k+1), so it is the
    nearest double to its exact value.  An entry beyond the float range
    (from order 75 at t = 1) raises ValueError.
    """
    n = _check_nonnegative(n)
    p, q = float(_check_real(t, positive=True)).as_integer_ratio()
    try:
        return np.array([[v * q ** (j + k + 1) / p ** (j + k + 1) for k, v in enumerate(row)]
                         for j, row in enumerate(_a_lambda_a(n))])
    except OverflowError:
        raise ValueError(f"r_inverse({n}, {t!r}) has entries beyond the float range") from None


def drift_matrix(n: int, t: float) -> np.ndarray:
    """Lower-triangular polynomial drift with entries t^(j-k)/(j-k)! for j >= k.

    Maps the state at one time to the conditional mean of the state a lag t
    later.  Equal to T^-1(t) Gamma T(t) for t > 0, and to the identity at
    t = 0.
    """
    return _drift(_check_nonnegative(n), _check_real(t))


def _drift(n: int, t: float) -> np.ndarray:
    powers, fact = _drift_pattern(n)
    return float(t) ** powers / fact


def mean_mu(a, t: float) -> np.ndarray:
    """Conditional mean after lag t from state a: component m is
    sum_{k<=m} t^k/k! * a[m-k]."""
    av = _as_state(a, "state a")
    return drift_matrix(av.size - 1, t) @ av


def star_vector(x) -> np.ndarray:
    """Sign flip of the odd-index components: out[k] = (-1)^k x[k]."""
    xv = _as_state(x)
    signs = np.where(np.arange(xv.size) % 2 == 0, 1.0, -1.0)
    return xv * signs


def _half_form(t: float, w: list, a: list, first: int = 0) -> float:
    """0.5 sum_{m >= first} (2m+1) y_m^2 for y = A T(t) w - A* T(t) a, rounded once.

    A* is A with its odd j + k entries negated.  With t = p/q and the states
    as integers W, V over one power-of-two denominator D, y_m = sqrt(q/p) S_m / (p^n D)
    for S_m = sum_k A[m][k] q^k p^(n-k) (W_k - (-1)^(m+k) V_k), so the form is
    the one integer quotient q sum (2m+1) S_m^2 / (2 p^(2n+1) D^2), rounded to
    the nearest double, or inf beyond the float range.
    """
    n = len(w) - 1
    p, q = float(t).as_integer_ratio()
    ratios = [x.as_integer_ratio() for x in w + a]
    d = max([den for _, den in ratios])
    ints = [num * (d // den) for num, den in ratios]
    sides = [], []  # the terms of S_m for even and for odd m
    for k in range(n + 1):
        c, x, y = q**k * p ** (n - k), ints[k], (-1) ** k * ints[n + 1 + k]
        sides[0].append(c * (x - y))
        sides[1].append(c * (x + y))
    rows, total = _a_rows(n), 0
    for m in range(first, n + 1):
        total += (2 * m + 1) * sum(map(operator.mul, rows[m], sides[m % 2])) ** 2
    try:
        return q * total / (2 * p ** (2 * n + 1) * d * d)
    except OverflowError:
        return math.inf


def log_stationary_density(x) -> float:
    """Log joint density of the stationary components (X_0, ..., X_n) at x: the
    transition from 0 over lag 1.  A state whose quadratic form is beyond the
    float range gives -inf, never a numpy warning."""
    xv = _as_state(x)
    return _log_transition_density(xv, np.zeros(xv.size), 1.0)


def stationary_density(x) -> float:
    """Joint density of the stationary components at x; maximal at x = 0."""
    return _exp(log_stationary_density(x))


def log_conditional_density(x_n: float, x_prefix) -> float:
    """Log density of component n given components 0..n-1.

    Gaussian with variance sigma_n^2 around the projection residual
    xhat = (n!/(2n)!) sum_k A[n][k] x[k].  The gain n!/(2n)! cancels against
    sigma_n^2, so the exponent is row n of the stationary quadratic form.
    """
    full = _as_state(np.append(x_prefix, x_n))
    n = full.size - 1
    s2 = sigma_sq(n)
    log_s2 = math.log(s2.numerator) - math.log(s2.denominator)
    return -0.5 * (_LOG_2PI + log_s2) - _half_form(1.0, full.tolist(), [0.0] * full.size, n)


def conditional_density(x_n: float, x_prefix) -> float:
    """Density of component n given components 0..n-1; the chain product of
    these over n reproduces stationary_density."""
    return _exp(log_conditional_density(x_n, x_prefix))


def normalizing_k(n: int) -> float:
    """Peak value of the stationary joint density:

    K_n = (2 pi)^-(n+1)/2 sqrt((2n+1)!/(2^n n!)) prod_{m<=n} (2m)!/m!
    """
    n = _check_nonnegative(n)
    return _exp(_log_k(n))


def log_density_w(w, t: float) -> float:
    """Log density of the integrated-motion state at horizon t.

    The transition from 0 over lag t.  An |w| so large that the quadratic
    form is beyond the float range gives -inf.
    """
    wv = _as_state(w, "state w")
    return _log_transition_density(wv, np.zeros(wv.size), _check_real(t, positive=True))


def density_w(w, t: float) -> float:
    """Density of the integrated-motion state at horizon t; integrates to one."""
    return _exp(log_density_w(w, t))


def log_transition_density(w, a, t: float) -> float:
    """Log transition density to state w after lag t, starting from state a.

    Factored form: with T = T(t), the quadratic form is built from
    y = A T w - A* T a (A* the sign-flipped A), so the polynomial drift
    never appears explicitly and no covariance is inverted.  States so large
    that the quadratic form is beyond the float range give -inf, never a
    numpy warning.
    """
    wv = _as_state(w, "state w")
    av = _as_state(a, "state a")
    if wv.size != av.size:
        raise ValueError("states w and a must have the same order")
    return _log_transition_density(wv, av, _check_real(t, positive=True))


def _log_transition_density(w: np.ndarray, a: np.ndarray, t: float) -> float:
    """log_transition_density for checked states of one order and a checked t."""
    n = w.size - 1
    return -0.5 * (n + 1) ** 2 * math.log(t) + _log_k(n) - _half_form(t, w.tolist(), a.tolist())


def transition_density(w, a, t: float) -> float:
    """Transition density to w after lag t from a.

    Agrees with density_w(w - mean_mu(a, t), t) and satisfies the symmetry
    transition_density(w, a, t) == transition_density(star_vector(a),
    star_vector(w), t).
    """
    return _exp(log_transition_density(w, a, t))
