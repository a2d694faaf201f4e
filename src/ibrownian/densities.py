"""Joint, conditional, marginal, and transition densities in floating point.

State convention: a state vector for order n has n+1 components, component
k being the k-fold integral of the driving Brownian motion (component 0 is
the Brownian motion itself).

The covariance of the state at horizon t is the Hilbert-type matrix

    R(t)[j][k] = t^(j+k+1) / (j! k! (j+k+1))

which is catastrophically ill-conditioned, so nothing in this module ever
inverts it numerically.  Instead every density is evaluated through the
exact factorization of the inverse,

    R^-1(t) = T(t) A' Lambda A T(t),        T(t) = diag(t^-(k+1/2)),

with A and Lambda taken from the exact layer and converted to float once.
Each density has a log-space twin; the plain versions are thin
exponentials of the log versions, which is what to call when |w| is large
or t is small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import exact
from .exact import _check_nonnegative
from .spectral import sigma_sq

_LOG_2PI = math.log(2.0 * math.pi)


def _check_time(t: float) -> None:
    if not (t > 0.0) or not math.isfinite(t):
        raise ValueError(f"time must be positive and finite, got {t!r}")


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
def _a_float(n: int) -> np.ndarray:
    return _readonly(np.array(exact.a_matrix(n), dtype=float))


@lru_cache(maxsize=None)
def _a_star_float(n: int) -> np.ndarray:
    return _readonly(np.array(exact.star(exact.a_matrix(n)), dtype=float))


@lru_cache(maxsize=None)
def _a_inverse_float(n: int) -> np.ndarray:
    return _readonly(np.array(exact.a_inverse_matrix(n), dtype=float))


@lru_cache(maxsize=None)
def _lambda_diag(n: int) -> np.ndarray:
    return _readonly(np.arange(1, 2 * n + 2, 2, dtype=float))


@lru_cache(maxsize=None)
def _lambda_root(n: int) -> np.ndarray:
    return _readonly(np.sqrt(1.0 / _lambda_diag(n)))


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
def _a_lambda_a_float(n: int) -> np.ndarray:
    """A' Lambda A computed exactly, then converted: the t = 1 inverse covariance."""
    a = exact.a_matrix(n)
    m = exact.mat_mul(exact.transpose(a), exact.mat_mul(exact.lambda_matrix(n), a))
    return _readonly(np.array(m, dtype=float))


@lru_cache(maxsize=None)
def _innovation_gain(n: int) -> float:
    return float(Fraction(math.factorial(n), math.factorial(2 * n)))


@lru_cache(maxsize=None)
def _log_k(n: int) -> float:
    """log of the joint-density normalizer, from exact integer factorials.

    K_n = (2 pi)^-(n+1)/2 * sqrt((2n+1)!/(2^n n!)) * prod_{m<=n} (2m)!/m!
    and also equals prod_k (2 pi sigma_k^2)^-1/2.
    """
    odd_product = Fraction(math.factorial(2 * n + 1), 2**n * math.factorial(n))
    col = math.prod(math.factorial(2 * m) // math.factorial(m) for m in range(n + 1))
    return (
        -0.5 * (n + 1) * _LOG_2PI
        + 0.5 * (math.log(odd_product.numerator) - math.log(odd_product.denominator))
        + math.log(col)
    )


@dataclass(frozen=True)
class TimeScaling:
    """The diagonal change of scale t^-(k+1/2) tying horizon t to the stationary frame."""

    order: int
    t: float

    def __post_init__(self):
        object.__setattr__(self, "order", _check_nonnegative(self.order))
        _check_time(self.t)

    def diag(self) -> np.ndarray:
        return self.t ** _half_powers(self.order)[0]

    def inverse_diag(self) -> np.ndarray:
        return self.t ** _half_powers(self.order)[1]


def covariance_r(n: int, t: float) -> np.ndarray:
    """State covariance at horizon t: entries t^(j+k+1)/(j! k! (j+k+1))."""
    n = _check_nonnegative(n)
    _check_time(t)
    j = np.arange(n + 1)
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=float)
    ssum = j[:, None] + j[None, :]
    return t ** (ssum + 1) / (fact[:, None] * fact[None, :] * (ssum + 1))


def r_inverse(n: int, t: float) -> np.ndarray:
    """Inverse state covariance via the factored form T(t) A' Lambda A T(t).

    Entrywise this equals t^-(j+k+1) j! k! rho[j][k] with rho from the exact
    layer; the factored route avoids ever inverting the Hilbert-type
    covariance in floating point.  The two scalings t^-(j+1/2) t^-(k+1/2)
    are applied as the one integer power t^-(j+k+1); when t is a power of
    two that power and the product are exact, so each entry is the nearest
    double to its exact value.
    """
    n = _check_nonnegative(n)
    _check_time(t)
    j = np.arange(n + 1)
    return float(t) ** -(j[:, None] + j[None, :] + 1) * _a_lambda_a_float(n)


def drift_matrix(n: int, t: float) -> np.ndarray:
    """Lower-triangular polynomial drift with entries t^(j-k)/(j-k)! for j >= k.

    Maps the state at one time to the conditional mean of the state a lag t
    later.  Equal to T^-1(t) Gamma T(t) for t > 0, and to the identity at
    t = 0.
    """
    return _drift(_check_nonnegative(n), t)


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


def _half_quadratic_form(u: np.ndarray, v: np.ndarray | None = None) -> float:
    """0.5 y' Lambda y for y = A u, or y = A u - A* v, without overflow on the way.

    u and v are first scaled by the power of two that brings their largest
    entry into [0.5, 1), and the form is scaled back at the end.  Scaling by
    a power of two is exact, so the bits are those of the unscaled formula
    whenever that neither overflows nor underflows; when the form itself
    exceeds the float range the result is inf, so the log density is -inf
    and the density 0.
    """
    n = u.size - 1
    entries = u.tolist() if v is None else u.tolist() + v.tolist()
    shift = -math.frexp(max(map(abs, entries)))[1]
    y = _a_float(n) @ np.ldexp(u, shift)
    if v is not None:
        y -= _a_star_float(n) @ np.ldexp(v, shift)
    try:
        return math.ldexp(0.5 * float(y @ (_lambda_diag(n) * y)), -2 * shift)
    except OverflowError:
        return math.inf


def log_stationary_density(x) -> float:
    """Log joint density of the stationary components (X_0, ..., X_n) at x.

    A state so large that the quadratic form overflows gives -inf, never a
    numpy warning.
    """
    xv = _as_state(x)
    return _log_k(xv.size - 1) - _half_quadratic_form(xv)


def stationary_density(x) -> float:
    """Joint density of the stationary components at x; maximal at x = 0."""
    return math.exp(log_stationary_density(x))


def log_conditional_density(x_n: float, x_prefix) -> float:
    """Log density of component n given components 0..n-1.

    Gaussian with variance sigma_n^2 around the projection residual
    xhat = (n!/(2n)!) sum_k A[n][k] x[k].
    """
    prefix = np.asarray(x_prefix, dtype=float).reshape(-1)
    n = prefix.size
    full = np.append(prefix, float(x_n))
    if not np.all(np.isfinite(full)):
        raise ValueError("state values must be finite")
    xhat = _innovation_gain(n) * float(_a_float(n)[n] @ full)
    s2 = float(sigma_sq(n))
    return -0.5 * math.log(2.0 * math.pi * s2) - xhat * xhat / (2.0 * s2)


def conditional_density(x_n: float, x_prefix) -> float:
    """Density of component n given components 0..n-1; the chain product of
    these over n reproduces stationary_density."""
    return math.exp(log_conditional_density(x_n, x_prefix))


def normalizing_k(n: int) -> float:
    """Peak value of the stationary joint density:

    K_n = (2 pi)^-(n+1)/2 sqrt((2n+1)!/(2^n n!)) prod_{m<=n} (2m)!/m!
    """
    n = _check_nonnegative(n)
    return math.exp(_log_k(n))


def log_density_w(w, t: float) -> float:
    """Log density of the integrated-motion state at horizon t.

    Evaluated as the stationary log density at the rescaled point
    xi_k = t^-(k+1/2) w_k, plus the log Jacobian -((n+1)^2/2) log t.  An
    |w| so large that the quadratic form overflows gives -inf.
    """
    wv = _as_state(w, "state w")
    n = wv.size - 1
    xi = TimeScaling(n, t).diag() * wv
    return -0.5 * (n + 1) ** 2 * math.log(t) + log_stationary_density(xi)


def density_w(w, t: float) -> float:
    """Density of the integrated-motion state at horizon t; integrates to one."""
    return math.exp(log_density_w(w, t))


def log_transition_density(w, a, t: float) -> float:
    """Log transition density to state w after lag t, starting from state a.

    Factored form: with T = T(t), the quadratic form is built from
    y = A T w - A* T a (A* the sign-flipped A), so the polynomial drift
    never appears explicitly and no covariance is inverted.  States so large
    that the quadratic form overflows give -inf, never a numpy warning.
    """
    wv = _as_state(w, "state w")
    av = _as_state(a, "state a")
    if wv.size != av.size:
        raise ValueError("states w and a must have the same order")
    _check_time(t)
    return _log_transition_density(wv, av, t)


def _log_transition_density(w: np.ndarray, a: np.ndarray, t: float) -> float:
    """log_transition_density for checked states of one order and a checked t."""
    n = w.size - 1
    d = t ** _half_powers(n)[0]
    return -0.5 * (n + 1) ** 2 * math.log(t) + _log_k(n) - _half_quadratic_form(d * w, d * a)


def transition_density(w, a, t: float) -> float:
    """Transition density to w after lag t from a.

    Agrees with density_w(w - mean_mu(a, t), t) and satisfies the symmetry
    transition_density(w, a, t) == transition_density(star_vector(a),
    star_vector(w), t).
    """
    return math.exp(log_transition_density(w, a, t))
