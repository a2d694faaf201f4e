"""Independent oracles used only by the tests.

Exact linear algebra is redone here from scratch (Gauss-Jordan over
Fractions) so the library's closed forms are checked against plain
elimination, and the spectral closed forms are checked against adaptive
QUADPACK quadrature rather than against the residue calculus they came
from.  The samplers' cumulative-sum kernel is checked against the plain
step-by-step recursion.
"""

from fractions import Fraction

import numpy as np
from scipy import integrate


def exact_inverse(m):
    """Gauss-Jordan inverse of a square Fraction matrix."""
    size = len(m)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(size)] for i, row in enumerate(m)]
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [x / pivot for x in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[size:] for row in aug]


def exact_determinant(m):
    """Determinant of a square Fraction matrix by elimination."""
    size = len(m)
    work = [list(row) for row in m]
    det = Fraction(1)
    for col in range(size):
        pivot_row = next((r for r in range(col, size) if work[r][col] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != col:
            work[col], work[pivot_row] = work[pivot_row], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, size):
            if work[r][col] != 0:
                factor = work[r][col] * inv
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return det


def inner_product_quadrature(f, g, epsabs=1e-13):
    """(1/2pi) * integral over the real line of f(v) conj(g(v)) dv, numerically.

    The integrand's imaginary part is odd, so only the real part is
    integrated.
    """

    def integrand(v):
        return (f(v) * np.conj(g(v))).real / (2.0 * np.pi)

    value, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=epsabs, epsrel=1e-13, limit=400)
    return value


def fourier_quadrature(f, t, epsabs=1e-11):
    """(1/2pi) * integral over the real line of f(v) e^{ivt} dv for t > 0.

    Uses QUADPACK's oscillatory-Fourier rules on the half line; valid for
    any f with f(-v) = conj(f(v)), which holds for all transfer products
    here.
    """
    if not t > 0:
        raise ValueError("fourier_quadrature needs t > 0")
    cos_part, _ = integrate.quad(
        lambda v: f(v).real, 0, np.inf, weight="cos", wvar=t,
        epsabs=epsabs, limit=300, limlst=100,
    )
    sin_part, _ = integrate.quad(
        lambda v: f(v).imag, 0, np.inf, weight="sin", wvar=t,
        epsabs=epsabs, limit=300, limlst=100,
    )
    return (cos_part - sin_part) / np.pi


def fourier_pair_quadrature(f, g, tau, epsabs=1e-11):
    """(1/2pi) * integral of f(v) conj(g(v)) e^{iv tau} dv for tau > 0."""
    return fourier_quadrature(lambda v: f(v) * np.conj(g(v)), tau, epsabs=epsabs)


def time_domain_energy(h, epsabs=1e-12):
    """Integral over [0, inf) of h(t)^2 dt by adaptive quadrature."""
    value, _ = integrate.quad(lambda t: h(t) ** 2, 0, np.inf, epsabs=epsabs, limit=300)
    return value


def fraction_covariance(n, t: Fraction):
    """Exact covariance matrix at a rational horizon t."""
    import math

    return [
        [
            t ** (j + k + 1) / (math.factorial(j) * math.factorial(k) * (j + k + 1))
            for k in range(n + 1)
        ]
        for j in range(n + 1)
    ]


def gaussian_log_density(w, cov):
    """Dense multivariate normal log density from an exact Fraction covariance.

    Inverse and determinant are computed by exact elimination, so the only
    floating point is the final assembly.
    """
    import math

    size = len(cov)
    inv = exact_inverse(cov)
    det = exact_determinant(cov)
    quad = Fraction(0)
    wf = [Fraction(x) for x in w]  # exact: a float converts to its exact binary rational
    for j in range(size):
        for k in range(size):
            quad += wf[j] * inv[j][k] * wf[k]
    return (
        -0.5 * size * math.log(2.0 * math.pi)
        - 0.5 * (math.log(det.numerator) - math.log(det.denominator))
        - 0.5 * float(quad)
    )


def sequential_states(n, times, normals):
    """States from normals by the step-by-step recursion, shape of normals.

    normals has shape (paths, steps, n+1); with h_0 = times[0] (the step
    from the zero state) and h_j = times[j] - times[j-1],

        W_j = drift_matrix(n, h_j) W_{j-1} + covariance_root(n, h_j) z_j,

    each row summed over columns in increasing order from its first nonzero
    term.  Plain Python floats (IEEE doubles, one rounding per operation)
    keep a 1e5-step grid affordable.
    """
    from ibrownian.densities import drift_matrix
    from ibrownian.sampling import covariance_root

    def row_sum(coeffs, x):
        acc = None
        for c, v in zip(coeffs, x):
            if c != 0.0:
                acc = c * v if acc is None else acc + c * v
        return acc

    steps = np.diff(np.asarray(times, dtype=float), prepend=0.0).tolist()
    mats = {
        h: (drift_matrix(n, h).tolist(), covariance_root(n, h).tolist()) for h in set(steps)
    }
    out = np.empty_like(normals)
    for path, z_path in enumerate(normals.tolist()):
        prev = [0.0] * (n + 1)
        for j, (h, z) in enumerate(zip(steps, z_path)):
            b, root = mats[h]
            prev = [row_sum(b[m], prev) + row_sum(root[m], z) for m in range(n + 1)]
            out[path, j] = prev
    return out
