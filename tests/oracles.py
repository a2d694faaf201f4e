"""Independent oracles used only by the tests.

Exact linear algebra is redone here from scratch (Gauss-Jordan over
Fractions) so the library's closed forms are checked against plain
elimination, and the spectral closed forms are checked against adaptive
QUADPACK quadrature rather than against the residue calculus they came
from.  The samplers' cumulative-sum kernel is checked against the plain
step-by-step recursion.  The integer fast paths of the exact layer (rho_matrix,
mat_mul), the float conversion in CorrelationExpansion, the integer tables
and quadratic forms of the density layer and the sample CSV writer are
checked against plain Fraction and per-value code.  rho_matrix's Cauchy form is
checked against every form it replaced: the Fraction sum, Choi's binomial
sum and Choi's product of binomials.
"""

import math
import operator
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


def rho_matrix_fraction_sum(dim):
    """Inverse of the Hilbert-type matrix 1/(j+k+1) by its factorial closed form,

        (-1)^(j+k) sum over m >= max(j, k) of
        (j+m)! (k+m)! (2m+1) / ((j!)^2 (k!)^2 (m-j)! (m-k)!),

    adding one Fraction per term over the whole square.
    """
    f = math.factorial
    out = []
    for j in range(dim + 1):
        row = []
        for k in range(dim + 1):
            acc = Fraction(0)
            for m in range(max(j, k), dim + 1):
                acc += Fraction(
                    f(j + m) * f(k + m) * (2 * m + 1),
                    f(j) ** 2 * f(k) ** 2 * f(m - j) * f(m - k),
                )
            row.append(acc if (j + k) % 2 == 0 else -acc)
        out.append(row)
    return out


def rho_matrix_binomial_sum(dim):
    """Inverse of the Hilbert-type matrix 1/(j+k+1) by Choi's binomial sum,

        (-1)^(j+k) sum over m >= max(j, k) of (2m+1) C(m+j, j) C(m, j) C(m+k, k) C(m, k),

    in integers over the upper triangle, mirrored, one Fraction per entry.
    """
    size = dim + 1
    # u[j][m] = C(m+j, j) C(m, j), zero for m < j; w[k][m] = (2m+1) u[k][m].
    u = [[math.comb(m + j, j) * math.comb(m, j) for m in range(size)] for j in range(size)]
    w = [[(2 * m + 1) * v for m, v in enumerate(row)] for row in u]
    out = [[Fraction(0)] * size for _ in range(size)]
    for j in range(size):
        for k in range(j, size):
            acc = sum(map(operator.mul, u[j][k:], w[k][k:]))
            out[j][k] = out[k][j] = Fraction(-acc if (j + k) % 2 else acc)
    return out


def rho_matrix_product_form(dim):
    """Inverse of the Hilbert-type matrix 1/(j+k+1) by Choi's product of binomials,

        (-1)^(j+k) (j+k+1) C(N+j+1, N-k) C(N+k+1, N-j) C(j+k, j)^2,   N = dim,

    in integers over the upper triangle, mirrored, one Fraction per entry.
    """
    comb = math.comb
    out = [[Fraction(0)] * (dim + 1) for _ in range(dim + 1)]
    for j in range(dim + 1):
        for k in range(j, dim + 1):
            v = (j + k + 1) * comb(j + k, j) ** 2
            v *= comb(dim + j + 1, dim - k) * comb(dim + k + 1, dim - j)
            out[j][k] = out[k][j] = Fraction(-v if (j + k) % 2 else v)
    return out


def mat_mul_fraction_loop(x, y):
    """Exact matrix product accumulated one Fraction at a time, zeros skipped."""
    cols = len(y[0])
    out = []
    for xi in x:
        row = [Fraction(0)] * cols
        for k, v in enumerate(xi):
            if v:
                for j in range(cols):
                    if y[k][j]:
                        row[j] += v * y[k][j]
        out.append(row)
    return out


def a_lambda_a_by_products(n):
    """A' Lambda A as two exact Fraction products."""
    from ibrownian import exact

    a = exact.a_matrix(n)
    return exact.mat_mul(exact.transpose(a), exact.mat_mul(exact.lambda_matrix(n), a))


def fraction_half_form(w, a, t, first=0):
    """0.5 sum_{m >= first} (2m+1) y_m^2 for y = A T(t) w - A* T(t) a, in Fractions.

    The float inputs are read as exact rationals; y_m^2 is
    t^-1 (sum_k A[m][k] t^-k (w_k - (-1)^(m+k) a_k))^2, so no square root of t
    is formed.  Checked against the dense fraction_transition_form.
    """
    from ibrownian import exact

    n = len(w) - 1
    tf = Fraction(t)
    a_rows = exact.a_matrix(n)
    # T w - (-1)^k T a and T w + (-1)^k T a without the common t^-1/2: rows
    # m of even and of odd parity.
    tw = [tf**-k * Fraction(x) for k, x in enumerate(w)]
    ta = [(-tf) ** -k * Fraction(x) for k, x in enumerate(a)]
    sides = [x - y for x, y in zip(tw, ta)], [x + y for x, y in zip(tw, ta)]
    total = Fraction(0)
    for m in range(first, n + 1):
        s = sum(a_rows[m][k] * sides[m % 2][k] for k in range(m + 1))
        total += (2 * m + 1) * s * s
    return total / (2 * tf)


def fraction_transition_form(w, a, t):
    """0.5 (w - B(t) a)' R^-1(t) (w - B(t) a) in Fractions, from the dense inverse
    R^-1(t)[j][k] = t^-(j+k+1) j! k! rho[j][k] and the drift B(t)[j][k] = t^(j-k)/(j-k)!,
    so nothing is shared with the factored A route."""
    from ibrownian import exact

    n = len(w) - 1
    tf, f = Fraction(t), math.factorial
    rho = exact.rho_matrix(n)
    diff = [
        Fraction(w[j]) - sum(tf ** (j - k) / f(j - k) * Fraction(a[k]) for k in range(j + 1))
        for j in range(n + 1)
    ]
    return sum(
        diff[j] * diff[k] * tf ** -(j + k + 1) * f(j) * f(k) * rho[j][k]
        for j in range(n + 1)
        for k in range(n + 1)
    ) / 2


def rounded(x):
    """The nearest double to a Fraction, inf beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def expansion_at_per_call(expansion, tau):
    """CorrelationExpansion.at with every exact term converted to float per call."""
    side = expansion.pos_terms if tau >= 0 else expansion.neg_terms
    return math.fsum(float(c) * math.exp(-float(r) * abs(tau)) for c, r in side)


def sample_csv_per_value(sample):
    """Sample CSV text with each value converted by repr(float(v)) on its own."""
    header = "time," + ",".join(f"w{k}" for k in range(sample.order + 1))
    lines = [header]
    for t, state in zip(sample.times, sample.states):
        lines.append(",".join([repr(float(t))] + [repr(float(v)) for v in state]))
    return "\n".join(lines) + "\n"
