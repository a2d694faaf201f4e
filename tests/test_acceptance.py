"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each criterion prints one `ACCEPTANCE <k> <name>: PASS|FAIL` line (visible
with `pytest -s` or in failure output).
"""

import math
import time
from fractions import Fraction

import numpy as np

import ibrownian.exact as ex
from ibrownian import verification
from ibrownian.cli import main
from ibrownian.densities import (
    covariance_r,
    drift_matrix,
    log_density_w,
    log_transition_density,
    mean_mu,
    normalizing_k,
    r_inverse,
    star_vector,
)
from ibrownian.sampling import (
    closed_form_quadratic_laplace,
    covariance_root,
    mc_quadratic_laplace,
    path_generator,
)
from ibrownian.spectral import (
    impulse_response,
    sigma_sq,
    spectral_inner_product,
    transfer_g,
    transfer_h,
    transfer_h_hat,
)
from oracles import exact_inverse, fourier_quadrature

F = Fraction


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_exact_identity_suite():
    started = time.perf_counter()
    ok = True
    for dim in range(51):
        gamma = ex.gamma_matrix(dim)
        a = ex.a_matrix(dim)
        b = ex.b_matrix(dim)
        c = ex.a_inverse_matrix(dim)
        eye = ex.identity(dim)
        ok &= ex.mat_mul(a, gamma) == b
        ok &= ex.mat_mul(gamma, ex.star(gamma)) == eye
        ok &= a == ex.star(b)
        ok &= ex.mat_mul(a, c) == eye and ex.mat_mul(c, a) == eye
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    report(1, "exact identity suite N=0..50", ok, f"{elapsed:.2f}s, exact equality")


def test_criterion_02_exact_numerics():
    ok = ex.rho_inverse_matrix(1) == [[F(1), F(1, 2)], [F(1, 2), F(1, 3)]]
    ok &= ex.rho_inverse_matrix(2) == [
        [F(1), F(1, 2), F(1, 3)],
        [F(1, 2), F(1, 3), F(1, 4)],
        [F(1, 3), F(1, 4), F(1, 5)],
    ]
    ok &= ex.rho_matrix(1) == [[F(4), F(-6)], [F(-6), F(12)]]
    # size-2 inverse of the Hilbert-type matrix; symmetric, (2,0) = (0,2) = 30,
    # and independent exact elimination agrees entry for entry
    rho2 = ex.rho_matrix(2)
    ok &= rho2 == [[F(9), F(-36), F(30)], [F(-36), F(192), F(-180)], [F(30), F(-180), F(180)]]
    ok &= rho2 == exact_inverse(ex.rho_inverse_matrix(2))
    report(2, "pinned rho / rho-inverse values", ok, "exact equality, (2,0) entry 30")


def test_criterion_03_spectral_orthogonality():
    started = time.perf_counter()
    ok = True
    for j in range(9):
        for k in range(9):
            expected = F(1, 2 * k + 1) if j == k else F(0)
            ok &= spectral_inner_product(transfer_g(j), transfer_g(k)) == expected
    for n in range(1, 9):
        for m in range(n):
            ok &= spectral_inner_product(transfer_h_hat(n), transfer_h(m)) == 0
    elapsed = time.perf_counter() - started
    ok &= elapsed < 5.0
    report(3, "spectral orthogonality j,k,n<=8", ok, f"{elapsed:.2f}s, exact rational residues")


def test_criterion_04_innovation_variance():
    ok = sigma_sq(0) == 1 and sigma_sq(1) == F(1, 12) and sigma_sq(2) == F(1, 720)
    for n in range(9):
        hh = transfer_h_hat(n)
        ok &= sigma_sq(n) == spectral_inner_product(hh, hh)
    report(4, "innovation variances n<=8", ok, "closed form == residues, exact")


def test_criterion_05_normalizing_constants():
    worst = 0.0
    for n in range(11):
        product = math.prod(
            1.0 / math.sqrt(2 * math.pi * float(sigma_sq(k))) for k in range(n + 1)
        )
        worst = max(worst, abs(normalizing_k(n) / product - 1.0))
    ok = worst < 1e-12
    report(5, "normalizer closed form n<=10", ok, f"max rel dev {worst:.2e} < 1e-12")


def test_criterion_06_density_consistency():
    rng = path_generator(20250808, 0)
    worst_two_path = 0.0
    worst_symmetry = 0.0
    for _ in range(1000):
        n = int(rng.integers(0, 5))
        t = 10.0 ** rng.uniform(-1.0, 1.0)
        root = covariance_root(n, t)
        a = root @ rng.standard_normal(n + 1)
        w = drift_matrix(n, t) @ a + root @ rng.standard_normal(n + 1)
        factored = log_transition_density(w, a, t)
        renewal = log_density_w(np.asarray(w) - mean_mu(a, t), t)
        worst_two_path = max(worst_two_path, abs(math.expm1(factored - renewal)))
        flipped = log_transition_density(star_vector(a), star_vector(w), t)
        worst_symmetry = max(worst_symmetry, abs(math.expm1(flipped - factored)))
    ok = worst_two_path < 1e-8 and worst_symmetry < 1e-9
    report(
        6, "transition density consistency", ok,
        f"two-path {worst_two_path:.2e} < 1e-8, symmetry {worst_symmetry:.2e} < 1e-9, 1000 probes",
    )


def test_criterion_07_inverse_covariance_factorization():
    # W_k(t) scales as t^(k+1/2), so entry (j, m) of R^-1(t) R(t) - I
    # carries t^(m-j): the raw residual depends on the unit of time, and
    # at (n=6, t=0.5) even the nearest doubles to the exact matrices,
    # multiplied exactly, leave ~1.5e-5 off the diagonal.  The bound is
    # therefore applied in the unit-free frame S(t) = diag(t^(k+1/2)/k!),
    # where R(t) = S rho^-1 S and R^-1(t) = S^-1 rho S^-1, so that
    # S (R^-1 R - I) S^-1 is the residual of rho rho^-1 = I, diagonal
    # included.  The raw off-diagonal residual and its double-rounding
    # floor are printed for information.
    worst_scaled = 0.0
    worst_raw = 0.0
    for n in range(7):
        k = np.arange(n + 1)
        fact = np.array([math.factorial(i) for i in k], dtype=float)
        off = ~np.eye(n + 1, dtype=bool)
        for t in (0.5, 1.0, 2.0):
            residual = r_inverse(n, t) @ covariance_r(n, t) - np.eye(n + 1)
            s = t ** (k + 0.5) / fact
            scaled = s[:, None] * residual / s[None, :]
            worst_scaled = max(worst_scaled, np.abs(scaled).max())
            if n:
                worst_raw = max(worst_raw, np.abs(residual[off]).max())
    floor = _double_precision_product_floor(6, 0.5)
    ok = worst_scaled < 1e-6
    report(
        7, "factored inverse covariance n<=6", ok,
        f"max |S (R^-1 R - I) S^-1| {worst_scaled:.2e} < 1e-6; raw max off-diag "
        f"{worst_raw:.2e}, double-rounding floor at n=6, t=0.5 is {floor:.2e}",
    )


def _double_precision_product_floor(n: int, t: float) -> float:
    """Smallest off-diagonal residual any double-precision pair of matrices
    can achieve: round the exact entries to nearest doubles, multiply those
    doubles exactly."""
    tf = F(t)
    rho = ex.rho_matrix(n)
    inv_nearest = [
        [
            F(float(tf ** -(j + k + 1) * math.factorial(j) * math.factorial(k) * rho[j][k]))
            for k in range(n + 1)
        ]
        for j in range(n + 1)
    ]
    cov_nearest = [
        [
            F(float(tf ** (j + k + 1) / (math.factorial(j) * math.factorial(k) * (j + k + 1))))
            for k in range(n + 1)
        ]
        for j in range(n + 1)
    ]
    worst = F(0)
    for j in range(n + 1):
        for m in range(n + 1):
            if j != m:
                entry = sum(inv_nearest[j][k] * cov_nearest[k][m] for k in range(n + 1))
                worst = max(worst, abs(entry))
    return float(worst)


def test_criterion_08_fourier_pair():
    worst = 0.0
    for n in range(5):
        for t in (0.25, 1.0, 4.0):
            numeric = fourier_quadrature(transfer_h(n), t)
            worst = max(worst, abs(numeric - impulse_response(n, t)))
    ok = worst < 1e-8
    report(8, "kernel vs numeric inversion n<=4", ok, f"max abs dev {worst:.2e} < 1e-8")


def test_criterion_09_monte_carlo_laplace():
    started = time.perf_counter()
    ok = True
    details = []
    for theta in (0.5, 1.0, 2.0):
        est = mc_quadratic_laplace(theta, 100_000, 1024, 44)
        target = closed_form_quadratic_laplace(theta)
        allowance = 3.0 * est.std_error + 2.0 / est.grid_size
        deviation = abs(est.mean - target)
        ok &= deviation <= allowance
        details.append(f"theta={theta}: |{est.mean:.5f}-{target:.5f}|<= {allowance:.2e}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 120.0
    report(9, "Monte Carlo Laplace functional", ok, f"{elapsed:.1f}s; " + "; ".join(details))


def test_criterion_10_sampler_law_checks():
    cov = verification.check_w_covariance(order=3, t=1.0, n_paths=100_000, seed=42)
    lag = verification.check_x0_autocovariance(
        taus=(0.5, 1.0, 2.0), n_paths=100_000, seed=43
    )
    ok = cov["pass"] and lag["pass"]
    report(
        10, "sampler law checks", ok,
        f"W(1) cov max|z|={cov['statistic']:.2f}, X0 lag max|z|={lag['statistic']:.2f}, bands 3.0",
    )


def test_criterion_11_deterministic_outputs(tmp_path, capsys):
    invocations = {
        "sample.csv": ["sample", "--n", "2", "--times", "0.5,1.0,2.0", "--seed", "123"],
        "verify.json": ["verify", "--suite", "symmetry", "--seed", "11"],
        "correlate.csv": ["correlate", "--n", "2", "--tau-max", "3"],
        "matrices.json": ["matrices", "--n", "4", "--which", "rho"],
        "density.json": ["density", "--n", "1", "--t", "0.5", "--w", "0.3,0.1"],
    }
    ok = True
    for name, argv in invocations.items():
        first = tmp_path / f"first_{name}"
        second = tmp_path / f"second_{name}"
        ok &= main(argv + ["--out", str(first)]) == 0
        ok &= main(argv + ["--out", str(second)]) == 0
        ok &= first.read_bytes() == second.read_bytes()
    report(
        11, "byte-identical repeated runs", ok,
        f"{len(invocations)} subcommand outputs compared",
    )
