"""Exact rational matrix families for the n-fold integrated Wiener process.

Every matrix in this module has `fractions.Fraction` entries and every
operation is exact: nothing here rounds, ever.  The families are

    gamma_matrix     unit lower-triangular, entries 1/(j-k)!
    b_matrix         lower-triangular, entries (j+k)!/(k!(j-k)!)
    a_matrix         the sign-alternating form of b_matrix
    a_inverse_matrix exact inverse of a_matrix, entries (2k+1)j!/((j+k+1)!(j-k)!)
    lambda_matrix    diag(1, 3, 5, ...)
    rho_inverse_matrix   the Hilbert-type matrix 1/(j+k+1)
    rho_matrix       its exact inverse

All of these except rho_matrix are *dimension-free*: the entry at (j, k)
does not depend on the size of the realization, so a realization at size N
is the upper-left block of any larger one.  rho_matrix is the deliberate
counterexample; its entries change whenever the realization grows.

rho_matrix and mat_mul run in integer arithmetic (one exact quotient of
two precomputed integers, and dot products over common denominators) and
build one Fraction per entry.

Rows and columns are indexed from 0.  A realization "at dimension N" is an
(N+1) x (N+1) dense list-of-lists.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def _fact(n: int) -> int:
    return math.factorial(n)


def _check_nonnegative(value, noun: str = "order", minimum: int = 0) -> int:
    """Check an integer of at least `minimum`; return it as a plain int (numpy ints welcome).

    Used for every order, dimension, count and path index; real scalars go
    through _check_real, states and seeds have their own validators.
    `noun` names the quantity in the error.
    """
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or index < minimum:
        if minimum == 0:
            rule = f"a non-negative integer, got {value!r}"
        else:
            rule = f"an integer, got {value!r}" if index is None else f"at least {minimum}"
        raise ValueError(f"{noun} must be {rule}")
    return index


def _check_real(value, noun: str = "time", positive: bool = False, infinite: bool = False):
    """Return a real scalar argument unchanged if it is finite (or, if `infinite`, any
    number but NaN) and, if `positive`, above zero; raise ValueError otherwise."""
    number = math.isfinite(value) or infinite and not math.isnan(value)
    if not number or positive and not value > 0.0:
        rule = ("a number" if infinite else "finite") + (" and positive" if positive else "")
        raise ValueError(f"{noun} must be {rule}, got {value!r}")
    return value


def _lower_triangular_zero(j: int, k: int) -> bool:
    return j < k


def _off_diagonal_zero(j: int, k: int) -> bool:
    return j != k


def _never_zero(j: int, k: int) -> bool:
    return False


@dataclass(frozen=True)
class DimFreeMatrix:
    """A matrix family given by an entry rule that ignores realization size.

    The rule makes the dimension-free block property hold by construction:
    realizing at two sizes and comparing the shared upper-left block is the
    natural test, and it must always pass for instances of this class.
    """

    entry_rule: Callable[[int, int], Fraction]
    structural_zero: Callable[[int, int], bool] = _never_zero

    def entry(self, j: int, k: int) -> Fraction:
        if j < 0 or k < 0:
            raise ValueError("matrix indices must be non-negative")
        if self.structural_zero(j, k):
            return _ZERO
        return self.entry_rule(j, k)

    def realize(self, dim: int) -> Matrix:
        """Dense (dim+1) x (dim+1) realization."""
        dim = _check_nonnegative(dim, "matrix dimension")
        rng = range(dim + 1)
        return [[self.entry(j, k) for k in rng] for j in rng]


GAMMA = DimFreeMatrix(
    lambda j, k: Fraction(1, _fact(j - k)),
    _lower_triangular_zero,
)

B = DimFreeMatrix(
    lambda j, k: Fraction(_fact(j + k), _fact(k) * _fact(j - k)),
    _lower_triangular_zero,
)

A = DimFreeMatrix(
    lambda j, k: Fraction((-1) ** (j + k) * _fact(j + k), _fact(k) * _fact(j - k)),
    _lower_triangular_zero,
)

A_INVERSE = DimFreeMatrix(
    lambda j, k: Fraction((2 * k + 1) * _fact(j), _fact(j + k + 1) * _fact(j - k)),
    _lower_triangular_zero,
)

LAMBDA = DimFreeMatrix(lambda j, k: Fraction(2 * j + 1), _off_diagonal_zero)

RHO_INVERSE = DimFreeMatrix(lambda j, k: Fraction(1, j + k + 1))


def identity(dim: int) -> Matrix:
    dim = _check_nonnegative(dim, "matrix dimension")
    return [[_ONE if j == k else _ZERO for k in range(dim + 1)] for j in range(dim + 1)]


def star(m: Matrix) -> Matrix:
    """Entrywise sign flip on odd index sums: out[j][k] = (-1)^(j+k) m[j][k].

    An involution: applying it twice returns the original matrix.
    """
    size = len(m)
    if any(len(row) != size for row in m):
        raise ValueError("star is defined for square matrices only")
    return [
        [v if (j + k) % 2 == 0 else -v for k, v in enumerate(row)]
        for j, row in enumerate(m)
    ]


def transpose(m: Matrix) -> Matrix:
    return [list(col) for col in zip(*m)]


def _scaled_ints(vectors) -> list[tuple[int, list[int], int, int]]:
    """Each rational vector over its common denominator.

    Returns (lcm of the denominators, integer numerators over that lcm,
    first nonzero index, one past the last nonzero index) per vector.
    """
    out = []
    for vec in vectors:
        scale = math.lcm(*(v.denominator for v in vec))
        ints = [v.numerator * (scale // v.denominator) for v in vec]
        nonzero = [k for k, v in enumerate(ints) if v]
        out.append((scale, ints, nonzero[0], nonzero[-1] + 1) if nonzero else (scale, ints, 0, 0))
    return out


def mat_mul(x: Matrix, y: Matrix) -> Matrix:
    """Exact matrix product over common denominators.

    Each row of x and each column of y is scaled by the lcm of its
    denominators, so every entry of the product is one integer dot product
    and one Fraction.  The dot product runs only where the nonzero spans of
    the row and the column overlap, so triangular arguments cost roughly a
    sixth of the dense bound.
    """
    inner = len(y)
    if any(len(row) != inner for row in x):
        raise ValueError(f"shape mismatch: {len(x)}x{len(x[0])} times {inner}x{len(y[0])}")
    if any(len(row) != len(y[0]) for row in y):
        raise ValueError("the right factor's rows differ in length")
    columns = _scaled_ints(zip(*y))
    out: Matrix = []
    for x_scale, xi, x_lo, x_hi in _scaled_ints(x):
        row = []
        for y_scale, yj, y_lo, y_hi in columns:
            lo, hi = max(x_lo, y_lo), min(x_hi, y_hi)
            dot = sum(map(operator.mul, xi[lo:hi], yj[lo:hi])) if lo < hi else 0
            row.append(Fraction(dot, x_scale * y_scale) if dot else _ZERO)
        out.append(row)
    return out


def gamma_matrix(dim: int) -> Matrix:
    """Unit lower-triangular matrix with entries 1/(j-k)! for j >= k."""
    return GAMMA.realize(dim)


def b_matrix(dim: int) -> Matrix:
    """Lower-triangular matrix with entries (j+k)!/(k!(j-k)!) for j >= k.

    The diagonal is (2j)!/j!.
    """
    return B.realize(dim)


def a_matrix(dim: int) -> Matrix:
    """Lower-triangular matrix with entries (-1)^(j+k) (j+k)!/(k!(j-k)!).

    Equal to star(b_matrix(dim)); the diagonal (2j)!/j! is positive.
    """
    return A.realize(dim)


def a_inverse_matrix(dim: int) -> Matrix:
    """Exact inverse of a_matrix: entries (2k+1) j!/((j+k+1)!(j-k)!) for j >= k.

    All entries are positive on and below the diagonal, so this is also the
    unit-normalized lower-triangular factor used by the samplers.
    """
    return A_INVERSE.realize(dim)


def lambda_matrix(dim: int) -> Matrix:
    """Diagonal matrix diag(1, 3, 5, ..., 2*dim+1)."""
    return LAMBDA.realize(dim)


def rho_inverse_matrix(dim: int) -> Matrix:
    """The Hilbert-type matrix with entries 1/(j+k+1); symmetric positive definite."""
    return RHO_INVERSE.realize(dim)


def rho_matrix(dim: int) -> Matrix:
    """Exact inverse of rho_inverse_matrix(dim).

    Every entry is an integer.  rho_inverse_matrix is the Cauchy matrix
    1/(x_j + x_k) with x_j = j + 1/2, and the inverse of a Cauchy matrix
    has a closed form; at N = dim it reads

        out[j][k] = (-1)^(j+k) p_j p_k / (j+k+1),   p_j = (N+j+1)! / ((j!)^2 (N-j)!),

    with an exact division.  Expanded into binomials this is Choi's product
    (j+k+1) C(N+j+1, N-k) C(N+k+1, N-j) C(j+k, j)^2 (M.-D. Choi, "Tricks or
    Treats with the Hilbert Matrix", Amer. Math. Monthly 90, 1983).  p is
    computed once, so an entry costs one product and one division; the
    upper triangle is built and mirrored, one Fraction per entry.  Unlike
    the other families here the entries depend on the realization size, so
    rho_matrix(N) is not a block of rho_matrix(N+1).  The same matrix equals
    D^-1 A' Lambda A D^-1 with D = diag(j!), which is how the floating-point
    layer factors it.
    """
    dim = _check_nonnegative(dim, "matrix dimension")
    f = math.factorial
    p = [f(dim + j + 1) // (f(j) ** 2 * f(dim - j)) for j in range(dim + 1)]
    out: Matrix = [[_ZERO] * (dim + 1) for _ in range(dim + 1)]
    for j, p_j in enumerate(p):
        for k in range(j, dim + 1):
            v = p_j * p[k] // (j + k + 1)
            out[j][k] = out[k][j] = Fraction(-v if (j + k) % 2 else v)
    return out


def matrix_to_json(m: Matrix) -> dict:
    """JSON form {"dim": N, "entries": [["num/den", ...], ...]}.

    Entries are decimal fraction strings ("1/2", "-36"); never floats.
    """
    size = len(m)
    if size == 0 or any(len(row) != size for row in m):
        raise ValueError("expected a non-empty square matrix")
    return {"dim": size - 1, "entries": [_entry_strings(row) for row in m]}


def _entry_strings(row) -> list[str]:
    """One matrix row as matrix_to_json writes it: decimal fraction strings.

    An integer entry is written from its numerator, as Fraction.__str__
    writes it.  Reading the slots behind the numerator and denominator
    properties skips a Python-level call per entry, about half the cost of
    an integer entry.
    """
    out = []
    for v in row:
        if type(v) is not Fraction:
            v = Fraction(v)
        out.append(str(v._numerator) if v._denominator == 1 else str(v))
    return out


def matrix_from_json(obj: dict) -> Matrix:
    """Inverse of matrix_to_json; validates shape against the dim field."""
    dim = _check_nonnegative(obj["dim"], "matrix dimension")
    entries = obj["entries"]
    if len(entries) != dim + 1 or any(len(row) != dim + 1 for row in entries):
        raise ValueError("entries shape does not match dim")
    return [[Fraction(v) for v in row] for row in entries]
