"""Seeds: exchange matrices, skew-symmetrizers, one-step mutation.

An exchange matrix is the only seed type. The quiver of a skew-symmetric
seed is its arrow matrix [B]_+ (b_ij > 0 gives b_ij arrows i -> j), which
the representation-theory layer reads off B directly.

Conventions used throughout the package: c-vectors and g-vectors are matrix
columns, dimension vectors are rows, and the lattice map sends beta to
B.beta (column convention). Mutation directions are 1-based in every public
signature and in the CLI; index arithmetic inside the package is 0-based.
"""

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotSkewSymmetrizable,
)
from .intmat import IntMatrix, Value, _exact_int, integer_kernel_basis


class ExchangeMatrix(Value):
    """A validated exchange matrix together with its skew-symmetrizer.

    ``B`` is the n x n integer matrix; ``d`` is the componentwise-minimal
    positive integer diagonal with diag(d).B skew-symmetric. Instances are
    produced by :func:`validate`, never constructed raw.
    """

    __slots__ = ("B", "d", "n")

    def __init__(self, B, d):
        super().__init__(B, tuple(d), B.rows)

    def __repr__(self):
        return f"ExchangeMatrix(B={self.B!r}, d={self.d})"

    def is_skew_symmetric(self):
        return all(x == 1 for x in self.d) and self.B.transpose() == self.B.neg()


def validate(B, d=None):
    """Check skew-symmetrizability and attach the minimal positive d.

    The constraints d_i b_ij + d_j b_ji = 0, one per nonzero pair i < j,
    fix the ratios d_j / d_i along every edge of the underlying graph. Their
    integer kernel has one primitive positive generator per connected
    component (in Hermite normal form these have disjoint supports), so
    the column sums of the kernel basis are the minimal d; a component with
    inconsistent ratios around a cycle contributes no generator. A
    caller-supplied ``d`` is taken as given; either way d is then verified
    entrywise.

    Raises NotSkewSymmetrizable when no positive d exists.
    """
    if not isinstance(B, IntMatrix):
        B = IntMatrix(B)
    if B.rows != B.cols:
        raise ValueError("exchange matrix must be square")
    n = B.rows
    e = B.entries
    for i in range(n):
        if e[i][i] != 0:
            raise NotSkewSymmetrizable(f"nonzero diagonal entry at ({i + 1},{i + 1})")
        for j in range(n):
            if (e[i][j] == 0) != (e[j][i] == 0):
                raise NotSkewSymmetrizable(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) are not both zero or both nonzero"
                )
            if e[i][j] * e[j][i] > 0:
                raise NotSkewSymmetrizable(
                    f"entries ({i + 1},{j + 1}) and ({j + 1},{i + 1}) have the same sign"
                )
    if d is None:
        equations = []
        for i in range(n):
            for j in range(i + 1, n):
                if e[i][j]:
                    row = [0] * n
                    row[i], row[j] = e[i][j], e[j][i]
                    equations.append(tuple(row))
        # B = 0 has no equations: one zero row, whose kernel is all of Z^n
        kernel = integer_kernel_basis(IntMatrix._trusted(tuple(equations) or ((0,) * n,)))
        d = tuple(map(sum, zip(*kernel)))
        if len(d) != n or any(x <= 0 for x in d):
            raise NotSkewSymmetrizable("inconsistent symmetrizer ratios around a cycle")
    given = tuple(_exact_int(x) for x in d)
    if len(given) != n or any(x <= 0 for x in given):
        raise NotSkewSymmetrizable("supplied d must be n positive integers")
    for i in range(n):
        for j in range(n):
            if given[i] * e[i][j] != -given[j] * e[j][i]:
                raise NotSkewSymmetrizable(
                    f"supplied d fails at entry ({i + 1},{j + 1})"
                )
    return ExchangeMatrix(B, given)


def mutate(em, k):
    """Matrix mutation in direction k (1-based); involution, preserves d.

    Row and column k are negated; every other b_ij gains sgn(b_ik) [b_ik b_kj]_+.
    """
    kk = _direction(em, k)
    rows = list(em.B.entries)
    pivot = rows[kk]
    for i, row in enumerate(rows):
        if b_ik := row[kk]:
            s = 1 if b_ik > 0 else -1
            row = [x + s * max(b_ik * y, 0) for x, y in zip(row, pivot)]
            row[kk] = -b_ik
            rows[i] = tuple(row)
    rows[kk] = tuple(-x for x in pivot)
    return ExchangeMatrix(IntMatrix._trusted(tuple(rows)), em.d)


def _direction(em, k):
    """The 0-based index of direction k (1-based), or IndexOutOfRange."""
    if not 1 <= k <= em.n:
        raise IndexOutOfRange(f"direction {k} outside 1..{em.n}")
    return k - 1


def p_star(em, beta):
    """The lattice map beta -> B.beta (column convention)."""
    beta = tuple(_exact_int(x) for x in beta)
    if len(beta) != em.n:
        raise DimensionMismatch(f"beta has length {len(beta)}, expected {em.n}")
    return em.B.mul_vec(beta)

