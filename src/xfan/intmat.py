"""Exact integer matrices and lattice helpers.

Everything in this module is immutable and arbitrary precision. Rank runs
fraction-free (Bareiss). Lattice-level helpers (Hermite normal form,
saturated integer kernels) provide the canonical forms that cone
deduplication relies on.
"""

from functools import lru_cache
from math import gcd
from operator import mul


class IntMatrix:
    """Dense integer matrix, stored row-major as a tuple of tuples."""

    __slots__ = ("entries", "rows", "cols")

    def __init__(self, rows):
        data = tuple(tuple(row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(r) != width for r in data):
            raise ValueError("matrix rows must be nonempty and equal length")
        if not all(type(x) is int for row in data for x in row):
            data = tuple(tuple(_exact_int(x) for x in row) for row in data)
        object.__setattr__(self, "entries", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)

    @classmethod
    def _trusted(cls, entries):
        """Wrap a matrix built inside the package without checking it.

        ``entries`` must be a nonempty tuple of equal-length, nonempty
        tuples of ints.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("matrix needs at least one row")
        return cls._trusted(identity_rows(n))

    def at(self, i, j):
        return self.entries[i][j]

    def row(self, i):
        return self.entries[i]

    def col(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self):
        return IntMatrix._trusted(tuple(zip(*self.entries)))

    def neg(self):
        return IntMatrix._trusted(tuple(tuple(-x for x in r) for r in self.entries))

    def mul(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        cols = tuple(zip(*other.entries))
        return IntMatrix._trusted(
            tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.entries)
        )

    def mul_vec(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, r, vec)) for r in self.entries)

    def is_square(self):
        return self.rows == self.cols

    def rank(self):
        """Exact rank over the rationals.

        Fraction-free Bareiss elimination: every intermediate entry is an
        integer minor of the input, so no rationals appear and growth stays
        polynomial in the entry sizes.
        """
        return _bareiss_rank(self.entries)


@lru_cache(maxsize=None)
def identity_rows(n):
    """The n x n identity as a tuple of row tuples."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _exact_int(x):
    value = int(x)
    if value != x:
        raise ValueError(f"integer entries required, got {x!r}")
    return value


def _bareiss_rank(rows):
    """Rank by fraction-free row echelon reduction.

    The division by the previous pivot is exact by the Bareiss identity; a
    nonzero remainder would mean corrupted arithmetic and raises.
    """
    M = [list(r) for r in rows]
    m = len(M)
    n = len(M[0]) if m else 0
    prev = 1
    rank = 0
    for c in range(n):
        if rank >= m:
            break
        piv = None
        for r in range(rank, m):
            if M[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != rank:
            M[rank], M[piv] = M[piv], M[rank]
        p = M[rank][c]
        for i in range(rank + 1, m):
            mic = M[i][c]
            for j in range(n):
                num = p * M[i][j] - mic * M[rank][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("Bareiss exactness violated")
                M[i][j] = q
        prev = p
        rank += 1
    return rank


def hnf_rows(vectors):
    """Row-style Hermite normal form of the lattice spanned by ``vectors``.

    Canonical: pivots positive, entries above each pivot reduced into
    [0, pivot). Two generating sets of the same row lattice map to the same
    tuple of rows, so the result can be compared and hashed directly. Zero
    input (or an empty list) gives ().
    """
    M = [list(v) for v in vectors if any(v)]
    if not M:
        return ()
    cols = len(M[0])
    if any(len(r) != cols for r in M):
        raise ValueError("vectors of equal length required")
    r = 0
    for c in range(cols):
        if r >= len(M):
            break
        for i in range(r + 1, len(M)):
            # gcd loop: unimodular row ops zeroing M[i][c] into M[r][c]
            while M[i][c] != 0:
                q = M[r][c] // M[i][c]
                M[r] = [a - q * b for a, b in zip(M[r], M[i])]
                M[r], M[i] = M[i], M[r]
        if M[r][c] == 0:
            continue
        if M[r][c] < 0:
            M[r] = [-x for x in M[r]]
        r += 1
    M = [row for row in M[:r] if any(row)]
    # reduce entries above each pivot into [0, pivot)
    for i in range(len(M)):
        c = next(j for j, x in enumerate(M[i]) if x)
        for above in range(i):
            q = M[above][c] // M[i][c]
            if q:
                M[above] = [a - q * b for a, b in zip(M[above], M[i])]
    return tuple(tuple(row) for row in M)


def integer_kernel_basis(matrix):
    """Basis of the saturated integer kernel {x in Z^n : M.x = 0}.

    Unimodular row reduction of the transposed matrix augmented with an
    identity block: rows whose left block vanishes carry, in their right
    block, a generating set of every integer solution. The result is put in
    Hermite normal form, so it is canonical per kernel lattice. Returns a
    tuple of integer row vectors (possibly empty).
    """
    if isinstance(matrix, IntMatrix):
        ent = matrix.entries
        m, n = matrix.rows, matrix.cols
    else:
        ent = [tuple(r) for r in matrix]
        m = len(ent)
        n = len(ent[0]) if m else 0
        if m == 0:
            raise ValueError("need at least one row (use identity HNF for no constraints)")
    aug = [[ent[r][i] for r in range(m)] + [int(i == j) for j in range(n)] for i in range(n)]
    r = 0
    for c in range(m):
        if r >= n:
            break
        for i in range(r + 1, n):
            while aug[i][c] != 0:
                q = aug[r][c] // aug[i][c]
                aug[r] = [a - q * b for a, b in zip(aug[r], aug[i])]
                aug[r], aug[i] = aug[i], aug[r]
        if aug[r][c] != 0:
            r += 1
    kernel = [row[m:] for row in aug if not any(row[:m])]
    return hnf_rows(kernel)


def primitive_vector(vec):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def clear_multipliers(fractions):
    """Scale nonnegative rationals to coprime integers.

    Intended for homogeneous certificates (sum lambda_i a_i = 0), where any
    positive rescaling keeps the statement true: multiply by the lcm of the
    denominators, then divide out the common gcd.
    """
    mult = 1
    for f in fractions:
        mult = mult * f.denominator // gcd(mult, f.denominator)
    ints = [int(f * mult) for f in fractions]
    return primitive_vector(ints)
