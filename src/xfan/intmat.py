"""Exact integer matrices and lattice helpers.

Everything in this module is immutable and arbitrary precision. The
Hermite normal form serves lattices: ranks, row lattice bases and the
saturated integer kernel, for cone deduplication's canonical forms and
the callers' cone frames and skew-symmetrizers. One integer Gauss-Jordan
serves solves and signs: each cone frame's pull-back and Sylvester's test.
"""

from functools import lru_cache
from math import gcd
from operator import mul


class Frozen:
    """Immutable slots base: the constructor fills ``__slots__`` in
    declaration order, one value per slot; any later assignment or
    deletion raises. ``copy`` and ``pickle`` restore the slots the same
    way."""

    __slots__ = ()

    def __init__(self, *values):
        slots = type(self).__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} values, got {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # copy and pickle hand back (None, {slot: value}) for slots classes
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Value(Frozen):
    """Frozen with value semantics: equal to a value of the same type
    whose slots are all equal, and hashed by the tuple of slots."""

    __slots__ = ()

    def _slot_values(self):
        return tuple(map(self.__getattribute__, type(self).__slots__))

    def __eq__(self, other):
        return type(other) is type(self) and self._slot_values() == other._slot_values()

    def __hash__(self):
        return hash(self._slot_values())


class IntMatrix(Value):
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
        super().__init__(data, len(data), width)

    @classmethod
    def _trusted(cls, entries):
        """Wrap a matrix built inside the package without checking it.

        ``entries`` must be a nonempty tuple of equal-length, nonempty
        tuples of ints.
        """
        # direct slot writes, here and in LaurentPolynomial._trusted: the two
        # run thousands of times per fan, and Frozen.__init__ doubles the cost
        self = object.__new__(cls)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", len(entries[0]))
        return self

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]})"

    @classmethod
    def identity(cls, n):
        if n < 1:
            raise ValueError("matrix needs at least one row")
        return cls._trusted(identity_rows(n))

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
            tuple(tuple([sum(map(mul, r, c)) for c in cols]) for r in self.entries)
        )

    def mul_vec(self, vec):
        """Matrix times column vector, returned as a tuple."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(map(mul, r, vec)) for r in self.entries)


@lru_cache(maxsize=None)
def identity_rows(n):
    """The n x n identity as a tuple of row tuples."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _exact_int(x):
    value = int(x)
    if value != x:
        raise ValueError(f"integer entries required, got {x!r}")
    return value


def hnf_rows(vectors):
    """Row-style Hermite normal form of the lattice spanned by ``vectors``.

    Canonical: pivots positive, entries above each pivot reduced into
    [0, pivot). Two generating sets of the same row lattice map to the same
    tuple of rows, so the result can be compared and hashed directly. Zero
    input (or an empty list) gives (). Rows go through ``IntMatrix``, so
    ragged rows and non-integral entries raise ValueError.
    """
    if not isinstance(vectors, IntMatrix):
        vectors = tuple(vectors)
        if not vectors:
            return ()
        vectors = IntMatrix(vectors)
    M = [list(v) for v in vectors.entries if any(v)]
    if not M:
        return ()
    cols = len(M[0])
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

    Hermite normal form of the transposed matrix augmented with an identity
    block: the rows whose left block vanishes carry, in their right block,
    the Hermite normal form of the lattice of every integer solution, so the
    result is canonical per kernel lattice. Returns a tuple of integer row
    vectors (possibly empty). A list of rows goes through ``IntMatrix``, so
    empty, ragged or non-integral input raises ValueError.
    """
    if not isinstance(matrix, IntMatrix):
        matrix = IntMatrix(matrix)
    m = matrix.rows
    aug = tuple(col + e for col, e in zip(zip(*matrix.entries), identity_rows(matrix.cols)))
    return tuple(row[m:] for row in hnf_rows(IntMatrix._trusted(aug)) if not any(row[:m]))


def gauss_jordan(rows, n):
    """Gauss-Jordan on the first n columns of integer rows, down the diagonal while the pivot is positive.

    Returns the count k of positive pivots and the rows they left. Pivot p
    turns a row x with f in its column into primitive(p.x - f.y), y the pivot
    row: a positive multiple of its rational counterpart. So pivot k has the
    sign of D(k + 1)/D(k), D(j) the leading minor of order j, and for k = n
    row i of [A | R] is a positive multiple of [e_i | (A^-1.R)_i].
    """
    rows = list(rows)
    for k in range(n):
        pivot, p = rows[k], rows[k][k]
        if p <= 0:
            return k, rows
        for i, row in enumerate(rows):
            if row[k] and i != k:
                rows[i] = primitive_vector([p * x - row[k] * y for x, y in zip(row, pivot)])
    return n, rows


def primitive_vector(vec):
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*vec)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)
