"""Seeds: exchange matrices, skew-symmetrizers, quivers, one-step mutation.

Conventions used throughout the package: c-vectors and g-vectors are matrix
columns, dimension vectors are rows, and the lattice map sends beta to
B.beta (column convention). Mutation directions are 1-based in every public
signature and in the CLI; index arithmetic inside the package is 0-based.
"""

from operator import add

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotSkewSymmetric,
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


class Quiver(Value):
    """Arrow data of a skew-symmetric exchange matrix.

    ``arrows`` is a tuple of (source, target, multiplicity) triples with
    0-based vertices; an arrow i -> j with multiplicity m records b_ij = m > 0.
    Endpoints lie in 0..n-1, and each unordered pair of vertices carries at
    most one arrow triple.
    """

    __slots__ = ("n", "arrows")

    def __init__(self, n, arrows):
        n = _exact_int(n)
        arrows = tuple(sorted(tuple(_exact_int(x) for x in a) for a in arrows))
        pairs = set()
        for s, t, m in arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"arrow endpoints must lie in 0..{n - 1}")
            if s == t:
                raise ValueError("loops are impossible for a zero-diagonal matrix")
            if m <= 0:
                raise ValueError("arrow multiplicities are positive")
            pair = (min(s, t), max(s, t))
            if pair in pairs:
                raise ValueError(f"vertices {pair[0]} and {pair[1]} carry more than one arrow")
            pairs.add(pair)
        super().__init__(n, arrows)

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={list(self.arrows)})"

    def arrow_matrix(self):
        """n x n matrix with entry (i, j) = multiplicity of arrows i -> j."""
        m = [[0] * self.n for _ in range(self.n)]
        for s, t, mult in self.arrows:
            m[s][t] = mult
        return IntMatrix(m)

    def path_counts(self):
        """I + A + A^2 + ..., A the arrow matrix, or None when A^n != 0.

        Entry (i, j) counts the paths from i to j, arrows weighted by
        multiplicity. The series is finite exactly when A is nilpotent,
        that is when the quiver has no oriented cycle.
        """
        arrow = self.arrow_matrix()
        power = total = IntMatrix.identity(self.n)
        for _ in range(self.n):
            power = power.mul(arrow)
            if not any(map(any, power.entries)):
                return total
            total = IntMatrix._trusted(
                tuple(tuple(map(add, r, s)) for r, s in zip(total.entries, power.entries))
            )
        return None

    def out_neighbors(self, v):
        """Targets of arrows out of v, repeated per multiplicity."""
        return tuple(t for s, t, m in self.arrows if s == v for _ in range(m))

    def in_neighbors(self, v):
        """Sources of arrows into v, repeated per multiplicity."""
        return tuple(s for s, t, m in self.arrows if t == v for _ in range(m))


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
    if not B.is_square():
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
    """Matrix mutation in direction k (1-based); involution, preserves d."""
    n = em.n
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"direction {k} outside 1..{n}")
    kk = k - 1
    e = em.B.entries
    rows = mutate_rows(e, kk, e[kk])
    rows[kk] = tuple(-x for x in e[kk])
    return ExchangeMatrix(IntMatrix._trusted(tuple(rows)), em.d)


def mutate_rows(rows, kk, pivot):
    """Rows of a matrix mutated in column kk (0-based) against a pivot row.

    Row i becomes r_ij + sgn(r_ik) [r_ik pivot_j]_+ off column kk, and -r_ik
    in it: the rule for every row of an extended exchange matrix other than
    row kk itself, with ``pivot`` the exchange row b_k. Returns a list of
    tuples; a row with r_ik = 0 is returned unchanged.
    """
    out = []
    for row in rows:
        r_ik = row[kk]
        if r_ik == 0:
            out.append(row)
            continue
        s = 1 if r_ik > 0 else -1
        new = [x + s * max(r_ik * y, 0) for x, y in zip(row, pivot)]
        new[kk] = -r_ik
        out.append(tuple(new))
    return out


def p_star(em, beta):
    """The lattice map beta -> B.beta (column convention)."""
    beta = tuple(_exact_int(x) for x in beta)
    if len(beta) != em.n:
        raise DimensionMismatch(f"beta has length {len(beta)}, expected {em.n}")
    return em.B.mul_vec(beta)


def kernel_of_p_star(em):
    """Saturated primitive basis of ker(B) over the integers.

    Returned as a tuple of row vectors in Hermite normal form; empty when B
    is invertible.
    """
    return tuple(tuple(v) for v in integer_kernel_basis(em.B))


def quiver_of(em):
    """The quiver of a skew-symmetric exchange matrix (b_ij > 0 gives i -> j)."""
    if not em.is_skew_symmetric():
        raise NotSkewSymmetric("quiver construction needs B^T = -B with d = (1,...,1)")
    arrows = []
    e = em.B.entries
    for i in range(em.n):
        for j in range(em.n):
            if e[i][j] > 0:
                arrows.append((i, j, e[i][j]))
    return Quiver(em.n, arrows)


def is_acyclic(quiver):
    """True when the quiver has no oriented cycle: its path counts are finite."""
    return quiver.path_counts() is not None
