"""Seeds: exchange matrices, skew-symmetrizers, quivers, one-step mutation.

Conventions used throughout the package: c-vectors and g-vectors are matrix
columns, dimension vectors are rows, and the lattice map sends beta to
B.beta (column convention). Mutation directions are 1-based in every public
signature and in the CLI; index arithmetic inside the package is 0-based.
"""

from fractions import Fraction
from math import gcd

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NotAcyclic,
    NotSkewSymmetric,
    NotSkewSymmetrizable,
)
from .intmat import IntMatrix, _exact_int, integer_kernel_basis


class ExchangeMatrix:
    """A validated exchange matrix together with its skew-symmetrizer.

    ``B`` is the n x n integer matrix; ``d`` is the componentwise-minimal
    positive integer diagonal with diag(d).B skew-symmetric. Instances are
    produced by :func:`validate`, never constructed raw.
    """

    __slots__ = ("B", "d", "n")

    def __init__(self, B, d):
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "d", tuple(d))
        object.__setattr__(self, "n", B.rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExchangeMatrix is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, ExchangeMatrix)
            and self.B == other.B
            and self.d == other.d
        )

    def __hash__(self):
        return hash((self.B, self.d))

    def __repr__(self):
        return f"ExchangeMatrix(B={self.B!r}, d={self.d})"

    def is_skew_symmetric(self):
        return all(x == 1 for x in self.d) and self.B.transpose() == self.B.neg()


class Quiver:
    """Arrow data of a skew-symmetric exchange matrix.

    ``arrows`` is a tuple of (source, target, multiplicity) triples with
    0-based vertices; an arrow i -> j with multiplicity m records b_ij = m > 0.
    """

    __slots__ = ("n", "arrows")

    def __init__(self, n, arrows):
        object.__setattr__(self, "n", _exact_int(n))
        object.__setattr__(self, "arrows", tuple(sorted(tuple(a) for a in arrows)))
        for s, t, m in self.arrows:
            if s == t:
                raise ValueError("loops are impossible for a zero-diagonal matrix")
            if m <= 0:
                raise ValueError("arrow multiplicities are positive")

    def __setattr__(self, name, value):
        raise AttributeError("Quiver is immutable")

    def __eq__(self, other):
        return isinstance(other, Quiver) and (self.n, self.arrows) == (other.n, other.arrows)

    def __hash__(self):
        return hash((self.n, self.arrows))

    def __repr__(self):
        return f"Quiver(n={self.n}, arrows={list(self.arrows)})"

    def arrow_matrix(self):
        """n x n matrix with entry (i, j) = multiplicity of arrows i -> j."""
        m = [[0] * self.n for _ in range(self.n)]
        for s, t, mult in self.arrows:
            m[s][t] = mult
        return IntMatrix(m)

    def out_neighbors(self, v):
        """Targets of arrows out of v, repeated per multiplicity."""
        return tuple(t for s, t, m in self.arrows if s == v for _ in range(m))

    def in_neighbors(self, v):
        """Sources of arrows into v, repeated per multiplicity."""
        return tuple(s for s, t, m in self.arrows if t == v for _ in range(m))


def validate(B, d=None):
    """Check skew-symmetrizability and attach the minimal positive d.

    The constraints d_i b_ij = -d_j b_ji fix the ratios d_j / d_i along every
    edge of the underlying graph, so each connected component determines d up
    to one positive scalar; that scalar is chosen minimal by clearing
    denominators and dividing out the gcd. A caller-supplied ``d`` is
    verified entrywise instead.

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
    if d is not None:
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
    ratios = [None] * n
    for start in range(n):
        if ratios[start] is not None:
            continue
        component = []
        ratios[start] = Fraction(1)
        stack = [start]
        while stack:
            u = stack.pop()
            component.append(u)
            for v in range(n):
                if e[u][v] == 0:
                    continue
                r = ratios[u] * Fraction(abs(e[u][v]), abs(e[v][u]))
                if ratios[v] is None:
                    ratios[v] = r
                    stack.append(v)
                elif ratios[v] != r:
                    raise NotSkewSymmetrizable(
                        "inconsistent symmetrizer ratios around a cycle"
                    )
        lcm = 1
        for v in component:
            den = ratios[v].denominator
            g = gcd(lcm, den)
            lcm = lcm // g * den
        values = [int(ratios[v] * lcm) for v in component]
        g = 0
        for x in values:
            g = gcd(g, x)
        for v, x in zip(component, values):
            ratios[v] = x // g
    dvec = tuple(int(r) for r in ratios)
    for i in range(n):
        for j in range(n):
            if dvec[i] * e[i][j] != -dvec[j] * e[j][i]:
                raise NotSkewSymmetrizable(
                    "no positive integer symmetrizer exists"
                )
    return ExchangeMatrix(B, dvec)


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
    """Kahn topological sort; True when the quiver has no oriented cycle."""
    return topological_order(quiver) is not None


def topological_order(quiver):
    """A topological order of the vertices, or None if a cycle exists."""
    n = quiver.n
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for s, t, _ in quiver.arrows:
        indeg[t] += 1
        out[s].append(t)
    ready = sorted(v for v in range(n) if indeg[v] == 0)
    order = []
    while ready:
        v = ready.pop(0)
        order.append(v)
        for t in sorted(out[v]):
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
        ready.sort()
    return order if len(order) == n else None
