"""Mutation-tree traversal carrying tropical and polynomial seed data.

Each node of the n-regular tree holds the mutated exchange matrix B_t, the
c-matrix C_t of the pattern whose initial matrix is -B^T (the one whose rows
cut out the cones downstream), the g-matrix G_t of the pattern for B itself,
and the coefficient polynomials F_t.

The g and F recurrences read the c-matrix of the pattern for B, which is
D^-1.C_t.D for the skew-symmetrizer D = diag(d). Both c-matrices start at I
and mutate row by row against a pivot row: C_t against row k of -B_t^T,
with entries -b_jk, and the other against row k of B_t, with entries b_kj.
Since d_k.b_kj = -d_j.b_jk for every B_t, row i of the second recurrence is
d_j/d_i times row i of the first, entry by entry, at every step.

G_t comes from a direct column recurrence and is checked against tropical
duality, C_t^T.G_t = I, over the integers; every c-matrix column must be
sign coherent. Violations raise immediately since the supporting theory
guarantees both. A c-matrix determines its whole seed, B_t and G_t
included (Nakanishi-Zelevinsky), so the traversal deduplicates on C_t
alone and the set of columns of C_t is the key of the unlabelled seed.
"""

from operator import mul

from .errors import (
    DualityViolation,
    ExhaustionCapExceeded,
    IndexOutOfRange,
    SignCoherenceViolation,
)
from .intmat import IntMatrix, identity_rows
from .laurent import LaurentPolynomial, divide_exact
from .seed import ExchangeMatrix, mutate, mutate_rows

DEFAULT_DEPTH = 12


class PatternNode:
    """One vertex of the mutation tree.

    Fields: ``B_t`` (ExchangeMatrix), ``C_t`` (c-matrix, initial -B^T
    pattern), ``G_t`` (g-matrix, initial B pattern), ``F_t`` (tuple of
    LaurentPolynomials, or None when polynomial tracking was disabled) and
    ``history`` (1-based directions from the root). C_t determines the
    rest of the seed; the c-matrix of the B pattern is D^-1.C_t.D.
    """

    __slots__ = ("B_t", "C_t", "G_t", "F_t", "history")

    def __init__(self, B_t, C_t, G_t, F_t, history):
        object.__setattr__(self, "B_t", B_t)
        object.__setattr__(self, "C_t", C_t)
        object.__setattr__(self, "G_t", G_t)
        object.__setattr__(self, "F_t", F_t)
        object.__setattr__(self, "history", tuple(history))

    def __setattr__(self, name, value):
        raise AttributeError("PatternNode is immutable")

    def seed_key(self):
        """Key of the unlabelled seed: the sorted tuple of the columns of C_t.

        Relabelling the directions permutes the columns of C_t, and C_t
        determines B_t, so two nodes carry the same seed up to relabelling
        exactly when their keys agree.
        """
        return tuple(sorted(zip(*self.C_t.entries)))

    def __repr__(self):
        return f"PatternNode(history={self.history})"


class PatternCatalog:
    """All visited nodes of one bounded traversal, in BFS order.

    ``seeds`` holds the first node of each seed key, in BFS order: the one
    node per unlabelled seed that cone classification and point location
    look at.
    """

    __slots__ = ("root", "nodes", "depth", "complete", "seeds")

    def __init__(self, root, nodes, depth, complete):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "nodes", tuple(nodes))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "complete", complete)
        first = {}
        for node in self.nodes:
            first.setdefault(node.seed_key(), node)
        object.__setattr__(self, "seeds", tuple(first.values()))

    def __setattr__(self, name, value):
        raise AttributeError("PatternCatalog is immutable")

    def __len__(self):
        return len(self.nodes)

    def seed_class_count(self):
        """Seeds up to simultaneous relabeling: the number of distinct seed keys."""
        return len(self.seeds)


def initial_node(em, with_polynomials=True):
    """The root: C = G = identity, every F = 1, empty history."""
    n = em.n
    ident = IntMatrix.identity(n)
    polys = tuple(LaurentPolynomial.one(n) for _ in range(n)) if with_polynomials else None
    return PatternNode(em, ident, ident, polys, ())


def mutate_node(node, k):
    """Mutate every field of a node in direction k (1-based).

    Raises SignCoherenceViolation or DualityViolation when the mutated data
    breaks an invariant; both indicate an implementation bug, not bad input.
    """
    n = node.B_t.n
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"direction {k} outside 1..{n}")
    kk = k - 1
    b = node.B_t.B.entries
    d = node.B_t.d
    new_em = mutate(node.B_t, k)
    # c-matrix recurrence: the coefficient column k flips, every other
    # column picks up a rectified multiple of column k. The exchange entries
    # belong to the same pattern as the c-matrix, so C_t (initial -B^T)
    # pivots on row k of -B_t^T.
    pivot = tuple(-row[kk] for row in b)
    new_c = IntMatrix._trusted(tuple(mutate_rows(node.C_t.entries, kk, pivot)))
    _check_coherent(new_c)
    # column k of the B-pattern c-matrix D^-1.C_t.D; the division is exact
    column = tuple(row[kk] * d[kk] // di for row, di in zip(node.C_t.entries, d))
    new_g = _mutate_g(node.G_t, b, column, kk)
    g_cols = tuple(zip(*new_g.entries))
    duality = tuple(
        tuple(sum(map(mul, c_col, g_col)) for g_col in g_cols)
        for c_col in zip(*new_c.entries)
    )
    if duality != identity_rows(n):
        raise DualityViolation(
            f"g-matrix disagrees with the inverse transposed c-matrix at history {node.history + (k,)}"
        )
    new_f = None
    if node.F_t is not None:
        new_f = _mutate_f(node.F_t, b, column, kk, n)
    return PatternNode(new_em, new_c, new_g, new_f, node.history + (k,))


def _column_sign(col, kk):
    pos = max(col) > 0
    neg = min(col) < 0
    if pos and neg or not (pos or neg):
        raise SignCoherenceViolation(f"c-matrix column {kk + 1} has mixed signs")
    return 1 if pos else -1


def _mutate_g(gmat, b, column, kk):
    # column recurrence: right-multiply by the elementary matrix whose k-th
    # column rectifies -eps * B column k, eps being the sign of column k of
    # the B-pattern c-matrix (b_kk = 0 keeps column k out of the sum)
    eps = _column_sign(column, kk)
    weights = tuple(max(0, -eps * row[kk]) for row in b)
    out = []
    for row in gmat.entries:
        new = list(row)
        new[kk] = sum(map(mul, row, weights)) - row[kk]
        out.append(tuple(new))
    return IntMatrix._trusted(tuple(out))


def _mutate_f(polys, b, column, kk, n):
    pos = LaurentPolynomial._trusted(n, {tuple(max(c, 0) for c in column): 1})
    neg = LaurentPolynomial._trusted(n, {tuple(max(-c, 0) for c in column): 1})
    for i in range(n):
        bik = b[i][kk]
        if bik > 0:
            pos = pos * polys[i] ** bik
        elif bik < 0:
            neg = neg * polys[i] ** (-bik)
    exchanged = divide_exact(pos + neg, polys[kk])
    if exchanged.constant_term() != 1:
        raise DualityViolation("mutated coefficient polynomial lost its constant term 1")
    return tuple(
        exchanged if i == kk else polys[i] for i in range(n)
    )


def _check_coherent(cmat):
    for j, col in enumerate(zip(*cmat.entries)):
        _column_sign(col, j)


def enumerate_pattern(
    em,
    max_depth=DEFAULT_DEPTH,
    with_polynomials=True,
    node_cap=None,
):
    """BFS over the mutation tree, deduplicating nodes on C_t.

    Immediate back-mutation is skipped; ties among directions break by
    ascending index, so the catalog order is deterministic. ``max_depth``
    of None removes the depth bound (pair it with ``node_cap``; the cap
    raises ExhaustionCapExceeded if the frontier is still alive when it
    trips).

    Returns a PatternCatalog whose ``complete`` flag is set only when a
    frontier emptied before the depth bound, meaning every seed was seen.
    """
    if not isinstance(em, ExchangeMatrix):
        raise ValueError("enumerate_pattern wants a validated ExchangeMatrix")
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be nonnegative or None")
    root = initial_node(em, with_polynomials=with_polynomials)
    nodes = [root]
    seen = {root.C_t.entries}
    frontier = [root]
    depth = 0
    complete = False
    n = em.n
    while frontier:
        if max_depth is not None and depth >= max_depth:
            break
        depth += 1
        next_frontier = []
        for parent in frontier:
            last = parent.history[-1] if parent.history else 0
            for k in range(1, n + 1):
                if k == last:
                    continue
                child = mutate_node(parent, k)
                key = child.C_t.entries
                if key in seen:
                    continue
                seen.add(key)
                nodes.append(child)
                next_frontier.append(child)
        if node_cap is not None and len(nodes) > node_cap:
            raise ExhaustionCapExceeded(
                f"more than {node_cap} seeds before the frontier emptied"
            )
        frontier = next_frontier
        if not frontier:
            complete = True
    return PatternCatalog(em, nodes, depth, complete)


def positive_c_vectors(catalog):
    """All distinct c-matrix columns with every entry nonnegative.

    Returned sorted. Meaningful as the full positive-root list only when the
    catalog is complete; on a truncated catalog it is just the visited part.
    """
    found = set()
    for node in catalog.nodes:
        for j in range(node.C_t.cols):
            col = node.C_t.col(j)
            if all(x >= 0 for x in col):
                found.add(col)
    return tuple(sorted(found))
