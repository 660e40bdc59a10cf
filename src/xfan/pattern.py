"""Mutation-tree traversal carrying tropical and polynomial seed data.

Each node of the n-regular tree holds the mutated exchange matrix B_t, the
c-matrix C_t of the pattern whose initial matrix is -B^T (the one whose rows
cut out the cones downstream) and the coefficient polynomials F_t, and
reads the g-matrix G_t of the pattern for B itself off C_t.

The F recurrence reads the c-matrix of the pattern for B, which is
D^-1.C_t.D for the skew-symmetrizer D = diag(d). Both c-matrices start at I
and mutate row by row against a pivot row: C_t against row k of -B_t^T,
with entries -b_jk, and the other against row k of B_t, with entries b_kj.
Since d_k.b_kj = -d_j.b_jk for every B_t, row i of the second recurrence is
d_j/d_i times row i of the first, entry by entry, at every step.

Every c-matrix column must be sign coherent; a violation raises at once,
since the supporting theory guarantees coherence. Tropical duality
(Nakanishi-Zelevinsky) gives G_t = (C_t^T)^-1, so G_t is read off the
Hermite normal form of [C_t^T | I] when it is asked for, never during
the walk. A c-matrix determines its whole seed, B_t and G_t included
(Nakanishi-Zelevinsky), so the set of columns of C_t is the key of the
unlabelled seed, and relabelling the directions permutes the columns of
C_t and G_t, the rows and columns of B_t, and the entries of F_t, while
d stays put.

A labelled node is therefore a seed plus a column permutation. A seed, a
PatternNode, holds the matrices; a labelled node, a RelabelledNode,
holds its seed, a permutation and its history, and builds its matrices
by permutation when they are read. The seed pass of the enumeration
mutates, with every check, once per edge (seed, direction) but the edge
from a new seed back to its parent, free as mutation is an involution.
The cover pass walks the labellings and builds every labelled node, the
root's identity labelling included: mutating a labelled node in
direction k is mutating its seed in the permuted direction, then
relabelling, so it only composes permutations.
"""

from functools import lru_cache
from itertools import chain

from .errors import DualityViolation, ExhaustionCapExceeded, SignCoherenceViolation
from .intmat import Frozen, IntMatrix, _augmented_hnf, _exact_int, identity_rows
from .laurent import LaurentPolynomial, _exchange
from .seed import ExchangeMatrix, mutate, mutate_rows

DEFAULT_DEPTH = 12
NODE_CAP = 10**6


class PatternNode(Frozen):
    """A seed, which holds its matrices in its own labelling.

    Fields: ``B_t`` (ExchangeMatrix), ``C_t`` (c-matrix, initial -B^T
    pattern), ``F_t`` (tuple of LaurentPolynomials, or None when
    polynomial tracking was disabled) and ``history`` (1-based directions
    from the root along which the seed was first reached). C_t determines
    the rest of the seed: the c-matrix of the B pattern is D^-1.C_t.D,
    and the property ``G_t`` (g-matrix, initial B pattern) is
    (C_t^T)^-1. A catalog's labelled nodes are RelabelledNodes over it.
    """

    __slots__ = ("B_t", "C_t", "F_t", "history")

    @property
    def G_t(self):
        """The right block of the Hermite normal form of [C_t^T | I].

        Its left block is I when C_t is unimodular, as tropical duality
        guarantees; any other raises DualityViolation, an implementation bug.
        """
        n = self.B_t.n
        form = _augmented_hnf(self.C_t)
        if tuple(row[:n] for row in form) != identity_rows(n):
            raise DualityViolation(f"c-matrix at history {self.history} is not unimodular")
        return IntMatrix._trusted(tuple(row[n:] for row in form))

    def __repr__(self):
        return f"PatternNode(history={self.history})"


class RelabelledNode(Frozen):
    """A labelled node: a seed read through a permutation of its directions.

    Slots: ``seed`` (a PatternNode), ``perm`` (direction j, 0-based, of
    this node is direction perm[j] of the seed; the identity for the
    seed's own labelling) and ``history``. The PatternNode fields
    ``B_t``, ``C_t``, ``G_t`` and ``F_t`` are the seed's, permuted when
    read: relabelling permutes the rows and columns of B_t, the columns of
    C_t and G_t, since (C.P)^-T = C^-T.P for a permutation matrix P, and
    the entries of F_t, and keeps d. So a DualityViolation names the
    seed's history.
    """

    __slots__ = ("seed", "perm", "history")

    @property
    def B_t(self):
        em, perm = self.seed.B_t, self.perm
        rows = em.B.entries
        return ExchangeMatrix(
            IntMatrix._trusted(tuple(tuple(map(rows[i].__getitem__, perm)) for i in perm)), em.d
        )

    @property
    def C_t(self):
        return _permute_columns(self.seed.C_t, self.perm)

    @property
    def G_t(self):
        return _permute_columns(self.seed.G_t, self.perm)

    @property
    def F_t(self):
        polys = self.seed.F_t
        return None if polys is None else tuple(map(polys.__getitem__, self.perm))

    def __repr__(self):
        return f"RelabelledNode(history={self.history})"


@lru_cache(maxsize=None)
def _identity(n):
    return tuple(range(n))


def _permute_columns(matrix, perm):
    """Column j of the result is column perm[j] of the matrix."""
    return IntMatrix._trusted(tuple(tuple(map(row.__getitem__, perm)) for row in matrix.entries))


class PatternCatalog(Frozen):
    """All visited nodes of one bounded traversal, in BFS order.

    ``nodes`` holds the labelled nodes, every one a RelabelledNode, the
    root's identity labelling first. ``seeds`` holds the seeds, the
    PatternNodes those nodes read, in BFS order: the one object per
    unlabelled seed that cone classification and point location look at.
    A seed's history is that of its first labelled node, whose ``perm``
    is the identity.
    """

    __slots__ = ("root", "nodes", "depth", "complete", "seeds")

    def __len__(self):
        return len(self.nodes)

    def seed_class_count(self):
        """Seeds up to simultaneous relabeling: the number of distinct seeds."""
        return len(self.seeds)


def initial_node(em, with_polynomials=True):
    """The root: C = identity, every F = 1, empty history."""
    n = em.n
    polys = tuple(LaurentPolynomial.one(n) for _ in range(n)) if with_polynomials else None
    return PatternNode(em, IntMatrix.identity(n), polys, ())


def _mutate_c(node, kk):
    """C_t of the node mutated in direction kk (0-based), unchecked.

    The coefficient column kk flips, every other column picks up a rectified
    multiple of column kk. The exchange entries belong to the same pattern
    as the c-matrix, so C_t (initial -B^T) pivots on row kk of -B_t^T.
    """
    pivot = tuple(-row[kk] for row in node.B_t.B.entries)
    return IntMatrix._trusted(tuple(mutate_rows(node.C_t.entries, kk, pivot)))


def mutate_node(node, k):
    """Mutate every field of a node in direction k (1-based).

    Raises SignCoherenceViolation when a mutated c-matrix column has mixed
    signs, or DualityViolation when a mutated F loses its constant term 1;
    both indicate an implementation bug, not bad input.
    """
    return _child(node, k, mutate(node.B_t, k), _mutate_c(node, k - 1))


def _walk(em, history, with_polynomials=True):
    """The node at ``history`` (1-based directions), mutated edge by edge from the root."""
    node = initial_node(em, with_polynomials=with_polynomials)
    for k in history:
        node = mutate_node(node, k)
    return node


def _child(node, k, new_em, new_c):
    """The child in direction k, built around its mutated B_t and C_t.

    Checks that every column of new_c is sign coherent; F follows, when it
    is tracked. The child is the first node of a seed.
    """
    for j, col in enumerate(zip(*new_c.entries)):
        _column_sign(col, j)
    new_f = None
    if node.F_t is not None:
        em = node.B_t
        kk = k - 1
        d = em.d
        # column k of the B-pattern c-matrix D^-1.C_t.D; the division is exact
        column = tuple(row[kk] * d[kk] // di for row, di in zip(node.C_t.entries, d))
        new_f = _mutate_f(node.F_t, em.B.entries, column, kk, em.n)
    return PatternNode(new_em, new_c, new_f, node.history + (k,))


def _column_sign(col, kk):
    if not any(col) or max(col) > 0 > min(col):
        raise SignCoherenceViolation(f"c-matrix column {kk + 1} has mixed signs")


def _mutate_f(polys, b, column, kk, n):
    """F_t mutated in direction k = kk + 1: F_k is exchanged, the others stay.

    The exchange relation (Fomin-Zelevinsky IV) reads
    F_k.F'_k = y^[c]+ prod F_i^[b_ik]+ + y^[-c]+ prod F_i^[-b_ik]+, c being
    column k of the B-pattern c-matrix; a factor F_i = 1 is left out.
    `laurent._exchange` packs the F_i it reads once, in one radix for the
    whole relation, divides the sum by F_k and unpacks only F'_k, which
    must keep constant term 1.
    """
    sides = [
        (
            tuple(max(sign * c, 0) for c in column),
            [(polys[i], sign * row[kk]) for i, row in enumerate(b) if sign * row[kk] > 0 and not polys[i].is_one()],
        )
        for sign in (1, -1)
    ]
    exchanged = _exchange(sides, polys[kk])
    if exchanged.constant_term() != 1:
        raise DualityViolation("mutated coefficient polynomial lost its constant term 1")
    return tuple(exchanged if i == kk else polys[i] for i in range(n))


def _seed_graph(root, max_depth, node_cap):
    """The seed pass: seeds up to max_depth in BFS order, and their edges.

    seeds[s] is seed s, a PatternNode in its own labelling;
    edges[s][j] = (t, tau) says seed s mutated in direction j (0-based) is
    seed t relabelled by tau, for every seed above the depth bound.
    Without a depth bound, a B_t with b_ij.b_ji <= -4 ends the walk: it
    makes the exchange graph infinite (Fomin-Zelevinsky II, Thm 1.8).
    """
    n = root.B_t.n
    ident = _identity(n)

    def key(cols):  # the set of columns of C_t, as a sorted flat tuple
        return tuple(chain.from_iterable(sorted(cols)))

    seeds = [root]
    parents = [None]
    edges = []
    number = {key(zip(*root.C_t.entries)): 0}
    for s, node in enumerate(seeds):  # seeds grows as the walk finds them
        if max_depth is not None and len(node.history) >= max_depth:
            break
        if max_depth is None:
            b = node.B_t.B.entries
            if min((b[i][j] * b[j][i] for i in range(n) for j in range(i)), default=0) <= -4:
                raise ExhaustionCapExceeded(
                    f"B_t at history {node.history} has b_ij*b_ji <= -4: infinite type", "infinite_type"
                )
        back = node.history[-1] - 1 if node.history else None
        out = []
        for j in range(n):
            if j == back:  # mutation is an involution: back to the parent, unrelabelled
                out.append((parents[s], ident))
                continue
            new_c = _mutate_c(node, j)
            cols = tuple(zip(*new_c.entries))
            t = number.setdefault(key(cols), len(seeds))
            if t < len(seeds):  # a known seed: column i is its column tau[i]
                out.append((t, tuple(map(tuple(zip(*seeds[t].C_t.entries)).index, cols))))
                continue
            seeds.append(_child(node, j + 1, mutate(node.B_t, j + 1), new_c))
            parents.append(s)
            out.append((t, ident))
            if len(seeds) > node_cap:
                raise ExhaustionCapExceeded(_cap_message(node_cap))
        edges.append(tuple(out))
    return seeds, edges


def _cap_message(node_cap):
    return f"more than {node_cap} labelled nodes before the frontier emptied"


def enumerate_pattern(
    em,
    max_depth=DEFAULT_DEPTH,
    with_polynomials=True,
    node_cap=NODE_CAP,
):
    """BFS over the labelled mutation tree, deduplicating nodes on C_t.

    After the seed pass, the labelled node (s, pi) mutated in direction k
    is the edge (s, pi(k)) = (t, tau) followed by the state (t, tau.pi),
    which stands for the labelled c-matrix. A relabelled node passes the
    checks exactly when its seed does. Immediate back-mutation is
    skipped; ties among directions break by ascending index, so the
    catalog order is deterministic.

    ``max_depth`` of None removes the depth bound; a visited B_t with
    b_ij.b_ji <= -4 then raises ExhaustionCapExceeded with reason
    "infinite_type". Every walk has a cap: ``node_cap``, a positive int
    (default NODE_CAP = 10**6), raises it as soon as the catalog reaches
    node_cap + 1 nodes, root included.

    Returns a PatternCatalog whose ``nodes`` are RelabelledNodes over its
    ``seeds``, and whose ``complete`` flag is set only when a frontier
    emptied before the depth bound, meaning every seed was seen.
    """
    if not isinstance(em, ExchangeMatrix):
        raise ValueError("enumerate_pattern wants a validated ExchangeMatrix")
    if max_depth is not None:
        max_depth = _exact_int(max_depth)
        if max_depth < 0:
            raise ValueError("max_depth must be nonnegative or None")
    if node_cap is None or _exact_int(node_cap) < 1:
        raise ValueError("node_cap must be positive")
    node_cap = _exact_int(node_cap)
    root = initial_node(em, with_polynomials=with_polynomials)
    seeds, edges = _seed_graph(root, max_depth, node_cap)
    n = em.n
    ident = _identity(n)
    perms = {ident: ident}  # one tuple per permutation
    seen = [{ident}] + [set() for _ in seeds[1:]]  # by seed number, the perms of its nodes
    nodes = [RelabelledNode(root, ident, ())]
    frontier = nodes[:]
    numbers = [0]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier, next_numbers = [], []
        for parent, s in zip(frontier, numbers):
            perm = parent.perm
            history = parent.history
            last = history[-1] if history else 0
            out = edges[s]
            for k in range(1, n + 1):
                if k == last:
                    continue
                t, tau = out[perm[k - 1]]
                labelled = perm if tau is ident else tuple(map(tau.__getitem__, perm))
                if labelled in seen[t]:
                    continue
                labelled = perms.setdefault(labelled, labelled)
                seen[t].add(labelled)
                child = RelabelledNode(seeds[t], labelled, history + (k,))
                nodes.append(child)
                next_frontier.append(child)
                next_numbers.append(t)
                if len(nodes) > node_cap:
                    raise ExhaustionCapExceeded(_cap_message(node_cap))
        frontier, numbers = next_frontier, next_numbers
    return PatternCatalog(em, tuple(nodes), depth, not frontier, tuple(seeds))


def positive_c_vectors(catalog):
    """All distinct c-matrix columns with every entry nonnegative.

    Returned sorted. Meaningful as the full positive-root list only when the
    catalog is complete; on a truncated catalog it is just the visited part.
    Relabelling a seed permutes the columns of C_t, so ``catalog.seeds``
    carry every column that the labelled nodes do.
    """
    found = {col for node in catalog.seeds for col in zip(*node.C_t.entries) if min(col) >= 0}
    return tuple(sorted(found))
