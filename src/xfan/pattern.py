"""Mutation-tree traversal carrying tropical and polynomial seed data.

Each node of the n-regular tree holds the mutated exchange matrix B_t, the
c-vectors (the columns of the c-matrix C_t) of the pattern whose initial
matrix is -B^T, the ones whose rows cut out the cones downstream, the
g-matrix G_t of the pattern for B itself and the coefficient polynomials
F_t.

Mutation in direction k multiplies C_t on the right by E_k, the identity
but for row k, which is t with -1 at k: t_j = [-eps.b_jk]_+, eps the sign
of column k of C_t. So c_k flips, c_j picks up t_j.c_k, and only the
columns with t_j > 0 change. E_k^2 = I, so tropical duality
(Nakanishi-Zelevinsky), G_t = (C_t^T)^-1, carries G_t along by G_t.E_k^T:
g_k becomes -g_k + sum_j t_j.g_j, one t for both matrices.

The F recurrence reads the c-matrix of the pattern for B, which is
D^-1.C_t.D for the skew-symmetrizer D = diag(d): since
d_k.b_kj = -d_j.b_jk for every B_t, row i of that c-matrix is d_j/d_i
times row i of C_t, entry by entry, at every step.

Every c-matrix column must be sign coherent; a changed column is checked
when its seed is built, and a violation raises at once, since the
supporting theory guarantees coherence. A c-matrix determines its whole
seed, B_t and G_t included (Nakanishi-Zelevinsky), so the set of
c-vectors is the key of the unlabelled seed, and relabelling the
directions permutes the columns of C_t and G_t, the rows and columns of
B_t, and the entries of F_t, while d stays put.

A labelled node is therefore a seed plus a column permutation. A seed, a
PatternNode, holds the matrices; a labelled node, a RelabelledNode,
holds its seed, a permutation and its history, and builds its matrices
by permutation when they are read. The seed pass of the enumeration
mutates, with every check, once per edge (seed, direction) but the edge
from a new seed back to its parent, free as mutation is an involution.
The cover pass walks the labellings as integers: mutating a labelled node
in direction k is mutating its seed in the permuted direction, then
relabelling, so it only composes permutations, numbered on first sight.
The F pass follows. A signed symmetry sigma, b_sigma(i)sigma(j) = eps.b_ij
and d_sigma(i) = d_i, takes eps.B at history sigma^-1(h) to B at h, and F of
-B is y^M.F(y^-1), M the top exponents of F of B (Fomin-Zelevinsky IV, Prop.
5.3): a new seed that sigma maps a built seed onto reads F'_k off that one.
"""

from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter, mul, neg, sub

from .errors import DualityViolation, ExhaustionCapExceeded, SignCoherenceViolation
from .intmat import Frozen, IntMatrix, _exact_int, identity_rows
from .laurent import LaurentPolynomial, _Packing
from .seed import ExchangeMatrix, mutate

DEFAULT_DEPTH = 12
NODE_CAP = 10**6


class PatternNode(Frozen):
    """A seed, which holds its matrices in its own labelling.

    Fields: ``B_t`` (ExchangeMatrix), ``c_vectors`` (the columns of the
    c-matrix, initial -B^T pattern, as a tuple of tuples), ``G_t``
    (g-matrix, initial B pattern, (C_t^T)^-1), ``F_t`` (tuple of
    LaurentPolynomials, or None when polynomial tracking was disabled) and
    ``history`` (1-based directions from the root along which the seed was
    first reached). The property ``C_t`` is the c-matrix, built from the
    c-vectors when read; the c-matrix of the B pattern is D^-1.C_t.D. A
    catalog's labelled nodes are RelabelledNodes over it.
    """

    __slots__ = ("B_t", "c_vectors", "G_t", "F_t", "history")

    @property
    def C_t(self):
        return IntMatrix._trusted(tuple(zip(*self.c_vectors)))

    def __repr__(self):
        return f"PatternNode(history={self.history})"


class RelabelledNode(Frozen):
    """A labelled node: a seed read through a permutation of its directions.

    Slots: ``seed`` (a PatternNode), ``perm`` (direction j, 0-based, of
    this node is direction perm[j] of the seed; the identity for the
    seed's own labelling) and ``history``. The PatternNode fields
    ``B_t``, ``c_vectors``, ``C_t``, ``G_t`` and ``F_t`` are the seed's,
    permuted when read: relabelling permutes the rows and columns of B_t,
    the columns of C_t and G_t, since (C.P)^-T = C^-T.P for a permutation
    matrix P, and the entries of F_t, and keeps d.
    """

    __slots__ = ("seed", "perm", "history")

    C_t = PatternNode.C_t

    @property
    def B_t(self):
        em, perm = self.seed.B_t, self.perm
        rows = em.B.entries
        return ExchangeMatrix(
            IntMatrix._trusted(tuple(tuple(map(rows[i].__getitem__, perm)) for i in perm)), em.d
        )

    @property
    def c_vectors(self):
        return tuple(map(self.seed.c_vectors.__getitem__, self.perm))

    @property
    def G_t(self):
        perm = self.perm
        return IntMatrix._trusted(tuple(tuple(map(row.__getitem__, perm)) for row in self.seed.G_t.entries))

    @property
    def F_t(self):
        polys = self.seed.F_t
        return None if polys is None else tuple(map(polys.__getitem__, self.perm))

    def __repr__(self):
        return f"RelabelledNode(history={self.history})"


class LabelledNodes(Frozen):
    """The labelled nodes of a catalog, in BFS order, as flat data.

    Node i is seed ``seed_of[i]`` of ``seeds`` read through permutation
    ``perms[perm_of[i]]``, reached along ``histories[i]``. A read-only
    sequence: length, int and negative indices, slices (a tuple) and
    iteration build each RelabelledNode when it is read, so two reads of
    one node give two objects with the same seed, perm and history.
    """

    __slots__ = ("seeds", "perms", "seed_of", "perm_of", "histories")

    def __len__(self):
        return len(self.histories)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        return RelabelledNode(self.seeds[self.seed_of[i]], self.perms[self.perm_of[i]], self.histories[i])


@lru_cache(maxsize=None)
def _identity(n):
    return tuple(range(n))


class PatternCatalog(Frozen):
    """All visited nodes of one bounded traversal, in BFS order.

    ``nodes`` holds the labelled nodes, a LabelledNodes of RelabelledNodes,
    the root's identity labelling first. ``seeds`` holds the seeds, the
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
    """The root: C = G = identity, every F = 1, empty history."""
    n = em.n
    polys = tuple(LaurentPolynomial.one(n) for _ in range(n)) if with_polynomials else None
    return PatternNode(em, identity_rows(n), IntMatrix.identity(n), polys, ())


def _mutate_c(node, kk):
    """The c-vectors of the node mutated in direction kk (0-based), unchecked, and t.

    t_j = [-eps.b_jk]_+ for the entries b_jk of B_t and eps the sign of
    c_kk: c_kk flips and every c_j with t_j > 0 picks up t_j.c_kk.
    """
    cols = node.c_vectors
    pivot = cols[kk]
    eps = 1 if max(pivot) > 0 else -1
    t = tuple([max(-eps * row[kk], 0) for row in node.B_t.B.entries])
    new = list(cols)
    new[kk] = tuple(map(neg, pivot))
    for j, tj in enumerate(t):
        if tj:
            new[j] = tuple([x + tj * y for x, y in zip(cols[j], pivot)])
    return tuple(new), t


def mutate_node(node, k):
    """Mutate every field of a node in direction k (1-based).

    Raises SignCoherenceViolation when a mutated c-matrix column has mixed
    signs, or DualityViolation when a mutated F loses its constant term 1;
    both indicate an implementation bug, not bad input.
    """
    return _child(node, k, mutate(node.B_t, k), *_mutate_c(node, k - 1))


def _walk(em, history, with_polynomials=True):
    """The node at ``history`` (1-based directions), mutated edge by edge from the root."""
    node = initial_node(em, with_polynomials=with_polynomials)
    for k in history:
        node = mutate_node(node, k)
    return node


def _child(node, k, new_em, cols, t):
    """The child in direction k, from its mutated B_t and the c-vectors and t of ``_mutate_c``.

    Checks that every changed column, c_j with t_j > 0, is sign coherent
    (c_k only flips); carries G_t by g_k -> -g_k + sum_j t_j.g_j; exchanges
    for F'_k in a new context when F is tracked. It is a seed's first node.
    """
    for j, tj in enumerate(t):
        if tj:
            _column_sign(cols[j], j)
    kk = k - 1
    g = tuple(row[:kk] + (sum(map(mul, t, row)) - row[kk],) + row[k:] for row in node.G_t.entries)
    f = node.F_t  # None without F
    f = f and f[:kk] + (_mutate_f(_Packing(f), node, kk),) + f[k:]
    return PatternNode(new_em, cols, IntMatrix._trusted(g), f, node.history + (k,))


def _column_sign(col, kk):
    if not any(col) or max(col) > 0 > min(col):
        raise SignCoherenceViolation(f"c-matrix column {kk + 1} has mixed signs")


def _mutate_f(packing, node, kk):
    """F'_k, for the polynomials F_t of ``packing`` at ``node`` mutated in direction k = kk + 1.

    The exchange relation (Fomin-Zelevinsky IV) reads
    F_k.F'_k = y^[c]+ prod F_i^[b_ik]+ + y^[-c]+ prod F_i^[-b_ik]+, c being
    column k of the B-pattern c-matrix; a factor F_i = 1 is left out.
    The seed's context packs each F_i and each power once per radix for
    all its relations; the exchange divides the sum by F_k and unpacks
    only F'_k, which must keep constant term 1.
    """
    polys, b, d = packing.polys, node.B_t.B.entries, node.B_t.d
    # column k of the B-pattern c-matrix D^-1.C_t.D; the division is exact
    column = tuple(c * d[kk] // di for c, di in zip(node.c_vectors[kk], d))
    sides = [
        (
            tuple(max(sign * c, 0) for c in column),
            [(i, sign * row[kk]) for i, row in enumerate(b) if sign * row[kk] > 0 and not polys[i].is_one()],
        )
        for sign in (1, -1)
    ]
    exchanged = packing.exchange(sides, kk)
    if exchanged.constant_term() != 1:
        raise DualityViolation("mutated coefficient polynomial lost its constant term 1")
    return exchanged


def _seed_graph(em, max_depth, node_cap):
    """The seed pass: seeds up to max_depth in BFS order, and their edges.

    seeds[s] is seed s, a PatternNode in its own labelling;
    edges[s][j] = (t, tau) says seed s mutated in direction j (0-based) is
    seed t relabelled by tau, for every seed above the depth bound. It
    tracks no F and searches no symmetry: `_f_pass` fills F in afterwards.
    Without a depth bound, a B_t with b_ij.b_ji <= -4 ends the walk: it
    makes the exchange graph infinite (Fomin-Zelevinsky II, Thm 1.8).
    """
    n, ident = em.n, _identity(em.n)

    def key(cols):  # the set of c-vectors, as a sorted flat tuple
        return tuple(chain.from_iterable(sorted(cols)))

    seeds = [initial_node(em, with_polynomials=False)]
    parents = [None]
    edges = []
    number = {key(seeds[0].c_vectors): 0}
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
            cols, t_vector = _mutate_c(node, j)
            t = number.setdefault(key(cols), len(seeds))
            if t < len(seeds):  # a known seed: column i is its column tau[i]
                out.append((t, tuple(map(seeds[t].c_vectors.index, cols))))
                continue
            seeds.append(_child(node, j + 1, mutate(node.B_t, j + 1), cols, t_vector))
            parents.append(s)
            out.append((t, ident))
            if len(seeds) > node_cap:
                raise ExhaustionCapExceeded(_cap_message(node_cap))
        edges.append(tuple(out))
    return seeds, edges


def _f_pass(em, seeds, edges):
    """The seeds of `_seed_graph` with F_t: new seed s at history h, child of p
    in direction k, reads F'_k = F_u[pi(sigma^-1(k))], e -> M - e if eps = -1,
    y_i renamed y_sigma(i), when the walk of sigma^-1(h) ends at (u, pi) with
    u < s. Otherwise, or when its relation holds only F = 1, p's context exchanges.
    """
    n, ident = em.n, _identity(em.n)
    polys, signed = [initial_node(em).F_t], None
    for p, out in enumerate(edges):
        node, f, packing = seeds[p], polys[p], None
        for j, (s, _) in enumerate(out):
            if s < len(polys):  # not a new seed
                continue
            f_k = None
            if not all(f[i].is_one() for i in range(n) if i == j or node.B_t.B.entries[i][j]):
                if signed is None:  # searched at the first relation with an F other than 1
                    signed = [(list(map(g.index, ident)), e) for e in (1, -1) for g in _automorphisms(em, sign=e)]
                for inverse, eps in signed:
                    u, pi = 0, ident
                    for k in seeds[s].history:
                        u, tau = edges[u][pi[inverse[k - 1]]]
                        pi = tuple(map(tau.__getitem__, pi))
                    if u < s:  # n >= 2 here, so rename gives tuples: at n = 1 every relation holds only F = 1
                        rename, terms = itemgetter(*inverse), polys[u][pi[inverse[j]]]._terms
                        top = eps < 0 and rename(tuple(map(max, zip(*terms))))
                        f_k = {tuple(map(sub, top, rename(e))) if top else rename(e): c for e, c in terms.items()}
                        if (f_k := LaurentPolynomial._trusted(n, f_k)).constant_term() != 1:
                            raise DualityViolation("relabelled coefficient polynomial lost its constant term 1")
                        break
            if f_k is None:
                packing = packing or _Packing(f)
                f_k = _mutate_f(packing, node, j)
            polys.append(f[:j] + (f_k,) + f[j + 1:])
    return [PatternNode(x.B_t, x.c_vectors, x.G_t, f, x.history) for x, f in zip(seeds, polys)]


def _automorphisms(em, budget=None, sign=1):
    """Permutations sigma, sigma[v] = sigma(v), with b_sigma(i)sigma(j) = sign.b_ij and d_sigma(i) = d_i.

    Sign 1: generators of Aut(B, d) and their inverses: for each point i, from
    the last in DFS order over b != 0, and each later j outside its orbit so
    far, a backtrack seeks sigma fixing the points before i with sigma(i) = j
    (Schreier-Sims). Sign -1: one backtrack's tau (all others are tau.Aut) and
    its inverse. A backtrack puts a point on a neighbour of its parent's image
    where d, sorted rows and b on placed pairs agree; the search stops after
    ``budget`` tries (4n^2): any subset is safe, a missed lookup exchanges.
    """
    b, d, n = em.B.entries, em.d, em.n
    kind = [(d[v], sorted(b[v])) for v in range(n)]  # kept by every automorphism
    sb = [[sign * x for x in row] for row in b]  # sign.B
    want = [(d[v], sorted(sb[v])) for v in range(n)]  # the kind of sigma(v)
    parent, stack = {}, [(r, None) for r in reversed(range(n))]
    while stack:  # DFS: each point but a component's first follows its parent
        v, p = stack.pop()
        if v not in parent:
            parent[v] = p
            stack += [(u, v) for u in range(n) if b[v][u]]
    order, found, budget = list(parent), [], 4 * n * n if budget is None else budget
    for i in reversed(range(n)) if sign == 1 else [0]:
        reached = {order[i]}  # its orbit under those found so far, which fix order[:i]
        for images in ([j] for j in order[i + 1:] if j not in reached and budget > 0) if sign == 1 else [range(n)]:
            sigma, tries = dict(zip(order[:i], order[:i])), [iter(images)]  # sigma: the images of order[:len(sigma)]
            while tries and len(sigma) < n and budget > 0:
                v = order[len(sigma)]
                if len(tries) == len(sigma) - i:  # v's candidates: v first if it has no parent
                    tries += [chain([v], range(n)) if parent[v] is None else compress(range(n), b[sigma[parent[v]]])]
                w, budget = next(tries[-1], None), budget - 1
                if w is None:  # back to the point before v, if any
                    tries.pop()
                    sigma.pop(order[len(sigma) - 1], None)
                elif kind[w] == want[v] and w not in sigma.values() and all(sb[v][u] == b[w][sigma[u]] for u in sigma):
                    sigma[v] = w
            if len(sigma) == n:
                found.append(tuple(map(sigma.__getitem__, range(n))))
                while new := {g[x] for x in reached for g in found} - reached:
                    reached |= new
    return tuple(dict.fromkeys(found + [tuple(sorted(range(n), key=g.__getitem__)) for g in found]))


def _cap_message(node_cap):
    return f"more than {node_cap} labelled nodes before the frontier emptied"


def enumerate_pattern(
    em,
    max_depth=DEFAULT_DEPTH,
    with_polynomials=True,
    node_cap=NODE_CAP,
):
    """BFS over the labelled mutation tree, deduplicating nodes on C_t.

    After the seed pass, the labelled node (s, pi) mutated in direction k is
    the edge (s, pi(k)) = (t, tau) followed by the state (t, tau.pi), which
    stands for the labelled c-matrix. A relabelled node passes the checks
    exactly when its seed does. With polynomials, the F pass gives each new
    seed its F'_k off a built seed that a signed symmetry of (B, d) maps onto
    it where it can (Prop. 5.3 of Fomin-Zelevinsky IV for the sign -1), else
    by an exchange. Immediate back-mutation is skipped; ties among
    directions break by ascending index, so the order is deterministic.

    ``max_depth`` of None removes the depth bound; a visited B_t with
    b_ij.b_ji <= -4 then raises ExhaustionCapExceeded with reason
    "infinite_type". Every walk has a cap: ``node_cap``, a positive int
    (default NODE_CAP = 10**6), raises it as soon as the catalog reaches
    node_cap + 1 nodes, root included.

    Returns a PatternCatalog whose ``nodes`` (a LabelledNodes) read as
    RelabelledNodes over its ``seeds``, and whose ``complete`` flag is set
    only when a frontier emptied before the depth bound, meaning every
    seed was seen.
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
    seeds, edges = _seed_graph(em, max_depth, node_cap)
    seeds = _f_pass(em, seeds, edges) if with_polynomials else seeds
    n = em.n
    taus = {_identity(n): 0}  # the edge relabellings, numbered; 0 is the identity
    edges = [tuple((t, taus.setdefault(tau, len(taus))) for t, tau in out) for out in edges]
    taus, width = list(taus), len(taus)
    perms = [_identity(n)]  # the node relabellings, numbered on first sight
    perm_number = {perms[0]: 0}
    composed = {}  # perm id * width + tau id -> perm id of tau.perm
    seen = [{0}] + [set() for _ in seeds[1:]]  # by seed number, the perm ids of its nodes
    seed_of, perm_of, histories = [0], [0], [()]
    start = depth = 0
    while start < len(histories) and (max_depth is None or depth < max_depth):
        depth += 1
        end = len(histories)
        for i in range(start, end):
            p, history = perm_of[i], histories[i]
            perm, out = perms[p], edges[seed_of[i]]
            last = history[-1] if history else 0
            for k in range(1, n + 1):
                if k == last:
                    continue
                t, tau = out[perm[k - 1]]
                q = p
                if tau:
                    c = p * width + tau
                    q = composed.get(c)
                    if q is None:
                        labelled = tuple(map(taus[tau].__getitem__, perm))
                        q = composed[c] = perm_number.setdefault(labelled, len(perms))
                        if q == len(perms):
                            perms.append(labelled)
                if q in seen[t]:
                    continue
                seen[t].add(q)
                seed_of.append(t)
                perm_of.append(q)
                histories.append(history + (k,))
                if len(histories) > node_cap:
                    raise ExhaustionCapExceeded(_cap_message(node_cap))
        start = end
    del seen, composed  # before the tuples below, for a lower peak
    nodes = LabelledNodes(tuple(seeds), tuple(perms), tuple(seed_of), tuple(perm_of), tuple(histories))
    return PatternCatalog(em, nodes, depth, start == len(histories), nodes.seeds)


def positive_c_vectors(catalog):
    """All distinct c-matrix columns with every entry nonnegative.

    Returned sorted. Meaningful as the full positive-root list only when the
    catalog is complete; on a truncated catalog it is just the visited part.
    Relabelling a seed permutes the columns of C_t, so ``catalog.seeds``
    carry every column that the labelled nodes do.
    """
    found = {col for node in catalog.seeds for col in node.c_vectors if min(col) >= 0}
    return tuple(sorted(found))
