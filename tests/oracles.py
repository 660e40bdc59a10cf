"""Independent reference implementations used to cross-check the package.

Each oracle recomputes its answer from first principles with a different
toolchain (sympy, Fraction arithmetic, brute-force enumeration) so that a
bug shared with the package under test cannot hide. Nothing in this module
imports xfan.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd

import sympy


def fraction_rank(rows):
    """Rank of an integer matrix by plain Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    ncols = len(m[0])
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def mutate_rectangular(bt, k):
    """Matrix mutation of a (rows x n) matrix in column k (0-based, k < n)."""
    nrows = len(bt)
    ncols = len(bt[0])
    new = [[0] * ncols for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            if i == k or j == k:
                new[i][j] = -bt[i][j]
            else:
                s = (bt[i][k] > 0) - (bt[i][k] < 0)
                new[i][j] = bt[i][j] + s * max(bt[i][k] * bt[k][j], 0)
    return new


def principal_seed_walk(b_rows, history):
    """Mutate a seed with principal coefficients along a 1-based history.

    The cluster variables are tracked symbolically in sympy. Returns a pair
    (fpolys, cmat): ``fpolys[i]`` maps exponent tuples to integer
    coefficients for the i-th polynomial obtained by setting every cluster
    variable to 1, and ``cmat`` is the bottom block of the final rectangular
    matrix (rows indexed by coefficient directions, columns by cluster
    directions).
    """
    n = len(b_rows)
    ys = sympy.symbols([f"y{i + 1}" for i in range(n)], positive=True)
    xs = sympy.symbols([f"x{i + 1}" for i in range(n)], positive=True)
    bt = [list(row) for row in b_rows]
    bt += [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    x = list(xs)
    for step in history:
        k = step - 1
        pos = sympy.Integer(1)
        neg = sympy.Integer(1)
        for i in range(n):
            e = bt[i][k]
            if e > 0:
                pos *= x[i] ** e
            elif e < 0:
                neg *= x[i] ** (-e)
        for j in range(n):
            e = bt[n + j][k]
            if e > 0:
                pos *= ys[j] ** e
            elif e < 0:
                neg *= ys[j] ** (-e)
        x[k] = sympy.cancel((pos + neg) / x[k])
        bt = mutate_rectangular(bt, k)
    at_one = {xi: 1 for xi in xs}
    fpolys = []
    for xi in x:
        expr = sympy.expand(sympy.together(xi).subs(at_one))
        poly = sympy.Poly(expr, *ys)
        fpolys.append({tuple(int(e) for e in mono): int(c) for mono, c in poly.terms()})
    cmat = [row[:] for row in bt[n:]]
    return fpolys, cmat


def g_matrices(b_rows, histories):
    """G_t of the pattern for B at each 1-based history, by the g-vector recurrence.

    The extended matrix [B_t; C_t] of the B pattern (principal
    coefficients) mutates by ``mutate_rectangular``. Mutation in direction
    k replaces column k of G by -g_k + sum_j [-eps.b_jk]_+ g_j, with eps
    the sign of column k of that C_t and b_jk the entries of B_t before
    the step (Nakanishi-Zelevinsky); the other columns stay. Every prefix
    of a history is walked once. Returns {history: G as a list of rows}.
    """
    n = len(b_rows)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    states = {(): ([list(row) for row in b_rows] + ident, ident)}

    def state(history):
        if history not in states:
            ext, g = state(history[:-1])
            k = history[-1] - 1
            eps = 1 if max(ext[n + i][k] for i in range(n)) > 0 else -1
            weights = [max(0, -eps * ext[j][k]) for j in range(n)]
            new_g = [row[:] for row in g]
            for row, new in zip(g, new_g):
                new[k] = -row[k] + sum(x * w for x, w in zip(row, weights))
            states[history] = (mutate_rectangular(ext, k), new_g)
        return states[history]

    return {tuple(h): state(tuple(h))[1] for h in histories}


def _polygon_edge(u, v, sides):
    return abs(u - v) in (1, sides - 1)


def polygon_triangulations(sides):
    """All triangulations of a convex polygon, as frozensets of diagonals.

    Vertices are 0..sides-1 in cyclic order; a diagonal is an ordered pair
    (min, max). The recursion picks the unique triangle on edge (v0, v1).
    """

    def solve(vertices):
        if len(vertices) <= 3:
            return {frozenset()}
        a, b = vertices[0], vertices[1]
        out = set()
        for idx in range(2, len(vertices)):
            c = vertices[idx]
            new = set()
            if not _polygon_edge(a, c, sides):
                new.add((min(a, c), max(a, c)))
            if not _polygon_edge(b, c, sides):
                new.add((min(b, c), max(b, c)))
            for left in solve(vertices[1:idx + 1]):
                for right in solve([vertices[0]] + vertices[idx:]):
                    out.add(frozenset(new) | left | right)
        return out

    return solve(list(range(sides)))


def positive_roots(adjacency):
    """Positive roots of a simply laced diagram, by closing under reflections.

    ``adjacency`` maps each vertex to the list of its neighbours. Only
    terminates for finite-type diagrams, which is all the tests use.
    """
    n = len(adjacency)
    simples = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    seen = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = list(v)
                w[i] = -v[i] + sum(v[j] for j in adjacency[i])
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(v for v in seen if any(v) and all(x >= 0 for x in v))


def dynkin_graph(n, arrows):
    """True when every component of the underlying graph is simply laced Dynkin.

    Graph walking: no multiple arrows, every component a tree, and each
    tree either a path (A) or a star with one trivalent vertex whose legs
    have lengths (1, 1, k) (D) or (1, 2, 2..4) (E6, E7, E8).
    """
    adj = [set() for _ in range(n)]
    for s, t, m in arrows:
        if m != 1:
            return False
        adj[s].add(t)
        adj[t].add(s)
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        component = []
        stack = [start]
        seen[start] = True
        while stack:
            u = stack.pop()
            component.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        edges = sum(len(adj[u]) for u in component) // 2
        if edges != len(component) - 1:
            return False
        if max(len(adj[u]) for u in component) <= 2:
            continue
        branch = [u for u in component if len(adj[u]) >= 3]
        if len(branch) != 1 or len(adj[branch[0]]) != 3:
            return False
        a, b, c = sorted(_leg_length(adj, branch[0], first) for first in adj[branch[0]])
        if a == 1 and b == 1:
            continue
        if a == 1 and b == 2 and c in (2, 3, 4):
            continue
        return False
    return True


def _leg_length(adj, center, first):
    length = 1
    prev, cur = center, first
    while True:
        nxt = [v for v in adj[cur] if v != prev]
        if not nxt:
            return length
        prev, cur = cur, nxt[0]
        length += 1


def sampled_cone_dimension(rows, bound=5):
    """Dimension of {v : rows . v >= 0} measured from points in a box.

    Collects the integer points of the cone inside [-bound, bound]^n and
    returns the rank of that point set. Can only ever undershoot the true
    dimension, and does not on the small systems the tests feed it.
    """
    n = len(rows[0]) if rows else 0
    pts = []
    for p in product(range(-bound, bound + 1), repeat=n):
        if all(sum(a * x for a, x in zip(row, p)) >= 0 for row in rows):
            pts.append(p)
    return fraction_rank(pts)


def random_skew_symmetrizable(rng, n, max_entry=3):
    """A random skew-symmetrizable matrix with bounded entries, plus its d."""
    d = [rng.choice((1, 2, 3)) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.45:
                continue
            g = gcd(d[i], d[j])
            up, down = d[j] // g, d[i] // g
            if max(up, down) > max_entry:
                continue
            m = rng.randint(1, max_entry // max(up, down))
            sign = rng.choice((1, -1))
            rows[i][j] = sign * m * up
            rows[j][i] = -sign * m * down
    return rows, d


def random_acyclic_arrows(rng, n, max_mult=2, density=0.5):
    """Random acyclic arrow set on n vertices (0-based triples)."""
    order = list(range(n))
    rng.shuffle(order)
    arrows = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                arrows.append((order[a], order[b], rng.randint(1, max_mult)))
    return arrows


def arrows_to_b(n, arrows):
    """Skew-symmetric matrix of an arrow set: an arrow i -> j adds to b_ij."""
    rows = [[0] * n for _ in range(n)]
    for s, t, m in arrows:
        rows[s][t] += m
        rows[t][s] -= m
    return rows


def seed_automorphisms(b_rows, d, sign=1):
    """Every permutation sigma with b_sigma(i)sigma(j) = sign.b_ij and d_sigma(i) = d_i, by trying all n!.

    sign 1 gives the automorphisms of (B, d), sign -1 its anti-automorphisms.
    """
    n = len(b_rows)
    return {
        sigma
        for sigma in permutations(range(n))
        if all(d[sigma[i]] == d[i] for i in range(n))
        and all(b_rows[sigma[i]][sigma[j]] == sign * b_rows[i][j] for i in range(n) for j in range(n))
    }


def seed_orbit_count(pairs):
    """Number of seeds up to relabelling among raw (B_t, C_t) matrix pairs.

    Two pairs describe the same unlabelled seed when a permutation P of the
    directions turns one into the other: B -> P^T.B.P together with
    C -> C.P (columns follow directions, rows stay in the root basis).
    Counts the orbits that meet the given set, by trying all n! permutations.
    """
    pairs = [(tuple(map(tuple, b)), tuple(map(tuple, c))) for b, c in pairs]
    present = set(pairs)
    seen = set()
    count = 0
    for b, c in pairs:
        if (b, c) in seen:
            continue
        count += 1
        n = len(b)
        for p in permutations(range(n)):
            bp = tuple(tuple(b[p[i]][p[j]] for j in range(n)) for i in range(n))
            cp = tuple(tuple(c[i][p[j]] for j in range(n)) for i in range(n))
            if (bp, cp) in present:
                seen.add((bp, cp))
    return count


def path_counts(n, arrows):
    """Entry (i, j) = number of paths from i to j, arrows counted with multiplicity.

    Recursion over first arrows; only terminates on acyclic arrow sets.
    """
    out = {}
    for s, t, m in arrows:
        out.setdefault(s, []).append((t, m))

    def count(i, j):
        return int(i == j) + sum(m * count(t, j) for t, m in out.get(i, ()))

    return [[count(i, j) for j in range(n)] for i in range(n)]


def sympy_inverse(rows):
    """Inverse of an integer matrix by sympy, as rows of Fractions."""
    inv = sympy.Matrix(rows).inv()
    return [
        [Fraction(int(x.p), int(x.q)) for x in inv.row(i)] for i in range(inv.rows)
    ]


def cartan_route(cartan):
    """The g-vector and inverse AR translate maps of the Cartan matrix C.

    Both act on dimension vectors (tuples of ints): g = C^-1.dim, with C^-1
    the sympy inverse, and tau^-1 acts by the inverse Coxeter matrix
    -C.C^-T. Returns the pair (g, tau_inverse) of functions.
    """
    inv = sympy_inverse(cartan)

    def apply(matrix, vec):
        out = tuple(sum(x * v for x, v in zip(row, vec)) for row in matrix)
        assert all(Fraction(x).denominator == 1 for x in out)
        return tuple(int(x) for x in out)

    def tau_inverse(dim):
        return tuple(-x for x in apply(cartan, apply(list(zip(*inv)), dim)))

    return (lambda dim: apply(inv, dim)), tau_inverse


def verify_dv_gv(b_rows, cartan, dim):
    """Exchange-matrix image of dim against the two-term g-vector sum.

    Returns (lhs, rhs, equal): lhs = B.dim and rhs = -(g(X) + g(tau^-1 X))
    for dim X = ``dim``, the right side by ``cartan_route``.
    """
    g, tau_inverse = cartan_route(cartan)
    lhs = tuple(sum(b * x for b, x in zip(row, dim)) for row in b_rows)
    rhs = tuple(-a - b for a, b in zip(g(dim), g(tau_inverse(dim))))
    return lhs, rhs, lhs == rhs


def laurent_mul(a, b):
    """Product of two Laurent polynomials given as {exponent tuple: int} dicts.

    Plain double loop over term pairs; zero coefficients are dropped as
    they appear.
    """
    terms = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = terms.pop(key, 0) + c1 * c2
            if s:
                terms[key] = s
    return terms


def laurent_pow(a, exponent, nvars):
    """a ** exponent by repeated multiplication, starting from one."""
    out = {(0,) * nvars: 1}
    for _ in range(exponent):
        out = laurent_mul(out, a)
    return out


def laurent_divide_exact(numerator, denominator):
    """Exact quotient of term dicts, or ArithmeticError.

    Term-order division against the lex-largest denominator term, taking
    the lex-largest remainder term by a full scan at every step. Raises
    ArithmeticError on a nonintegral coefficient quotient or after more
    steps than its budget of 4(|N|+1)(|D|+1)+1000. The budget, not a
    Newton box, stops it, so it stays a route independent of
    ``laurent._divide``; its callers keep their quotients within it.
    """
    if not numerator:
        return {}
    lead = max(denominator)
    lead_coeff = denominator[lead]
    remainder = dict(numerator)
    quotient = {}
    max_steps = 4 * (len(remainder) + 1) * (len(denominator) + 1) + 1000
    steps = 0
    while remainder:
        steps += 1
        if steps > max_steps:
            raise ArithmeticError("polynomials do not divide exactly")
        top = max(remainder)
        q_coeff, rem = divmod(remainder[top], lead_coeff)
        if rem:
            raise ArithmeticError("polynomials do not divide exactly")
        q_exps = tuple(a - b for a, b in zip(top, lead))
        quotient[q_exps] = q_coeff
        for e, c in denominator.items():
            key = tuple(a + b for a, b in zip(q_exps, e))
            s = remainder.pop(key, 0) - q_coeff * c
            if s:
                remainder[key] = s
    return quotient


def f_polynomial_step(fpolys, b_rows, c_column, k):
    """F-polynomials after mutation in direction k (0-based), as term dicts.

    Fomin-Zelevinsky recurrence with principal coefficients:
    F_k' = (y^[c_k]+ prod F_i^[b_ik]+ + y^[-c_k]+ prod F_i^[-b_ik]+) / F_k,
    where c_k is column k of the c-matrix of the initial-B pattern and
    b_ik are entries of the current exchange matrix. Other F_i stay.
    """
    n = len(b_rows)
    pos = {tuple(max(c, 0) for c in c_column): 1}
    neg = {tuple(max(-c, 0) for c in c_column): 1}
    for i in range(n):
        e = b_rows[i][k]
        if e > 0:
            pos = laurent_mul(pos, laurent_pow(fpolys[i], e, n))
        elif e < 0:
            neg = laurent_mul(neg, laurent_pow(fpolys[i], -e, n))
    total = dict(pos)
    for key, c in neg.items():
        s = total.pop(key, 0) + c
        if s:
            total[key] = s
    out = list(fpolys)
    out[k] = laurent_divide_exact(total, fpolys[k])
    return out


def tropical_mutation(b_rows, k, beta):
    """T_k(beta) for the exchange matrix B, k 0-based.

    Every beta_j with j != k stays, and
    beta'_k = -beta_k + min(sum_j [b_kj]_+ beta_j, sum_j [-b_kj]_+ beta_j),
    the tropical mutation that carries the cones of B to those of mu_k(B)
    (GHKK, arXiv:1411.1394).
    """
    row = b_rows[k]
    up = sum(max(b, 0) * x for b, x in zip(row, beta))
    down = sum(max(-b, 0) * x for b, x in zip(row, beta))
    out = list(beta)
    out[k] = -beta[k] + min(up, down)
    return tuple(out)


def locate_labelled(beta, catalog):
    """First BFS node whose cone contains beta, testing every labelled node.

    Returns (node, alpha) with alpha = C_t^T.B.beta, or None. This is the
    scan over all n! labellings of each seed that the library replaced by a
    scan over the first node of each seed.
    """
    b = catalog.root.B.entries
    n = len(b)
    image = [sum(b[i][j] * beta[j] for j in range(n)) for i in range(n)]
    for node in catalog.nodes:
        c = node.C_t.entries
        alpha = tuple(sum(c[i][j] * image[i] for i in range(n)) for j in range(n))
        if all(a >= 0 for a in alpha):
            return node, alpha
    return None


def conic_membership(v, generators):
    """Nonnegative Fraction multipliers expressing v in the conic hull, or None.

    The Caratheodory scan the library answered its cone questions with
    before it read them off extreme rays: every subset of at most len(v)
    generators, in ascending size and lexicographic order, solved by
    Gauss-Jordan elimination over Fraction; the first nonnegative unique
    solution wins.
    """
    v = tuple(v)
    gens = [tuple(g) for g in generators]
    if not any(v):
        return tuple(Fraction(0) for _ in gens)
    for size in range(1, min(len(gens), len(v)) + 1):
        for subset in combinations(range(len(gens)), size):
            sol = _solve_exact([gens[i] for i in subset], v)
            if sol is not None and all(x >= 0 for x in sol):
                lam = [Fraction(0)] * len(gens)
                for i, x in zip(subset, sol):
                    lam[i] = x
                return tuple(lam)
    return None


def _solve_exact(columns, target):
    """Unique solution of sum_i x_i columns[i] = target, or None."""
    m = len(target)
    k = len(columns)
    aug = [[Fraction(columns[j][r]) for j in range(k)] + [Fraction(target[r])] for r in range(m)]
    row = 0
    pivots = []
    for col in range(k):
        piv = next((r for r in range(row, m) if aug[r][col] != 0), None)
        if piv is None:
            return None  # dependent columns
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(row)
        row += 1
    if any(aug[r][k] != 0 for r in range(row, m)):
        return None  # inconsistent
    return [aug[pivots[j]][k] for j in range(k)]


def clear_multipliers(fractions):
    """Scale rationals to coprime integers, keeping their signs.

    Any positive rescaling keeps a homogeneous relation true: multiply by
    the lcm of the denominators, then divide out the common gcd.
    """
    mult = 1
    for f in fractions:
        den = Fraction(f).denominator
        mult = mult * den // gcd(mult, den)
    ints = [int(f * mult) for f in fractions]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def rref(rows):
    """Nonzero rows of the reduced row echelon form over Fraction.

    A canonical basis of the rational row span: two generating sets of the
    same subspace give the same tuple.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    out = []
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in m if r[col]), None)
        if pivot is None:
            continue
        m.remove(pivot)
        pivot = [x / pivot[col] for x in pivot]
        m = [[a - r[col] * b for a, b in zip(r, pivot)] for r in m]
        out = [[a - r[col] * b for a, b in zip(r, pivot)] for r in out]
        out.append(pivot)
    return tuple(tuple(r) for r in out)


def kernel_rref(rows):
    """``rref`` of the rational kernel {x : rows.x = 0}, by sympy."""
    return rref([list(v) for v in sympy.Matrix(rows).nullspace()]) if rows else ()


def scan_classify(rows):
    """Cone classification of {x : rows.x >= 0} by Caratheodory scans.

    Returns (implicit, strict, facets, dim) with 0-based row indices and
    facets as (representative, supporting rows) pairs. Row k is implicit
    iff -a_k lies in the conic hull of all rows. Strict rows are grouped by
    their functional on the cone's span, that is the row reduced modulo the
    span of the implicit rows and scaled by the size of its first nonzero
    entry. A group is a facet unless its representative lies in the cone of
    the other strict rows plus the span of the implicit rows.
    """
    rows = [tuple(r) for r in rows]
    implicit, strict = [], []
    for k, row in enumerate(rows):
        if conic_membership(tuple(-x for x in row), rows) is None:
            strict.append(k)
        else:
            implicit.append(k)
    span_rows = [rows[i] for i in implicit]
    span = rref(span_rows)
    groups = {}
    for j in strict:
        v = [Fraction(x) for x in rows[j]]
        for basis_row in span:
            pivot = next(i for i, x in enumerate(basis_row) if x)
            v = [a - v[pivot] * b for a, b in zip(v, basis_row)]
        scale = abs(next(x for x in v if x))
        groups.setdefault(tuple(x / scale for x in v), []).append(j)
    facets = []
    for members in groups.values():
        others = [rows[j] for j in strict if j not in members]
        others += span_rows + [tuple(-x for x in r) for r in span_rows]
        if others and conic_membership(rows[members[0]], others) is not None:
            continue
        facets.append((members[0], tuple(members)))
    dim = len(rows[0]) - fraction_rank(span_rows)
    return tuple(implicit), tuple(strict), facets, dim


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def span_canonical_key(rows, implicit, facets, lineality):
    """The cone key the library used before it kept extreme rays.

    The cone {rows.x >= 0} is its linear span cut by the facet halfspaces.
    The key records the span as ``kernel_rref`` of the implicit rows (a
    canonical basis per subspace), each facet row (given by index)
    restricted to that basis and scaled to coprime integers, and ``rref``
    of the lineality basis.
    """
    n = len(rows[0])
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    span = kernel_rref([rows[i] for i in implicit]) if implicit else rref(identity)
    functionals = {clear_multipliers([_dot(rows[f], b) for b in span]) for f in facets}
    return (n, span, tuple(sorted(functionals)), rref(lineality))


def subset_extreme_rays(rows, implicit, facets, lineality):
    """Primitive extreme rays of the cone's pointed part by a facet subset scan.

    The route the library took before ``classify`` kept its rays. The
    pointed part lies where the span {implicit rows . x = 0} meets the
    orthogonal complement of the lineality space; in that space of
    dimension p each extreme ray is the line cut out by p - 1 facet
    hyperplanes (facets given by row index). Every such subset is solved
    over Fraction and both directions of a one-dimensional solution are
    kept when they satisfy every row.
    """
    n = len(rows[0])
    constraints = [list(rows[i]) for i in implicit] + [list(v) for v in lineality]
    pointed_dim = n - fraction_rank(constraints)
    if not pointed_dim:
        return ()
    rays = set()
    for subset in combinations([rows[f] for f in facets], pointed_dim - 1):
        cut = constraints + [list(r) for r in subset]
        line = kernel_rref(cut) if cut else rref([[1]])
        if len(line) != 1:
            continue
        y = clear_multipliers(line[0])
        for ray in (y, tuple(-x for x in y)):
            if all(_dot(row, ray) >= 0 for row in rows):
                rays.add(ray)
    return tuple(sorted(rays))


def _xgcd(a, b):
    """(g, s, t) with s.a + t.b = g = gcd(a, b) >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (-a, -s0, -t0) if a < 0 else (a, s0, t0)


def hermite_rows(vectors):
    """Row Hermite normal form of the lattice the integer vectors span.

    Extended-gcd row operations: each column's pivot is the gcd of the
    entries at and below it, made positive, and the entries above it are
    reduced into [0, pivot). That form is unique per lattice. Zero rows
    are dropped.
    """
    m = [list(v) for v in vectors if any(v)]
    top = 0
    for c in range(len(m[0]) if m else 0):
        for i in range(top + 1, len(m)):
            a, b = m[top][c], m[i][c]
            if b:
                g, s, t = _xgcd(a, b)
                m[top], m[i] = (
                    [s * x + t * y for x, y in zip(m[top], m[i])],
                    [a // g * y - b // g * x for x, y in zip(m[top], m[i])],
                )
        if top < len(m) and m[top][c]:
            if m[top][c] < 0:
                m[top] = [-x for x in m[top]]
            for i in range(top):
                q = m[i][c] // m[top][c]
                m[i] = [x - q * y for x, y in zip(m[i], m[top])]
            top += 1
    return tuple(tuple(row) for row in m[:top])


def saturated_kernel(rows):
    """Hermite basis of {x in Z^n : rows.x = 0}: the right block of the
    rows of ``hermite_rows`` of [rows^T | I] whose left block vanishes."""
    width, n = len(rows), len(rows[0])
    aug = [list(col) + [int(i == j) for j in range(n)] for i, col in enumerate(zip(*rows))]
    return tuple(row[width:] for row in hermite_rows(aug) if not any(row[:width]))


def _pointed_scan(functionals):
    """Sorted primitive extreme rays of the pointed cone {y : f.y >= 0}:
    both directions of each line cut out by r - 1 of the functionals."""
    rays = set()
    for subset in combinations(functionals, len(functionals[0]) - 1):
        line = saturated_kernel(subset) if subset else ((1,),)
        if len(line) == 1:
            for y in (line[0], tuple(-x for x in line[0])):
                if all(_dot(f, y) >= 0 for f in functionals):
                    rays.add(y)
    return sorted(rays)


def fraction_det(rows):
    """Determinant of a square integer matrix by Gaussian elimination over Fraction; order 0 gives 1."""
    m = [[Fraction(x) for x in row] for row in rows]
    value = Fraction(1)
    for c in range(len(m)):
        pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            value = -value
        value *= m[c][c]
        for i in range(c + 1, len(m)):
            if m[i][c]:  # skipping zeros keeps the sparse tree Grams cheap
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return int(value)


def cofactor_adjugate(rows):
    """adj(M) = det(M).M^-1 of a square integer matrix of order 1 at least, by
    cofactors: entry (i, j) is (-1)^(i + j) times the minor that drops row j
    and column i. The route the library took to its cone frames before one
    Gauss-Jordan solve."""
    rows, n = [list(r) for r in rows], len(rows)
    minor = lambda i, j: fraction_det([r[:j] + r[j + 1 :] for r in rows[:i] + rows[i + 1 :]])
    return [[(-1) ** (i + j) * minor(j, i) for j in range(n)] for i in range(n)]


def cofactor_pull_back(b_rows):
    """The cone frame's pull-back by cofactors: adj(M^T.M).B^T for M = [B; L],
    L the saturated basis of ker B, divided by the gcd of its entries."""
    stacked = [list(r) for r in b_rows] + [list(r) for r in saturated_kernel(b_rows)]
    gram = [[_dot(a, b) for b in zip(*stacked)] for a in zip(*stacked)]
    pull = [[_dot(row, b) for b in b_rows] for row in cofactor_adjugate(gram)]
    scale = gcd(*(x for row in pull for x in row)) or 1
    return tuple(tuple(x // scale for x in row) for row in pull)


def _circuits(m, k):
    """The nonnegative circuits of the k-row matrix of full row rank whose columns are m.

    Returns ({support: lam on the support}, {S: det m_S}), S running over
    the k-subsets of nonzero columns. A zero column is a circuit alone; the
    others are the signed k x k minors (Cramer) of k + 1 nonzero columns,
    kept when nonzero and of one sign, with lam > 0 on the support. The
    route the library took to rays and certificates before double
    description; it tries every subset of k + 1 columns.
    """
    circuits = {(i,): (1,) for i, c in enumerate(m) if not any(c)}
    nonzero = [i for i, c in enumerate(m) if any(c)]
    minor = {s: fraction_det([m[i] for i in s]) for s in combinations(nonzero, k)}
    for circuit in combinations(nonzero, k + 1):
        # the subsets drop circuit[k] first and circuit[0] last, so this is
        # the Cramer vector reversed, up to the sign (-1)^k
        lam = [(-1) ** q * minor[s] for q, s in enumerate(combinations(circuit, k))]
        if min(lam) < 0 < max(lam):
            continue
        lam = [abs(x) for x in reversed(lam)]
        support = tuple(i for i, x in zip(circuit, lam) if x)
        if support and support not in circuits:
            circuits[support] = tuple(x for x in lam if x)
    return circuits, minor


def gale_classify(rows):
    """Cone classification of {x : rows.x >= 0} by Gale duality and subset scans.

    The route the library took before it read cones off the g-vectors.
    Returns (implicit, strict, facets, dim, lineality, certificates, rays)
    with facets as (representative, supporting rows) pairs. The nonnegative
    relations lam.rows = 0 are K^T.y, for K the Hermite basis of the integer
    kernel of rows^T and y in the pointed cone that the columns of K cut
    out; row k is implicit iff an extreme relation has lam_k > 0, and its
    certificate is the first such relation in the order of y. The pointed
    part lies in the lattice where the implicit rows and the lineality
    space vanish; its rays come from a subset scan in the Hermite basis of
    that lattice, and a strict row supports a facet iff the set of rays it
    vanishes on is maximal.
    """
    rows = [tuple(row) for row in rows]
    n = len(rows[0])
    certificates = {}
    relations = saturated_kernel(list(zip(*rows)))
    for y in _pointed_scan(list(zip(*relations))) if relations else ():
        lam = tuple(_dot(y, f) for f in zip(*relations))
        for k, x in enumerate(lam):
            if x > 0:
                certificates.setdefault(k, lam)
    implicit = tuple(sorted(certificates))
    strict = tuple(k for k in range(len(rows)) if k not in certificates)
    lineality = saturated_kernel(rows)
    constraints = [rows[i] for i in implicit] + list(lineality)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    basis = saturated_kernel(constraints) if constraints else identity
    functionals = [tuple(_dot(rows[j], b) for b in basis) for j in strict]
    pointed = _pointed_scan(functionals) if functionals else []
    rays = tuple(sorted(tuple(_dot(y, col) for col in zip(*basis)) for y in pointed))
    faces = [frozenset(r for r in rays if not _dot(rows[j], r)) for j in strict]
    groups = {}
    for j, face in zip(strict, faces):
        if not any(face < other for other in faces):
            groups.setdefault(face, []).append(j)
    facets = [(members[0], tuple(members)) for members in groups.values()]
    dim = n - fraction_rank([rows[i] for i in implicit])
    return implicit, strict, facets, dim, lineality, certificates, rays


def knitted_meshes(n, arrows, window):
    """(source, middles, target) of every mesh in a knitted window.

    The mesh at (i, v) has middles (i, t) for each arrow v -> t, then
    (i + 1, s) for each arrow s -> v, every one repeated per multiplicity
    and taken in the order of the sorted (source, target, multiplicity)
    triples.
    """
    arrows = sorted(arrows)
    return [
        (
            (i, v),
            tuple((i, t) for s, t, m in arrows if s == v for _ in range(m))
            + tuple((i + 1, s) for s, t, m in arrows if t == v for _ in range(m)),
            (i + 1, v),
        )
        for i in range(window)
        for v in range(n)
    ]


def kahn_topological_order(n, arrows):
    """A topological order of the vertices by Kahn's sort, or None on a cycle.

    Vertices are 0..n-1 and arrows (source, target, multiplicity) triples;
    ready vertices are taken smallest first.
    """
    indeg = [0] * n
    out = [[] for _ in range(n)]
    for s, t, _ in arrows:
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


def labelled_enumeration(root, mutate, max_depth):
    """BFS over the mutation tree that mutates every labelled edge.

    The traversal the library ran before it probed the c-matrix first:
    ``mutate(node, k)`` builds the whole child on every edge (ascending k,
    immediate back-mutation skipped) and the child is dropped afterwards
    when its c-matrix was seen. ``max_depth`` of None runs until the
    frontier empties. Returns (nodes, depth, complete) with the meaning of
    the catalog fields of the same names.
    """
    nodes = [root]
    seen = {root.C_t.entries}
    frontier = [root]
    depth = 0
    complete = False
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier = []
        for parent in frontier:
            last = parent.history[-1] if parent.history else 0
            for k in range(1, len(root.C_t.entries) + 1):
                if k == last:
                    continue
                child = mutate(parent, k)
                if child.C_t.entries in seen:
                    continue
                seen.add(child.C_t.entries)
                nodes.append(child)
                next_frontier.append(child)
        frontier = next_frontier
        complete = not frontier
    return nodes, depth, complete


def labelled_cover(edges, n, max_depth):
    """The labelled nodes over a seed graph, in BFS order, as plain tuples.

    The cover pass the library ran before it numbered permutations.
    ``edges[s][j] = (t, tau)`` says seed s mutated in direction j (0-based)
    is seed t relabelled by tau, for every seed the walk expands. The node
    (seed s, perm) mutated in direction k (1-based) is the node
    (t, tau.perm) for (t, tau) = edges[s][perm[k - 1]], kept on first
    sight; directions ascend and immediate back-mutation is skipped.
    Returns (nodes, depth, complete), each node a (history, seed, perm)
    triple, the root ((), 0, identity) first.
    """
    ident = tuple(range(n))
    nodes = [((), 0, ident)]
    seen = {0: {ident}}  # by seed, the perms of its nodes
    frontier = nodes[:]
    depth = 0
    while frontier and (max_depth is None or depth < max_depth):
        depth += 1
        next_frontier = []
        for history, s, perm in frontier:
            last = history[-1] if history else 0
            for k in range(1, n + 1):
                if k == last:
                    continue
                t, tau = edges[s][perm[k - 1]]
                labelled = tuple(map(tau.__getitem__, perm))
                perms = seen.setdefault(t, set())
                if labelled in perms:
                    continue
                perms.add(labelled)
                nodes.append((history + (k,), t, labelled))
                next_frontier.append(nodes[-1])
        frontier = next_frontier
    return nodes, depth, not frontier


def seed_graph_both_ends(root, mutate, max_depth):
    """The seed graph by mutating every edge from both of its ends.

    The seed pass the library ran before it read each edge's reverse off
    the involution, here without its one use of it, the edge back to a
    parent: ``mutate(node, k)`` builds the whole child in direction k
    (1-based) for every seed and direction, and the child is dropped when
    its set of c-vectors was seen. Seeds are expanded in BFS order while
    their history is shorter than ``max_depth`` (None: all). Returns
    (seeds, edges), ``edges[s][j] = (t, tau)`` saying seed s mutated in
    direction j (0-based) is seed t relabelled by tau: column i is column
    tau[i] of t.
    """
    seeds, edges = [root], []
    number = {frozenset(root.c_vectors): 0}
    for node in seeds:
        if max_depth is not None and len(node.history) >= max_depth:
            break
        out = []
        for k in range(1, len(root.c_vectors) + 1):
            child = mutate(node, k)
            t = number.setdefault(frozenset(child.c_vectors), len(seeds))
            if t == len(seeds):
                seeds.append(child)
            out.append((t, tuple(map(seeds[t].c_vectors.index, child.c_vectors))))
        edges.append(tuple(out))
    return seeds, edges


def hermite_g_matrix(c_rows):
    """(C^T)^-1 by the Hermite route, as rows, or None when C is not unimodular.

    The library's reading of G_t before it carried G_t along the walk:
    ``hermite_rows`` of [C^T | I] has the identity as its left block
    exactly when C is unimodular, and then its right block is (C^T)^-1.
    """
    n = len(c_rows)
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    form = hermite_rows([col + e for col, e in zip(zip(*c_rows), ident)])
    if tuple(row[:n] for row in form) != ident:
        return None
    return tuple(row[n:] for row in form)


def minimal_positive_relations(vectors):
    """Minimal index subsets H with strictly positive lam, sum_H lam_k v_k = 0.

    Returns (H, lam) pairs with lam cleared to coprime integers. Subsets are
    scanned in ascending size and lexicographic order, skipping supersets of
    subsets already found: lam > 0 exists iff minus the plain sum of the
    subset lies in its conic hull, and then lam = 1 + mu.
    """
    found = []
    for size in range(1, len(vectors) + 1):
        for subset in combinations(range(len(vectors)), size):
            if any(set(prev) <= set(subset) for prev, _ in found):
                continue
            target = tuple(-sum(col) for col in zip(*(vectors[i] for i in subset)))
            mu = conic_membership(target, [vectors[i] for i in subset])
            if mu is not None:
                found.append((subset, clear_multipliers([1 + m for m in mu])))
    return found


def fraction_symmetrizer(rows):
    """Minimal positive integer d with diag(d).B skew-symmetric, or None.

    ``rows`` must already be sign-skew-symmetric (zero diagonal, b_ij and
    b_ji zero together or of opposite signs). A depth-first search fixes
    d_v / d_u = |b_uv| / |b_vu| over Fraction along the edges of each
    connected component, fails on an inconsistent cycle, and scales each
    component to coprime integers.
    """
    n = len(rows)
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
                if rows[u][v] == 0:
                    continue
                r = ratios[u] * Fraction(abs(rows[u][v]), abs(rows[v][u]))
                if ratios[v] is None:
                    ratios[v] = r
                    stack.append(v)
                elif ratios[v] != r:
                    return None
        lcm = 1
        for v in component:
            den = ratios[v].denominator
            lcm = lcm // gcd(lcm, den) * den
        values = [int(ratios[v] * lcm) for v in component]
        g = 0
        for x in values:
            g = gcd(g, x)
        for v, x in zip(component, values):
            ratios[v] = x // g
    return tuple(ratios)


def random_sign_skew_symmetric(rng, n, max_entry=4, density=0.6):
    """A random sign-skew-symmetric integer matrix with independent magnitudes.

    Entries b_ij and b_ji get opposite signs but unrelated sizes, so cycles
    with inconsistent symmetrizer ratios are common.
    """
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                sign = rng.choice((1, -1))
                rows[i][j] = sign * rng.randint(1, max_entry)
                rows[j][i] = -sign * rng.randint(1, max_entry)
    return rows


def _self_check():
    rng = random.Random(7)
    assert fraction_rank([[0, 1, 0], [0, -1, 0]]) == 1
    assert len(polygon_triangulations(5)) == 5
    assert len(polygon_triangulations(6)) == 14
    assert len(positive_roots({0: [1], 1: [0]})) == 3
    assert len(positive_roots({0: [1], 1: [0, 2], 2: [1]})) == 6
    assert dynkin_graph(4, [(0, 3, 1), (1, 3, 1), (2, 3, 1)])
    assert not dynkin_graph(5, [(0, 4, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1)])
    # the swap keeps B = 0 but moves d
    assert seed_automorphisms([[0, 0], [0, 0]], [1, 2]) == {(0, 1)}
    assert len(seed_automorphisms([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], [1, 1, 1])) == 3
    # the reversal of a directed path turns every arrow around
    assert seed_automorphisms([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1], sign=-1) == {(2, 1, 0)}
    assert seed_orbit_count([([[0, 1], [-1, 0]], [[1, 0], [0, 1]]), ([[0, -1], [1, 0]], [[0, 1], [1, 0]])]) == 1
    assert path_counts(3, [(0, 1, 2), (1, 2, 1)]) == [[1, 2, 2], [0, 1, 1], [0, 0, 1]]
    assert sympy_inverse([[2, 0], [0, 1]]) == [[Fraction(1, 2), 0], [0, 1]]
    # A2: tau^-1 of the simple projective (1, 0) is the simple injective (0, 1)
    assert cartan_route([[1, 1], [0, 1]])[1]((1, 0)) == (0, 1)
    assert verify_dv_gv([[0, 1], [-1, 0]], [[1, 1], [0, 1]], (1, 0)) == ((0, -1), (0, -1), True)
    y_plus_one = {(1,): 1, (0,): 1}
    assert laurent_pow(y_plus_one, 2, 1) == {(2,): 1, (1,): 2, (0,): 1}
    assert laurent_divide_exact(laurent_mul(y_plus_one, y_plus_one), y_plus_one) == y_plus_one
    assert f_polynomial_step([{(0, 0): 1}] * 2, [[0, 1], [-1, 0]], (1, 0), 0)[0] == {(1, 0): 1, (0, 0): 1}
    # A2 at history (1,): g_1 = -e_1 + e_2; back at the root after (1, 1)
    assert g_matrices([[0, 1], [-1, 0]], [(1,), (1, 1)]) == {(1,): [[-1, 0], [1, 1]], (1, 1): [[1, 0], [0, 1]]}
    b, d = random_skew_symmetrizable(rng, 3)
    for i in range(3):
        for j in range(3):
            assert d[i] * b[i][j] == -d[j] * b[j][i]
    assert conic_membership((0, -1, 0), [(0, 1, 0), (1, -1, 1), (-1, 0, -1)]) == (0, 1, 1)
    assert conic_membership((-1, 0), [(1, 0), (0, 1)]) is None
    assert clear_multipliers([Fraction(1, 2), Fraction(2, 3)]) == (3, 4)
    assert rref([(2, 4), (1, 2)]) == ((1, 2),)
    assert kernel_rref([(1, 1, 0)]) == ((1, -1, 0), (0, 0, 1))
    # the ray {x = 0, y >= 0}: rows 2 and 3 agree on the span, one facet
    assert scan_classify([(1, 0), (-1, 0), (0, 1), (1, 1)])[2] == [(2, (2, 3))]
    assert minimal_positive_relations([(1, 0), (0, 1), (-1, 0)]) == [((0, 2), (1, 1))]
    # the ray {x = 0, y >= 0} with its facet row 2: one ray, span x = 0
    ray = [(1, 0), (-1, 0), (0, 1), (1, 1)]
    assert subset_extreme_rays(ray, (0, 1), (2,), ()) == ((0, 1),)
    assert span_canonical_key(ray, (0, 1), (2,), ()) == (2, ((0, 1),), ((1,),), ())
    assert subset_extreme_rays([(1, 0), (0, 1)], (), (0, 1), ()) == ((0, 1), (1, 0))
    assert fraction_det([]) == 1 and fraction_det([(0, 1), (1, 0)]) == -1
    assert fraction_det([(2, 4), (1, 2)]) == 0
    assert cofactor_adjugate([(1, 2), (3, 4)]) == [[4, -2], [-3, 1]]
    # B = [[0, 1], [-1, 0]]: M^T.M = I, so the pull-back is B^T
    assert cofactor_pull_back([(0, 1), (-1, 0)]) == ((0, -1), (1, 0))
    assert hermite_rows([(0, 2, 4), (0, 3, 5)]) == ((0, 1, 1), (0, 0, 2))
    assert saturated_kernel([(2, 4)]) == ((2, -1),)
    assert _pointed_scan([(1, 0), (0, 1)]) == [(0, 1), (1, 0)]
    # a redundant functional changes nothing
    assert _pointed_scan([(1, 0), (1, 1), (0, 1)]) == [(0, 1), (1, 0)]
    # the cone over a square
    square = [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]
    assert _pointed_scan(square) == [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]
    assert _pointed_scan([(2,), (3,)]) == [(1,)]
    assert _pointed_scan([(1,), (-1,)]) == []
    # rays come out primitive
    assert _pointed_scan([(2, -1), (-1, 2)]) == [(1, 2), (2, 1)]
    # the ray above, with row 0 + row 1 = 0 certifying rows 0 and 1
    certificates = {0: (1, 1, 0, 0), 1: (1, 1, 0, 0)}
    assert gale_classify(ray) == ((0, 1), (2, 3), [(2, (2, 3))], 1, (), certificates, ((0, 1),))
    assert kahn_topological_order(3, [(2, 0, 1), (0, 1, 2)]) == [2, 0, 1]
    assert kahn_topological_order(2, [(0, 1, 1), (1, 0, 1)]) is None
    assert knitted_meshes(3, [(2, 0, 1), (0, 1, 2)], 1) == [
        ((0, 0), ((0, 1), (0, 1), (1, 2)), (1, 0)),
        ((0, 1), ((1, 0), (1, 0)), (1, 1)),
        ((0, 2), ((0, 0),), (1, 2)),
    ]
    assert fraction_symmetrizer([[0, 1], [-2, 0]]) == (2, 1)
    assert fraction_symmetrizer([[0, 1, 1], [-1, 0, 1], [-2, -1, 0]]) is None
    assert hermite_g_matrix([[1, 0], [1, 1]]) == ((1, -1), (0, 1))
    assert hermite_g_matrix([[2, 0], [0, 1]]) is None
    # two seeds, swapped by direction 1 (0-based 0) with their columns exchanged
    swap = [((1, (1, 0)), (0, (0, 1))), ((0, (1, 0)), (1, (0, 1)))]
    assert labelled_cover(swap, 2, None) == ([((), 0, (0, 1)), ((1,), 1, (1, 0))], 2, True)


_self_check()
