"""Independent reference implementations used to cross-check the package.

Each oracle recomputes its answer from first principles with a different
toolchain (sympy, Fraction arithmetic, brute-force enumeration) so that a
bug shared with the package under test cannot hide. Nothing in this module
imports xfan.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations, product
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
    steps than an exact quotient can take.
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


def _self_check():
    rng = random.Random(7)
    assert fraction_rank([[0, 1, 0], [0, -1, 0]]) == 1
    assert len(polygon_triangulations(5)) == 5
    assert len(polygon_triangulations(6)) == 14
    assert len(positive_roots({0: [1], 1: [0]})) == 3
    assert len(positive_roots({0: [1], 1: [0, 2], 2: [1]})) == 6
    assert seed_orbit_count([([[0, 1], [-1, 0]], [[1, 0], [0, 1]]), ([[0, -1], [1, 0]], [[0, 1], [1, 0]])]) == 1
    assert path_counts(3, [(0, 1, 2), (1, 2, 1)]) == [[1, 2, 2], [0, 1, 1], [0, 0, 1]]
    assert sympy_inverse([[2, 0], [0, 1]]) == [[Fraction(1, 2), 0], [0, 1]]
    y_plus_one = {(1,): 1, (0,): 1}
    assert laurent_pow(y_plus_one, 2, 1) == {(2,): 1, (1,): 2, (0,): 1}
    assert laurent_divide_exact(laurent_mul(y_plus_one, y_plus_one), y_plus_one) == y_plus_one
    assert f_polynomial_step([{(0, 0): 1}] * 2, [[0, 1], [-1, 0]], (1, 0), 0)[0] == {(1, 0): 1, (0, 0): 1}
    b, d = random_skew_symmetrizable(rng, 3)
    for i in range(3):
        for j in range(3):
            assert d[i] * b[i][j] == -d[j] * b[j][i]


_self_check()
