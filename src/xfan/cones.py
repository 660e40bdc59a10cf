"""Exact polyhedral analysis of the homogeneous systems A.beta >= 0.

A cone is its row matrix A, an ``IntMatrix``: row i is the i-th c-vector
(transposed) times the root exchange matrix B. Tropical duality,
C_t^T.G_t = I, makes the cone the p*-preimage of the seed's g-vector cone,
so one route reads every cone off G_t: the extreme rays of its pointed
part are the images of those of {lam >= 0 : K.G_t.lam = 0}, K spanning
ker B^T, and an arbitrary A is the case B = A, G = I. Implicit rows are
the coordinates no ray uses, each certified by an extreme nonnegative row
relation; one double description routine gives both kinds of extreme
ray. A strict row supports a facet when no other strict row vanishes on
more rays. The rays and the lineality space key the cone.
"""

from functools import lru_cache
from itertools import chain, compress
from math import gcd, lcm
from operator import mul

from .intmat import (
    Frozen,
    IntMatrix,
    Value,
    gauss_jordan,
    hnf_rows,
    identity_rows,
    integer_kernel_basis,
    primitive_vector,
)


class Facet(Value):
    """One facet: a representative row index plus every supporting row."""

    __slots__ = ("representative", "supporting")

    def __repr__(self):
        return f"Facet(representative={self.representative}, supporting={list(self.supporting)})"


class ConeDescription(Frozen):
    """Classification of the cone A.beta >= 0.

    ``A`` is the cone's row matrix, an ``IntMatrix``; indices are 0-based
    positions into its rows. ``implicit`` and ``strict`` partition them,
    ``facets`` lists the facet classes, ``dim`` is the cone dimension,
    ``lineality_basis`` spans {A.beta = 0} over the integers in Hermite
    normal form, ``implicit_certificates`` maps each implicit row
    to a nonnegative, primitive integer row relation witnessing it
    (coefficient per row, the tested row included with coefficient >= 1),
    and ``rays`` are the sorted primitive extreme rays of the pointed part
    (the cone within the orthogonal complement of the lineality space).
    The cone is the lineality space plus the conic hull of ``rays``.
    """

    __slots__ = (
        "A",
        "implicit",
        "strict",
        "facets",
        "dim",
        "lineality_basis",
        "implicit_certificates",
        "rays",
    )


def build_system(node, root_em):
    """The row matrix A = C_t^T . B of the cone, for the root exchange matrix B: row i is c_i^T.B."""
    return IntMatrix._trusted(node.c_vectors).mul(root_em.B)


def classify(A):
    """Classify the cone of the ``IntMatrix`` A: implicit rows, dimension, facets, lineality, rays.

    The frame of B = A at G = I. A zero matrix yields the whole space.
    """
    return _frame(A)(A, identity_rows(A.rows))


def seed_classifier(root_em):
    """The map node -> ``classify(build_system(node, root_em))``: one frame, read at each seed's g-vectors."""
    describe = _frame(root_em.B)
    return lambda node: describe(build_system(node, root_em), node.g_vectors)


def _frame(B):
    """The map (A, g) -> ``ConeDescription`` of A = C^T.B, g the columns of G, C^T.G = I, G unimodular.

    A.beta = lam exactly when B.beta = G.lam, so the cone is L = ker B plus
    the image of P = {lam >= 0 : m.lam = 0}, m = K.G, K the saturated basis
    of ker B^T, of k rows. ``_pull_back`` sends G.lam to a positive multiple
    of the beta orthogonal to L with B.beta = G.lam. The rays of P are the
    extreme rays of the rows of m (``_extreme_rays``). A strict row supports
    a facet iff the set of rays using it is minimal. A relation lam >= 0
    with lam.A = 0 vanishes off the implicit rows, and certifies them: each
    gets the lexicographically least relation ray using it.
    """
    kernel = integer_kernel_basis(B.transpose())
    lineality = integer_kernel_basis(B)
    frame = kernel + _pull_back(B, lineality)
    k = len(kernel)

    @lru_cache(maxsize=None)
    def column(g):  # m_i over the image of e_i for g = G.e_i, which seeds share
        return tuple(sum(map(mul, row, g)) for row in frame)

    @lru_cache(maxsize=None)
    def pointed(m):  # what m alone decides, for the m that seeds share
        rays = {tuple(compress(range(B.rows), r)): tuple(filter(None, r)) for r in _extreme_rays(zip(*m), B.rows)}
        uses = {j: frozenset(s for s in rays if j in s) for j in set().union(*rays)}
        implicit = tuple(i for i in range(B.rows) if i not in uses)
        strict = tuple(sorted(uses))
        # the relations that vanish on the strict rows J are the y.m with
        # y.m_J = 0, so the implicit rows have rank |I| - k + rank m_J
        rank = len(implicit) - k + len(hnf_rows([m[j] for j in strict])) if implicit else 0
        return tuple(rays.items()), implicit, strict, _facets(strict, [uses[j] for j in strict]), rank

    @lru_cache(maxsize=None)
    def certify(implicit, rows):  # the certificates of implicit rows, which seeds share
        place = dict(zip(implicit, range(len(implicit))))
        lams = _extreme_rays(zip(*rows), len(rows))
        relations = [tuple(lam[place[i]] if i in place else 0 for i in range(B.rows)) for lam in lams]
        return tuple(min(lam for lam in relations if lam[i]) for i in implicit)

    def describe(A, g):
        columns = list(map(column, g))
        rays, implicit, strict, facets, rank = pointed(tuple(c[:k] for c in columns))
        certificates = dict(zip(implicit, certify(implicit, tuple(A.entries[i] for i in implicit))))
        images = [c[k:] for c in columns]
        # a unit ray is its column's image as it stands
        rays = (
            images[s[0]] if len(s) == 1 else tuple(sum(map(mul, lam, y)) for y in zip(*(images[i] for i in s)))
            for s, lam in rays
        )
        ambient = tuple(sorted(map(primitive_vector, rays)))
        return ConeDescription(A, implicit, strict, facets, A.cols - rank, lineality, certificates, ambient)

    return describe


def _pull_back(B, lineality):
    """The primitive positive multiple of (M^T.M)^-1.B^T for M = [B; L], L spanning ker B.

    M^T.M is positive definite: ``gauss_jordan`` of [M^T.M | B^T] leaves row
    i as d_i.[e_i | X_i], X the solution, and row i times lcm(d)/d_i as lcm(d).X_i.
    """
    stacked = IntMatrix._trusted(B.entries + lineality)
    _, rows = gauss_jordan([g + b for g, b in zip(stacked.transpose().mul(stacked).entries, zip(*B.entries))], B.cols)
    common = lcm(*(row[i] for i, row in enumerate(rows)))
    pull = [[common // row[i] * x for x in row[B.cols :]] for i, row in enumerate(rows)]
    scale = gcd(*chain.from_iterable(pull)) or 1
    return tuple(tuple(x // scale for x in row) for row in pull)


def _extreme_rays(rows, width):
    """The primitive extreme rays of {lam >= 0 : rows.lam = 0}, lam of length ``width``.

    Double description (Fukuda-Prodon, 1996): from the unit rays, each row a
    keeps the rays with a.r = 0 and adds (a.p).q - (a.q).p, made primitive,
    for each pair a.p > 0 > a.q that is adjacent: no third ray vanishes
    wherever both vanish. A ray carries its zero coordinates as a bit mask,
    and a combined ray vanishes exactly where both parents do.
    """
    full = (1 << width) - 1
    rays = [(e, full ^ (1 << i)) for i, e in enumerate(identity_rows(width))]
    for a in rows:
        values = [(sum(map(mul, a, ray[0])), ray) for ray in rays]
        zero = [ray for v, ray in values if not v]
        minus = [(v, ray) for v, ray in values if v < 0]
        masks = [mask for _, mask in rays]
        for vp, (p, zp) in ((v, ray) for v, ray in values if v > 0):
            for vq, (q, zq) in minus:
                common = zp & zq
                if len([z for z in masks if z & common == common]) == 2:  # only p and q: adjacent
                    zero.append((primitive_vector(tuple(vp * y - vq * x for x, y in zip(p, q))), common))
        rays = zero
    return [lam for lam, _ in rays]


def _facets(strict, uses):
    """The facets, given the set of rays using each strict row: the rows of a minimal set."""
    supports = {}
    for j, used in zip(strict, uses):
        if not any(other < used for other in uses):
            supports.setdefault(used, []).append(j)
    return tuple(Facet(members[0], tuple(members)) for members in supports.values())


def canonical_key(desc):
    """Hashable key equal between descriptions iff the point sets are equal.

    A cone is its lineality space plus the conic hull of the extreme rays
    of its pointed part, and both are intrinsic to the point set. So the
    key is the ambient dimension, the lineality basis ker B in the Hermite
    normal form of ``integer_kernel_basis``, and the sorted primitive rays.
    """
    return (desc.A.cols, desc.lineality_basis, desc.rays)
