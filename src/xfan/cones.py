"""Exact polyhedral analysis of the homogeneous systems A.beta >= 0.

A cone is its row matrix A, an ``IntMatrix``: row i is the i-th c-vector
(transposed) times the root exchange matrix B. Tropical duality,
C_t^T.G_t = I, makes the cone the p*-preimage of the seed's g-vector cone,
so one route reads every cone off G_t: the extreme rays of its pointed
part are the images of the nonnegative circuits of K.G_t, K spanning
ker B^T, and an arbitrary A is the case B = A, G = I. Implicit rows are
the coordinates no ray uses, certified by the one-signed cocircuits of
K.G_t, the extreme nonnegative row relations, read off the same minors;
a strict row supports a facet when no other strict row vanishes on more
rays. The rays and the lineality space key the cone.
"""

from functools import lru_cache
from itertools import chain, combinations
from math import gcd
from operator import mul

from .intmat import (
    Frozen,
    IntMatrix,
    Value,
    adjugate,
    det,
    hnf_rows,
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
    return _frame(A)(A, IntMatrix.identity(A.rows))


def seed_classifier(root_em):
    """The map node -> ``classify(build_system(node, root_em))``: one frame, read at each G_t."""
    describe = _frame(root_em.B)
    return lambda node: describe(build_system(node, root_em), node.G_t)


def _frame(B):
    """The map (A, G) -> ``ConeDescription`` of A = C^T.B, for C^T.G = I and G unimodular.

    A.beta = lam exactly when B.beta = G.lam, so the cone is L = ker B plus
    the image of P = {lam >= 0 : m.lam = 0}, m = K.G, K the saturated basis
    of ker B^T, of k rows. With M = [B; L], the pull-back adj(M^T.M).B^T
    sends G.lam to a positive multiple of the beta orthogonal to L with
    B.beta = G.lam. The rays of P are the nonnegative circuits of m
    (``_circuits``). A strict row supports a facet iff the set of rays
    using it is minimal. The rows of m span the relations lam.A = 0, whose
    rays are the one-signed cocircuits of m; an implicit row's certificate
    is the lexicographically least ray using it.
    """
    kernel = integer_kernel_basis(B.transpose())
    lineality = integer_kernel_basis(B)
    stacked = IntMatrix._trusted(B.entries + lineality)
    pull = adjugate(stacked.transpose().mul(stacked)).mul(B.transpose())
    scale = gcd(*chain.from_iterable(pull.entries)) or 1
    frame = kernel + tuple(tuple(x // scale for x in row) for row in pull.entries)
    k = len(kernel)

    @lru_cache(maxsize=None)
    def column(g):  # m_i over the image of e_i for g = G.e_i, which seeds share
        return tuple(sum(map(mul, row, g)) for row in frame)

    def describe(A, G):
        columns = list(map(column, zip(*G.entries)))
        m = [c[:k] for c in columns]
        images = [c[k:] for c in columns]
        circuits, minor = _circuits(m, k)
        uses = {j: frozenset(s for s in circuits if j in s) for j in set().union(*circuits)}
        implicit = tuple(i for i in range(A.rows) if i not in uses)
        strict = tuple(sorted(uses))
        facets = _facets(strict, [uses[j] for j in strict])
        dim, certificates = A.cols, {}
        if implicit:
            # the relations that vanish on the strict rows J are the y.m with
            # y.m_J = 0, so the implicit rows have rank |I| - k + rank m_J
            dim -= len(implicit) - k + len(hnf_rows([m[j] for j in strict]))
            # the relation rays are the one-signed cocircuits y.m, y normal to
            # k - 1 columns: lam_i is the minor of those columns and column i,
            # signed by the position of i among them (zero when i is one of them)
            nonzero = [i for i, c in enumerate(m) if any(c)]
            relations = []
            for cols in combinations(nonzero, k - 1):
                lam = [0] * A.rows
                for i in nonzero:
                    subset = tuple(sorted((*cols, i)))
                    lam[i] = (-1) ** subset.index(i) * minor.get(subset, 0)
                if not min(lam) < 0 < max(lam):
                    relations.append(primitive_vector([abs(x) for x in lam]))
            certificates = {i: min(lam for lam in relations if lam[i] > 0) for i in implicit}
        # a zero column's ray is its image as it stands
        rays = (
            images[s[0]] if len(s) == 1 else tuple(sum(map(mul, lam, y)) for y in zip(*(images[i] for i in s)))
            for s, lam in circuits.items()
        )
        ambient = tuple(sorted(map(primitive_vector, rays)))
        return ConeDescription(A, implicit, strict, facets, dim, lineality, certificates, ambient)

    return describe


def _circuits(m, k):
    """The nonnegative circuits of the k-row matrix of full row rank whose columns are m.

    Returns ({support: lam on the support}, {S: det m_S}), S running over
    the k-subsets of nonzero columns. A zero column is a circuit alone; the
    others are the signed k x k minors (Cramer) of k + 1 nonzero columns,
    kept when nonzero and of one sign, with lam > 0 on the support.
    """
    circuits = {(i,): (1,) for i, c in enumerate(m) if not any(c)}
    nonzero = [i for i, c in enumerate(m) if any(c)]
    minor = {s: det([m[i] for i in s]) for s in combinations(nonzero, k)}
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
    normal form of ``integer_kernel_basis``, and the sorted primitive rays,
    the images of the nonnegative circuits.
    """
    return (desc.A.cols, desc.lineality_basis, desc.rays)
