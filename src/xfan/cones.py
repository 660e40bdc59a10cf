"""Exact polyhedral analysis of the homogeneous systems A.beta >= 0.

A cone is its row matrix A, an ``IntMatrix``: row i is the i-th c-vector
(transposed) times the root exchange matrix.
Every question is answered by one primitive, the extreme rays of a pointed
cone. Implicit equalities come from the homogeneous Farkas criterion read
through Gale duality: row k holds with equality on the whole solution set
exactly when a nonnegative row relation uses it, and the relations are the
image of a pointed cone over the integer kernel of A^T. Dimension drops by
the rank of the implicit rows. The facets of the cone's pointed part are
its maximal proper faces, so a strict row supports a facet exactly when
no other strict row vanishes on more of the part's extreme rays. Those
rays are kept, and with the lineality space they key the cone.

A seed's cone is the p*-preimage of its g-vector cone (tropical duality):
``seed_classifier`` reads every slot off G_t in closed form when the root
exchange matrix has corank at most 1, and calls ``classify`` otherwise.
"""

from itertools import combinations
from operator import mul

from .intmat import (
    Frozen,
    IntMatrix,
    Value,
    adjugate,
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
    """The row matrix A = C_t^T . B of the cone, for the root exchange matrix B."""
    return node.C_t.transpose().mul(root_em.B)


def pointed_rays(functionals):
    """Primitive generators of the extreme rays of {y : f.y >= 0 for every f}.

    The cone must be pointed, that is the functionals span the dual space.
    Each extreme ray is the line cut out by r - 1 independent functionals,
    r the ambient dimension, so scanning the subsets of that size and
    keeping the feasible kernel directions finds them all. Returns a sorted
    tuple; the functionals go through ``IntMatrix``.
    """
    functionals = IntMatrix(functionals).entries
    rays = set()
    for subset in combinations(functionals, len(functionals[0]) - 1):
        # r = 1: the empty subset cuts out the whole line
        line = integer_kernel_basis(subset) if subset else identity_rows(1)
        if len(line) != 1:
            continue
        for y in (line[0], tuple(-x for x in line[0])):
            if all(sum(map(mul, f, y)) >= 0 for f in functionals):
                rays.add(y)
    return tuple(sorted(rays))


def relation_rays(rows):
    """Primitive extreme rays of the cone {lam >= 0 : sum_k lam_k rows[k] = 0}.

    Gale duality: the relations are lam = K^T.y for K the saturated integer
    kernel basis of the transposed rows, so the cone is the image of the
    pointed cone that the columns of K cut out, and a primitive y gives a
    primitive lam. The supports of the rays are the minimal supports of
    nonnegative relations, and on each of them lam is unique up to scale.
    """
    kernel = integer_kernel_basis(IntMatrix(rows).transpose())
    if not kernel:
        return ()
    functionals = tuple(zip(*kernel))
    return tuple(
        tuple(sum(map(mul, y, f)) for f in functionals) for y in pointed_rays(functionals)
    )


def classify(A):
    """Classify the cone of the ``IntMatrix`` A: implicit rows, dimension, facets, lineality, rays.

    Row k is implicit iff a nonnegative row relation lam.A = 0 has
    lam_k > 0. Those relations form a pointed cone, so the implicit rows
    are the union of the supports of its extreme rays, and the certificate
    of row k is the first ray with lam_k > 0. The dimension is n minus the
    rank of the implicit rows. The cone is its lineality space plus the
    pointed cone it cuts out in the space where its span meets the
    orthogonal complement of the lineality space. That pointed cone is
    full there, so its facets are its maximal proper faces, each cut out by
    a strict row: a strict row supports a facet iff the set of extreme
    rays it vanishes on is maximal among the strict rows' sets. Rows with
    one such set share a facet, whose representative is the first. The
    rays are kept in ambient coordinates; the space's basis is a saturated
    lattice basis, so primitive rays stay primitive.
    The lineality basis is the saturated integer kernel of A, which
    ``integer_kernel_basis`` returns in Hermite normal form.
    A zero matrix yields the whole space: dimension n, no facets, no rays.
    """
    rows = A.entries
    certificates = {}
    for lam in relation_rays(rows):
        for k, x in enumerate(lam):
            if x > 0:
                certificates.setdefault(k, lam)
    implicit = tuple(sorted(certificates))
    strict = tuple(k for k in range(A.rows) if k not in certificates)
    lineality = integer_kernel_basis(A)
    constraints = [rows[i] for i in implicit] + list(lineality)
    basis = integer_kernel_basis(constraints) if constraints else identity_rows(A.cols)
    functionals = [tuple(sum(map(mul, rows[j], b)) for b in basis) for j in strict]
    rays = pointed_rays(functionals) if functionals else ()
    faces = [frozenset(y for y in rays if not sum(map(mul, f, y))) for f in functionals]
    facets = _facets(strict, faces)
    # the basis is in Hermite normal form, so the map keeps the rays sorted
    ambient = tuple(tuple(sum(map(mul, y, col)) for col in zip(*basis)) for y in rays)
    dim = len(lineality) + len(basis)
    return ConeDescription(A, implicit, strict, facets, dim, lineality, certificates, ambient)


def _facets(strict, faces):
    """The facets, given the set of rays each strict row vanishes on: the rows of a maximal set."""
    supports = {}
    for j, face in zip(strict, faces):
        if not any(face < other for other in faces):
            supports.setdefault(face, []).append(j)
    return tuple(Facet(members[0], tuple(members)) for members in supports.values())


def seed_classifier(root_em):
    """The map node -> ``classify(build_system(node, root_em))`` over one catalog's seeds.

    Tropical duality, C_t^T.G_t = I, maps the cone onto P_t = {lam >= 0 :
    K.G_t.lam = 0}, K spanning ker B^T, by beta -> lam with B.beta = G_t.lam.
    With L the lineality basis ker B and M = [B; L], P = adj(M^T.M).B^T
    sends v to a positive multiple of the beta orthogonal to L with
    B.beta = v. In corank at most 1, with m = K.G_t (0 in corank 0), P_t has
    the rays e_i for m_i = 0 and |m_j|.e_i + m_i.e_j for m_i > 0 > m_j, row
    j vanishing on those without entry j; the relations are the multiples
    of m, so a nonzero m of one sign makes the rows with m_i != 0 implicit,
    each certified by |m|, and the dimension n + 1 minus their number.
    Corank 2 and more go through ``classify``.
    """
    B = root_em.B
    kernel = integer_kernel_basis(B.transpose())
    if len(kernel) > 1:
        return lambda node: classify(build_system(node, root_em))
    lineality = integer_kernel_basis(B)
    stacked = IntMatrix._trusted(B.entries + lineality)
    pull = adjugate(stacked.transpose().mul(stacked)).mul(B.transpose())
    n = B.rows

    def describe(node):
        G = node.G_t
        images = tuple(zip(*pull.mul(G).entries))
        m = G.transpose().mul_vec(kernel[0]) if kernel else (0,) * n
        # the rays of P_t by support, each with its image
        rays = {(i,): images[i] for i in range(n) if not m[i]}
        for i in range(n):
            for j in range(n):
                if m[i] > 0 > m[j]:
                    rays[i, j] = tuple(m[i] * y - m[j] * x for x, y in zip(images[i], images[j]))
        implicit = tuple(i for i in range(n) if m[i]) if min(m) >= 0 or max(m) <= 0 else ()
        strict = tuple(j for j in range(n) if j not in implicit)
        facets = _facets(strict, [frozenset(s for s in rays if j not in s) for j in strict])
        dim = n + 1 - len(implicit) if implicit else n
        certificates = dict.fromkeys(implicit, tuple(map(abs, m)))
        ambient = tuple(sorted(map(primitive_vector, rays.values())))
        return ConeDescription(
            build_system(node, root_em), implicit, strict, facets, dim, lineality, certificates, ambient
        )

    return describe


def canonical_key(desc):
    """Hashable key equal between descriptions iff the point sets are equal.

    A cone is its lineality space plus the conic hull of the extreme rays
    of its pointed part, and both are intrinsic to the point set. So the
    key is the ambient dimension, the lineality basis in the Hermite normal
    form that ``classify`` returns it in, and the sorted primitive rays
    that ``classify`` kept.
    """
    return (desc.A.cols, desc.lineality_basis, desc.rays)
