"""Assembly of the cone complex and theta functions on its integral points.

The first node of every seed contributes one inequality system; systems
describing the same point set merge under the canonical key, and each
merged cone remembers every witnessing node history. Theta evaluation
picks the first BFS witness containing the point (any witness gives the
same value, which the tests check) and expands y^beta times the product
of coefficient polynomials raised to the tropical exponents.
"""

from itertools import combinations
from operator import mul

from .cones import build_system, canonical_key, classify
from .errors import NotInVisitedComplex
from .intmat import _exact_int, integer_kernel_basis, primitive_vector
from .laurent import LaurentPolynomial
from .seed import p_star


class XCone:
    """One cone of the complex with every seed that realizes it."""

    __slots__ = ("key", "description", "witnesses", "dim")

    def __init__(self, key, description, witnesses):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "witnesses", tuple(witnesses))
        object.__setattr__(self, "dim", description.dim)

    def __setattr__(self, name, value):
        raise AttributeError("XCone is immutable")

    def __repr__(self):
        return f"XCone(dim={self.dim}, witnesses={len(self.witnesses)})"


class XFanReport:
    """All distinct cones of one catalog plus the dimension histogram."""

    __slots__ = ("cones", "histogram", "complete")

    def __init__(self, cones, complete):
        object.__setattr__(self, "cones", tuple(cones))
        hist = {}
        for cone in cones:
            hist[cone.dim] = hist.get(cone.dim, 0) + 1
        object.__setattr__(self, "histogram", hist)
        object.__setattr__(self, "complete", complete)

    def __setattr__(self, name, value):
        raise AttributeError("XFanReport is immutable")


class ThetaFunction:
    __slots__ = ("beta", "value", "witness", "alpha")

    def __init__(self, beta, value, witness, alpha):
        object.__setattr__(self, "beta", tuple(beta))
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "alpha", tuple(alpha))

    def __setattr__(self, name, value):
        raise AttributeError("ThetaFunction is immutable")


def assemble_fan(catalog):
    """Merge the nodes' cones in first-seen order, classifying once per seed.

    A cone depends only on the set of c-vectors, so nodes sharing a seed key
    share a cone and only ``catalog.seeds`` are classified. The first node
    of every cone is the first node of its seed, so its description is the
    one kept.
    """
    merged = {}
    cone_of_seed = {}
    for node in catalog.seeds:
        desc = classify(build_system(node, catalog.root))
        key = cone_of_seed[node.seed_key()] = canonical_key(desc)
        merged.setdefault(key, (desc, []))
    for node in catalog.nodes:
        merged[cone_of_seed[node.seed_key()]][1].append(node.history)
    cones = [XCone(key, desc, witnesses) for key, (desc, witnesses) in merged.items()]
    return XFanReport(cones, catalog.complete)


def locate(beta, catalog):
    """First BFS node whose cone contains beta, with the exponent vector.

    Returns (node, alpha) where alpha = C_t^T.B.beta, or None when no
    visited cone contains beta. Nodes sharing a seed key share a cone, and
    the first hit is the first node of its seed, so only ``catalog.seeds``
    are tested.
    """
    image = p_star(catalog.root, beta)
    for node in catalog.seeds:
        alpha = tuple(sum(map(mul, col, image)) for col in zip(*node.C_t.entries))
        if min(alpha) >= 0:
            return node, alpha
    return None


def theta(beta, catalog):
    """The theta function at an integral point of the visited complex.

    Value: y^beta times the product over i of F_i^alpha_i at the witness
    seed. Raises NotInVisitedComplex when no visited cone contains beta;
    the reason distinguishes a complete catalog (the point is genuinely
    outside the complex's support) from a truncated one.
    """
    beta = tuple(_exact_int(x) for x in beta)
    hit = locate(beta, catalog)
    if hit is None:
        if catalog.complete:
            raise NotInVisitedComplex(
                f"{beta} lies outside the support of the complex", "outside_complex"
            )
        raise NotInVisitedComplex(
            f"{beta} not in any cone visited up to depth {catalog.depth}", "beyond_depth"
        )
    node, alpha = hit
    if node.F_t is None:
        raise ValueError("theta needs a catalog enumerated with polynomials")
    n = catalog.root.n
    value = LaurentPolynomial.monomial(n, beta)
    for poly, a in zip(node.F_t, alpha):
        if a:
            value = value * poly ** a
    return ThetaFunction(beta, value, node.history, alpha)


def extreme_rays(desc):
    """Primitive generators of the extreme rays modulo lineality.

    The pointed part lives in the intersection of the cone's span with the
    orthogonal complement of the lineality space. Each extreme ray is cut
    out by dim(pointed) - 1 facet hyperplanes, so scanning facet subsets of
    that size and keeping the feasible kernel directions enumerates them
    all. Intended for low-dimensional plot emission; cost grows with the
    number of facet subsets.
    """
    system = desc.system
    n = system.A.cols
    rows = system.A.entries
    constraints = [rows[i] for i in desc.implicit]
    constraints += list(desc.lineality_basis)
    if constraints:
        pointed_basis = integer_kernel_basis(constraints)
    else:
        pointed_basis = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    r = len(pointed_basis)
    if r == 0:
        return ()
    facet_rows = [rows[f.representative] for f in desc.facets]
    # facet functionals in pointed coordinates
    functionals = [
        tuple(sum(x * y for x, y in zip(a, basis_row)) for basis_row in pointed_basis)
        for a in facet_rows
    ]
    candidates = set()
    if r == 1:
        for sign in (1, -1):
            t = (sign,)
            if all(sum(f * x for f, x in zip(func, t)) >= 0 for func in functionals):
                candidates.add(t)
    else:
        for subset in combinations(range(len(functionals)), r - 1):
            kern = integer_kernel_basis([functionals[i] for i in subset])
            if len(kern) != 1:
                continue
            for t in (kern[0], tuple(-x for x in kern[0])):
                if all(sum(f * x for f, x in zip(func, t)) >= 0 for func in functionals):
                    candidates.add(primitive_vector(t))
    rays = set()
    for t in candidates:
        vec = [0] * n
        for coef, basis_row in zip(t, pointed_basis):
            for i in range(n):
                vec[i] += coef * basis_row[i]
        if any(vec):
            rays.add(primitive_vector(vec))
    return tuple(sorted(rays))
