"""Assembly of the cone complex and theta functions on its integral points.

Every seed contributes one cone, read off its G_t; cones with the same
point set merge under the canonical key, and each merged cone remembers
every witnessing node history. Theta evaluation picks the first BFS
witness containing the point (any witness gives the same value, which
the tests check) and expands y^beta times the product of coefficient
polynomials raised to the tropical exponents. It reads F at the witness
only, so a catalog without F replays that one history.
"""

from operator import mul

from .cones import canonical_key, seed_classifier
from .errors import NotInVisitedComplex
from .intmat import Frozen, _exact_int
from .laurent import _Packing
from .pattern import _walk
from .seed import p_star


class XCone(Frozen):
    """One cone of the complex with every seed that realizes it."""

    __slots__ = ("key", "description", "witnesses", "dim")

    def __init__(self, key, description, witnesses):
        super().__init__(key, description, tuple(witnesses), description.dim)

    def __repr__(self):
        return f"XCone(dim={self.dim}, witnesses={len(self.witnesses)})"


class XFanReport(Frozen):
    """All distinct cones of one catalog plus the dimension histogram."""

    __slots__ = ("cones", "histogram", "complete")

    def __init__(self, cones, complete):
        hist = {}
        for cone in cones:
            hist[cone.dim] = hist.get(cone.dim, 0) + 1
        super().__init__(tuple(cones), hist, complete)


class ThetaFunction(Frozen):
    __slots__ = ("beta", "value", "witness", "alpha")


def assemble_fan(catalog):
    """Merge the nodes' cones in first-seen order, classifying once per seed.

    A cone depends only on the set of c-vectors, so nodes sharing a seed
    share a cone and only ``catalog.seeds`` are classified, by
    ``seed_classifier``. The first node of every cone is the first node of
    its first seed, so that seed's description is the one kept.
    """
    describe = seed_classifier(catalog.root)
    merged = {}
    by_seed = []  # by seed number, the witness list of its cone
    for node in catalog.seeds:
        desc = describe(node)
        by_seed.append(merged.setdefault(canonical_key(desc), (desc, []))[1])
    nodes = catalog.nodes
    for s, history in zip(nodes.seed_of, nodes.histories):
        by_seed[s].append(history)
    cones = [XCone(key, desc, witnesses) for key, (desc, witnesses) in merged.items()]
    return XFanReport(cones, catalog.complete)


def locate(beta, catalog):
    """First BFS seed whose cone contains beta, with the exponent vector.

    Returns (seed, alpha) where alpha = C_t^T.B.beta, or None when no
    visited cone contains beta; the seed is in ``catalog.seeds``, not in
    ``catalog.nodes``. Nodes sharing a seed share a cone, and a seed's
    first labelled node has its history and the identity labelling, so
    only ``catalog.seeds`` are tested, each up to its first negative
    entry. Seeds share c-vectors, so each c-vector is paired with B.beta
    once per call, memoised by its value.
    """
    image = p_star(catalog.root, beta)
    pairing = {}
    for node in catalog.seeds:
        alpha = []
        for col in node.c_vectors:
            a = pairing.get(col)
            if a is None:
                a = pairing[col] = sum(map(mul, col, image))
            if a < 0:
                break
            alpha.append(a)
        else:
            return node, tuple(alpha)
    return None


def theta(beta, catalog):
    """The theta function at an integral point of the visited complex.

    Value: y^beta times the product over i of F_i^alpha_i at the seed
    ``locate`` returns, whose history is the witness; a catalog without F
    rebuilds F along it (F never steers the BFS). `laurent._Packing.product`
    packs the F_i with alpha_i > 0 once and unpacks the value once, moved
    by beta, so the size of beta never widens the radix. Raises
    NotInVisitedComplex when no visited cone contains beta; the reason
    distinguishes a complete catalog (the point is genuinely outside the
    complex's support) from a truncated one.
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
    polys = node.F_t if node.F_t is not None else _walk(catalog.root, node.history).F_t
    value = _Packing(polys).product(beta, [(i, a) for i, a in enumerate(alpha) if a and not polys[i].is_one()])
    return ThetaFunction(beta, value, node.history, alpha)

