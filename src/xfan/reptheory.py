"""Path-algebra data, AR-quiver knitting, and hyperplane normals.

Everything here assumes an acyclic skew-symmetric seed. The Cartan matrix
counts paths, so its inverse is I minus the arrow matrix. The orientation
convention is fixed by an oracle at construction time: the skew difference
of the inverse Cartan and its transpose must reproduce the exchange matrix
exactly, otherwise the constructor refuses. Inverse AR translation acts
K-theoretically on dimension vectors through the inverse Coxeter matrix;
shifted objects are plain sign flips of dimension vectors.
"""

from itertools import combinations

from .cones import conic_membership
from .errors import (
    ConventionViolation,
    NotAcyclic,
    NotARoot,
    NotPositive,
    NotRepresentationFinite,
)
from .intmat import IntMatrix, _exact_int, clear_multipliers
from .seed import topological_order


class PathAlgebraData:
    """Cartan, inverse Cartan, and inverse Coxeter matrices of a quiver."""

    __slots__ = ("quiver", "cartan", "cartan_inv", "coxeter_inv", "exchange")

    def __init__(self, quiver, cartan, cartan_inv, coxeter_inv, exchange):
        object.__setattr__(self, "quiver", quiver)
        object.__setattr__(self, "cartan", cartan)
        object.__setattr__(self, "cartan_inv", cartan_inv)
        object.__setattr__(self, "coxeter_inv", coxeter_inv)
        object.__setattr__(self, "exchange", exchange)

    def __setattr__(self, name, value):
        raise AttributeError("PathAlgebraData is immutable")


class DerivedObject:
    """A class in the derived category, known by its dimension vector.

    Negative entries encode a shift: dim X[1] = -dim X. The zero vector is
    not an object.
    """

    __slots__ = ("dim", "label")

    def __init__(self, dim, label=None):
        vec = tuple(_exact_int(x) for x in dim)
        if not any(vec):
            raise ValueError("the zero dimension vector is not an object")
        object.__setattr__(self, "dim", vec)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("DerivedObject is immutable")

    def is_module(self):
        return all(x >= 0 for x in self.dim)

    def __eq__(self, other):
        return isinstance(other, DerivedObject) and self.dim == other.dim

    def __hash__(self):
        return hash(self.dim)

    def __repr__(self):
        return f"DerivedObject(dim={self.dim}, label={self.label!r})"


class Mesh:
    """source -> middles -> target positions in the knitted slice."""

    __slots__ = ("source", "middles", "target")

    def __init__(self, source, middles, target):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "middles", tuple(middles))
        object.__setattr__(self, "target", target)

    def __setattr__(self, name, value):
        raise AttributeError("Mesh is immutable")


class ARQuiverSlice:
    """Knitted translation-quiver slices.

    ``objects`` maps a position (m, v) to the DerivedObject obtained by
    applying the inverse translation m times to the projective at vertex v;
    ``meshes`` records the mesh with each source position whose target
    stayed inside the window; ``exhaustive`` says whether knitting ran to
    the end of the module category (Dynkin case).
    """

    __slots__ = ("data", "objects", "meshes", "exhaustive")

    def __init__(self, data, objects, meshes, exhaustive):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "objects", dict(objects))
        object.__setattr__(self, "meshes", tuple(meshes))
        object.__setattr__(self, "exhaustive", exhaustive)

    def __setattr__(self, name, value):
        raise AttributeError("ARQuiverSlice is immutable")

    def module_dimension_vectors(self):
        """Sorted dims of the module vertices (nonnegative positions)."""
        return tuple(
            sorted({obj.dim for obj in self.objects.values() if obj.is_module()})
        )

    def mesh_at(self, dim):
        """The recorded mesh whose source has the given dimension vector."""
        target = tuple(_exact_int(x) for x in dim)
        for mesh in self.meshes:
            if self.objects[mesh.source].dim == target:
                return mesh
        return None


def path_algebra_data(quiver):
    """Count paths and validate the orientation convention.

    The Cartan matrix has entry (j, i) = number of paths from j to i, so its
    columns are the dimension vectors of the indecomposable projectives. It
    is the geometric series of the nilpotent arrow matrix, so its inverse is
    I minus the arrow matrix; the product is checked to be I. Construction
    fails with ConventionViolation if the inverse-transpose minus inverse
    identity does not reproduce the quiver's exchange matrix; that identity
    is the convention oracle, not an assumption.
    """
    order = topological_order(quiver)
    if order is None:
        raise NotAcyclic("path algebra data needs an acyclic quiver")
    n = quiver.n
    arrow = quiver.arrow_matrix()
    # paths = I + arrow + arrow^2 + ...; the arrow matrix is nilpotent
    totals = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    power = IntMatrix.identity(n)
    for _ in range(n):
        power = power.mul(arrow)
        if all(x == 0 for row in power.entries for x in row):
            break
        for i in range(n):
            for j in range(n):
                totals[i][j] += power.at(i, j)
    cartan = IntMatrix(totals)
    cartan_inv = IntMatrix([[int(i == j) - arrow.at(i, j) for j in range(n)] for i in range(n)])
    if cartan.mul(cartan_inv) != IntMatrix.identity(n):
        raise ConventionViolation("path counts are not inverse to I minus the arrow matrix")
    exchange = IntMatrix(
        [
            [cartan_inv.at(j, i) - cartan_inv.at(i, j) for j in range(n)]
            for i in range(n)
        ]
    )
    b_expected = [[0] * n for _ in range(n)]
    for s, t, m in quiver.arrows:
        b_expected[s][t] = m
        b_expected[t][s] = -m
    if exchange != IntMatrix(b_expected):
        raise ConventionViolation(
            "inverse-Cartan identity does not reproduce the exchange matrix"
        )
    coxeter_inv = cartan.mul(cartan_inv.transpose()).neg()
    return PathAlgebraData(quiver, cartan, cartan_inv, coxeter_inv, exchange)


def g_vector(data, obj):
    """g = inverse Cartan times the dimension vector (as a column)."""
    dim = obj.dim if isinstance(obj, DerivedObject) else tuple(_exact_int(x) for x in obj)
    return data.cartan_inv.mul_vec(dim)


def tau_inverse_dim(data, obj):
    """Inverse AR translate on classes: inverse Coxeter times the dim column."""
    dim = obj.dim if isinstance(obj, DerivedObject) else tuple(_exact_int(x) for x in obj)
    label = obj.label if isinstance(obj, DerivedObject) else None
    moved = data.coxeter_inv.mul_vec(dim)
    return DerivedObject(moved, label=None if label is None else f"tau^-1 {label}")


def verify_dv_gv(data, obj):
    """Exchange-matrix image of dim versus the two-term g-vector sum.

    Returns (lhs, rhs, equal): lhs = B.dim^T, rhs = -(g(X) + g(tau^-1 X)).
    """
    dim = obj.dim if isinstance(obj, DerivedObject) else tuple(_exact_int(x) for x in obj)
    lhs = data.exchange.mul_vec(dim)
    g_here = g_vector(data, dim)
    g_next = g_vector(data, tau_inverse_dim(data, DerivedObject(dim)))
    rhs = tuple(-(a + b) for a, b in zip(g_here, g_next))
    return lhs, rhs, lhs == rhs


def _underlying_dynkin(quiver):
    """True when every underlying component is a simply laced Dynkin graph."""
    n = quiver.n
    adj = [set() for _ in range(n)]
    for s, t, m in quiver.arrows:
        if m != 1:
            return False  # multiple arrow, infinite representation type
        if t in adj[s]:
            return False  # two arrows between one pair
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
            return False  # cycle in the underlying graph
        degrees = sorted(len(adj[u]) for u in component)
        if degrees and degrees[-1] <= 2:
            continue  # a path: type A
        branch = [u for u in component if len(adj[u]) >= 3]
        if len(branch) != 1 or len(adj[branch[0]]) != 3:
            return False
        legs = sorted(_leg_lengths(adj, branch[0]))
        a, b, c = legs
        if a == 1 and b == 1:
            continue  # type D
        if a == 1 and b == 2 and c in (2, 3, 4):
            continue  # types E6, E7, E8
        return False
    return True


def _leg_lengths(adj, center):
    lengths = []
    for first in adj[center]:
        length = 1
        prev, cur = center, first
        while True:
            nxt = [v for v in adj[cur] if v != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        lengths.append(length)
    return lengths


def knit(data, window=None):
    """Slices of the translation quiver starting from the projectives.

    Position (m, v) holds the m-fold inverse translate of the projective at
    vertex v; the mesh at (m, v) has middles (w, m) for arrows v -> w and
    (u, m + 1) for arrows u -> v, target (m + 1, v), and dimension vectors
    add up across it by construction. With ``window=None`` the quiver must
    be of Dynkin type and knitting stops at the first slice without module
    vertices (that slice, already shifted, is kept as the boundary);
    otherwise exactly ``window`` translation steps are produced.

    Raises NotRepresentationFinite when exhaustive knitting is requested
    outside Dynkin type.
    """
    quiver = data.quiver
    n = quiver.n
    if window is None:
        if not _underlying_dynkin(quiver):
            raise NotRepresentationFinite(
                "exhaustive knitting needs a Dynkin underlying graph; pass a window"
            )
        exhaustive = True
    else:
        if window < 0:
            raise ValueError("window must be nonnegative")
        exhaustive = False
    dims = {}
    for v in range(n):
        dims[(0, v)] = data.cartan.col(v)
    objects = {}
    slices = 0
    hard_cap = 4 * n * n + 64
    while True:
        m = slices
        for v in range(n):
            objects[(m, v)] = DerivedObject(dims[(m, v)], label=f"({m},{v + 1})")
        has_module = any(objects[(m, v)].is_module() for v in range(n))
        if exhaustive:
            if not has_module:
                break
            if m > hard_cap:
                raise ConventionViolation("knitting failed to terminate on a Dynkin quiver")
        elif m >= window:
            break
        for v in range(n):
            nxt = data.coxeter_inv.mul_vec(dims[(m, v)])
            dims[(m + 1, v)] = nxt
        slices += 1
    last = slices
    meshes = []
    for m in range(last):
        for v in range(n):
            middles = [(m, w) for w in quiver.out_neighbors(v)]
            middles += [(m + 1, u) for u in quiver.in_neighbors(v)]
            meshes.append(Mesh((m, v), middles, (m + 1, v)))
    slice_data = ARQuiverSlice(data, objects, meshes, exhaustive)
    for mesh in slice_data.meshes:
        total = [0] * n
        for pos in mesh.middles:
            for i, x in enumerate(slice_data.objects[pos].dim):
                total[i] += x
        source = slice_data.objects[mesh.source].dim
        target = slice_data.objects[mesh.target].dim
        if tuple(a - b for a, b in zip(total, source)) != target:
            raise ConventionViolation("mesh additivity failed in knitting")
    return slice_data


def normal_vector(data, cvec, slice_data=None):
    """Hyperplane normal attached to a positive c-vector.

    Returns the integer vector (c^T.B)^T. When a knitted slice is supplied
    the c-vector must appear among its module dimension vectors (NotARoot
    otherwise) and the result is cross-checked against the sum of g-vectors
    over the middles of the mesh at that module; a mismatch raises
    ConventionViolation since the two routes agree by theory.
    """
    c = tuple(_exact_int(x) for x in cvec)
    if len(c) != data.quiver.n:
        raise ValueError("c-vector length mismatch")
    if not any(c) or any(x < 0 for x in c):
        raise NotPositive(f"{c} is not a positive c-vector")
    normal = tuple(
        sum(c[i] * data.exchange.at(i, j) for i in range(len(c)))
        for j in range(len(c))
    )
    if slice_data is not None:
        if c not in slice_data.module_dimension_vectors():
            raise NotARoot(f"{c} is not a module dimension vector of the knitted slice")
        mesh = slice_data.mesh_at(c)
        if mesh is not None:
            total = [0] * len(c)
            for pos in mesh.middles:
                for i, x in enumerate(g_vector(data, slice_data.objects[pos])):
                    total[i] += x
            if tuple(total) != normal:
                raise ConventionViolation(
                    "mesh g-vector sum disagrees with the transposed product route"
                )
    return normal


def kernel_certificates(data, cvectors):
    """Minimal positive relations among two-term g-vector sums.

    For each positive vector in the input, let w = g(X) + g(tau^-1 X) where
    dim X is that vector. The result lists every minimal subset H of the
    positive inputs admitting strictly positive multipliers lambda with
    sum over H of lambda_k w_k = 0, as (indices into the input, integer
    lambda) pairs. Non-positive inputs are skipped (mixed-sign systems
    belong to the Farkas route in the cone module). Strict positivity is
    decided exactly: lambda > 0 exists iff minus the plain sum of the w_k
    lies back in their conic hull, and then lambda = 1 + mu.
    """
    vectors = [tuple(_exact_int(x) for x in c) for c in cvectors]
    positive = [
        i for i, c in enumerate(vectors) if any(c) and all(x >= 0 for x in c)
    ]
    sums = {}
    for i in positive:
        obj = DerivedObject(vectors[i])
        g_here = g_vector(data, obj)
        g_next = g_vector(data, tau_inverse_dim(data, obj))
        sums[i] = tuple(a + b for a, b in zip(g_here, g_next))
    certificates = []
    found_subsets = []
    for size in range(1, len(positive) + 1):
        for subset in combinations(positive, size):
            if any(set(prev) <= set(subset) for prev in found_subsets):
                continue
            target = tuple(-sum(col) for col in zip(*(sums[i] for i in subset)))
            mu = conic_membership(target, [sums[i] for i in subset])
            if mu is None:
                continue
            lam = clear_multipliers([1 + m for m in mu])
            found_subsets.append(subset)
            certificates.append((subset, lam))
    return certificates
