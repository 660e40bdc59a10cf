"""Path-algebra data, AR-quiver knitting, and hyperplane normals.

Everything here assumes an acyclic skew-symmetric seed, whose quiver is
the arrow matrix A = [B]_+ read entrywise off the exchange matrix, so that
B = A - A^T. The Cartan matrix C counts paths, so its inverse is I minus
the arrow matrix. An object of the derived category is known by its
dimension vector, a tuple of ints; a negative vector is a shift. Inverse
AR translation acts on classes through the inverse Coxeter matrix
-C.C^-T, so for every class the g-vector of X + tau^-1 X is
(C^-1 - C^-T).dim X = (A^T - A).dim X = -B.dim X: the normals and the
kernel certificates read B and nothing else.
"""

from itertools import compress
from operator import add

from .cones import _extreme_rays
from .errors import (
    ConventionViolation,
    DimensionMismatch,
    ExhaustionCapExceeded,
    NotAcyclic,
    NotARoot,
    NotPositive,
    NotRepresentationFinite,
    NotSkewSymmetric,
)
from .intmat import Frozen, IntMatrix, _exact_int, gauss_jordan
from .pattern import NODE_CAP


class PathAlgebraData(Frozen):
    """Arrow, Cartan, inverse Cartan, inverse Coxeter and exchange matrices."""

    __slots__ = ("arrows", "cartan", "cartan_inv", "coxeter_inv", "exchange")


class Mesh(Frozen):
    """source -> middles -> target positions in the knitted slice."""

    __slots__ = ("source", "middles", "target")


class ARQuiverSlice(Frozen):
    """Knitted translation-quiver slices.

    ``objects`` maps a position (m, v) to the dimension vector, a tuple of
    ints, of the object obtained by applying the inverse translation m times
    to the projective at vertex v; a negative vector is a shifted object;
    ``meshes`` records the mesh with each source position whose target
    stayed inside the window; ``exhaustive`` says whether knitting ran to
    the end of the module category (Dynkin case).
    """

    __slots__ = ("objects", "meshes", "exhaustive")

    def module_dimension_vectors(self):
        """Sorted dims of the module vertices (nonnegative positions)."""
        return tuple(sorted({dim for dim in self.objects.values() if min(dim) >= 0}))

    def mesh_at(self, dim):
        """The recorded mesh whose source has the given dimension vector."""
        target = tuple(_exact_int(x) for x in dim)
        for mesh in self.meshes:
            if self.objects[mesh.source] == target:
                return mesh
        return None


def _path_counts(arrows):
    """I + A + A^2 + ..., A the arrow matrix, or None when A^n != 0.

    Entry (i, j) counts the paths from i to j, arrows weighted by
    multiplicity. The series is finite exactly when A is nilpotent, that
    is when the quiver has no oriented cycle.
    """
    power = total = IntMatrix.identity(arrows.rows)
    for _ in range(arrows.rows):
        power = power.mul(arrows)
        if not any(map(any, power.entries)):
            return total
        total = IntMatrix._trusted(
            tuple(tuple(map(add, r, s)) for r, s in zip(total.entries, power.entries))
        )
    return None


def path_algebra_data(em):
    """Path algebra data of an acyclic skew-symmetric exchange matrix.

    The arrow matrix is A = [B]_+. The Cartan matrix has entry (j, i) =
    number of paths from j to i, so its columns are the dimension vectors
    of the indecomposable projectives. It is the geometric series of the
    nilpotent A, so its inverse is I - A.

    Raises NotSkewSymmetric unless B^T = -B with d = (1, ..., 1), then
    NotAcyclic when the quiver has an oriented cycle.
    """
    if not em.is_skew_symmetric():
        raise NotSkewSymmetric("quiver construction needs B^T = -B with d = (1,...,1)")
    arrows = IntMatrix._trusted(tuple(tuple(max(x, 0) for x in row) for row in em.B.entries))
    cartan = _path_counts(arrows)
    if cartan is None:
        raise NotAcyclic("path algebra data needs an acyclic quiver")
    cartan_inv = IntMatrix._trusted(
        tuple(
            tuple(int(i == j) - x for j, x in enumerate(row))
            for i, row in enumerate(arrows.entries)
        )
    )
    coxeter_inv = cartan.mul(cartan_inv.transpose()).neg()
    return PathAlgebraData(arrows, cartan, cartan_inv, coxeter_inv, em.B)


def _vector(data, vec, name):
    """``vec`` as a tuple of ints; DimensionMismatch unless its length is the rank."""
    v = tuple(_exact_int(x) for x in vec)
    if len(v) != data.exchange.rows:
        raise DimensionMismatch(f"{name} has length {len(v)}, expected {data.exchange.rows}")
    return v


def g_vector(data, dim):
    """g = inverse Cartan times the dimension vector (as a column), of length n."""
    return data.cartan_inv.mul_vec(_vector(data, dim, "dim"))


def tau_inverse_dim(data, dim):
    """Inverse AR translate on classes: inverse Coxeter times the dim column, of length n."""
    return data.coxeter_inv.mul_vec(_vector(data, dim, "dim"))


def _tits_form_positive(B):
    """Is the Tits form 2I - |B|, |B| taken entrywise, positive definite?

    For a skew-symmetric B, |B| = A + A^T with A the arrow matrix. By
    Gabriel's theorem the form is positive definite exactly when every
    component of the underlying graph is simply laced Dynkin, and by
    Sylvester's criterion exactly when ``gauss_jordan`` takes all n pivots:
    pivot k has the sign of D(k + 1)/D(k), D(j) the leading minor of order j.
    """
    q = [[2 * (i == j) - abs(x) for j, x in enumerate(row)] for i, row in enumerate(B.entries)]
    return gauss_jordan(q, B.rows)[0] == B.rows


def _components(arrows):
    """Vertex lists of the connected components of the quiver, each ascending."""
    parts = []
    for v, row in enumerate(arrows.entries):
        linked = {v}.union(w for w, x in enumerate(row) if x)
        for part in [p for p in parts if linked & p]:
            parts.remove(part)
            linked |= part
        parts.append(linked)
    return [sorted(part) for part in parts]


def knit(data, window=None):
    """Slices of the translation quiver starting from the projectives.

    Position (m, v) holds the m-fold inverse translate of the projective at
    vertex v; the mesh at (m, v) has middles (m, w) for arrows v -> w and
    (m + 1, u) for arrows u -> v, target (m + 1, v), and dimension vectors
    add up across it by construction. With ``window=None`` the quiver must
    be of Dynkin type, and each connected component stops at its own first
    slice without module vertices: that slice, already shifted, is kept as
    the component's boundary, and meshes lie below it. A component with a
    smaller Coxeter number would otherwise come back to modules shifted
    by [2]. With a window, exactly ``window`` translation steps are
    produced.

    Raises NotRepresentationFinite when exhaustive knitting is requested
    outside Dynkin type, and ExhaustionCapExceeded, before knitting, when
    a window holds more than NODE_CAP positions.
    """
    n = data.exchange.rows
    if window is None:
        if not _tits_form_positive(data.exchange):
            raise NotRepresentationFinite(
                "exhaustive knitting needs a Dynkin underlying graph; pass a window"
            )
        exhaustive = True
        components = _components(data.arrows)
    else:
        window = _exact_int(window)
        if window < 0:
            raise ValueError("window must be nonnegative")
        if n * (window + 1) > NODE_CAP:
            raise ExhaustionCapExceeded(f"a window of {n * (window + 1)} positions exceeds {NODE_CAP}")
        exhaustive = False
    objects = {}
    current = [data.cartan.col(v) for v in range(n)]
    last = {}  # vertex -> its last slice
    m = 0
    hard_cap = 4 * n * n + 64
    while True:
        for v, dim in enumerate(current):
            if v not in last:
                objects[(m, v)] = dim
        if exhaustive:
            for part in components:
                if part[0] not in last and not any(min(current[v]) >= 0 for v in part):
                    last.update(dict.fromkeys(part, m))
            if len(last) == n:
                break
            if m > hard_cap:
                raise ConventionViolation("knitting failed to terminate on a Dynkin quiver")
        elif m >= window:
            last = dict.fromkeys(range(n), m)
            break
        current = [data.coxeter_inv.mul_vec(dim) for dim in current]
        m += 1
    # out- then in-neighbours, each in ascending vertex order and repeated
    # per multiplicity: `ar` documents print the middles in this order
    arrows = data.arrows.entries
    meshes = tuple(
        Mesh(
            (i, v),
            tuple((i, w) for w, mult in enumerate(arrows[v]) for _ in range(mult))
            + tuple((i + 1, u) for u, row in enumerate(arrows) for _ in range(row[v])),
            (i + 1, v),
        )
        for i in range(m)
        for v in range(n)
        if i < last[v]
    )
    for mesh in meshes:
        total = [0] * n
        for pos in mesh.middles:
            for i, x in enumerate(objects[pos]):
                total[i] += x
        source = objects[mesh.source]
        target = objects[mesh.target]
        if tuple(a - b for a, b in zip(total, source)) != target:
            raise ConventionViolation("mesh additivity failed in knitting")
    return ARQuiverSlice(objects, meshes, exhaustive)


def normal_vector(data, cvec, slice_data=None):
    """Hyperplane normal attached to a positive c-vector.

    Returns the integer vector (c^T.B)^T = -B.c, the g-vector of X + tau^-1 X
    for dim X = c, which is also the sum of the g-vectors over the middles
    of the mesh at X because ``knit`` verified mesh additivity. When a
    knitted slice is supplied the c-vector must appear among its module
    dimension vectors (NotARoot otherwise). A c-vector of the wrong length
    raises DimensionMismatch.
    """
    c = _vector(data, cvec, "cvec")
    if not any(c) or any(x < 0 for x in c):
        raise NotPositive(f"{c} is not a positive c-vector")
    if slice_data is not None and c not in slice_data.module_dimension_vectors():
        raise NotARoot(f"{c} is not a module dimension vector of the knitted slice")
    return data.exchange.transpose().mul_vec(c)


def kernel_certificates(data, cvectors):
    """Minimal positive relations among two-term g-vector sums.

    For each positive vector c in the input, the g-vector of X + tau^-1 X
    with dim X = c is -B.c; negating every vector leaves the relation cone
    alone, so the relations are read off B.c. The result lists every
    minimal subset H of the positive inputs admitting strictly positive
    multipliers lambda with sum over H of lambda_k B.c_k = 0, as (indices
    into the input, integer lambda) pairs, ordered by size and then by
    subset. Non-positive inputs are skipped; an input of the wrong length
    raises DimensionMismatch. The minimal subsets are the supports of the
    extreme rays of {lambda >= 0 : sum lambda_k B.c_k = 0}, and lambda is
    the primitive ray.
    """
    vectors = [_vector(data, c, "cvector") for c in cvectors]
    positive = [
        i for i, c in enumerate(vectors) if any(c) and all(x >= 0 for x in c)
    ]
    if not positive:
        return []
    rays = _extreme_rays(zip(*(data.exchange.mul_vec(vectors[i]) for i in positive)), len(positive))
    certificates = [(tuple(compress(positive, lam)), tuple(filter(None, lam))) for lam in rays]
    return sorted(certificates, key=lambda item: (len(item[0]), item[0]))
