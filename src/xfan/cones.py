"""Exact polyhedral analysis of the homogeneous systems A.beta >= 0.

Row i of A is the i-th c-vector (transposed) times the root exchange matrix.
Implicit equalities are detected by the homogeneous Farkas criterion: row k
holds with equality on the whole solution set exactly when -a_k lies in the
conic hull of the rows, and the certificate (a positive integer combination
of rows summing to zero) is kept. Dimension drops by the rank of the
implicit rows; facets are the non-redundant strict rows after grouping
positive multiples.
"""

from fractions import Fraction
from itertools import combinations

from .intmat import (
    Frozen,
    IntMatrix,
    _exact_int,
    clear_multipliers,
    hnf_rows,
    integer_kernel_basis,
    primitive_vector,
)


class InequalitySystem(Frozen):
    """The system A.beta >= 0 attached to one pattern node."""

    __slots__ = ("A", "history")

    def __init__(self, A, history=()):
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "history", tuple(history))

    def __repr__(self):
        return f"InequalitySystem(rows={[list(r) for r in self.A.entries]}, history={self.history})"


class Facet(Frozen):
    """One facet: a representative row index plus every supporting row."""

    __slots__ = ("representative", "supporting")

    def __init__(self, representative, supporting):
        object.__setattr__(self, "representative", representative)
        object.__setattr__(self, "supporting", tuple(supporting))

    def __eq__(self, other):
        return isinstance(other, Facet) and (
            self.representative,
            self.supporting,
        ) == (other.representative, other.supporting)

    def __repr__(self):
        return f"Facet(representative={self.representative}, supporting={list(self.supporting)})"


class ConeDescription(Frozen):
    """Classification of one inequality system.

    Indices are 0-based positions into the system's rows. ``implicit`` and
    ``strict`` partition them, ``facets`` lists the facet classes,
    ``dim`` is the cone dimension, ``lineality_basis`` spans {A.beta = 0}
    over the integers, and ``implicit_certificates`` maps each implicit row
    to the positive integer row combination witnessing it (coefficient per
    row, the tested row included with coefficient >= 1).
    """

    __slots__ = (
        "system",
        "implicit",
        "strict",
        "facets",
        "dim",
        "lineality_basis",
        "implicit_certificates",
    )

    def __init__(self, system, implicit, strict, facets, dim, lineality_basis, certificates):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "implicit", tuple(implicit))
        object.__setattr__(self, "strict", tuple(strict))
        object.__setattr__(self, "facets", tuple(facets))
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "lineality_basis", tuple(lineality_basis))
        object.__setattr__(self, "implicit_certificates", dict(certificates))


def build_system(node, root_em):
    """A = C_t^T . B for the root exchange matrix B."""
    A = node.C_t.transpose().mul(root_em.B)
    return InequalitySystem(A, node.history)


def conic_membership(v, generators):
    """Nonnegative rational multipliers expressing v in the conic hull.

    Returns a tuple of Fractions aligned with ``generators`` (zeros for
    unused ones), or None when v is outside the cone. Decision is exact:
    by Caratheodory it suffices to scan linearly independent subsets, in
    ascending size and lexicographic order, solving each system through
    its integer kernel. Certificate choice is deterministic. The scan visits
    every subset of at most n generators, and the generator count is not
    bounded by n: classify passes all m rows to each implicit-row check, and
    up to m - 1 + |implicit| to each facet check (the other strict rows, and
    the implicit rows with both signs).
    """
    v = tuple(_exact_int(x) for x in v)
    gens = [tuple(_exact_int(x) for x in g) for g in generators]
    length = len(v)
    if any(len(g) != length for g in gens):
        raise ValueError("generators and target must share a length")
    if all(x == 0 for x in v):
        return tuple(Fraction(0) for _ in gens)
    bound = min(len(gens), length)
    for size in range(1, bound + 1):
        for subset in combinations(range(len(gens)), size):
            sol = _solve_exact([gens[i] for i in subset], v)
            if sol is None:
                continue
            numerators, denominator = sol
            if all(x >= 0 for x in numerators):
                lam = [Fraction(0)] * len(gens)
                for i, x in zip(subset, numerators):
                    lam[i] = Fraction(x, denominator)
                return tuple(lam)
    return None


def _solve_exact(columns, target):
    """Solve sum_i x_i columns[i] = target when the columns are independent.

    The integer kernel of the matrix [columns | target] is a single line
    with last coordinate t != 0 exactly when the columns are independent
    and the system is consistent, and then x = -(kernel line)/t. Returns
    the numerators and the positive common denominator of that unique
    solution, or None when the columns are dependent (skip; a smaller
    subset covers it) or the system is inconsistent.
    """
    aug = IntMatrix._trusted(
        tuple(tuple(c[r] for c in columns) + (target[r],) for r in range(len(target)))
    )
    kernel = integer_kernel_basis(aug)
    if len(kernel) != 1 or kernel[0][-1] == 0:
        return None
    *x, t = kernel[0]
    if t > 0:
        return [-v for v in x], t
    return x, -t


def classify(system):
    """Full cone classification: implicit rows, dimension, facets, lineality.

    Row k is implicit iff -a_k lies in the conic hull of all rows; the
    returned certificate is the integer-cleared positive combination that
    sums to zero. The dimension is n minus the rank of the implicit rows.
    Strict rows are grouped by primitive direction; a group representative
    is redundant when it lies in the cone of the other strict groups plus
    the span of the implicit rows, and each surviving group is one facet
    reported with all of its supporting rows. A zero matrix yields the
    whole space: dimension n, no facets.
    """
    A = system.A
    n = A.cols
    rows = [A.row(i) for i in range(A.rows)]
    implicit = []
    strict = []
    certificates = {}
    for k, row in enumerate(rows):
        neg = tuple(-x for x in row)
        lam = conic_membership(neg, rows)
        if lam is None:
            strict.append(k)
            continue
        implicit.append(k)
        relation = list(lam)
        relation[k] += 1  # a_k + sum lambda_i a_i = 0
        certificates[k] = clear_multipliers(relation)
    if implicit:
        implicit_rank = IntMatrix([rows[i] for i in implicit]).rank()
    else:
        implicit_rank = 0
    dim = n - implicit_rank
    groups = {}
    for j in strict:
        groups.setdefault(primitive_vector(rows[j]), []).append(j)
    span_rows = [rows[i] for i in implicit]
    facets = []
    for direction in sorted(groups):
        members = groups[direction]
        rep = min(members)
        others = [rows[j] for j in strict if j not in members]
        others += span_rows
        others += [tuple(-x for x in r) for r in span_rows]
        if others and conic_membership(rows[rep], others) is not None:
            continue
        facets.append(Facet(rep, sorted(members)))
    facets.sort(key=lambda f: f.representative)
    lineality = integer_kernel_basis(A)
    return ConeDescription(system, implicit, strict, facets, dim, lineality, certificates)


def contains(system, beta):
    """True iff A.beta >= 0 componentwise."""
    beta = tuple(_exact_int(x) for x in beta)
    if len(beta) != system.A.cols:
        raise ValueError("beta length mismatch")
    return all(x >= 0 for x in system.A.mul_vec(beta))


def canonical_key(desc):
    """Hashable key equal between descriptions iff the point sets are equal.

    The cone is the intersection of its linear span with the facet
    halfspaces, so the key records the span (as the Hermite-normal-form
    basis of the kernel of the implicit rows), each facet functional
    restricted to that basis and made primitive, and the lineality basis,
    also in Hermite normal form. The span basis is canonical per subspace,
    which makes the restricted functionals comparable across systems.
    """
    system = desc.system
    n = system.A.cols
    rows = system.A.entries
    if desc.implicit:
        span = integer_kernel_basis([rows[i] for i in desc.implicit])
    else:
        span = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    functionals = set()
    for facet in desc.facets:
        a = rows[facet.representative]
        restricted = tuple(sum(x * y for x, y in zip(a, basis_row)) for basis_row in span)
        functionals.add(primitive_vector(restricted))
    lineality = hnf_rows(desc.lineality_basis)
    return (n, span, tuple(sorted(functionals)), lineality)
