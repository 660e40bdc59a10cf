"""Exception types shared across the package.

Every domain failure raises a subclass of :class:`XfanError`; the CLI maps
these to exit code 2, except :class:`ExhaustionCapExceeded`, which maps to
exit code 3. Plain ``ValueError`` is reserved for malformed caller input
(bad shapes, unparseable vectors), which the CLI maps to exit code 1.
"""


class XfanError(Exception):
    """Base class for all domain errors; ``reason``, if set, names the case."""

    def __init__(self, message, reason=None):
        super().__init__(message)
        self.reason = reason


class ExponentNegative(XfanError):
    """Negative power requested of a polynomial that is not an invertible monomial."""


class NotSkewSymmetrizable(XfanError):
    """No positive integer diagonal D makes D.B skew-symmetric."""


class NotSkewSymmetric(XfanError):
    """Operation requires B with B^T = -B (unit skew-symmetrizer)."""


class IndexOutOfRange(XfanError):
    """Mutation direction outside 1..n."""


class DimensionMismatch(XfanError):
    """Vector length does not match the matrix rank n."""


class NotAcyclic(XfanError):
    """The quiver [B]_+ of a skew-symmetric seed has an oriented cycle."""


class DualityViolation(XfanError):
    """A mutated F lost its constant term 1; indicates an implementation bug."""


class SignCoherenceViolation(XfanError):
    """A c-matrix column with mixed signs; indicates an implementation bug."""


class ConventionViolation(XfanError):
    """A convention oracle failed (mesh additivity, knitting cap)."""


class NotRepresentationFinite(XfanError):
    """Exhaustive knitting requested for a quiver that is not of Dynkin type."""


class NotPositive(XfanError):
    """c-vector with a negative entry (or zero) where a positive one is required."""


class NotARoot(XfanError):
    """c-vector is not a module dimension vector of the knitted slice."""


class NotInVisitedComplex(XfanError):
    """No visited cone contains the requested integral point.

    ``reason`` is "outside_complex" when the catalog is complete (the point
    genuinely lies outside the support of the complex) and "beyond_depth"
    when the search was truncated and the point might live in an unvisited
    cone.
    """


class ExhaustionCapExceeded(XfanError):
    """An enumeration gave up, with ``reason`` None at node_cap + 1 nodes.

    Every walk and knitting window has a cap, ``pattern.NODE_CAP`` by default
    and in the CLI; a walk without a depth bound also raises it, with reason
    "infinite_type", at a B_t of infinite type, and an F exchange relation
    with a side whose Newton box holds more than NODE_CAP lattice points
    raises it with reason "f_polynomial_budget".
    """
