"""Exact cluster-complex toolkit.

Enumerates the seeds of a cluster Poisson variety by matrix mutation,
cuts the cones of the associated complex out of c-matrix inequality
systems, evaluates theta functions on integral points, and (for acyclic
skew-symmetric seeds) recovers supporting-hyperplane normals from the
representation theory of the path algebra. All arithmetic is exact.
"""

from .cones import (
    ConeDescription,
    Facet,
    build_system,
    canonical_key,
    classify,
)
from .errors import (
    ConventionViolation,
    DimensionMismatch,
    DualityViolation,
    ExhaustionCapExceeded,
    ExponentNegative,
    IndexOutOfRange,
    NotAcyclic,
    NotARoot,
    NotInVisitedComplex,
    NotPositive,
    NotRepresentationFinite,
    NotSkewSymmetric,
    NotSkewSymmetrizable,
    SignCoherenceViolation,
    XfanError,
)
from .fan import ThetaFunction, XCone, XFanReport, assemble_fan, locate, theta
from .intmat import (
    IntMatrix,
    hnf_rows,
    integer_kernel_basis,
    primitive_vector,
)
from .laurent import LaurentPolynomial, divide_exact
from .pattern import (
    DEFAULT_DEPTH,
    PatternCatalog,
    PatternNode,
    RelabelledNode,
    enumerate_pattern,
    initial_node,
    mutate_node,
    positive_c_vectors,
)
from .reptheory import (
    ARQuiverSlice,
    Mesh,
    PathAlgebraData,
    g_vector,
    kernel_certificates,
    knit,
    normal_vector,
    path_algebra_data,
    tau_inverse_dim,
)
from .seed import (
    ExchangeMatrix,
    mutate,
    p_star,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ARQuiverSlice",
    "ConeDescription",
    "ConventionViolation",
    "DEFAULT_DEPTH",
    "DimensionMismatch",
    "DualityViolation",
    "ExchangeMatrix",
    "ExhaustionCapExceeded",
    "ExponentNegative",
    "Facet",
    "IndexOutOfRange",
    "IntMatrix",
    "LaurentPolynomial",
    "Mesh",
    "NotAcyclic",
    "NotARoot",
    "NotInVisitedComplex",
    "NotPositive",
    "NotRepresentationFinite",
    "NotSkewSymmetric",
    "NotSkewSymmetrizable",
    "PathAlgebraData",
    "PatternCatalog",
    "PatternNode",
    "RelabelledNode",
    "SignCoherenceViolation",
    "ThetaFunction",
    "XCone",
    "XFanReport",
    "XfanError",
    "assemble_fan",
    "build_system",
    "canonical_key",
    "classify",
    "divide_exact",
    "enumerate_pattern",
    "g_vector",
    "hnf_rows",
    "initial_node",
    "integer_kernel_basis",
    "kernel_certificates",
    "knit",
    "locate",
    "mutate",
    "mutate_node",
    "normal_vector",
    "p_star",
    "path_algebra_data",
    "positive_c_vectors",
    "primitive_vector",
    "tau_inverse_dim",
    "theta",
    "validate",
]
