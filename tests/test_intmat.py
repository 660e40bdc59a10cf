"""Exact integer matrix layer."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd

import pytest
import sympy

from xfan import (
    IntMatrix,
    LaurentPolynomial,
    assemble_fan,
    build_system,
    classify,
    enumerate_pattern,
    g_vector,
    hnf_rows,
    integer_kernel_basis,
    kernel_certificates,
    knit,
    locate,
    normal_vector,
    p_star,
    path_algebra_data,
    primitive_vector,
    tau_inverse_dim,
    theta,
    validate,
)
from xfan.intmat import Frozen, Value, gauss_jordan

from oracles import clear_multipliers, cofactor_adjugate, fraction_det, fraction_rank, sympy_inverse


def _kernel_rank(rows):
    """Rank as columns minus the dimension of the saturated integer kernel."""
    return len(rows[0]) - len(integer_kernel_basis(rows))


def test_rank_frozen_cases():
    assert _kernel_rank([[0, 1, 0], [0, -1, 0]]) == 1
    assert _kernel_rank([[0, 1, 0], [1, -1, 1], [-1, 0, -1]]) == 2


def test_rank_matches_fraction_elimination():
    rng = random.Random(20240811)
    for _ in range(60):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 5))]
        width = len(rows[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in rows]
        assert _kernel_rank(rows) == fraction_rank(rows)


def test_non_integer_entries_rejected():
    with pytest.raises(ValueError, match="integer entries required"):
        IntMatrix([[1.5]])
    with pytest.raises(ValueError, match="integer entries required"):
        validate([[0, 1.7], [-1, 0]])
    # integral values of other numeric types are accepted and stored as int
    m = IntMatrix([[Fraction(2), 3.0, True]])
    assert m.entries == ((2, 3, 1),)
    assert all(type(x) is int for x in m.entries[0])


B_A2 = [[0, 1], [-1, 0]]
B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
BETA = (1.7, 0)


def _a2_catalog():
    return enumerate_pattern(validate(B_A2))


def _a3_data():
    return path_algebra_data(validate(B_A3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: IntMatrix([[1.5]]),
        lambda: validate(B_A2, d=[1.5, 1.9]),
        lambda: p_star(validate(B_A2), BETA),
        lambda: locate(BETA, _a2_catalog()),
        lambda: theta(BETA, _a2_catalog()),
        lambda: LaurentPolynomial(1, {(1.5,): 2}),
        lambda: LaurentPolynomial(1, {(1,): 2.5}),
        lambda: LaurentPolynomial(2, {BETA: 1}),
        lambda: LaurentPolynomial.one(1) ** 1.5,
        lambda: g_vector(_a3_data(), (1.5, 0.2, 0)),
        lambda: tau_inverse_dim(_a3_data(), (1.5, 0, 0)),
        lambda: normal_vector(_a3_data(), (1.7, 0, 0)),
        lambda: kernel_certificates(_a3_data(), [(1.5, 0, 0)]),
        lambda: knit(_a3_data()).mesh_at((0.5, 1, 0)),
        lambda: integer_kernel_basis([(1.5, 1)]),
        lambda: hnf_rows([(1.5, 1), (2, 0)]),
        lambda: knit(_a3_data(), window=2.5),
        lambda: enumerate_pattern(validate(B_A2), max_depth=1.5),
        lambda: enumerate_pattern(validate(B_A2), node_cap=2.5),
    ],
    ids=[
        "IntMatrix", "validate-d", "p_star", "locate", "theta",
        "laurent-exponent", "laurent-coefficient", "laurent-monomial", "laurent-pow",
        "g_vector", "tau_inverse_dim", "normal_vector", "kernel_certificates", "mesh_at",
        "integer_kernel_basis", "hnf_rows",
        "knit-window", "enumerate_pattern-max_depth", "enumerate_pattern-node_cap",
    ],
)
def test_non_integral_input_raises(call):
    with pytest.raises(ValueError, match="integer entries required"):
        call()


def test_mul_vec_and_transpose():
    m = IntMatrix([[1, 2], [3, 4]])
    assert m.mul_vec((1, 1)) == (3, 7)
    assert m.transpose().entries == ((1, 3), (2, 4))
    assert m.neg().entries == ((-1, -2), (-3, -4))


def test_shape_checks():
    m = IntMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError, match="^matrix needs at least one row$"):
        IntMatrix.identity(0)
    assert IntMatrix.identity(1).entries == ((1,),)
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        m.mul(m)
    assert m.mul(m.transpose()).entries == ((14, 32), (32, 77))
    for vec in ((1, 1), (1, 1, 1, 1)):
        with pytest.raises(ValueError, match="^vector length mismatch$"):
            m.mul_vec(vec)


def test_hnf_rows():
    assert hnf_rows([[1, 2], [3, 4]]) == ((1, 0), (0, 2))
    assert hnf_rows([[2, 4]]) == ((2, 4),)
    assert hnf_rows([[0, 0], [0, 0]]) == ()
    # already in echelon form with entries above the pivot reduced
    assert hnf_rows([[3, 3, 3], [0, 6, 0]]) == ((3, 3, 3), (0, 6, 0))
    # row order must not matter
    assert hnf_rows([[3, 4], [1, 2]]) == hnf_rows([[1, 2], [3, 4]])


def test_hnf_rows_idempotent():
    rng = random.Random(5)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(3)]
        once = hnf_rows(rows)
        assert hnf_rows([list(r) for r in once]) == once


def test_integer_kernel_basis():
    b = IntMatrix([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])
    assert integer_kernel_basis(b) == ((1, 0, -1),)
    assert integer_kernel_basis(IntMatrix([[0, 0], [0, 0]])) == ((1, 0), (0, 1))
    assert integer_kernel_basis(IntMatrix([[1, 0], [0, 1]])) == ()


def test_ragged_or_empty_rows_raise():
    for call in (integer_kernel_basis, hnf_rows):
        with pytest.raises(ValueError, match="equal length"):
            call([(1, 0), (0, 1, 5)])
        with pytest.raises(ValueError, match="equal length"):
            call([(1, 0, 0), (0, 1)])
    with pytest.raises(ValueError, match="at least one row"):
        integer_kernel_basis([])
    assert hnf_rows([]) == ()


def test_kernel_vectors_annihilate():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))])
        basis = integer_kernel_basis(m)
        assert len(basis) == n - fraction_rank(m.entries)
        for v in basis:
            assert m.mul_vec(v) == tuple([0] * m.rows)


def test_primitive_vector():
    assert primitive_vector((0, 0, 0)) == (0, 0, 0)
    assert primitive_vector((-2, 4, -6)) == (-1, 2, -3)
    assert primitive_vector((0, -3)) == (0, -1)
    assert primitive_vector((7,)) == (1,)


def test_clear_multipliers():
    assert clear_multipliers((1, 2, 3)) == (1, 2, 3)
    assert clear_multipliers([Fraction(1, 2), Fraction(2, 3)]) == (3, 4)
    # the result is normalized to coprime entries
    assert clear_multipliers([Fraction(5)]) == (1,)
    assert clear_multipliers([Fraction(2), Fraction(4)]) == (1, 2)


@lru_cache(maxsize=None)
def _a3_values():
    """One instance of every immutable value class, all built from A3."""
    em = validate(B_A3)
    catalog = enumerate_pattern(em)
    node = catalog.seeds[1]
    relabelled = next(other for other in catalog.nodes if other.perm != (0, 1, 2))
    description = classify(build_system(node, em))
    report = assemble_fan(catalog)
    data = _a3_data()
    slice_data = knit(data)
    values = (
        data.arrows, LaurentPolynomial.one(3), em, node, relabelled, catalog.nodes, catalog,
        description.facets[0], description, report.cones[0], report,
        theta((3, -1, 0), catalog), data, slice_data.meshes[0], slice_data,
    )
    return {type(v).__name__: v for v in values}


VALUE_CLASSES = (
    "IntMatrix", "LaurentPolynomial", "ExchangeMatrix", "PatternNode", "RelabelledNode",
    "LabelledNodes", "PatternCatalog", "Facet", "ConeDescription", "XCone",
    "XFanReport", "ThetaFunction", "PathAlgebraData", "Mesh", "ARQuiverSlice",
)


def _subclasses(cls):
    """Every class below ``cls``, at any depth."""
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_is_frozen():
    # Value is the slot-less base of the classes that compare by value
    names = sorted(cls.__name__ for cls in _subclasses(Frozen) if cls is not Value)
    assert names == sorted(VALUE_CLASSES)
    assert sorted(_a3_values()) == sorted(VALUE_CLASSES)


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_immutability(name):
    value = _a3_values()[name]
    cls = type(value)
    # construction filled every slot
    for field in cls.__slots__:
        getattr(value, field)
    slot = cls.__slots__[0]
    before = getattr(value, slot)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        setattr(value, slot, None)
    with pytest.raises(AttributeError, match=f"{name} is immutable"):
        delattr(value, slot)
    assert getattr(value, slot) is before
    assert cls.__setattr__ is Frozen.__setattr__
    assert cls.__delattr__ is Frozen.__delattr__
    # copies and pickles restore the slots around the refusing __setattr__
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is cls
        assert pickle.dumps(copied) == pickle.dumps(value)
        if cls.__eq__ is not object.__eq__:
            assert copied == value


# classes that compare by value; the other Frozen classes compare by identity
VALUE_SEMANTICS = ("IntMatrix", "LaurentPolynomial", "ExchangeMatrix", "Facet")


@pytest.mark.parametrize("name", VALUE_SEMANTICS)
def test_value_semantics(name):
    values = _a3_values()
    value = values[name]
    cls = type(value)
    assert isinstance(value, Value)
    # a pickle round trip rebuilds every slot as a new, equal object
    twin = pickle.loads(pickle.dumps(value))
    assert twin is not value
    assert twin == value and not twin != value
    assert hash(twin) == hash(value)
    for slot in cls.__slots__:
        changed = copy.copy(value)
        object.__setattr__(changed, slot, object())
        assert changed != value and value != changed, slot
    assert value != tuple(getattr(value, slot) for slot in cls.__slots__)
    for other in VALUE_SEMANTICS:
        if other != name:
            assert value != values[other]


def test_other_classes_compare_by_identity():
    for name, value in _a3_values().items():
        if name not in VALUE_SEMANTICS:
            assert type(value).__eq__ is object.__eq__, name
            assert type(value).__hash__ is object.__hash__, name


def _holds_list(value):
    """Is ``value`` a list, or a tuple or dict with a list somewhere inside?"""
    if isinstance(value, list):
        return True
    if isinstance(value, tuple):
        return any(map(_holds_list, value))
    if isinstance(value, dict):
        return any(map(_holds_list, value)) or any(map(_holds_list, value.values()))
    return False


@pytest.mark.parametrize("name", VALUE_CLASSES)
def test_sequence_fields_are_tuples(name):
    value = _a3_values()[name]
    for field in type(value).__slots__:
        assert not _holds_list(getattr(value, field)), field


# classes whose only constructor is the slot filler of Frozen
FILLED_CLASSES = (
    "PatternNode", "RelabelledNode", "LabelledNodes", "PatternCatalog", "Facet", "ConeDescription",
    "ThetaFunction", "PathAlgebraData", "Mesh", "ARQuiverSlice",
)


@pytest.mark.parametrize("name", FILLED_CLASSES)
def test_slot_filler(name):
    value = _a3_values()[name]
    cls = type(value)
    fields = [getattr(value, slot) for slot in cls.__slots__]
    rebuilt = cls(*fields)
    assert all(getattr(rebuilt, slot) is field for slot, field in zip(cls.__slots__, fields))
    for wrong in (fields + [None], fields[:-1]):
        with pytest.raises(TypeError, match=f"^{name} takes {len(fields)} values, got {len(wrong)}$"):
            cls(*wrong)


def _positive_definite_grams(rng, count):
    """Gram matrices M^T.M of full column rank, which are positive definite, of order 1 to 6."""
    while count:
        n = rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + rng.randint(0, 2))])
        if not integer_kernel_basis(m):
            count -= 1
            yield m.transpose().mul(m).entries


def test_cofactor_adjugate_matches_the_rational_inverse():
    for gram in _positive_definite_grams(random.Random(5151), 150):
        inverse = sympy_inverse(gram)
        det = int(sympy.Matrix(gram).det())
        assert cofactor_adjugate(gram) == [[det * x for x in row] for row in inverse]


def test_gauss_jordan_solves_positive_definite_grams():
    # [A | R] ends with row i a positive multiple of [d.e_i | d.(A^-1.R)_i], d = det A
    rng = random.Random(5152)
    for gram in _positive_definite_grams(rng, 150):
        n, width = len(gram), rng.randint(0, 4)
        rhs = [[rng.randint(-5, 5) for _ in range(width)] for _ in range(n)]
        pivots, rows = gauss_jordan([g + tuple(r) for g, r in zip(gram, rhs)], n)
        assert pivots == n
        det = int(sympy.Matrix(gram).det())
        inverse = sympy_inverse(gram)
        for i, row in enumerate(rows):
            solution = [sum(det * a * r[j] for a, r in zip(inverse[i], rhs)) for j in range(width)]
            expected = [det * (i == j) for j in range(n)] + solution
            assert row[i] > 0 and [row[i] * x for x in expected] == [det * x for x in row], (gram, rhs)


def _random_square(rng, n, kind):
    """A random integer matrix of order n: small entries, singular, with a
    zero (1, 1) entry, or with entries of up to 300 digits. A singular one's
    last row is row 0 minus row (n - 1) // 2: two earlier rows from n = 3,
    the zero row below."""
    bound = 10**300 if kind == "huge" else 3
    rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    if n and kind == "singular":
        rows[-1] = [a - b for a, b in zip(rows[0], rows[(n - 1) // 2])]
    if n and kind == "zero corner":
        rows[0][0] = 0
    return rows


KINDS = ("small", "singular", "zero corner", "huge")


def test_fraction_det_matches_sympy():
    rng = random.Random(2401)
    swapped = 0
    for trial in range(400):
        n = rng.randint(0, 6)
        rows = _random_square(rng, n, KINDS[trial % 4])
        expected = int(sympy.Matrix(n, n, sum(rows, [])).det())
        assert fraction_det(rows) == expected, rows
        assert expected == 0 or not n or KINDS[trial % 4] != "singular", rows
        swapped += bool(n > 1 and not rows[0][0] and expected)
    # a zero pivot with a nonzero determinant takes the row swap
    assert swapped >= 20


def test_cofactor_adjugate_is_the_cofactor_matrix_of_sympy():
    rng = random.Random(2402)
    for trial in range(100):
        n = rng.randint(1, 6)
        rows = _random_square(rng, n, KINDS[trial % 4])
        expected = sympy.Matrix(rows).adjugate().tolist()
        assert cofactor_adjugate(rows) == [list(map(int, row)) for row in expected], rows


def _random_symmetric(rng, n, kind):
    """A symmetric version of ``_random_square``: R + R^T, whose corner stays
    zero for that kind, or R^T.diag(+-1).R, singular with R, for the singular kind."""
    rows = _random_square(rng, n, kind)
    if kind == "singular":
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        return [[sum(s * r[i] * r[j] for s, r in zip(signs, rows)) for j in range(n)] for i in range(n)]
    return [[a + b for a, b in zip(row, col)] for row, col in zip(rows, zip(*rows))]


def test_gauss_jordan_counts_the_positive_leading_minors():
    # Sylvester: pivot k has the sign of minor(k + 1) / minor(k)
    rng = random.Random(2403)
    counts = set()
    for trial in range(400):
        n = rng.randint(0, 6)
        rows = _random_symmetric(rng, n, KINDS[trial % 4])
        minors = [sympy.Matrix([row[:k] for row in rows[:k]]).det() for k in range(1, n + 1)]
        assert minors[-1:] in ([], [0]) or KINDS[trial % 4] != "singular", rows
        expected = next((k for k, minor in enumerate(minors) if minor <= 0), n)
        assert gauss_jordan(rows, n)[0] == expected, rows
        counts.add((expected, n))
    # pivot counts that stop early, in the middle and at the end
    assert {k for k, n in counts} >= {0, 1, 2, 3} and any(0 < k < n for k, n in counts)
    assert any(0 < k == n for k, n in counts)


def test_gauss_jordan_rows_are_primitive():
    # rows that start primitive stay so: each changed row is divided by its gcd
    rng = random.Random(2404)
    for trial in range(200):
        n = rng.randint(1, 6)
        rows = [primitive_vector(row) for row in _random_symmetric(rng, n, KINDS[trial % 4])]
        assert all(gcd(*row) in (0, 1) for row in gauss_jordan(rows, n)[1]), rows
