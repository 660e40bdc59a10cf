"""Exact integer matrix layer."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from xfan import (
    DerivedObject,
    IntMatrix,
    LaurentPolynomial,
    Quiver,
    build_system,
    conic_membership,
    contains,
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
    quiver_of,
    tau_inverse_dim,
    theta,
    validate,
    verify_dv_gv,
)
from xfan.intmat import clear_multipliers

from oracles import fraction_rank


def test_rank_frozen_cases():
    assert IntMatrix([[0, 1, 0], [0, -1, 0]]).rank() == 1
    assert IntMatrix([[0, 1, 0], [1, -1, 1], [-1, 0, -1]]).rank() == 2


def test_rank_matches_fraction_elimination():
    rng = random.Random(20240811)
    for _ in range(60):
        rows = [[rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] for _ in range(rng.randint(1, 5))]
        width = len(rows[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in rows]
        assert IntMatrix(rows).rank() == fraction_rank(rows)


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
BETA = (1.7, 0)


def _a2_catalog():
    return enumerate_pattern(validate(B_A2))


def _a3_data():
    return path_algebra_data(quiver_of(validate([[0, 1, 0], [-1, 0, -1], [0, 1, 0]])))


@pytest.mark.parametrize(
    "call",
    [
        lambda: IntMatrix([[1.5]]),
        lambda: validate(B_A2, d=[1.5, 1.9]),
        lambda: p_star(validate(B_A2), BETA),
        lambda: locate(BETA, _a2_catalog()),
        lambda: theta(BETA, _a2_catalog()),
        lambda: contains(build_system(_a2_catalog().nodes[0], validate(B_A2)), BETA),
        lambda: conic_membership(BETA, [(1, 0), (0, 1)]),
        lambda: conic_membership((1, 0), [(1.5, 0)]),
        lambda: LaurentPolynomial(1, {(1.5,): 2}),
        lambda: LaurentPolynomial(1, {(1,): 2.5}),
        lambda: LaurentPolynomial.monomial(2, BETA),
        lambda: LaurentPolynomial.one(1) ** 1.5,
        lambda: DerivedObject((0.5, 1, 0)),
        lambda: g_vector(_a3_data(), (1.5, 0.2, 0)),
        lambda: tau_inverse_dim(_a3_data(), (1.5, 0, 0)),
        lambda: verify_dv_gv(_a3_data(), (1.5, 0, 0)),
        lambda: normal_vector(_a3_data(), (1.7, 0, 0)),
        lambda: kernel_certificates(_a3_data(), [(1.5, 0, 0)]),
        lambda: knit(_a3_data()).mesh_at((0.5, 1, 0)),
        lambda: Quiver(1.5, []),
    ],
    ids=[
        "IntMatrix", "validate-d", "p_star", "locate", "theta", "contains",
        "conic_membership-target", "conic_membership-generator",
        "laurent-exponent", "laurent-coefficient", "laurent-monomial", "laurent-pow",
        "DerivedObject", "g_vector", "tau_inverse_dim", "verify_dv_gv",
        "normal_vector", "kernel_certificates", "mesh_at", "Quiver",
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


def test_kernel_vectors_annihilate():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))])
        basis = integer_kernel_basis(m)
        assert len(basis) == n - m.rank()
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
