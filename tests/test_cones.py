"""Cone classification: implicit rows, facets, dimension, canonical keys."""

from __future__ import annotations

import random
from fractions import Fraction

from xfan import (
    IntMatrix,
    InequalitySystem,
    build_system,
    canonical_key,
    classify,
    conic_membership,
    contains,
    enumerate_pattern,
    initial_node,
    kernel_of_p_star,
    mutate_node,
    validate,
)

from oracles import fraction_conic_membership, fraction_rank, sampled_cone_dimension

B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]

# Full-dimensional cones of the three-direction catalog: the c-matrix of the
# seed, the inequality rows it generates, and the two facet row groups.
FULL_DIM_SEEDS = [
    (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (-1, 0, -1), (0, 1, 0)),
    ),
    (
        ((-1, 1, 0), (0, 1, 0), (0, 1, -1)),
        ((0, -1, 0), (-1, 2, -1), (0, -1, 0)),
    ),
    (
        ((0, -1, 1), (1, -1, 1), (1, -1, 0)),
        ((-1, 1, -1), (1, -2, 1), (-1, 1, -1)),
    ),
    (
        ((0, 0, -1), (-1, 1, -1), (-1, 0, 0)),
        ((1, -1, 1), (-1, 0, -1), (1, -1, 1)),
    ),
    (
        ((0, 0, -1), (0, -1, 0), (-1, 0, 0)),
        ((0, -1, 0), (1, 0, 1), (0, -1, 0)),
    ),
    (
        ((0, 0, 1), (0, -1, 0), (1, 0, 0)),
        ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
    ),
]

# Codimension-one cones come in pairs whose systems agree as sets; the pair is
# listed by both c-matrices, the merged system, and its non-implicit rows.
DIM2_SEED_PAIRS = [
    (
        ((0, -1, 1), (-1, 0, 1), (-1, 0, 0)),
        ((0, 0, -1), (1, 0, -1), (1, -1, 0)),
        ((1, -1, 1), (0, -1, 0), (-1, 1, -1)),
        (0, -1, 0),
    ),
    (
        ((1, 0, 0), (0, 1, 0), (0, 1, -1)),
        ((-1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (-1, 1, -1), (0, -1, 0)),
        (-1, 1, -1),
    ),
    (
        ((0, 0, 1), (0, -1, 0), (-1, 0, 0)),
        ((0, 0, -1), (0, -1, 0), (1, 0, 0)),
        ((0, -1, 0), (1, 0, 1), (0, 1, 0)),
        (1, 0, 1),
    ),
]

# One-dimensional cones: cyclic-orientation seeds, every row implicit.
DIM1_SEEDS = [
    ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, -1, 1), (0, -1, 0)),
]
DIM1_SYSTEM = ((0, 1, 0), (1, -1, 1), (-1, 0, -1))


def _catalog():
    return enumerate_pattern(validate(B_A3))


def _node_with_c(catalog, c_entries):
    for node in catalog.nodes:
        if node.C_t.entries == c_entries:
            return node
    raise AssertionError(f"no visited node carries the c-matrix {c_entries}")


def test_conic_membership_frozen_example():
    lam = conic_membership((0, -1, 0), ((0, 1, 0), (1, -1, 1), (-1, 0, -1)))
    assert lam == (Fraction(0), Fraction(1), Fraction(1))


def test_conic_membership_zero_and_failure():
    assert conic_membership((0, 0), ((1, 0),)) == (Fraction(0),)
    assert conic_membership((0, 0, 1), ((0, 1, 0),)) is None
    assert conic_membership((-1, 0), ((1, 0), (0, 1))) is None


def test_conic_membership_randomized_roundtrip():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(1, 4)
        gens = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 4)))
        lam = [rng.randint(0, 3) for _ in gens]
        v = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        found = conic_membership(v, gens)
        assert found is not None
        rebuilt = tuple(sum(f * g[i] for f, g in zip(found, gens)) for i in range(n))
        assert rebuilt == tuple(Fraction(x) for x in v)
        assert all(f >= 0 for f in found)


def test_conic_membership_matches_fraction_oracle():
    # The kernel solves must reproduce the Fraction Gauss-Jordan scan exactly:
    # same subset, same multipliers, same None.
    rng = random.Random(4409)
    kinds = {"zero": 0, "inside": 0, "outside": 0, "dependent": 0}
    for trial in range(300):
        n = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        if trial % 3 == 0:
            # repeated and dependent generators: a copy and a multiple
            g = rng.choice(gens)
            gens.append(g)
            gens.append(tuple(rng.choice((-2, 2, 3)) * x for x in g))
            kinds["dependent"] += 1
        mode = trial % 4
        if mode == 0:
            v = (0,) * n
        elif mode == 1:
            lam = [rng.randint(0, 3) for _ in gens]
            v = tuple(sum(l * g[i] for l, g in zip(lam, gens)) for i in range(n))
        else:
            v = tuple(rng.randint(-4, 4) for _ in range(n))
        expected = fraction_conic_membership(v, gens)
        found = conic_membership(v, gens)
        assert found == expected, (v, gens)
        assert found is None or all(type(x) is Fraction for x in found)
        if not any(v):
            kinds["zero"] += 1
        elif expected is None:
            kinds["outside"] += 1
        else:
            kinds["inside"] += 1
    assert min(kinds.values()) >= 30, kinds


def test_build_system_rows_are_cvector_images():
    em = validate(B_A3)
    node = mutate_node(mutate_node(initial_node(em), 1), 3)
    sys_ = build_system(node, em)
    assert sys_.A == node.C_t.transpose().mul(em.B)
    assert sys_.A.entries == ((0, -1, 0), (-1, 2, -1), (0, -1, 0))
    assert sys_.history == (1, 3)


def test_full_dimensional_cones_frozen():
    em = validate(B_A3)
    cat = _catalog()
    for c_entries, rows in FULL_DIM_SEEDS:
        node = _node_with_c(cat, c_entries)
        desc = classify(build_system(node, em))
        assert desc.system.A.entries == rows
        assert desc.dim == 3
        assert desc.implicit == ()
        assert desc.strict == (0, 1, 2)
        # rows 0 and 2 coincide, so exactly two facet directions survive
        assert rows[0] == rows[2]
        groups = sorted(f.supporting for f in desc.facets)
        assert groups == [(0, 2), (1,)]
        assert desc.lineality_basis == ((1, 0, -1),)


def test_codimension_one_pairs_merge():
    em = validate(B_A3)
    cat = _catalog()
    for c_first, c_second, merged_rows, strict_row in DIM2_SEED_PAIRS:
        first = classify(build_system(_node_with_c(cat, c_first), em))
        second = classify(build_system(_node_with_c(cat, c_second), em))
        assert first.system.A.entries == merged_rows
        assert set(second.system.A.entries) == set(merged_rows)
        for desc in (first, second):
            assert desc.dim == 2
            assert desc.implicit == (0, 2)
            assert desc.strict == (1,)
            assert desc.system.A.entries[1] == strict_row
            implicit_rows = [desc.system.A.entries[i] for i in desc.implicit]
            assert fraction_rank(implicit_rows) == 1
            assert implicit_rows[0] == tuple(-x for x in implicit_rows[1])
        assert canonical_key(first) == canonical_key(second)


def test_one_dimensional_cones_are_the_fiber_direction():
    em = validate(B_A3)
    cat = _catalog()
    keys = set()
    for c_entries in DIM1_SEEDS:
        desc = classify(build_system(_node_with_c(cat, c_entries), em))
        assert set(desc.system.A.entries) == set(DIM1_SYSTEM)
        assert desc.dim == 1
        assert desc.implicit == (0, 1, 2)
        assert desc.facets == ()
        assert fraction_rank(desc.system.A.entries) == 2
        assert desc.lineality_basis == kernel_of_p_star(em)
        keys.add(canonical_key(desc))
    assert len(keys) == 1


def test_implicit_certificates_verify():
    em = validate(B_A3)
    cat = _catalog()
    for node in cat.nodes:
        desc = classify(build_system(node, em))
        a = desc.system.A.entries
        assert set(desc.implicit_certificates) == set(desc.implicit)
        for row_index, lam in desc.implicit_certificates.items():
            # the relation includes every row; the tested row has weight >= 1
            total = [0] * 3
            for coeff, row in zip(lam, a):
                for i, x in enumerate(row):
                    total[i] += coeff * x
            assert total == [0, 0, 0]
            assert all(isinstance(c, int) and c >= 0 for c in lam)
            assert lam[row_index] >= 1


def test_dimension_equals_ambient_minus_implicit_rank():
    em = validate(B_A3)
    cat = _catalog()
    for node in cat.nodes:
        desc = classify(build_system(node, em))
        implicit_rows = [desc.system.A.entries[i] for i in desc.implicit]
        assert desc.dim == 3 - fraction_rank(implicit_rows)


def test_dimension_against_sampling():
    for rows in (B_A3, [[0, 1], [-2, 0]], [[0, 1], [-3, 0]]):
        em = validate(rows)
        cat = enumerate_pattern(em, with_polynomials=False)
        for node in cat.nodes:
            desc = classify(build_system(node, em))
            assert desc.dim == sampled_cone_dimension(desc.system.A.entries)


def test_lineality_contains_fiber_direction_everywhere():
    em = validate(B_A3)
    fiber = kernel_of_p_star(em)
    cat = _catalog()
    for node in cat.nodes:
        desc = classify(build_system(node, em))
        a = desc.system.A
        for v in fiber:
            assert a.mul_vec(v) == (0, 0, 0)
            assert a.mul_vec(tuple(-x for x in v)) == (0, 0, 0)


def test_zero_system_is_everything():
    zero = InequalitySystem(IntMatrix([[0, 0], [0, 0]]), ())
    desc = classify(zero)
    assert desc.dim == 2
    assert desc.implicit == (0, 1)
    assert desc.facets == ()
    assert desc.lineality_basis == ((1, 0), (0, 1))


def test_contains():
    em = validate(B_A3)
    node = mutate_node(mutate_node(initial_node(em), 1), 3)
    sys_ = build_system(node, em)
    assert contains(sys_, (-1, -1, -1))
    assert contains(sys_, (-1, 0, 0))
    assert contains(sys_, (0, 0, 0))
    assert contains(sys_, (1, 0, -1))
    assert not contains(sys_, (0, 1, 0))
    assert not contains(sys_, (0, -1, 0))


def test_canonical_key_separates_rays():
    e1 = InequalitySystem(IntMatrix([[1, 0], [0, 1], [0, -1]]), ())
    e2 = InequalitySystem(IntMatrix([[1, 0], [-1, 0], [0, 1]]), ())
    k1 = classify(e1)
    k2 = classify(e2)
    assert k1.dim == 1 and k2.dim == 1
    assert canonical_key(k1) != canonical_key(k2)


def test_canonical_key_ignores_row_presentation():
    base = InequalitySystem(IntMatrix([[1, 0], [0, 1]]), ())
    doubled = InequalitySystem(IntMatrix([[2, 0], [0, 3], [1, 1]]), ())
    # same point set: the doubled rows rescale and (1,1) is implied
    assert canonical_key(classify(base)) == canonical_key(classify(doubled))
