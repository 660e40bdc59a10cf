"""Cone classification: implicit rows, facets, dimension, canonical keys."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

import pytest

from xfan import (
    ConeDescription,
    IntMatrix,
    assemble_fan,
    build_system,
    canonical_key,
    classify,
    enumerate_pattern,
    hnf_rows,
    initial_node,
    integer_kernel_basis,
    mutate_node,
    primitive_vector,
    validate,
)
from xfan import cli
from xfan.cones import _extreme_rays, _pull_back, seed_classifier
from xfan.pattern import NODE_CAP, _seed_graph

from oracles import (
    _circuits,
    _pointed_scan,
    cofactor_pull_back,
    conic_membership,
    fraction_rank,
    gale_classify,
    kernel_rref,
    random_skew_symmetrizable,
    rref,
    sampled_cone_dimension,
    saturated_kernel,
    scan_classify,
    span_canonical_key,
    subset_extreme_rays,
)

B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_B3 = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
B_D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]

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


def test_build_system_rows_are_cvector_images():
    em = validate(B_A3)
    node = mutate_node(mutate_node(initial_node(em), 1), 3)
    A = build_system(node, em)
    assert A == node.C_t.transpose().mul(em.B)
    assert A.entries == ((0, -1, 0), (-1, 2, -1), (0, -1, 0))


def test_full_dimensional_cones_frozen():
    em = validate(B_A3)
    cat = _catalog()
    for c_entries, rows in FULL_DIM_SEEDS:
        node = _node_with_c(cat, c_entries)
        desc = classify(build_system(node, em))
        assert desc.A.entries == rows
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
        assert first.A.entries == merged_rows
        assert set(second.A.entries) == set(merged_rows)
        for desc in (first, second):
            assert desc.dim == 2
            assert desc.implicit == (0, 2)
            assert desc.strict == (1,)
            assert desc.A.entries[1] == strict_row
            implicit_rows = [desc.A.entries[i] for i in desc.implicit]
            assert fraction_rank(implicit_rows) == 1
            assert implicit_rows[0] == tuple(-x for x in implicit_rows[1])
        assert canonical_key(first) == canonical_key(second)


def test_one_dimensional_cones_are_the_fiber_direction():
    em = validate(B_A3)
    cat = _catalog()
    keys = set()
    for c_entries in DIM1_SEEDS:
        desc = classify(build_system(_node_with_c(cat, c_entries), em))
        assert set(desc.A.entries) == set(DIM1_SYSTEM)
        assert desc.dim == 1
        assert desc.implicit == (0, 1, 2)
        assert desc.facets == ()
        assert fraction_rank(desc.A.entries) == 2
        assert desc.lineality_basis == integer_kernel_basis(em.B)
        keys.add(canonical_key(desc))
    assert len(keys) == 1


def test_implicit_certificates_verify():
    em = validate(B_A3)
    cat = _catalog()
    for node in cat.nodes:
        desc = classify(build_system(node, em))
        a = desc.A.entries
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
        implicit_rows = [desc.A.entries[i] for i in desc.implicit]
        assert desc.dim == 3 - fraction_rank(implicit_rows)


def test_dimension_against_sampling():
    for rows in (B_A3, [[0, 1], [-2, 0]], [[0, 1], [-3, 0]]):
        em = validate(rows)
        cat = enumerate_pattern(em, with_polynomials=False)
        for node in cat.nodes:
            desc = classify(build_system(node, em))
            assert desc.dim == sampled_cone_dimension(desc.A.entries)


def test_lineality_contains_fiber_direction_everywhere():
    em = validate(B_A3)
    fiber = integer_kernel_basis(em.B)
    cat = _catalog()
    for node in cat.nodes:
        desc = classify(build_system(node, em))
        a = desc.A
        for v in fiber:
            assert a.mul_vec(v) == (0, 0, 0)
            assert a.mul_vec(tuple(-x for x in v)) == (0, 0, 0)


def test_zero_system_is_everything():
    zero = IntMatrix([[0, 0], [0, 0]])
    desc = classify(zero)
    assert desc.dim == 2
    assert desc.implicit == (0, 1)
    assert desc.facets == ()
    assert desc.lineality_basis == ((1, 0), (0, 1))


def test_contains():
    em = validate(B_A3)
    node = mutate_node(mutate_node(initial_node(em), 1), 3)
    A = build_system(node, em)
    assert min(A.mul_vec((-1, -1, -1))) >= 0
    assert min(A.mul_vec((-1, 0, 0))) >= 0
    assert min(A.mul_vec((0, 0, 0))) >= 0
    assert min(A.mul_vec((1, 0, -1))) >= 0
    assert min(A.mul_vec((0, 1, 0))) < 0
    assert min(A.mul_vec((0, -1, 0))) < 0


def test_canonical_key_separates_rays():
    e1 = IntMatrix([[1, 0], [0, 1], [0, -1]])
    e2 = IntMatrix([[1, 0], [-1, 0], [0, 1]])
    k1 = classify(e1)
    k2 = classify(e2)
    assert k1.dim == 1 and k2.dim == 1
    assert canonical_key(k1) != canonical_key(k2)


def test_canonical_key_ignores_row_presentation():
    base = IntMatrix([[1, 0], [0, 1]])
    doubled = IntMatrix([[2, 0], [0, 3], [1, 1]])
    # same point set: the doubled rows rescale and (1,1) is implied
    assert canonical_key(classify(base)) == canonical_key(classify(doubled))


def _dd_relations(rows):
    """{support: lam on the support} of the extreme rays of {lam >= 0 : lam.rows = 0}."""
    rays = _extreme_rays(list(zip(*rows)), len(rows))
    return {tuple(i for i, x in enumerate(lam) if x): tuple(x for x in lam if x) for lam in rays}


def _circuit_relations(rows):
    """The same relations as the oracle's circuits of the transposed rows, in a
    basis of full row rank; lam is not made primitive."""
    basis = hnf_rows(list(zip(*rows)))
    return _circuits([tuple(r[i] for r in basis) for i in range(len(rows))], len(basis))[0]


def test_circuits_frozen():
    # the nonnegative relations among the rows, by double description and by
    # the circuits of the transposed rows
    cases = [
        ([(1, 0), (-1, 0), (0, 1)], {(0, 1): (1, 1)}),
        ([(1, 0), (0, 1)], {}),
        # two minimal supports through the same row
        ([(2, 0), (-1, 0), (-1, 0)], {(0, 1): (1, 2), (0, 2): (1, 2)}),
        # a zero row is a relation alone
        ([(0, 0), (1, 1)], {(0,): (1,)}),
        ([(2,), (-2,)], {(0, 1): (1, 1)}),
    ]
    for rows, expected in cases:
        assert _dd_relations(rows) == expected, rows
        assert {s: primitive_vector(lam) for s, lam in _circuit_relations(rows).items()} == expected, rows
    # the circuits keep lam positive on the support but not primitive
    assert _circuit_relations([(2,), (-2,)]) == {(0, 1): (2, 2)}
    assert _circuits([(0,), (1,)], 1) == ({(0,): (1,)}, {(1,): 1})


def test_extreme_rays_match_circuits_on_random_systems():
    # {lam >= 0 : rows.lam = 0}, sometimes with a dependent or a zero row
    rng = random.Random(3030)
    found = 0
    for _ in range(300):
        width = rng.randint(1, 8)
        rows = [[rng.randint(-2, 2) for _ in range(width)] for _ in range(rng.randint(1, 3))]
        rows += [[sum(col) for col in zip(*rows)], [0] * width][: rng.randint(0, 2)]
        vectors = list(zip(*rows))
        expected = {s: primitive_vector(lam) for s, lam in _circuit_relations(vectors).items()}
        assert _dd_relations(vectors) == expected, rows
        found += len(expected)
    assert found > 500


def _tree_with_leaves(path):
    """A path of ``path`` vertices, each with three leaves: n = 4.path, corank 2.path."""
    n = 4 * path
    rows = [[0] * n for _ in range(n)]
    arrows = [(v, v + 1) for v in range(path - 1)] + [(v, path + 3 * v + i) for v in range(path) for i in range(3)]
    for i, j in arrows:
        rows[i][j], rows[j][i] = 1, -1
    return rows


def test_high_corank_tree_cone_pinned():
    # n = 24, corank 12, where a subset route tries every 13 of the nonzero columns of m
    em = validate(_tree_with_leaves(6))
    desc = seed_classifier(em)(mutate_node(initial_node(em, with_polynomials=False), 1))
    assert (desc.dim, desc.implicit, len(desc.facets)) == (24, (), 12)
    leaves = lambda v, x: {6 + 3 * v: x, 7 + 3 * v: x, 8 + 3 * v: x}
    sparse = [
        {0: -3, **leaves(0, -1)},
        {0: -3, **leaves(1, -1)},
        {1: -3, **leaves(0, 1), **leaves(2, -1)},
        {2: -3, **leaves(1, 1), **leaves(3, -1)},
        {3: -3, **leaves(2, 1), **leaves(4, -1)},
        {4: -3, **leaves(3, 1), **leaves(5, -1)},
        {5: -3, **leaves(4, 1)},
        leaves(5, 1),
        leaves(4, 1),
        leaves(3, 1),
        leaves(2, 1),
        leaves(1, 1),
    ]
    assert desc.rays == tuple(tuple(ray.get(i, 0) for i in range(24)) for ray in sparse)


@pytest.mark.parametrize(
    "path, digest",
    [
        (6, "3e27bf15215d3907c52eb689e3f82ca7044e8bb3684d03adbd7499c1d7a2bd5c"),
        (7, "187047f15a62b682817f956f2a8b6567391208f29b4491e1bc1703845f77616f"),
        (8, "7ec7e47f504e43c41d1e3530be201e3126016ee840c84c0620ca6037b4919a64"),
    ],
    ids=["n=24", "n=28", "n=32"],
)
def test_tree_cone_documents_pinned(tmp_path, capsys, path, digest):
    seed = tmp_path / "b.json"
    seed.write_text(json.dumps({"B": _tree_with_leaves(path)}))
    assert cli.main(["cone", "--B", str(seed), "--seq", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


B_SPAN_BUG = [[0, -1, 0, 1], [1, 0, -1, -2], [0, 1, 0, -1], [-1, 2, 1, 0]]


def test_strict_rows_agreeing_on_the_span_share_one_facet():
    # Rows 0 and 3 point in different directions but agree modulo the span
    # of the implicit rows 1 and 2; grouped by ambient direction, each was
    # redundant against the other and the cone lost its only facet.
    em = validate(B_SPAN_BUG)
    desc = classify(build_system(mutate_node(mutate_node(initial_node(em), 2), 1), em))
    assert desc.implicit == (1, 2)
    assert desc.strict == (0, 3)
    assert desc.dim == 3
    assert [(f.representative, f.supporting) for f in desc.facets] == [(0, (0, 3))]
    assert desc.rays == ((-1, 1, 1, 1),)


def test_canonical_key_separates_a_ray_from_its_mirror():
    up = classify(IntMatrix([[1, 0], [-1, 0], [0, 1], [1, 1]]))
    down = classify(IntMatrix([[1, 0], [-1, 0], [0, -1], [1, -1]]))
    assert up.dim == down.dim == 1
    assert [(f.representative, f.supporting) for f in up.facets] == [(2, (2, 3))]
    assert [(f.representative, f.supporting) for f in down.facets] == [(2, (2, 3))]
    assert up.rays == ((0, 1),)
    assert down.rays == ((0, -1),)
    assert canonical_key(up) != canonical_key(down)


def _assert_certificates(desc):
    a = desc.A.entries
    # the certificates iterate in row order
    assert list(desc.implicit_certificates) == list(desc.implicit)
    for k, lam in desc.implicit_certificates.items():
        assert all(type(c) is int and c >= 0 for c in lam) and lam[k] >= 1
        assert gcd(*lam) == 1
        assert all(sum(c * row[i] for c, row in zip(lam, a)) == 0 for i in range(len(a[0])))


def _assert_least_certificates(desc):
    """Each implicit row's certificate is the lexicographically least extreme
    relation lam >= 0, lam.A = 0, with a positive entry there, the relations
    taken from the oracles' subset scan over the kernel of A^T. Returns
    whether some implicit row has more than one such relation to choose from."""
    rows = desc.A.entries
    kernel = saturated_kernel(list(zip(*rows)))
    relations = [tuple(sum(map(mul, y, f)) for f in zip(*kernel)) for y in _pointed_scan(list(zip(*kernel)))] if kernel else []
    choices = [[r for r in relations if r[i] > 0] for i in desc.implicit]
    assert list(desc.implicit_certificates.values()) == [min(c) for c in choices], rows
    return any(len(c) > 1 for c in choices)


def _keys(desc):
    """Check the kept rays against the subset scan; return the key and the
    span key, the key of the same description before rays were kept."""
    rows = desc.A.entries
    old = (rows, desc.implicit, [f.representative for f in desc.facets], desc.lineality_basis)
    assert desc.rays == subset_extreme_rays(*old), rows
    return canonical_key(desc), span_canonical_key(*old)


def _assert_matches_scan(desc):
    """Compare with the scan oracles; returns ``_keys(desc)``."""
    rows = desc.A.entries
    implicit, strict, facets, dim = scan_classify(rows)
    assert desc.implicit == implicit, rows
    assert desc.strict == strict, rows
    assert [(f.representative, f.supporting) for f in desc.facets] == facets, rows
    assert desc.dim == dim, rows
    assert rref(desc.lineality_basis) == kernel_rref(rows), rows
    _assert_certificates(desc)
    return _keys(desc)


def _assert_same_partition(pairs):
    """The keys and the span keys split the descriptions into the same classes."""
    pairs = set(pairs)
    assert len(pairs) == len({key for key, _ in pairs}) == len({old for _, old in pairs})


CATALOGS = [
    ([[0, 1], [-1, 0]], None, False),
    ([[0, 1], [-2, 0]], None, False),
    ([[0, 1], [-3, 0]], None, False),
    ([[0, 2], [-2, 0]], 4, False),
    (B_A3, None, False),
    (B_B3, None, False),
    ([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], 5, False),
    ([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], None, True),
    (B_D4, None, True),
]


def test_classify_matches_caratheodory_scan_on_catalogs():
    pairs = []
    for rows, depth, seeds_only in CATALOGS:
        em = validate(rows)
        cat = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
        for node in cat.seeds if seeds_only else cat.nodes:
            pairs.append(_assert_matches_scan(classify(build_system(node, em))))
    _assert_same_partition(pairs)
    # labelled copies of a seed share a cone
    assert len(set(pairs)) < len(pairs)


def test_classify_matches_caratheodory_scan_on_random_seeds():
    rng = random.Random(7207)
    pairs = []
    for _ in range(500):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        em = validate(rows)
        node = initial_node(em)
        for _ in range(rng.randint(0, 4)):
            node = mutate_node(node, rng.randint(1, em.n))
        pairs.append(_assert_matches_scan(classify(build_system(node, em))))
    _assert_same_partition(pairs)


def _random_system(rng):
    """Rows of a random system. Repeated, negated and rescaled rows make
    implicit rows and strict rows that agree on the span; sums of rows make
    redundant ones."""
    n = rng.randint(1, 4)
    rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(1, 3))]
    for _ in range(rng.randint(1, 3)):
        row = rng.choice(rows)
        other = rng.choice(rows)
        pick = rng.random()
        if pick < 0.3:
            rows.append(tuple(-x for x in row))
        elif pick < 0.5:
            rows.append(tuple(rng.randint(1, 3) * x for x in row))
        else:
            rows.append(tuple(a + b for a, b in zip(row, other)))
    rng.shuffle(rows)
    return rows


def test_classify_matches_caratheodory_scan_on_random_systems():
    # Each system is also classified in a second presentation of the same
    # point set: rows shuffled and rescaled, plus the sum of two rows.
    rng = random.Random(3116)
    other_rng = random.Random(6113)
    kinds = {"implicit": 0, "redundant": 0, "shared": 0, "certificate choice": 0}
    pairs = []
    for _ in range(300):
        rows = _random_system(rng)
        desc = classify(IntMatrix(rows))
        pairs.append(_assert_matches_scan(desc))
        _assert_matches_oracle(desc)
        kinds["certificate choice"] += _assert_least_certificates(desc)
        scales = [other_rng.randint(1, 3) for _ in rows]
        again = [tuple(c * x for x in row) for c, row in zip(scales, rows)]
        again.append(tuple(map(sum, zip(other_rng.choice(rows), other_rng.choice(rows)))))
        other_rng.shuffle(again)
        other = classify(IntMatrix(again))
        pairs.append(_keys(other))
        _assert_matches_oracle(other)
        assert pairs[-1] == pairs[-2], (rows, again)
        kinds["implicit"] += bool(desc.implicit)
        kinds["redundant"] += sum(len(f.supporting) for f in desc.facets) < len(desc.strict)
        kinds["shared"] += any(
            len({primitive_vector(rows[j]) for j in f.supporting}) > 1 for f in desc.facets
        )
    assert min(kinds.values()) >= 20, kinds
    _assert_same_partition(pairs)


def test_lineality_basis_is_in_hermite_form():
    # canonical_key compares lineality bases as classify returns them
    descs = []
    for rows, depth, _ in CATALOGS:
        em = validate(rows)
        cat = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
        descs += [classify(build_system(node, em)) for node in cat.seeds]
    rng = random.Random(3116)
    descs += [classify(IntMatrix(_random_system(rng))) for _ in range(300)]
    for desc in descs:
        assert hnf_rows(desc.lineality_basis) == desc.lineality_basis
    assert max(len(desc.lineality_basis) for desc in descs) > 1


def _face_key(rows, implicit):
    """Key of the face of {rows.beta >= 0} on which the given rows vanish."""
    return canonical_key(classify(IntMatrix(rows + tuple(tuple(-x for x in rows[i]) for i in implicit))))


def _assert_meet_in_a_common_face(sigma, tau):
    """The cones of two descriptions meet in a face of each, the same one."""
    a, b = sigma.A.entries, tau.A.entries
    meet = classify(IntMatrix(a + b))
    m = len(a)
    on_sigma = tuple(i for i in meet.implicit if i < m)
    on_tau = tuple(i - m for i in meet.implicit if i >= m)
    # rows implicit on the intersection cut out the smallest face containing it
    face_sigma = _face_key(a, on_sigma) if on_sigma else canonical_key(sigma)
    face_tau = _face_key(b, on_tau) if on_tau else canonical_key(tau)
    assert face_sigma == face_tau == canonical_key(meet)
    for desc, on in ((sigma, on_sigma), (tau, on_tau)):
        # a proper face lies in a facet, whose supporting rows all vanish on it
        assert meet.dim == desc.dim or any(f.representative in on for f in desc.facets)


def test_cones_meet_in_common_faces():
    # 45, 78 and 78 pairs of cones
    for rows, count in ((B_A3, 10), (B_B3, 13), (B_D4, 13)):
        report = assemble_fan(enumerate_pattern(validate(rows), max_depth=None, with_polynomials=False))
        assert len(report.cones) == count
        for sigma, tau in combinations(report.cones, 2):
            _assert_meet_in_a_common_face(sigma.description, tau.description)


@pytest.mark.parametrize("name, pairs", [("A4", 84), ("A5", 330)])
def test_cones_joined_by_an_edge_meet_in_common_faces(name, pairs):
    # the fan property at scale, on the pairs of seeds that the exchange graph joins
    em = validate(SEED_CATALOGS[name][0])
    seeds, edges = _seed_graph(em, None, NODE_CAP)
    describe = seed_classifier(em)
    cones = [describe(node) for node in seeds]
    joined = [(s, t) for s, out in enumerate(edges) for t, _ in out if s < t]
    assert len(joined) == pairs
    for s, t in joined:
        _assert_meet_in_a_common_face(cones[s], cones[t])


B_E6 = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 1, 0, 0, 0],
    [0, -1, 0, 1, 0, 1],
    [0, 0, -1, 0, 1, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, -1, 0, 0, 0],
]


def _disjoint(*blocks):
    """The exchange matrix of a disjoint union: the blocks on the diagonal."""
    n = sum(map(len, blocks))
    rows, offset = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            rows[offset + i][offset : offset + len(row)] = row
        offset += len(block)
    return rows


# (rows, depth) of every catalog the suite builds, E6 added for a corank-0 seed
# of rank 6, A3 + A3 and A1 + A1 + A3 for coranks 2 and 3, and a seed with a
# 1,000-digit entry; None is exhaustive
SEED_CATALOGS = {
    "A2": ([[0, 1], [-1, 0]], None),
    "B2": ([[0, 1], [-2, 0]], None),
    "G2": ([[0, 1], [-3, 0]], None),
    "Kronecker": ([[0, 2], [-2, 0]], 9),
    "A3": (B_A3, None),
    "B3": (B_B3, None),
    "C3": ([[0, 1, 0], [-1, 0, 2], [0, -1, 0]], None),
    "cycle": ([[0, 1, -1], [-1, 0, 1], [1, -1, 0]], None),
    "Markov": ([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], 6),
    "A4": ([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], None),
    "D4": (B_D4, None),
    "F4": ([[0, 1, 0, 0], [-1, 0, 2, 0], [0, -1, 0, 1], [0, 0, -1, 0]], None),
    "span-bug": (B_SPAN_BUG, 4),
    "A5": ([[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]], None),
    "E6": (B_E6, None),
    "A3+A3": (_disjoint(B_A3, B_A3), None),
    "A1+A1+A3": (_disjoint([[0]], [[0]], B_A3), None),
    "thousand-digit": ([[0, 10**1000 - 1, 0], [1 - 10**1000, 0, 1], [0, -1, 0]], 2),
}


def test_pull_back_matches_the_cofactor_route():
    # the matrix itself: the rays read through it are made primitive anyway
    rng = random.Random(3131)
    seeds = [rows for rows, _ in SEED_CATALOGS.values()] + [_tree_with_leaves(6)]
    seeds += [random_skew_symmetrizable(rng, n)[0] for n in range(1, 13)]
    # classify(A) frames a rectangular A as its own B
    for width in (rng.randint(1, 5) for _ in range(10)):
        seeds.append([[rng.randint(-2, 2) for _ in range(width)] for _ in range(rng.randint(1, 5))])
    for rows in seeds:
        B = IntMatrix(rows)
        assert _pull_back(B, integer_kernel_basis(B)) == cofactor_pull_back(rows), rows


def _assert_matches_oracle(desc):
    """Every slot of ``desc`` equals the one ``gale_classify`` computes from its rows."""
    slots = (
        desc.implicit,
        desc.strict,
        [(f.representative, f.supporting) for f in desc.facets],
        desc.dim,
        desc.lineality_basis,
        desc.implicit_certificates,
        desc.rays,
    )
    assert slots == gale_classify(desc.A.entries), desc.A


def _slots(desc):
    return tuple(getattr(desc, name) for name in ConeDescription.__slots__)


def _seed_route_kinds(em, depth):
    """Check ``seed_classifier`` against ``gale_classify`` and ``classify`` on every
    seed up to depth; count the kinds.

    The kind of a seed is "orthant" in corank 0, "general" in corank 2 and
    more, and in corank 1 "one sign" or "both signs" after m = K.G_t, K
    spanning ker B^T.
    """
    seeds, _ = _seed_graph(em, depth, NODE_CAP)
    describe = seed_classifier(em)
    kernel = integer_kernel_basis(em.B.transpose())
    kinds = Counter()
    for node in seeds:
        desc = describe(node)
        _assert_matches_oracle(desc)
        _assert_least_certificates(desc)
        assert _slots(desc) == _slots(classify(build_system(node, em))), node.history
        if len(kernel) == 1:
            m = node.G_t.transpose().mul_vec(kernel[0])
            kinds["both signs" if min(m) < 0 < max(m) else "one sign"] += 1
        else:
            kinds["general" if kernel else "orthant"] += 1
    return kinds


@pytest.mark.parametrize("name", sorted(SEED_CATALOGS))
def test_seed_classifier_matches_classify_on_catalogs(name):
    rows, depth = SEED_CATALOGS[name]
    _seed_route_kinds(validate(rows), depth)


def test_seed_classifier_matches_classify_on_random_seeds():
    rng = random.Random(2323)
    kinds = Counter()
    for _ in range(120):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(1, 5))
        kinds += _seed_route_kinds(validate(rows), 3)
    assert len(kinds) == 4 and min(kinds.values()) >= 100, kinds

