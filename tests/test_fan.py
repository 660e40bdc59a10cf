"""Fan assembly, point location, theta functions, extreme rays."""

from __future__ import annotations

import random
from itertools import product

import pytest

from xfan import (
    LaurentPolynomial,
    NotInVisitedComplex,
    PatternCatalog,
    assemble_fan,
    build_system,
    canonical_key,
    classify,
    contains,
    enumerate_pattern,
    extreme_rays,
    initial_node,
    locate,
    theta,
    validate,
)

from oracles import locate_labelled, random_skew_symmetrizable

B_A2 = [[0, 1], [-1, 0]]
B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_KRONECKER = [[0, 2], [-2, 0]]
B_B3 = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
B_A4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
B_D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
B_MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]


def _a3_catalog():
    return enumerate_pattern(validate(B_A3))


def test_fan_histograms():
    a3 = assemble_fan(_a3_catalog())
    assert a3.complete
    assert a3.histogram == {3: 6, 2: 3, 1: 1}
    assert len(a3.cones) == 10
    a2 = assemble_fan(enumerate_pattern(validate(B_A2)))
    assert a2.complete
    assert a2.histogram == {2: 5}


def test_witnesses_partition_the_catalog():
    cat = _a3_catalog()
    report = assemble_fan(cat)
    seen = [h for cone in report.cones for h in cone.witnesses]
    assert sorted(seen) == sorted(n.history for n in cat.nodes)
    assert sorted(len(c.witnesses) for c in report.cones) == [6] * 6 + [12] * 4
    for cone in report.cones:
        assert cone.dim == cone.description.dim


def test_witnesses_actually_witness_their_cone():
    em = validate(B_A3)
    cat = _a3_catalog()
    report = assemble_fan(cat)
    by_history = {n.history: n for n in cat.nodes}
    for cone in report.cones:
        for h in cone.witnesses[:3]:
            desc = classify(build_system(by_history[h], em))
            assert canonical_key(desc) == cone.key


def _per_node_fan(catalog):
    """The direct route: classify every node, merge by canonical key."""
    merged = {}
    for node in catalog.nodes:
        desc = classify(build_system(node, catalog.root))
        key = canonical_key(desc)
        merged.setdefault(key, (desc, []))[1].append(node.history)
    return [(key, desc, witnesses) for key, (desc, witnesses) in merged.items()]


def _fields(desc):
    return (
        desc.system.A,
        desc.system.history,
        desc.implicit,
        desc.strict,
        desc.facets,
        desc.dim,
        desc.lineality_basis,
        desc.implicit_certificates,
    )


def _assert_same_fan(catalog):
    report = assemble_fan(catalog)
    expected = _per_node_fan(catalog)
    assert [c.key for c in report.cones] == [key for key, _, _ in expected]
    assert [_fields(c.description) for c in report.cones] == [_fields(d) for _, d, _ in expected]
    assert [list(c.witnesses) for c in report.cones] == [w for _, _, w in expected]


@pytest.mark.parametrize("rows", [B_A3, B_B3, B_A4, B_D4], ids=["A3", "B3", "A4", "D4"])
def test_assemble_fan_matches_per_node_classification(rows):
    cat = enumerate_pattern(validate(rows), max_depth=None, with_polynomials=False)
    assert cat.complete
    _assert_same_fan(cat)


def test_assemble_fan_matches_per_node_classification_random():
    rng = random.Random(4455)
    for _ in range(15):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        _assert_same_fan(enumerate_pattern(validate(rows), max_depth=3, with_polynomials=False))


def test_locate_frozen_example():
    cat = _a3_catalog()
    node, alpha = locate((-1, -1, -1), cat)
    assert node.history == (1, 3)
    assert alpha == (1, 0, 1)


def test_locate_origin_prefers_root():
    cat = _a3_catalog()
    node, alpha = locate((0, 0, 0), cat)
    assert node.history == ()
    assert alpha == (0, 0, 0)


def test_locate_miss_returns_none():
    shallow = enumerate_pattern(validate(B_KRONECKER), max_depth=1)
    deep = enumerate_pattern(validate(B_KRONECKER), max_depth=9)
    beta = _beta_beyond(shallow, deep)
    assert locate(beta, shallow) is None


def _beta_beyond(shallow, deep):
    """A point covered by the deep truncation but not the shallow one."""
    for b1 in range(-8, 9):
        for b2 in range(-8, 9):
            beta = (b1, b2)
            if locate(beta, deep) is not None and locate(beta, shallow) is None:
                return beta
    raise AssertionError("expected the deeper truncation to cover more points")


@pytest.mark.parametrize(
    "rows, depth",
    [(B_A3, None), (B_B3, None), (B_A4, None), (B_D4, None), (B_MARKOV, 6)],
    ids=["A3", "B3", "A4", "D4", "Markov"],
)
def test_locate_and_theta_match_labelled_scan(rows, depth):
    cat = enumerate_pattern(validate(rows), max_depth=depth)
    assert cat.complete == (depth is None)
    n = len(rows)
    misses = 0
    for beta in product(range(-2, 3), repeat=n):
        hit = locate(beta, cat)
        expected = locate_labelled(beta, cat)
        if expected is None:
            misses += 1
            assert hit is None
            with pytest.raises(NotInVisitedComplex) as exc:
                theta(beta, cat)
            assert exc.value.reason == "beyond_depth"
            continue
        node, alpha = expected
        assert hit[0] is node and hit[1] == alpha
        value = LaurentPolynomial.monomial(n, beta)
        for poly, a in zip(node.F_t, alpha):
            value = value * poly ** a
        t = theta(beta, cat)
        assert (t.witness, t.alpha, t.value) == (node.history, alpha, value)
    assert misses > 0 if depth else misses == 0


def test_theta_frozen_example():
    cat = _a3_catalog()
    t = theta((-1, -1, -1), cat)
    assert t.beta == (-1, -1, -1)
    assert t.witness == (1, 3)
    assert t.alpha == (1, 0, 1)
    assert t.value.sorted_terms() == (
        ((-1, -1, -1), 1),
        ((-1, -1, 0), 1),
        ((0, -1, -1), 1),
        ((0, -1, 0), 1),
    )


def test_theta_origin_is_one():
    t = theta((0, 0, 0), _a3_catalog())
    assert t.value.sorted_terms() == (((0, 0, 0), 1),)
    assert t.witness == ()


def test_theta_doubling_squares_the_value():
    cat = _a3_catalog()
    rng = random.Random(515)
    for _ in range(25):
        beta = tuple(rng.randint(-3, 3) for _ in range(3))
        t1 = theta(beta, cat)
        t2 = theta(tuple(2 * b for b in beta), cat)
        assert t2.witness == t1.witness
        assert t2.value == t1.value * t1.value


def test_theta_monomial_on_lineality():
    # the fiber direction lies in every cone, so its theta is a bare monomial
    t = theta((1, 0, -1), _a3_catalog())
    assert t.alpha == (0, 0, 0)
    assert t.value.sorted_terms() == (((1, 0, -1), 1),)


def test_theta_outside_complete_complex():
    em = validate(B_KRONECKER)
    synthetic = PatternCatalog(em, [initial_node(em)], 0, True)
    with pytest.raises(NotInVisitedComplex) as exc:
        theta((1, 0), synthetic)
    assert exc.value.reason == "outside_complex"


def test_theta_beyond_depth():
    shallow = enumerate_pattern(validate(B_KRONECKER), max_depth=1)
    deep = enumerate_pattern(validate(B_KRONECKER), max_depth=9)
    beta = _beta_beyond(shallow, deep)
    with pytest.raises(NotInVisitedComplex) as exc:
        theta(beta, shallow)
    assert exc.value.reason == "beyond_depth"
    assert theta(beta, deep).alpha is not None


def test_theta_needs_polynomials():
    nopoly = enumerate_pattern(validate(B_A2), with_polynomials=False)
    with pytest.raises(ValueError):
        theta((1, 1), nopoly)


def test_extreme_rays_frozen():
    kr = validate(B_KRONECKER)
    krcat = enumerate_pattern(kr, max_depth=2, with_polynomials=False)
    root = classify(build_system(krcat.nodes[0], kr))
    assert extreme_rays(root) == ((-1, 0), (0, 1))

    em = validate(B_A3)
    cat = _a3_catalog()
    a3_root = classify(build_system(cat.nodes[0], em))
    assert extreme_rays(a3_root) == ((-1, 0, -1), (0, 1, 0))
    line = [c for c in assemble_fan(cat).cones if c.dim == 1][0]
    assert extreme_rays(line.description) == ()


def test_extreme_rays_generate_their_cone():
    em = validate(B_A3)
    cat = _a3_catalog()
    for cone in assemble_fan(cat).cones:
        rays = extreme_rays(cone.description)
        sys_ = cone.description.system
        for r in rays:
            assert contains(sys_, r)
        for v in cone.description.lineality_basis:
            assert contains(sys_, v)
            assert contains(sys_, tuple(-x for x in v))
