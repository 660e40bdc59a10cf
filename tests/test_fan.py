"""Fan assembly, point location, theta functions, extreme rays."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from xfan import (
    LaurentPolynomial,
    NotInVisitedComplex,
    PatternCatalog,
    assemble_fan,
    build_system,
    canonical_key,
    classify,
    enumerate_pattern,
    initial_node,
    locate,
    mutate,
    theta,
    validate,
)

from oracles import (
    gale_classify,
    laurent_mul,
    laurent_pow,
    locate_labelled,
    random_skew_symmetrizable,
    tropical_mutation,
)

B_A2 = [[0, 1], [-1, 0]]
B_B2 = [[0, 1], [-2, 0]]
B_G2 = [[0, 1], [-3, 0]]
B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_KRONECKER = [[0, 2], [-2, 0]]
B_B3 = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
B_C3 = [[0, 1, 0], [-1, 0, 2], [0, -1, 0]]
B_A4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
B_D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
B_MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
B_CYCLE = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]


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
        desc.A,
        desc.implicit,
        desc.strict,
        desc.facets,
        desc.dim,
        desc.lineality_basis,
        desc.implicit_certificates,
        desc.rays,
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


def _assert_positive(value):
    """GHKK positivity: every coefficient of a theta function is positive."""
    assert all(coeff > 0 for _, coeff in value.sorted_terms()), value


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
    bare = enumerate_pattern(validate(rows), max_depth=depth, with_polynomials=False)
    assert cat.complete == bare.complete == (depth is None)
    polys = {node.history: node.F_t for node in cat.nodes}
    n = len(rows)
    for catalog in (cat, bare):
        misses = 0
        for beta in product(range(-2, 3), repeat=n):
            hit = locate(beta, catalog)
            expected = locate_labelled(beta, catalog)
            if expected is None:
                misses += 1
                assert hit is None
                with pytest.raises(NotInVisitedComplex) as exc:
                    theta(beta, catalog)
                assert exc.value.reason == "beyond_depth"
                continue
            node, alpha = expected
            assert hit[0] is node.seed and hit[1] == alpha
            value = LaurentPolynomial(n, {beta: 1})
            for poly, a in zip(polys[node.history], alpha):
                value = value * poly ** a
            t = theta(beta, catalog)
            assert (t.witness, t.alpha, t.value) == (node.history, alpha, value)
            _assert_positive(t.value)
        assert misses > 0 if depth else misses == 0


def test_locate_and_theta_match_labelled_scan_random():
    # seed and alpha from the scan over every labelled node, and the value
    # from the tuple-keyed oracle product of that node's F
    rng = random.Random(4099)
    raised = 0  # values that raise some F other than 1
    for _ in range(20):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=3)
        catalog = enumerate_pattern(validate(rows), max_depth=3)
        n = len(rows)
        for beta in product(range(-2, 3), repeat=n):
            expected = locate_labelled(beta, catalog)
            if expected is None:
                assert locate(beta, catalog) is None
                with pytest.raises(NotInVisitedComplex) as exc:
                    theta(beta, catalog)
                assert exc.value.reason == ("outside_complex" if catalog.complete else "beyond_depth")
                continue
            node, alpha = expected
            assert locate(beta, catalog) == (node.seed, alpha)
            value = {beta: 1}
            for poly, a in zip(node.F_t, alpha):
                value = laurent_mul(value, laurent_pow(dict(poly.sorted_terms()), a, n))
            t = theta(beta, catalog)
            assert (t.witness, t.alpha) == (node.history, alpha)
            assert dict(t.value.sorted_terms()) == value
            raised += any(a and not f.is_one() for f, a in zip(node.F_t, alpha))
    assert raised > 1000


def _theta_or_reason(beta, catalog):
    try:
        t = theta(beta, catalog)
    except NotInVisitedComplex as exc:
        return exc.reason
    return t.witness, t.alpha, t.value


def _assert_theta_replays_witness(em, depth):
    """theta on a catalog without F agrees with theta on the same catalog with F."""
    with_f = enumerate_pattern(em, max_depth=depth)
    bare = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
    for beta in product(range(-2, 3), repeat=em.n):
        found = _theta_or_reason(beta, bare)
        assert found == _theta_or_reason(beta, with_f)
        if not isinstance(found, str):
            _assert_positive(found[2])


@pytest.mark.parametrize(
    "rows, depth",
    [(B_A3, None), (B_B3, None), (B_A4, None), (B_D4, None), (B_KRONECKER, 4), (B_MARKOV, 6)],
    ids=["A3", "B3", "A4", "D4", "Kronecker", "Markov"],
)
def test_theta_without_polynomials_replays_witness(rows, depth):
    _assert_theta_replays_witness(validate(rows), depth)


def test_theta_without_polynomials_replays_witness_random():
    rng = random.Random(2310)
    for _ in range(20):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        _assert_theta_replays_witness(validate(rows), 4)


def test_theta_coefficients_are_positive_on_boxes():
    checked = 0
    for rows, depth, radius in (
        (B_A2, None, 3),
        (B_B2, None, 3),
        (B_G2, None, 3),
        (B_A3, None, 2),
        (B_B3, None, 2),
        (B_C3, None, 2),
        (B_D4, None, 1),
        (B_KRONECKER, 5, 3),
        (B_MARKOV, 5, 2),
    ):
        catalog = enumerate_pattern(validate(rows), max_depth=depth, with_polynomials=False)
        for beta in product(range(-radius, radius + 1), repeat=len(rows)):
            if locate(beta, catalog) is not None:
                _assert_positive(theta(beta, catalog).value)
                checked += 1
    assert checked == 654


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
        _assert_positive(t1.value)


def test_theta_monomial_on_lineality():
    # the fiber direction lies in every cone, so its theta is a bare monomial
    t = theta((1, 0, -1), _a3_catalog())
    assert t.alpha == (0, 0, 0)
    assert t.value.sorted_terms() == (((1, 0, -1), 1),)


def test_theta_far_on_the_lineality():
    # the radix is sized from the F-polynomials alone; y^beta moves the unpacked value
    beta = (10**20, 0, -(10**20))
    t = theta(beta, _a3_catalog())
    assert t.alpha == (0, 0, 0)
    assert t.value.sorted_terms() == ((beta, 1),)


@pytest.mark.parametrize(
    "rows, depth",
    [(B_A3, None), (B_B3, None), (B_D4, None), (B_MARKOV, 5)],
    ids=["A3", "B3", "D4", "Markov"],
)
def test_theta_matches_oracle_product(rows, depth):
    # y^beta . prod F_i^alpha_i from the tuple-keyed oracle at four located
    # points, each raising an F-polynomial other than 1; the visited Markov
    # cones hold such small points only where alpha = 0. Markov needs 224
    # draws; the bound makes a broken locate fail instead of loop
    catalog = enumerate_pattern(validate(rows), max_depth=depth)
    n = len(rows)
    rng = random.Random(1729)
    checked = draws = 0
    while checked < 4:
        draws += 1
        assert draws <= 1000, f"only {checked} of 4 points checked in 1000 draws of beta"
        beta = tuple(rng.randint(-3, 3) for _ in range(n))
        hit = locate(beta, catalog)
        if hit is None:
            continue
        node, alpha = hit
        if any(a and not f.is_one() for f, a in zip(node.F_t, alpha)) != catalog.complete:
            continue
        expected = {beta: 1}
        for poly, a in zip(node.F_t, alpha):
            expected = laurent_mul(expected, laurent_pow(dict(poly.sorted_terms()), a, n))
        t = theta(beta, catalog)
        assert (t.witness, t.alpha) == (node.history, alpha)
        assert dict(t.value.sorted_terms()) == expected
        checked += 1


def test_theta_outside_complete_complex():
    em = validate(B_KRONECKER)
    root = initial_node(em)
    synthetic = PatternCatalog(em, (root,), 0, True, (root,))
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


def test_extreme_rays_frozen():
    kr = validate(B_KRONECKER)
    krcat = enumerate_pattern(kr, max_depth=2, with_polynomials=False)
    root = classify(build_system(krcat.nodes[0], kr))
    assert root.rays == ((-1, 0), (0, 1))

    em = validate(B_A3)
    cat = _a3_catalog()
    a3_root = classify(build_system(cat.nodes[0], em))
    assert a3_root.rays == ((-1, 0, -1), (0, 1, 0))
    line = [c for c in assemble_fan(cat).cones if c.dim == 1][0]
    assert line.description.rays == ()


def test_markov_complex_is_one_line():
    # observed, not proved: to depth 8 every seed gives the multiples of
    # (1, 1, 1), with all three rows implicit
    em = validate(B_MARKOV)
    for depth in range(1, 9):
        catalog = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
        (cone,) = assemble_fan(catalog).cones
        desc = cone.description
        assert (desc.dim, desc.lineality_basis, desc.rays, desc.implicit) == (1, ((1, 1, 1),), (), (0, 1, 2)), depth
        if depth == 4:
            for node in catalog.seeds:
                desc = classify(build_system(node, em))
                facets = [(f.representative, f.supporting) for f in desc.facets]
                slots = (desc.implicit, desc.strict, facets, desc.dim, desc.lineality_basis, desc.implicit_certificates)
                assert slots + (desc.rays,) == gale_classify(desc.A.entries), node.history


def test_extreme_rays_generate_their_cone():
    em = validate(B_A3)
    cat = _a3_catalog()
    for cone in assemble_fan(cat).cones:
        rays = cone.description.rays
        A = cone.description.A
        for r in rays:
            assert min(A.mul_vec(r)) >= 0
        for v in cone.description.lineality_basis:
            assert min(A.mul_vec(v)) >= 0
            assert min(A.mul_vec(tuple(-x for x in v))) >= 0


def _complete_fan(em):
    return assemble_fan(enumerate_pattern(em, max_depth=None, with_polynomials=False)).cones


@pytest.mark.parametrize(
    "rows",
    [B_A2, B_B2, B_G2, B_A3, B_CYCLE, B_B3, B_C3, B_D4],
    ids=["A2", "B2", "G2", "A3", "cycle", "B3", "C3", "D4"],
)
def test_tropical_mutation_carries_cones_to_cones(rows):
    # T_k maps the relative interior of each cone of B into that of one
    # cone of mu_k(B), of the same dimension, and this is a bijection
    em = validate(rows)
    cones = _complete_fan(em)
    for k in range(em.n):
        mutated = _complete_fan(mutate(em, k + 1))
        images = []
        for cone in cones:
            point = tuple(map(sum, zip(*cone.description.rays))) or (0,) * em.n
            image = tropical_mutation(rows, k, point)
            holders = [c for c in mutated if min(c.description.A.mul_vec(image)) >= 0]
            smallest = min(c.dim for c in holders)
            (target,) = [c for c in holders if c.dim == smallest]
            assert target.dim == cone.dim, (k, cone.key)
            images.append(target.key)
        assert len(set(images)) == len(images) == len(mutated)


def _theta_or_none(beta, catalog):
    try:
        return theta(beta, catalog).value
    except NotInVisitedComplex:
        return None


def _evaluate(poly, point):
    return sum(coeff * prod(map(pow, point, exps)) for exps, coeff in poly.sorted_terms())


@pytest.mark.parametrize(
    "rows, depth",
    [
        (B_A2, None), (B_B2, None), (B_G2, None), (B_A3, None), (B_B3, None), (B_C3, None), (B_D4, None),
        (B_CYCLE, None), (B_KRONECKER, 4), (B_MARKOV, 3),
    ],
    ids=["A2", "B2", "G2", "A3", "B3", "C3", "D4", "cycle", "Kronecker", "Markov"],
)
def test_theta_is_a_global_function(rows, depth):
    # theta_B(beta) = mu_k^*(theta_B'(T_k beta)) with B' = mu_k(B), where mu_k^* substitutes
    # y_k -> 1/y_k and y_j -> y_j.y_k^[b_kj]_+.(1 + y_k)^-b_kj; both sides are evaluated
    # exactly at two positive rational points, and only where both catalogs hold the point
    em = validate(rows)
    n = em.n
    rng = random.Random(0)
    points = [tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)) for _ in range(2)]
    catalog = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
    radius = 2 if n < 4 else 1
    checked = 0
    for k in range(n):
        mutated = enumerate_pattern(mutate(em, k + 1), max_depth=depth, with_polynomials=False)
        images = []
        for y in points:
            yk = y[k]
            images.append(
                tuple(1 / yk if j == k else y[j] * yk ** max(b, 0) * (1 + yk) ** -b for j, b in enumerate(rows[k]))
            )
        for beta in product(range(-radius, radius + 1), repeat=n):
            value = _theta_or_none(beta, catalog)
            image = _theta_or_none(tropical_mutation(rows, k, beta), mutated)
            if catalog.complete:  # T_k carries the support onto the support
                assert (value is None) == (image is None), (k, beta)
            if value is None or image is None:
                continue
            for y, y_image in zip(points, images):
                assert _evaluate(value, y) == _evaluate(image, y_image), (k, beta)
            checked += 1
    # Markov holds only the multiples of (1, 1, 1) in the box: 5 points for each k
    assert checked >= 15
