"""Pattern traversal: dedup, duality, sign coherence, polynomials, seed classes."""

from __future__ import annotations

import random

import pytest

from xfan import (
    DEFAULT_DEPTH,
    DualityViolation,
    ExhaustionCapExceeded,
    IntMatrix,
    LaurentPolynomial,
    enumerate_pattern,
    initial_node,
    mutate_node,
    positive_c_vectors,
    validate,
)

from xfan import pattern

from oracles import (
    f_polynomial_step,
    principal_seed_walk,
    random_skew_symmetrizable,
    seed_orbit_count,
)

B_A2 = [[0, 1], [-1, 0]]
B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
B_B3 = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
B_A4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
B_D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]


def _walk(em, history, with_polynomials=True):
    node = initial_node(em, with_polynomials=with_polynomials)
    for k in history:
        node = mutate_node(node, k)
    return node


def test_initial_node_identities():
    em = validate(B_A3)
    root = initial_node(em)
    ident = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert root.C_t.entries == ident
    assert root.G_t.entries == ident
    assert all(p.is_one() for p in root.F_t)
    assert root.history == ()


def test_first_mutation_f_polynomial():
    node = _walk(validate(B_A2), (1,))
    assert dict(node.F_t[0].sorted_terms()) == {(0, 0): 1, (1, 0): 1}
    assert node.F_t[1].is_one()


def test_enumeration_counts_small_types():
    a2 = enumerate_pattern(validate(B_A2))
    assert len(a2) == 10 and a2.complete
    assert a2.seed_class_count() == 5
    a3 = enumerate_pattern(validate(B_A3))
    assert len(a3) == 84 and a3.complete
    assert a3.seed_class_count() == 14


def test_rank_two_symmetrizable_counts():
    b2 = enumerate_pattern(validate([[0, 1], [-2, 0]]))
    assert len(b2) == 6 and b2.complete
    g2 = enumerate_pattern(validate([[0, 1], [-3, 0]]))
    assert len(g2) == 8 and g2.complete


def test_depth_zero_and_incomplete():
    cat = enumerate_pattern(validate(B_A3), max_depth=0)
    assert len(cat) == 1 and not cat.complete and cat.depth == 0
    shallow = enumerate_pattern(validate(B_A3), max_depth=2)
    assert not shallow.complete
    assert all(len(n.history) <= 2 for n in shallow.nodes)


def test_bfs_order_and_dedup():
    cat = enumerate_pattern(validate(B_A2), max_depth=3)
    lengths = [len(n.history) for n in cat.nodes]
    assert lengths == sorted(lengths)
    assert lengths[0] == 0
    # no immediate back-mutation anywhere
    for n in cat.nodes:
        h = n.history
        assert all(h[i] != h[i + 1] for i in range(len(h) - 1))
    # c-matrices are unique
    keys = [n.C_t.entries for n in cat.nodes]
    assert len(keys) == len(set(keys))


def _companion(node):
    """D^-1.C_t.D: the c-matrix of the pattern whose initial matrix is B."""
    d = node.B_t.d
    return tuple(
        tuple(c * dj // di for c, dj in zip(row, d)) for row, di in zip(node.C_t.entries, d)
    )


def test_c_matrix_matches_symbolic_oracle():
    rng = random.Random(90210)
    for rows in (B_A2, B_A3, [[0, 1], [-2, 0]], [[0, 1], [-3, 0]]):
        em = validate(rows)
        history = tuple(rng.randint(1, em.n) for _ in range(4))
        node = _walk(em, history, with_polynomials=False)
        neg_bt = [[-rows[j][i] for j in range(em.n)] for i in range(em.n)]
        _, cmat = principal_seed_walk(neg_bt, history)
        assert node.C_t.entries == tuple(tuple(r) for r in cmat)


def _not_skew_symmetric(rng, count):
    found = []
    while len(found) < count:
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        n = len(rows)
        if any(rows[i][j] != -rows[j][i] for i in range(n) for j in range(n)):
            found.append(rows)
    return found


def test_d_conjugate_is_the_b_pattern_c_matrix():
    rng = random.Random(4096)
    walks = [(rows, 3) for rows in ([[0, 1], [-2, 0]], [[0, 1], [-3, 0]], B_B3)]
    walks += [(rows, 1) for rows in _not_skew_symmetric(rng, 20)]
    for rows, count in walks:
        em = validate(rows)
        assert any(x != 1 for x in em.d)
        for _ in range(count):
            history = tuple(rng.randint(1, em.n) for _ in range(4))
            node = _walk(em, history, with_polynomials=False)
            _, cmat = principal_seed_walk(rows, history)
            assert _companion(node) == tuple(tuple(r) for r in cmat)


def _assert_c_determines_b(catalog):
    """Every one-step mutation that lands on a catalog c-matrix lands on its B_t too."""
    b_of = {node.C_t.entries: node.B_t for node in catalog.nodes}
    assert len(b_of) == len(catalog)
    for node in catalog.nodes:
        for k in range(1, node.B_t.n + 1):
            child = mutate_node(node, k)
            b = b_of.get(child.C_t.entries)
            assert b == child.B_t or (b is None and not catalog.complete)


@pytest.mark.parametrize(
    "rows, nodes",
    [
        (B_A2, 10),
        ([[0, 1], [-2, 0]], 6),
        ([[0, 1], [-3, 0]], 8),
        (B_A3, 84),
        (B_B3, 40),
        (B_A4, 1008),
        (B_D4, 1200),
    ],
    ids=["A2", "B2", "G2", "A3", "B3", "A4", "D4"],
)
def test_c_matrix_determines_seed(rows, nodes):
    cat = enumerate_pattern(validate(rows), max_depth=None, with_polynomials=False)
    assert cat.complete and len(cat) == nodes
    _assert_c_determines_b(cat)


def test_c_matrix_determines_seed_truncated():
    _assert_c_determines_b(enumerate_pattern(validate(B_MARKOV), max_depth=6, with_polynomials=False))
    rng = random.Random(777)
    for _ in range(20):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        _assert_c_determines_b(enumerate_pattern(validate(rows), max_depth=4, with_polynomials=False))


def test_duality_and_sign_coherence_random():
    rng = random.Random(60446)
    for _ in range(12):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        cat = enumerate_pattern(validate(rows), max_depth=5, with_polynomials=False)
        for node in cat.nodes:
            n = len(rows)
            prod = node.G_t.mul(node.C_t.transpose())
            assert prod == IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
            for j in range(n):
                col = [node.C_t.at(i, j) for i in range(n)]
                assert all(x >= 0 for x in col) or all(x <= 0 for x in col)


def test_with_polynomials_flag():
    cat = enumerate_pattern(validate(B_A2), max_depth=3, with_polynomials=False)
    assert all(node.F_t is None for node in cat.nodes)


def test_duality_violation_fires(monkeypatch):
    good = pattern._mutate_g

    def corrupted(*args):
        g = good(*args)
        return IntMatrix([[g.at(0, 0) + 1] + list(g.row(0)[1:])] + list(g.entries[1:]))

    monkeypatch.setattr(pattern, "_mutate_g", corrupted)
    with pytest.raises(DualityViolation):
        mutate_node(initial_node(validate(B_A3), with_polynomials=False), 2)


def _orbit_count(catalog):
    return seed_orbit_count((n.B_t.B.entries, n.C_t.entries) for n in catalog.nodes)


@pytest.mark.parametrize(
    "rows, seeds",
    [
        (B_A2, 5),
        ([[0, 1], [-2, 0]], 6),
        ([[0, 1], [-3, 0]], 8),
        (B_A3, 14),
        (B_B3, 20),
        (B_A4, 42),
        (B_D4, 50),
    ],
    ids=["A2", "B2", "G2", "A3", "B3", "A4", "D4"],
)
def test_seed_class_count_matches_permutation_orbits(rows, seeds):
    cat = enumerate_pattern(validate(rows), max_depth=None, with_polynomials=False)
    assert cat.complete
    assert cat.seed_class_count() == _orbit_count(cat) == seeds


def test_seed_class_count_matches_permutation_orbits_random():
    rng = random.Random(1101)
    for _ in range(40):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        cat = enumerate_pattern(validate(rows), max_depth=4, with_polynomials=False)
        assert cat.seed_class_count() == _orbit_count(cat)


def test_node_cap_exhaustion():
    with pytest.raises(ExhaustionCapExceeded):
        enumerate_pattern(validate(B_MARKOV), max_depth=None, node_cap=50, with_polynomials=False)


def test_raw_matrix_rejected():
    with pytest.raises(ValueError):
        enumerate_pattern(B_A3)


def test_default_depth_constant():
    assert DEFAULT_DEPTH == 12


def test_positive_c_vectors_a2():
    cat = enumerate_pattern(validate(B_A2))
    pos = positive_c_vectors(cat)
    assert pos == ((0, 1), (1, 0), (1, 1))


def test_exchange_losing_constant_term_fires(monkeypatch):
    good = pattern.divide_exact

    def lossy(numerator, denominator):
        q = good(numerator, denominator)
        terms = dict(q.sorted_terms())
        terms.pop((0,) * q.nvars, None)
        return LaurentPolynomial(q.nvars, terms)

    monkeypatch.setattr(pattern, "divide_exact", lossy)
    with pytest.raises(DualityViolation):
        mutate_node(initial_node(validate(B_A3)), 2)


def _plain(polys):
    return [dict(p.sorted_terms()) for p in polys]


@pytest.mark.parametrize(
    "rows, depth",
    [(B_A3, None), (B_B3, None), (B_A4, None), (B_D4, None), (B_MARKOV, 5)],
    ids=["A3", "B3", "A4", "D4", "Markov"],
)
def test_f_polynomials_match_dict_oracle(rows, depth):
    cat = enumerate_pattern(validate(rows), max_depth=depth)
    by_history = {node.history: node for node in cat.nodes}
    for node in cat.nodes[1:]:
        parent = by_history[node.history[:-1]]
        k = node.history[-1] - 1
        column = [row[k] for row in _companion(parent)]
        expected = f_polynomial_step(_plain(parent.F_t), parent.B_t.B.entries, column, k)
        assert _plain(node.F_t) == expected
