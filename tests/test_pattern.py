"""Pattern traversal: dedup, duality, sign coherence, polynomials, seed classes."""

from __future__ import annotations

import inspect
import random
import sys
import time
from operator import eq

import pytest

from xfan import (
    DEFAULT_DEPTH,
    DualityViolation,
    ExhaustionCapExceeded,
    IndexOutOfRange,
    IntMatrix,
    LaurentPolynomial,
    PatternNode,
    RelabelledNode,
    SignCoherenceViolation,
    enumerate_pattern,
    initial_node,
    mutate_node,
    positive_c_vectors,
    validate,
)

from xfan import laurent, pattern

from oracles import (
    f_polynomial_step,
    g_matrices,
    hermite_g_matrix,
    labelled_cover,
    labelled_enumeration,
    laurent_mul,
    principal_seed_walk,
    random_skew_symmetrizable,
    seed_automorphisms,
    seed_graph_both_ends,
    seed_orbit_count,
)
from test_cones import B_E6, SEED_CATALOGS, _disjoint

B_A2 = [[0, 1], [-1, 0]]
B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_MARKOV = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
B_B3 = [[0, 1, 0], [-1, 0, 1], [0, -2, 0]]
B_A4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
B_D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
B_A5 = [[0, 1, 0, 0, 0], [-1, 0, 1, 0, 0], [0, -1, 0, 1, 0], [0, 0, -1, 0, 1], [0, 0, 0, -1, 0]]
B_C3 = [[0, 1, 0], [-1, 0, 2], [0, -1, 0]]
B_G2 = [[0, 1], [-3, 0]]
B_F4 = [[0, 1, 0, 0], [-1, 0, 2, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
# D4 with every arrow into the centre: S3 permutes the three leaves
B_D4_S3 = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [-1, -1, -1, 0]]
B_D212 = [[0, 1, 0], [-2, 0, 2], [0, -1, 0]]


def test_initial_node_identities():
    em = validate(B_A3)
    root = initial_node(em)
    ident = tuple(tuple(1 if i == j else 0 for j in range(3)) for i in range(3))
    assert root.C_t.entries == ident
    assert root.G_t.entries == ident
    assert all(p.is_one() for p in root.F_t)
    assert root.history == ()


def test_first_mutation_f_polynomial():
    node = pattern._walk(validate(B_A2), (1,))
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
        node = pattern._walk(em, history, with_polynomials=False)
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
            node = pattern._walk(em, history, with_polynomials=False)
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


def _ct_times(node, g):
    """C_t^T.g for a g-matrix given as a list of rows."""
    return [
        [sum(c * x for c, x in zip(c_col, g_col)) for g_col in zip(*g)] for c_col in zip(*node.C_t.entries)
    ]


def test_duality_and_sign_coherence_random():
    # duality against the recurrence G of the oracle, not the library's C_t^-T
    rng = random.Random(60446)
    for _ in range(12):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        cat = enumerate_pattern(validate(rows), max_depth=5, with_polynomials=False)
        g = g_matrices(rows, [node.history for node in cat.nodes])
        n = len(rows)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for node in cat.nodes:
            assert _ct_times(node, g[node.history]) == ident
            for j in range(n):
                col = [node.C_t.entries[i][j] for i in range(n)]
                assert all(x >= 0 for x in col) or all(x <= 0 for x in col)


def _assert_g_is_the_recurrence(rows, depth):
    cat = enumerate_pattern(validate(rows), max_depth=depth, with_polynomials=False)
    g = g_matrices(rows, [node.history for node in cat.nodes])
    n = len(rows)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for node in cat.nodes:
        assert [list(row) for row in node.G_t.entries] == g[node.history], node.history
        assert hermite_g_matrix(node.C_t.entries) == node.G_t.entries
        assert _ct_times(node, g[node.history]) == ident


@pytest.mark.parametrize("name", sorted(SEED_CATALOGS))
def test_carried_g_is_the_hermite_inverse(name):
    # the G_t the seed pass carries is the (C_t^T)^-1 of the Hermite route on every seed
    rows, depth = SEED_CATALOGS[name]
    seeds, _ = pattern._seed_graph(validate(rows), depth, pattern.NODE_CAP)
    n = len(rows)
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    for seed in seeds:
        assert hermite_g_matrix(seed.C_t.entries) == seed.G_t.entries, seed.history
        assert _ct_times(seed, seed.G_t.entries) == ident


@pytest.mark.parametrize(
    "rows, depth",
    [
        (B_A2, None),
        (B_A3, None),
        (B_B3, None),
        (B_C3, None),
        (B_G2, None),
        (B_A4, None),
        (B_D4, None),
        (B_F4, None),
        (B_MARKOV, 5),
    ],
    ids=["A2", "A3", "B3", "C3", "G2", "A4", "D4", "F4", "Markov"],
)
def test_g_matrix_is_the_g_vector_recurrence(rows, depth):
    _assert_g_is_the_recurrence(rows, depth)


def test_g_matrix_is_the_g_vector_recurrence_on_random_seeds():
    rng = random.Random(31011)
    for _ in range(20):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        _assert_g_is_the_recurrence(rows, 5)


@pytest.mark.parametrize("rows, depth", [(B_A3, 3), (B_MARKOV, 3), (B_G2, 4)], ids=["A3", "Markov", "G2"])
def test_child_shares_every_g_vector_but_g_k(rows, depth):
    # the columns a mutation leaves alone are the parent's own tuples, not copies
    cat = enumerate_pattern(validate(rows), max_depth=depth, with_polynomials=False)
    for node in cat.seeds:
        assert type(node.g_vectors) is tuple and all(type(g) is tuple for g in node.g_vectors)
        for k in range(1, len(rows) + 1):
            child = mutate_node(node, k)
            kept = [a is b for a, b in zip(child.g_vectors, node.g_vectors)]
            assert kept == [j != k - 1 for j in range(len(rows))], (node.history, k)
            assert child.G_t.entries == tuple(zip(*child.g_vectors))


def test_relabelled_g_vectors_are_the_seeds_columns_in_perm_order():
    cat = enumerate_pattern(validate(B_D4), max_depth=None, with_polynomials=False)
    moved = 0
    for node in cat.nodes:
        seed = node.seed
        assert node.g_vectors == tuple(seed.g_vectors[p] for p in node.perm)
        assert node.G_t.entries == tuple(zip(*node.g_vectors))
        moved += node.perm != tuple(sorted(node.perm))
    assert moved


@pytest.mark.parametrize("rows, k", [(B_A3, 0), (B_A3, -1), (B_A3, 4), (B_A3, 10**100), ([[0]], -1)])
def test_mutate_node_rejects_a_direction_out_of_range(rows, k):
    with pytest.raises(IndexOutOfRange):
        mutate_node(initial_node(validate(rows)), k)


def test_with_polynomials_flag():
    cat = enumerate_pattern(validate(B_A2), max_depth=3, with_polynomials=False)
    assert all(node.F_t is None for node in cat.nodes)


def test_duality_violation_fires(monkeypatch):
    good = pattern._mutate_c

    def doubled(node, kk):
        # still sign coherent, but det C_t doubles: no integral (C_t^T)^-1
        cols, t = good(node, kk)
        return (tuple(2 * x for x in cols[0]),) + cols[1:], t

    monkeypatch.setattr(pattern, "_mutate_c", doubled)
    ident = [[int(i == j) for j in range(3)] for i in range(3)]
    child = mutate_node(initial_node(validate(B_A3), with_polynomials=False), 2)
    # reading the carried G_t does not raise; the Hermite oracle and duality catch it
    assert hermite_g_matrix(child.C_t.entries) is None
    assert _ct_times(child, child.G_t.entries) != ident
    cat = enumerate_pattern(validate(B_A3), max_depth=1, with_polynomials=False)
    assert len(cat) == 4 and cat.nodes[0].G_t == IntMatrix.identity(3)
    for node in cat.nodes[1:]:
        assert hermite_g_matrix(node.C_t.entries) is None
    # a mutated F that loses its constant term 1 still raises DualityViolation:
    # test_exchange_losing_constant_term_fires


def test_sign_coherence_violation_fires(monkeypatch):
    good = pattern._mutate_c

    def corrupted(node, kk):
        # the first changed column, c_j with t_j > 0, gets mixed signs
        cols, t = good(node, kk)
        j = next((j for j, tj in enumerate(t) if tj), None)
        if j is None:
            return cols, t
        return cols[:j] + ((1, -1) + cols[j][2:],) + cols[j + 1 :], t

    monkeypatch.setattr(pattern, "_mutate_c", corrupted)
    # direction 1 of A3 changes column 2
    with pytest.raises(SignCoherenceViolation):
        mutate_node(initial_node(validate(B_A3), with_polynomials=False), 1)
    with pytest.raises(SignCoherenceViolation):
        enumerate_pattern(validate(B_A3), with_polynomials=False)


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
        assert cat.seeds == tuple(dict.fromkeys(node.seed for node in cat.nodes))


def test_node_cap_exhaustion(monkeypatch):
    builds = _record_calls(monkeypatch, "_child")
    for cap in (10, 50):
        builds.clear()
        with pytest.raises(ExhaustionCapExceeded):
            enumerate_pattern(validate(B_MARKOV), max_depth=10**6, node_cap=cap, with_polynomials=False)
        # the cap trips at the node that takes the catalog past it, root included
        assert len(builds) == cap
    # a finite catalog completes exactly when it fits under the cap
    with pytest.raises(ExhaustionCapExceeded) as exc:
        enumerate_pattern(validate(B_A3), max_depth=None, node_cap=83, with_polynomials=False)
    assert exc.value.reason is None
    assert str(exc.value) == "more than 83 labelled nodes before the frontier emptied"
    assert len(enumerate_pattern(validate(B_A3), max_depth=None, node_cap=84)) == 84


def test_f_polynomial_budget(monkeypatch):
    # each side y^a * prod F_i^e of an exchange relation is refused from its Newton box
    # before any product; Markov to depth 4 reads boxes of up to 135 points
    monkeypatch.setattr(pattern, "NODE_CAP", 135)
    assert len(enumerate_pattern(validate(B_MARKOV), max_depth=4).seeds) == 46
    monkeypatch.setattr(pattern, "NODE_CAP", 134)
    with pytest.raises(ExhaustionCapExceeded) as exc:
        enumerate_pattern(validate(B_MARKOV), max_depth=4)
    assert exc.value.reason == "f_polynomial_budget"
    assert str(exc.value) == "F'_1 at history (1, 2, 3) spans a Newton box of more than 134 lattice points"
    # only F is budgeted: the thousand-digit seed, whose F'_2 at history (1,) would raise
    # 1 + y_1 to the power 10**1000 - 1, enumerates without F (tests/test_cli.py runs it with F)
    em = validate([[0, 10**1000 - 1, 0], [1 - 10**1000, 0, 1], [0, -1, 0]])
    assert len(enumerate_pattern(em, max_depth=2, with_polynomials=False).seeds) == 9


def test_node_cap_below_one_rejected():
    # every walk has a cap, so None is rejected too
    em = validate(B_A2)
    for cap in (0, -1, None):
        for depth in (0, 1, None):
            with pytest.raises(ValueError, match="^node_cap must be positive$"):
                enumerate_pattern(em, max_depth=depth, node_cap=cap)
    # the root alone fits under a cap of one; its first child does not
    assert len(enumerate_pattern(em, max_depth=0, node_cap=1)) == 1
    with pytest.raises(ExhaustionCapExceeded):
        enumerate_pattern(em, max_depth=1, node_cap=1)


def test_negative_depth_rejected():
    em = validate(B_A2)
    for depth in (-1, -10**6):
        with pytest.raises(ValueError, match="^max_depth must be nonnegative or None$"):
            enumerate_pattern(em, max_depth=depth)
    assert len(enumerate_pattern(em, max_depth=0)) == 1


def test_node_cap_defaults_to_the_one_cap():
    assert pattern.NODE_CAP == 10**6
    default = inspect.signature(enumerate_pattern).parameters["node_cap"].default
    assert default is pattern.NODE_CAP


def test_raw_matrix_rejected():
    with pytest.raises(ValueError):
        enumerate_pattern(B_A3)


def test_default_depth_constant():
    assert DEFAULT_DEPTH == 12


def test_positive_c_vectors_a2():
    cat = enumerate_pattern(validate(B_A2))
    pos = positive_c_vectors(cat)
    assert pos == ((0, 1), (1, 0), (1, 1))


CATALOGS = [
    (B_A2, None),
    ([[0, 1], [-2, 0]], None),
    ([[0, 1], [-3, 0]], None),
    ([[0, 2], [-2, 0]], 4),
    (B_A3, None),
    (B_B3, None),
    (B_A4, None),
    (B_D4, None),
    (B_MARKOV, 6),
]


@pytest.mark.parametrize(
    "rows, depth", CATALOGS, ids=["A2", "B2", "G2", "Kronecker", "A3", "B3", "A4", "D4", "Markov"]
)
def test_positive_c_vectors_match_scan_of_all_nodes(rows, depth):
    cat = enumerate_pattern(validate(rows), max_depth=depth, with_polynomials=False)
    found = {col for node in cat.nodes for col in zip(*node.C_t.entries) if min(col) >= 0}
    assert positive_c_vectors(cat) == tuple(sorted(found))


@pytest.mark.parametrize(
    "rows, depth", CATALOGS, ids=["A2", "B2", "G2", "Kronecker", "A3", "B3", "A4", "D4", "Markov"]
)
def test_seeds_are_the_first_nodes_in_order(rows, depth):
    cat = enumerate_pattern(validate(rows), max_depth=depth, with_polynomials=False)
    assert cat.seeds == tuple(dict.fromkeys(node.seed for node in cat.nodes))
    # every labelled node is a RelabelledNode over a seed, the root's included
    assert all(type(node) is RelabelledNode for node in cat.nodes)
    assert all(type(seed) is PatternNode for seed in cat.seeds)
    assert cat.nodes[0].seed is cat.seeds[0] and cat.nodes[0].history == ()
    # a seed's first labelled node is its own labelling, reached along its history
    first = {}
    for node in cat.nodes:
        first.setdefault(node.seed, node)
    ident = tuple(range(len(rows)))
    for seed in cat.seeds:
        assert first[seed].perm == ident
        assert first[seed].history == seed.history


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _assert_b_t_closed_form(rows, depth):
    """B_t = C_t^T.B.(D^-1.C_t.D) on every labelled node, the conjugation exact."""
    em = validate(rows)
    d = em.d
    cat = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
    for node in cat.nodes:
        c = node.C_t.entries
        assert all(x * d[j] % d[i] == 0 for i, row in enumerate(c) for j, x in enumerate(row))
        conj = [[x * d[j] // d[i] for j, x in enumerate(row)] for i, row in enumerate(c)]
        b_t = _matmul(_matmul(list(zip(*c)), rows), conj)
        assert b_t == [list(row) for row in node.B_t.B.entries], node.history


@pytest.mark.parametrize(
    "rows, depth",
    CATALOGS + [(B_C3, None), (B_F4, None)],
    ids=["A2", "B2", "G2", "Kronecker", "A3", "B3", "A4", "D4", "Markov", "C3", "F4"],
)
def test_b_t_is_the_closed_form_of_c_t(rows, depth):
    # the premise of keying a seed by the columns of C_t
    _assert_b_t_closed_form(rows, depth)


def test_b_t_is_the_closed_form_of_c_t_on_random_seeds():
    rng = random.Random(5151)
    for _ in range(20):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        _assert_b_t_closed_form(rows, 4)


@pytest.mark.parametrize(
    "rows, history, built",
    [
        (B_MARKOV, (), 0),
        ([[0, 2], [-2, 0]], (), 0),
        # acyclic affine A2: the root and seed (1,) expand into 3 + 2 new
        # seeds before seed (2,), whose B_t has a double arrow, is reached
        ([[0, 1, 1], [-1, 0, 1], [-1, -1, 0]], (2,), 5),
    ],
    ids=["Markov", "Kronecker", "affine A2"],
)
def test_unbounded_walk_stops_at_infinite_type(monkeypatch, rows, history, built):
    # one exchange matrix with b_ij.b_ji <= -4 proves the exchange graph infinite
    builds = _record_calls(monkeypatch, "_child")
    with pytest.raises(ExhaustionCapExceeded) as exc:
        enumerate_pattern(validate(rows), max_depth=None, node_cap=100, with_polynomials=False)
    assert exc.value.reason == "infinite_type"
    assert f"history {history}" in str(exc.value)
    assert len(builds) == built
    # a depth bound walks on
    assert len(enumerate_pattern(validate(rows), max_depth=3, with_polynomials=False)) > 1


def _node_fields(node):
    return (node.B_t, node.C_t, node.G_t, node.F_t, node.history)


def _assert_matches_labelled_enumeration(em, depth, with_polynomials):
    cat = enumerate_pattern(em, max_depth=depth, with_polynomials=with_polynomials)
    root = initial_node(em, with_polynomials=with_polynomials)
    nodes, walked, complete = labelled_enumeration(root, mutate_node, depth)
    assert list(map(_node_fields, cat.nodes)) == list(map(_node_fields, nodes))
    assert (cat.depth, cat.complete) == (walked, complete)


@pytest.mark.parametrize(
    "rows, depth",
    [
        (B_G2, None),
        (B_A3, None),
        (B_B3, None),
        (B_C3, None),
        (B_A4, None),
        (B_D4, None),
        (B_F4, None),
        (B_MARKOV, 6),
    ],
    ids=["G2", "A3", "B3", "C3", "A4", "D4", "F4", "Markov"],
)
def test_enumeration_matches_labelled_enumeration(rows, depth):
    _assert_matches_labelled_enumeration(validate(rows), depth, True)


def test_relabelling_preserves_d():
    # on these seeds d != 1, so each seed is seen only in the labellings that fix d
    for rows, nodes, seeds in [(B_G2, 8, 8), (B_C3, 40, 20), (B_F4, 420, 105)]:
        em = validate(rows)
        cat = enumerate_pattern(em, max_depth=None, with_polynomials=False)
        assert (len(cat), cat.seed_class_count()) == (nodes, seeds)
        assert all(tuple(em.d[p] for p in node.perm) == em.d for node in cat.nodes)


def test_enumeration_matches_labelled_enumeration_on_random_seeds():
    rng = random.Random(9182)
    for _ in range(40):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=2)
        _assert_matches_labelled_enumeration(validate(rows), rng.randint(0, 4), rng.random() < 0.5)
    for _ in range(8):
        rows, _ = random_skew_symmetrizable(rng, 5, max_entry=2)
        _assert_matches_labelled_enumeration(validate(rows), rng.randint(0, 3), rng.random() < 0.5)


def _assert_cover_matches_oracle(em, depth):
    """(history, seed, perm) of every labelled node, in order, equals ``labelled_cover``'s."""
    cat = enumerate_pattern(em, max_depth=depth, with_polynomials=False)
    _, edges = pattern._seed_graph(em, depth, pattern.NODE_CAP)
    expected, walked, complete = labelled_cover(edges, em.n, depth)
    nodes = cat.nodes
    got = zip(nodes.histories, nodes.seed_of, map(nodes.perms.__getitem__, nodes.perm_of))
    assert len(nodes) == len(expected) and all(map(eq, got, expected))
    assert (cat.depth, cat.complete) == (walked, complete)


@pytest.mark.parametrize("name", sorted(SEED_CATALOGS))
def test_cover_matches_labelled_cover(name):
    rows, depth = SEED_CATALOGS[name]
    _assert_cover_matches_oracle(validate(rows), depth)


@pytest.mark.parametrize("rows, depth", [(B_MARKOV, 8), ([[0, 2], [-2, 0]], 12)], ids=["Markov", "Kronecker"])
def test_cover_matches_labelled_cover_depth_bounded(rows, depth):
    _assert_cover_matches_oracle(validate(rows), depth)


def test_cover_matches_labelled_cover_on_random_seeds():
    rng = random.Random(2626)
    for _ in range(40):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 5), max_entry=2)
        _assert_cover_matches_oracle(validate(rows), rng.randint(0, 5))


def test_labelled_nodes_are_a_read_only_sequence():
    nodes = enumerate_pattern(validate(B_A3), with_polynomials=False).nodes
    fields = lambda node: (node.seed, node.perm, node.history)
    listed = list(map(fields, nodes))
    assert len(listed) == len(nodes) == 84
    assert [fields(nodes[i]) for i in range(-84, 0)] == listed
    for part in (slice(1, 5), slice(None, None, -7), slice(80, 90)):
        assert type(nodes[part]) is tuple and list(map(fields, nodes[part])) == listed[part]
    # each read builds a new node
    assert nodes[3] is not nodes[3] and fields(nodes[3]) == fields(nodes[3])
    for i in (84, -85):
        with pytest.raises(IndexError):
            nodes[i]
    with pytest.raises(AttributeError):
        nodes.histories = ()


def _record_calls(monkeypatch, name):
    calls = []
    inner = getattr(pattern, name)

    def recorded(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(pattern, name, recorded)
    return calls


def _labelled_edges(catalog, n):
    return [
        (node.history, k - 1)
        for node in catalog.nodes
        if len(node.history) < catalog.depth
        for k in range(1, n + 1)
        if node.history[-1:] != (k,)
    ]


@pytest.mark.parametrize(
    "rows, edges", [(B_A3, 21), (B_D4, 100), (B_A5, 330)], ids=["A3", "D4", "A5"]
)
def test_one_mutation_per_unlabelled_edge(monkeypatch, rows, edges):
    _, graph = pattern._seed_graph(validate(rows), None, pattern.NODE_CAP)
    probes, builds, signs = (
        _record_calls(monkeypatch, name) for name in ("_mutate_c", "_child", "_column_sign")
    )
    cat = enumerate_pattern(validate(rows), max_depth=None, with_polynomials=False)
    n = len(rows)
    seeds = cat.seed_class_count()
    # each probe mutates the first node of a seed, and each unordered edge {s, t}
    # once, from its lower-numbered end s: t reads the edge reversed
    number = {node.history: s for s, node in enumerate(cat.seeds)}
    probed = [(number[node.history], kk) for node, kk in probes]
    lower = [(s, j) for s, out in enumerate(graph) for j, (t, _) in enumerate(out) if s < t]
    assert probed == lower
    assert len({(s, graph[s][j][0]) for s, j in lower}) == len(probed) == seeds * n // 2 == edges
    assert len(_labelled_edges(cat, n)) > edges
    # the sign check runs on the changed columns, c_j with t_j > 0, of each seed after the root
    assert len(builds) == seeds - 1
    changed = [(cols[j], j) for _, _, cols, t in builds for j, tj in enumerate(t) if tj]
    assert signs == changed and 0 < len(signs) < n * (seeds - 1)


def test_e6_seed_pass_mutates_each_edge_once(monkeypatch):
    probes = _record_calls(monkeypatch, "_mutate_c")
    seeds, _ = pattern._seed_graph(validate(B_E6), None, pattern.NODE_CAP)
    assert len(probes) == 6 * len(seeds) // 2 == 2499


def _assert_seed_graph_matches_both_ends(monkeypatch, em, depth):
    """Seeds and edges of the seed pass equal the walk that mutates every edge from both ends,
    and the pass mutates each edge once, from its lower-numbered end."""
    seeds, edges = seed_graph_both_ends(initial_node(em, with_polynomials=False), mutate_node, depth)
    with monkeypatch.context() as patched:
        probes = _record_calls(patched, "_mutate_c")
        got, got_edges = pattern._seed_graph(em, depth, pattern.NODE_CAP)
    fields = lambda seed: (seed.history, seed.c_vectors, seed.B_t, seed.G_t, seed.F_t)
    assert list(map(fields, got)) == list(map(fields, seeds))
    assert got_edges == edges
    assert len(probes) == sum(s < t for s, out in enumerate(edges) for t, _ in out)
    if len(edges) == len(seeds):  # every seed expanded
        assert 2 * len(probes) == em.n * len(seeds)


@pytest.mark.parametrize("name", sorted(SEED_CATALOGS))
def test_seed_graph_matches_both_ends(monkeypatch, name):
    rows, depth = SEED_CATALOGS[name]
    _assert_seed_graph_matches_both_ends(monkeypatch, validate(rows), depth)


@pytest.mark.parametrize("rows", [B_MARKOV, [[0, 2], [-2, 0]]], ids=["Markov", "Kronecker"])
def test_seed_graph_matches_both_ends_depth_bounded(monkeypatch, rows):
    _assert_seed_graph_matches_both_ends(monkeypatch, validate(rows), 8)


def test_seed_graph_matches_both_ends_on_random_seeds(monkeypatch):
    rng = random.Random(3232)
    for _ in range(100):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(1, 6), max_entry=2)
        _assert_seed_graph_matches_both_ends(monkeypatch, validate(rows), rng.randint(0, 4))


@pytest.mark.parametrize(
    "name, count", [("A3", 4), ("D4", 24), ("A3+A3", 112), ("cycle", 4), ("E6", 1124)]
)
def test_some_edge_relabellings_are_not_involutions(name, count):
    # there, an edge read off the wrong end would carry tau for tau^-1
    rows, depth = SEED_CATALOGS[name]
    _, edges = pattern._seed_graph(validate(rows), depth, pattern.NODE_CAP)
    taus = [tau for out in edges for _, tau in out]
    assert sum(tau != tuple(map(tau.index, range(len(tau)))) for tau in taus) == count


@pytest.mark.parametrize("rows, depth", [(B_A4, None), (B_D4, None), (B_MARKOV, 4)], ids=["A4", "D4", "Markov"])
def test_expanded_seeds_pop_their_pending_edges(rows, depth):
    # a reverse edge waits in the seed pass's `pending` only until its seed is expanded,
    # and none is stored for a seed at the depth bound, which is never expanded
    left = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is pattern._seed_graph.__code__:
            left.append(dict(frame.f_locals["pending"]))

    outer = sys.getprofile()
    sys.setprofile(profile)
    try:
        seeds, edges = pattern._seed_graph(validate(rows), depth, pattern.NODE_CAP)
    finally:
        sys.setprofile(outer)
    assert left == [{}]
    assert (depth is None) == (len(edges) == len(seeds))


def test_every_node_its_own_seed_mutates_every_labelled_edge(monkeypatch):
    probes, builds = (_record_calls(monkeypatch, name) for name in ("_mutate_c", "_child"))
    cat = enumerate_pattern(validate(B_MARKOV), max_depth=4, with_polynomials=False)
    assert cat.seed_class_count() == len(cat)
    assert [(node.history, kk) for node, kk in probes] == _labelled_edges(cat, 3)
    assert len(builds) == len(cat) - 1


def _without_constant_term(poly):
    terms = dict(poly.sorted_terms())
    terms.pop((0,) * poly.nvars, None)
    return LaurentPolynomial(poly.nvars, terms)


def test_exchange_losing_constant_term_fires(monkeypatch):
    # F'_k comes out of an exchange context, one per relation for
    # mutate_node and one per expanded seed for the seed pass
    good = laurent._Packing.exchange

    def lossy(context, sides, k):
        return _without_constant_term(good(context, sides, k))

    monkeypatch.setattr(laurent._Packing, "exchange", lossy)
    with pytest.raises(DualityViolation):
        mutate_node(initial_node(validate(B_A3)), 2)
    with pytest.raises(DualityViolation):
        enumerate_pattern(validate(B_A3), max_depth=1, with_polynomials=True)
    assert len(enumerate_pattern(validate(B_A3), max_depth=1, with_polynomials=False)) == 4

    def lossy_when_shared(context, sides, k):
        # only a relation after the first of its context loses the term
        shared = bool(context.packed)
        q = good(context, sides, k)
        return _without_constant_term(q) if shared else q

    monkeypatch.setattr(laurent._Packing, "exchange", lossy_when_shared)
    assert mutate_node(mutate_node(initial_node(validate(B_A3)), 2), 1).F_t is not None
    with pytest.raises(DualityViolation):
        enumerate_pattern(validate(B_A3), max_depth=1, with_polynomials=True)


def test_relabelled_f_losing_constant_term_fires(monkeypatch):
    # a reflected F, off the anti-automorphism of the A4 path, is checked too
    enumerate_pattern(validate(B_A4), max_depth=None)
    monkeypatch.setattr(pattern, "sub", lambda top, e: top - e + 1)
    with pytest.raises(DualityViolation):
        enumerate_pattern(validate(B_A4), max_depth=None)


def _plain(polys):
    return [dict(p.sorted_terms()) for p in polys]


def _assert_f_polynomials_match_oracle(em, depth):
    cat = enumerate_pattern(em, max_depth=depth)
    by_history = {node.history: node for node in cat.nodes}
    for node in cat.nodes[1:]:
        parent = by_history[node.history[:-1]]
        k = node.history[-1] - 1
        column = [row[k] for row in _companion(parent)]
        expected = f_polynomial_step(_plain(parent.F_t), parent.B_t.B.entries, column, k)
        assert _plain(node.F_t) == expected


@pytest.mark.parametrize(
    "rows, depth",
    [
        (B_A3, None),
        (B_B3, None),
        (B_A4, None),
        (B_D4, None),
        (B_MARKOV, 5),
        (B_G2, None),
        ([[0, 2], [-2, 0]], 6),
        (B_C3, None),
        (_disjoint(B_A3, B_A3), 3),
        (B_D4_S3, None),
        (B_A5, None),
        # d = (2, 1, 2): the swap of the ends is an anti-automorphism, and no automorphism is
        (B_D212, 5),
    ],
    ids=["A3", "B3", "A4", "D4", "Markov", "G2", "Kronecker", "C3", "A3+A3", "D4-S3", "A5", "d212"],
)
def test_f_polynomials_match_dict_oracle(rows, depth):
    _assert_f_polynomials_match_oracle(validate(rows), depth)


def _reflected(poly):
    """y^M.F(y^-1) as a term dict, M the largest exponent of each variable in F."""
    terms = dict(poly.sorted_terms())
    top = tuple(map(max, zip(*terms)))
    return {tuple(m - e for m, e in zip(top, exps)): c for exps, c in terms.items()}


def _assert_reflection(rows, d, history):
    # F of -B at any history is y^M.F(y^-1) of F of B there (Fomin-Zelevinsky IV, Prop. 5.3)
    plus = pattern._walk(validate(rows, d=d), history)
    minus = pattern._walk(validate([[-x for x in row] for row in rows], d=d), history)
    for f, g in zip(plus.F_t, minus.F_t):
        reflected = _reflected(f)
        assert dict(g.sorted_terms()) == reflected
        assert reflected[(0,) * len(rows)] == 1


@pytest.mark.parametrize("rows", [B_MARKOV, B_B3, B_G2], ids=["Markov", "B3", "G2"])
def test_minus_b_reflects_f(rows):
    n = len(rows)
    for history in [(), (1,), (2, 1), (1, 2, 1, 2), tuple(range(1, n + 1)) * 2]:
        _assert_reflection(rows, None, history)


def test_minus_b_reflects_f_on_random_seeds():
    rng = random.Random(2929)
    changed = 0
    for _ in range(40):
        n = rng.randint(1, 4)
        rows, d = random_skew_symmetrizable(rng, n, max_entry=2)
        history = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6)))
        _assert_reflection(rows, d, history)
        changed += any(not f.is_one() for f in pattern._walk(validate(rows, d=d), history).F_t)
    assert changed > 20


def _generated(perms, n):
    """The group generated by permutations of range(n), by closure under composition."""
    group, frontier = {tuple(range(n))}, [tuple(range(n))]
    while frontier:
        new = {tuple(map(g.__getitem__, s)) for g in frontier for s in perms} - group
        group |= new
        frontier = list(new)
    return group


def _assert_automorphisms_generate(em):
    """The orders of the automorphism group of (B, d) and of its signed group, which the search generates."""
    n = em.n
    autos, anti = pattern._automorphisms(em), pattern._automorphisms(em, sign=-1)
    group, coset = (seed_automorphisms(em.B.entries, em.d, sign) for sign in (1, -1))
    assert set(autos) <= group and len(autos) == len(set(autos)) <= n * (n - 1)
    assert _generated(autos, n) == group
    # signed permutations (sigma, eps) compose as (sigma.rho, eps.delta); the
    # anti-automorphisms are the coset tau.Aut of the one tau the search returns
    assert len(anti) == (len(coset) > 0) and set(anti) <= coset
    signed = [(a, 1) for a in autos] + [(a, -1) for a in anti]
    closure, frontier = {(tuple(range(n)), 1)}, [(tuple(range(n)), 1)]
    while frontier:
        frontier = {(tuple(map(g.__getitem__, s)), e * f) for g, e in frontier for s, f in signed} - closure
        closure |= frontier
    assert closure == {(g, 1) for g in group} | {(g, -1) for g in coset}
    return len(group), len(group) + len(coset)


@pytest.mark.parametrize(
    "em, order, signed",
    [
        (validate(B_MARKOV), 3, 6),
        (validate(B_D4), 2, 2),
        (validate(B_A3), 2, 2),
        # the reversal of the directed path turns its arrows around
        (validate(B_A4), 1, 2),
        (validate(B_D4_S3), 6, 6),
        (validate(_disjoint(B_A3, B_A3)), 8, 8),
        # on B = 0 every permutation is both
        (validate([[0] * 6 for _ in range(6)]), 720, 1440),
        # the swap keeps B but moves d, so it is neither
        (validate([[0, 0], [0, 0]], d=[1, 2]), 1, 2),
        (validate(B_B3), 1, 1),
        (validate(B_D212), 1, 2),
    ],
    ids=["Markov", "D4", "A3", "A4", "D4-S3", "A3+A3", "zero6", "zero-d12", "B3", "d212"],
)
def test_automorphisms_generate_the_oracle_group(em, order, signed):
    assert _assert_automorphisms_generate(em) == (order, signed)
    assert (order == 1) == (pattern._automorphisms(em) == ())
    assert (signed == order) == (pattern._automorphisms(em, sign=-1) == ())


def test_automorphisms_generate_the_oracle_group_random():
    rng = random.Random(2828)
    orders = []
    for _ in range(150):
        rows, d = random_skew_symmetrizable(rng, rng.randint(1, 6), max_entry=2)
        orders.append(_assert_automorphisms_generate(validate(rows, d=d)))
    assert sum(order > 1 for order, _ in orders) > 30 and max(order for order, _ in orders) >= 6
    assert sum(signed > order for order, signed in orders) > 30


def _count_exchanges(monkeypatch):
    calls = []
    good = laurent._Packing.exchange

    def counted(context, sides, k):
        calls.append(k)
        return good(context, sides, k)

    monkeypatch.setattr(laurent._Packing, "exchange", counted)
    return calls


def _count_relabels(monkeypatch):
    # the F pass renames the variables of a built F once per F'_k it reads off a symmetric seed
    calls = []
    good = pattern.itemgetter

    def counted(*items):
        calls.append(items)
        return good(*items)

    monkeypatch.setattr(pattern, "itemgetter", counted)
    return calls


@pytest.mark.parametrize(
    "rows, depth, exchanges, relabels",
    [(B_MARKOV, 6, 34, 155), (B_B3, None, 9, 0), (B_A4, None, 9, 1), (B_A5, None, 12, 3)],
    ids=["Markov", "B3", "A4", "A5"],
)
def test_symmetric_seeds_relabel_f_instead_of_exchanging(monkeypatch, rows, depth, exchanges, relabels):
    # a new F'_k whose g-vector no built F has is read off a built seed at
    # sigma^-1(h), sigma a signed symmetry of (B, d), where it can: Markov has
    # 3 automorphisms and 3 anti-automorphisms, no two of its 189 new seeds
    # share their new g-vector, and they run 34 exchanges (65 under the
    # automorphisms alone); the A4 and A5 paths have only their reversal, an
    # anti-automorphism, and B3 has no symmetry
    calls, renamed = _count_exchanges(monkeypatch), _count_relabels(monkeypatch)
    enumerate_pattern(validate(rows), max_depth=depth)
    assert (len(calls), len(renamed)) == (exchanges, relabels)


@pytest.mark.parametrize("rows, exchanges", [(B_D4, 10), (B_D4_S3, 9)], ids=["D4", "D4-S3"])
def test_d4_relabels_some_f(monkeypatch, rows, exchanges):
    # D4 has 12 positive roots, so 12 F other than the initial ones; a relabel forms the rest
    calls, renamed = _count_exchanges(monkeypatch), _count_relabels(monkeypatch)
    cat = enumerate_pattern(validate(rows), max_depth=None)
    assert len(cat.seeds) - 1 == 49 and len(calls) == exchanges and len(renamed) == 12 - exchanges


def _f_pass_counts(monkeypatch, rows):
    """Exchanges, relabels and positive c-vectors of the exhaustive seed and F passes, and the seeds."""
    calls, renamed = _count_exchanges(monkeypatch), _count_relabels(monkeypatch)
    em = validate(rows)
    seeds = pattern._f_pass(em, *pattern._seed_graph(em, None, pattern.NODE_CAP))
    positive = {col for seed in seeds for col in seed.c_vectors if min(col) >= 0}
    return len(calls), len(renamed), len(positive), seeds


FINITE_TYPE = {name: rows for name, (rows, depth) in SEED_CATALOGS.items() if depth is None}
FINITE_TYPE.update({"D4-S3": B_D4_S3})


@pytest.mark.parametrize("name", sorted(FINITE_TYPE))
def test_f_pass_forms_one_f_per_cluster_variable(monkeypatch, name):
    # a cluster variable is determined by its g-vector (Gross-Hacking-Keel-Kontsevich), so the F
    # pass forms one F'_k per non-initial cluster variable, by an exchange or a relabel; in finite
    # type those are as many as the positive roots, which are the positive c-vectors
    exchanges, relabels, positive, _ = _f_pass_counts(monkeypatch, FINITE_TYPE[name])
    assert exchanges + relabels == positive


def test_e6_f_pass_exchanges_once_per_positive_root(monkeypatch):
    # E6 has no signed symmetry in this orientation: each of its 36 positive roots is one exchange,
    # and every seed's F is the exchange relation of the seed it was first reached from
    assert FINITE_TYPE["E6"] == B_E6
    exchanges, relabels, positive, seeds = _f_pass_counts(monkeypatch, B_E6)
    assert (exchanges, relabels, positive, len(seeds)) == (36, 0, 36, 833)
    by_history = {seed.history: seed for seed in seeds}
    for seed in seeds[1:]:
        parent, k = by_history[seed.history[:-1]], seed.history[-1] - 1
        column = [row[k] for row in _companion(parent)]
        assert _plain(seed.F_t) == f_polynomial_step(_plain(parent.F_t), parent.B_t.B.entries, column, k)


def _zero(n):
    return [[0] * n for _ in range(n)]


def _path(labels, alternating=False):
    """A path through the points in the order of ``labels``; its arrows all
    point forward, or alternate when ``alternating``."""
    rows = _zero(len(labels))
    for p, (u, v) in enumerate(zip(labels, labels[1:])):
        sign = -1 if alternating and p % 2 else 1
        rows[u][v], rows[v][u] = sign, -sign
    return rows


def _evens_first(n):
    # position p of the path gets label p // 2 when p is even and
    # ceil(n / 2) + p // 2 when odd, so the first labels are pairwise apart
    return [p // 2 if p % 2 == 0 else (n + 1) // 2 + p // 2 for p in range(n)]


def _spy_automorphisms(monkeypatch, budget=None):
    calls = []
    good = pattern._automorphisms

    def spied(em, sign=1):
        calls.append(sign)
        return good(em, budget, sign)

    monkeypatch.setattr(pattern, "_automorphisms", spied)
    return calls


def test_relations_that_hold_only_f_one_are_not_looked_up(monkeypatch):
    # B = 0 at n = 12 has 12! automorphisms, and every relation of its walk
    # holds only F = 1: the walk never searches for automorphisms. Each
    # direction exchanges once, at depth 1, and its 66 relations at depth 2
    # make the same variables, g-vector -e_k, so they read the F built then
    searches, calls = _spy_automorphisms(monkeypatch), _count_exchanges(monkeypatch)
    start = time.perf_counter()
    cat = enumerate_pattern(validate(_zero(12)), max_depth=2)
    assert time.perf_counter() - start < 10  # loose: it catches only a search that blows up
    assert len(cat.seeds) == 1 + 12 + 66 and len(calls) == 12 and searches == []
    # Markov searches once for each sign, at the first relation that holds an
    # F other than 1, and the seed pass alone never searches
    enumerate_pattern(validate(B_MARKOV), max_depth=3, with_polynomials=False)
    assert searches == []
    enumerate_pattern(validate(B_MARKOV), max_depth=3)
    assert searches == [1, -1]


def test_automorphism_search_work_is_bounded():
    # B = 0: n - 1 transpositions within n^2 tries, about n per search
    autos = pattern._automorphisms(validate(_zero(12)), budget=12 * 12)
    moved = [{p for p in range(12) if g[p] != p} for g in autos]
    assert len(autos) == 11 and all(len(m) == 2 for m in moved)
    # 11 transpositions that join all 12 points generate every permutation
    reached = {0}
    while new := set().union(*(m for m in moved if m & reached)) - reached:
        reached |= new
    assert reached == set(range(12))
    # a path labelled evens first, so that no label below n/2 is next to
    # another: the search follows the path from a neighbour's image, so an
    # alternating path finds its reversal within 2n^2 tries, where a search
    # in label order lists the independent sets of the path
    n = 31
    labels = _evens_first(n)
    autos = pattern._automorphisms(validate(_path(labels, alternating=True)), budget=2 * n * n)
    assert autos == (tuple(labels[n - 1 - labels.index(v)] for v in range(n)),)
    assert pattern._automorphisms(validate(_path(_evens_first(30))), budget=2 * 30 * 30) == ()
    # a spent budget keeps what was found: here nothing
    assert pattern._automorphisms(validate(B_MARKOV), budget=0) == ()


def test_evens_first_path_with_f(monkeypatch):
    # the directed path of 30 points labelled evens first, with F: depth 1
    # never searches; depth 2 searches once for each sign, at its first
    # relation that holds an F other than 1 and makes a new variable, and
    # finds only the reversal, an anti-automorphism. The 58 such relations,
    # one for each order of two neighbours, make 29 variables, one per pair,
    # so 29 exchange and the rest read those F by their g-vectors
    searches, calls = _spy_automorphisms(monkeypatch), _count_exchanges(monkeypatch)
    rows = _path(_evens_first(30))
    enumerate_pattern(validate(rows), max_depth=1)
    assert searches == [] and len(calls) == 30
    calls.clear()
    start = time.perf_counter()
    _assert_f_polynomials_match_oracle(validate(rows), 2)
    assert time.perf_counter() - start < 10  # loose: it catches only a search that blows up
    assert searches == [1, -1] and len(calls) == 30 + 29


@pytest.mark.parametrize("budget, exchanges", [(0, 12), (6, 10), (None, 9)], ids=["none", "one", "all"])
def test_any_subset_of_automorphisms_gives_the_same_f(monkeypatch, budget, exchanges):
    # a search stopped early looks up under fewer sigma, and F stays exact:
    # D4-S3 keeps no sigma, one transposition, or two that generate S3, and
    # has no anti-automorphism; a relabel forms each of its 12 F the exchanges do not
    searches = _spy_automorphisms(monkeypatch, budget)
    calls, renamed = _count_exchanges(monkeypatch), _count_relabels(monkeypatch)
    _assert_f_polynomials_match_oracle(validate(B_D4_S3), None)
    assert (len(calls), len(renamed), searches) == (exchanges, 12 - exchanges, [1, -1])


def test_f_polynomials_match_dict_oracle_random(monkeypatch):
    # seeds whose relations read one F_i in several radices and powers
    contexts = {}
    good = laurent._Packing.exchange

    def recorded(context, sides, k):
        contexts[id(context)] = context
        return good(context, sides, k)

    monkeypatch.setattr(laurent._Packing, "exchange", recorded)
    rng = random.Random(2027)
    for _ in range(20):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=3)
        _assert_f_polynomials_match_oracle(validate(rows), 3)
    packed = {}  # (context, F index) -> the (power, radix bits) it was packed in
    for key, context in contexts.items():
        for i, e, bits in context.packed:
            packed.setdefault((key, i), set()).add((e, bits))
    assert sum(len({bits for _, bits in v}) > 1 for v in packed.values()) > 10
    assert sum(len({e for e, _ in v if e > 1}) > 1 for v in packed.values()) > 10


def test_exchange_relation_holds_on_markov_depth_6():
    # the depth the theta workload enumerates: F_k.F'_k = M+ + M- at every node,
    # with products from the tuple-keyed oracle
    cat = enumerate_pattern(validate(B_MARKOV), max_depth=6)
    by_history = {node.history: node for node in cat.nodes}
    squares = {}

    def square(poly):
        key = frozenset(poly.items())
        if key not in squares:
            squares[key] = laurent_mul(poly, poly)
        return squares[key]

    largest = 0
    for node in cat.nodes[1:]:
        parent = by_history[node.history[:-1]]
        k = node.history[-1] - 1
        column = [row[k] for row in _companion(parent)]
        old, new = _plain(parent.F_t), _plain(node.F_t)
        assert new[:k] + new[k + 1:] == old[:k] + old[k + 1:]
        sides = []
        for sign in (1, -1):
            side = {tuple(max(sign * c, 0) for c in column): 1}
            for i, row in enumerate(parent.B_t.B.entries):
                if sign * row[k] > 0:
                    assert sign * row[k] == 2  # every Markov exchange matrix has entries 0, +-2
                    side = laurent_mul(side, square(old[i]))
            sides.append(side)
        total = dict(sides[0])
        for e, c in sides[1].items():
            total[e] = total.get(e, 0) + c
        assert laurent_mul(old[k], new[k]) == total
        largest = max(largest, len(new[k]))
    assert len(cat) == 190 and largest > 500
