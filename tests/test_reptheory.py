"""Path algebra data, knitting, normal vectors, kernel certificates."""

from __future__ import annotations

import random
from operator import mul

import pytest

from xfan import (
    DimensionMismatch,
    ExhaustionCapExceeded,
    IntMatrix,
    NotARoot,
    NotAcyclic,
    NotPositive,
    NotRepresentationFinite,
    assemble_fan,
    enumerate_pattern,
    g_vector,
    kernel_certificates,
    knit,
    normal_vector,
    path_algebra_data,
    validate,
)
from xfan import reptheory
from xfan.reptheory import _tits_form_positive, tau_inverse_dim

from oracles import (
    arrows_to_b,
    cartan_route,
    dynkin_graph,
    knitted_meshes,
    minimal_positive_relations,
    path_counts,
    positive_roots,
    random_acyclic_arrows,
    sympy_inverse,
    verify_dv_gv,
)

B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
B_KRONECKER = [[0, -2], [2, 0]]


def _linear_a(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = 1
        rows[i + 1][i] = -1
    return rows


def _data(rows):
    return path_algebra_data(validate(rows))


def test_cartan_frozen():
    data = _data(B_A3)
    assert data.cartan.entries == ((1, 1, 0), (0, 1, 0), (0, 1, 1))
    assert data.cartan_inv.entries == ((1, -1, 0), (0, 1, 0), (0, -1, 1))
    assert data.exchange.entries == ((0, 1, 0), (-1, 0, -1), (0, 1, 0))
    kron = _data(B_KRONECKER)
    assert kron.cartan.entries == ((1, 0), (2, 1))


def test_cartan_counts_paths():
    # linear three-vertex quiver: one path 1 -> 2 -> 3 of length two
    data = _data(_linear_a(3))
    assert data.cartan.entries == ((1, 1, 1), (0, 1, 1), (0, 0, 1))


def test_exchange_identity_on_random_acyclic_quivers():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 6)
        arrows = random_acyclic_arrows(rng, n)
        rows = arrows_to_b(n, arrows)
        data = _data(rows)
        ct = data.cartan_inv
        rebuilt = [[ct.entries[j][i] - ct.entries[i][j] for j in range(n)] for i in range(n)]
        assert IntMatrix(rebuilt).entries == tuple(tuple(r) for r in rows)


def test_cartan_inverse_matches_sympy_on_random_acyclic_quivers():
    rng = random.Random(1312)
    for _ in range(100):
        n = rng.randint(1, 6)
        arrows = random_acyclic_arrows(rng, n, max_mult=3)
        data = _data(arrows_to_b(n, arrows))
        counts = path_counts(n, arrows)
        assert data.cartan.entries == tuple(tuple(r) for r in counts)
        assert [list(r) for r in data.cartan_inv.entries] == sympy_inverse(counts)


def test_cyclic_quiver_rejected():
    markov = validate([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    with pytest.raises(NotAcyclic):
        path_algebra_data(markov)


def test_knit_module_counts_match_positive_roots():
    cases = [
        (_linear_a(2), {0: [1], 1: [0]}),
        (_linear_a(3), {0: [1], 1: [0, 2], 2: [1]}),
        (_linear_a(4), {0: [1], 1: [0, 2], 2: [1, 3], 3: [2]}),
        (_linear_a(5), {0: [1], 1: [0, 2], 2: [1, 3], 3: [2, 4], 4: [3]}),
        (B_A3, {0: [1], 1: [0, 2], 2: [1]}),
        (
            [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [-1, -1, -1, 0]],
            {0: [3], 1: [3], 2: [3], 3: [0, 1, 2]},
        ),
    ]
    for rows, adjacency in cases:
        slices = knit(_data(rows))
        assert slices.exhaustive
        assert slices.module_dimension_vectors() == tuple(positive_roots(adjacency))


def test_knit_bipartite_a3_details():
    slices = knit(_data(B_A3))
    assert slices.module_dimension_vectors() == (
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
        (1, 0, 0),
        (1, 1, 0),
        (1, 1, 1),
    )
    # projective slice holds the Cartan columns
    data = _data(B_A3)
    for v in range(3):
        assert slices.objects[(0, v)] == tuple(data.cartan.entries[i][v] for i in range(3))


def test_mesh_additivity():
    for rows in (B_A3, _linear_a(4)):
        slices = knit(_data(rows))
        by_pos = slices.objects
        for mesh in slices.meshes:
            src = by_pos[mesh.source]
            tgt = by_pos[mesh.target]
            mids = [by_pos[p] for p in mesh.middles]
            total = tuple(sum(col) for col in zip(*mids)) if mids else (0,) * len(src)
            assert tuple(s + t for s, t in zip(src, tgt)) == total


def test_knit_window_must_be_nonnegative():
    with pytest.raises(ValueError, match="^window must be nonnegative$"):
        knit(_data(B_A3), window=-1)
    # window 0 knits the projectives only, so no mesh is recorded
    assert knit(_data(B_A3), window=0).meshes == ()


def test_knit_window_stops_at_the_node_cap(monkeypatch):
    # A3 knits 3 positions per slice, window + 1 slices
    monkeypatch.setattr(reptheory, "NODE_CAP", 30)
    assert len(knit(_data(B_A3), window=9).objects) == 30
    with pytest.raises(ExhaustionCapExceeded, match="^a window of 33 positions exceeds 30$") as exc:
        knit(_data(B_A3), window=10)
    assert exc.value.reason is None


def test_mesh_at_is_none_off_the_window():
    # P1 = (1,0,0) on A3 starts a mesh only once one translation step is knitted
    assert knit(_data(B_A3), window=0).mesh_at((1, 0, 0)) is None
    mesh = knit(_data(B_A3), window=1).mesh_at((1, 0, 0))
    assert mesh is not None and mesh.source == (0, 0)
    assert knit(_data(B_A3), window=1).mesh_at((5, 5, 5)) is None


def test_knit_window_kronecker():
    kron = _data(B_KRONECKER)
    with pytest.raises(NotRepresentationFinite):
        knit(kron)
    slices = knit(kron, window=4)
    assert not slices.exhaustive
    dims = slices.module_dimension_vectors()
    assert dims == tuple((d, d + 1) for d in range(10))
    # the double arrow doubles every mesh middle
    first = slices.meshes[0]
    assert first.middles == ((1, 1), (1, 1))


def test_mesh_middles_follow_sorted_arrows():
    # out-neighbours, then in-neighbours, each in ascending vertex order and
    # repeated per multiplicity: the order of the sorted arrow triples
    rng = random.Random(4242)
    for _ in range(200):
        n = rng.randint(1, 6)
        arrows = random_acyclic_arrows(rng, n, max_mult=3)
        window = rng.randint(0, 4)
        slices = knit(_data(arrows_to_b(n, arrows)), window=window)
        got = [(mesh.source, mesh.middles, mesh.target) for mesh in slices.meshes]
        assert got == knitted_meshes(n, arrows, window), (n, arrows, window)


def _path(n):
    return [(i, i + 1, 1) for i in range(n - 1)]


def _star(*legs):
    """Vertex 0 with one path of each given length hanging off it."""
    arrows, n = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            arrows.append((prev, n, 1))
            prev, n = n, n + 1
    return n, arrows


DYNKIN_CASES = {
    **{f"A{n}": (n, _path(n)) for n in range(1, 9)},
    **{f"D{n}": _star(1, 1, n - 3) for n in range(4, 9)},
    **{f"E{n}": _star(1, 2, n - 4) for n in range(6, 9)},
    "A3+isolated": (4, _path(3)),
}
NON_DYNKIN_CASES = {
    "Kronecker": (2, [(0, 1, 2)]),
    "affine-A2": (3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]),
    "affine-A3": (4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)]),
    "affine-D4": _star(1, 1, 1, 1),
    "affine-E6": _star(2, 2, 2),
    "affine-E7": _star(1, 3, 3),
    "affine-E8": _star(1, 2, 5),
}


@pytest.mark.parametrize("name", sorted(DYNKIN_CASES) + sorted(NON_DYNKIN_CASES))
def test_tits_form_named_cases(name):
    expected = name in DYNKIN_CASES
    n, arrows = DYNKIN_CASES[name] if expected else NON_DYNKIN_CASES[name]
    em = validate(arrows_to_b(n, arrows))
    assert _tits_form_positive(em.B) is expected
    assert dynkin_graph(n, arrows) is expected
    if not expected:
        with pytest.raises(NotRepresentationFinite, match="needs a Dynkin underlying graph"):
            knit(path_algebra_data(em))


def _disjoint_union(rng, names):
    """The named Dynkin diagrams side by side, arrows flipped at random and
    vertices shuffled so that the components interleave."""
    parts = [DYNKIN_CASES[name] for name in names]
    n = sum(size for size, _ in parts)
    label = list(range(n))
    rng.shuffle(label)
    arrows, offset = [], 0
    for size, part in parts:
        for s, t, m in part:
            s, t = label[offset + s], label[offset + t]
            arrows.append((s, t, m) if rng.random() < 0.5 else (t, s, m))
        offset += size
    return n, arrows


def test_knit_disconnected_modules_are_the_positive_roots():
    # each component stops at its own boundary, so a component with a small
    # Coxeter number never comes back to modules shifted by [2]
    rng = random.Random(1961)
    small = [name for name in sorted(DYNKIN_CASES) if DYNKIN_CASES[name][0] <= 6]
    named = [("A1", "A2"), ("A1", "A1", "A4"), ("D4", "A2"), ("A5", "A6", "A1")]
    drawn = [rng.sample(small, rng.randint(2, 3)) for _ in range(20)]
    for names in named + drawn:
        n, arrows = _disjoint_union(rng, names)
        adjacency = {v: [] for v in range(n)}
        for s, t, _ in arrows:
            adjacency[s].append(t)
            adjacency[t].append(s)
        slices = knit(_data(arrows_to_b(n, arrows)))
        modules = sorted(dim for dim in slices.objects.values() if min(dim) >= 0)
        assert modules == positive_roots(adjacency), (names, arrows)


def test_tits_form_matches_graph_classifier():
    rng = random.Random(1972)
    verdicts = {True: 0, False: 0}
    for trial in range(2400):
        n = rng.randint(1, 9)
        if trial % 2:
            # a random forest: mostly trees, where Dynkin and affine meet
            pairs = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.85]
        else:
            density = rng.choice((0.15, 0.3, 0.5))
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
        label = list(range(n))
        rng.shuffle(label)
        arrows = []
        for i, j in pairs:
            s, t = (label[i], label[j]) if rng.random() < 0.5 else (label[j], label[i])
            arrows.append((s, t, 1 if rng.random() < 0.9 else rng.randint(2, 3)))
        expected = dynkin_graph(n, arrows)
        assert _tits_form_positive(validate(arrows_to_b(n, arrows)).B) is expected, (n, arrows)
        verdicts[expected] += 1
    assert min(verdicts.values()) >= 500


def test_g_vectors_and_tau_inverse_frozen():
    data = _data(B_A3)
    assert g_vector(data, (0, 1, 0)) == (-1, 1, -1)
    assert g_vector(data, (1, 1, 1)) == (0, 1, 0)
    assert g_vector(data, (1, 0, 0)) == (1, 0, 0)
    assert tau_inverse_dim(data, (0, 1, 0)) == (-1, -1, -1)


def test_verify_dv_gv_everywhere():
    for rows in (B_A3, _linear_a(4), [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [-1, -1, -1, 0]]):
        data = _data(rows)
        slices = knit(data)
        for dim in slices.module_dimension_vectors():
            lhs, rhs, ok = verify_dv_gv(data.exchange.entries, data.cartan.entries, dim)
            assert ok and lhs == rhs
            assert lhs == data.exchange.mul_vec(dim)


def test_verify_dv_gv_kronecker_family():
    data = _data(B_KRONECKER)
    slices = knit(data, window=8)
    for d in range(7):
        dim = (d, d + 1)
        lhs, rhs, ok = verify_dv_gv(data.exchange.entries, data.cartan.entries, dim)
        assert ok
        assert lhs == (-2 * (d + 1), 2 * d)
        assert normal_vector(data, dim, slices) == (2 * (d + 1), -2 * d)


def _random_quivers_with_cartan_route(seed):
    """200 random acyclic quivers (multiplicities up to 3) with g and tau^-1.

    Yields (rng, n, arrows, B rows, g, tau_inverse); g and tau^-1 come
    from the sympy inverse of the path-count Cartan matrix, not from
    ``path_algebra_data``.
    """
    rng = random.Random(seed)
    for _ in range(200):
        n = rng.randint(1, 6)
        arrows = random_acyclic_arrows(rng, n, max_mult=3)
        rows = arrows_to_b(n, arrows)
        g, tau_inverse = cartan_route(path_counts(n, arrows))
        yield rng, n, arrows, rows, g, tau_inverse


def test_two_term_g_vector_is_minus_b_on_random_quivers():
    # g(v) + g(tau^-1 v) = -B.v for every class, the identity that lets the
    # library read normals and certificates off B
    for rng, n, arrows, rows, g, tau_inverse in _random_quivers_with_cartan_route(1717):
        for _ in range(5):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            two_term = tuple(map(sum, zip(g(v), g(tau_inverse(v)))))
            assert two_term == tuple(-sum(map(mul, row, v)) for row in rows), (arrows, v)


def test_mesh_g_vector_sums_are_normals_on_random_quivers():
    # exhaustive knitting on Dynkin quivers, windows 0-4 on the others
    meshes = 0
    for rng, n, arrows, rows, g, _ in _random_quivers_with_cartan_route(1718):
        data = _data(rows)
        slices = knit(data, window=None if dynkin_graph(n, arrows) else rng.randint(0, 4))
        for mesh in slices.meshes:
            source = slices.objects[mesh.source]
            if min(source) < 0:
                continue
            total = tuple(map(sum, zip(*(g(slices.objects[p]) for p in mesh.middles))))
            assert (total or (0,) * n) == normal_vector(data, source, slices), (arrows, mesh)
            meshes += 1
    assert meshes >= 1000


def test_normal_vector_frozen_and_checked():
    data = _data(B_A3)
    slices = knit(data)
    assert normal_vector(data, (0, 1, 0), slices) == (-1, 0, -1)
    assert normal_vector(data, (1, 1, 1), slices) == (-1, 2, -1)
    assert normal_vector(data, (1, 0, 0), slices) == (0, 1, 0)
    kron = _data(B_KRONECKER)
    window = knit(kron, window=4)
    assert normal_vector(kron, (2, 3), window) == (6, -4)


def test_normal_vector_errors():
    data = _data(B_A3)
    slices = knit(data)
    with pytest.raises(NotPositive):
        normal_vector(data, (0, 0, 0), slices)
    with pytest.raises(NotPositive):
        normal_vector(data, (1, -1, 0), slices)
    with pytest.raises(NotARoot):
        normal_vector(data, (2, 0, 0), slices)
    with pytest.raises(DimensionMismatch, match="cvec has length 2, expected 3"):
        normal_vector(data, (1, 0), slices)
    # without slice data there is nothing to check roots against
    assert normal_vector(data, (2, 0, 0)) == (0, 2, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data: g_vector(data, (1, 0)), "dim has length 2, expected 3"),
        (lambda data: tau_inverse_dim(data, (1, 0, 0, 0)), "dim has length 4, expected 3"),
        # a zero vector is skipped, but not one of the wrong length
        (lambda data: kernel_certificates(data, [(0, 0)]), "cvector has length 2, expected 3"),
    ],
    ids=["g_vector", "tau_inverse_dim", "kernel_certificates"],
)
def test_wrong_length_raises_dimension_mismatch(call, message):
    # normal_vector's case is in test_normal_vector_errors
    with pytest.raises(DimensionMismatch, match=message):
        call(_data(B_A3))


def test_kernel_certificates_frozen_cases():
    a3 = _data(B_A3)
    assert kernel_certificates(a3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == []
    # two simples whose images cancel: the pair is a minimal certificate
    paired = _data([[0, 0, -1], [0, 0, 1], [1, -1, 0]])
    assert kernel_certificates(paired, [(1, 0, 0), (0, 1, 0)]) == [((0, 1), (1, 1))]
    # double arrows: the images (0, -2, 0) and (0, 2, 0) cancel, lambda primitive
    doubled = _data([[0, 2, 0], [-2, 0, 2], [0, -2, 0]])
    assert kernel_certificates(doubled, [(1, 0, 0), (0, 0, 1)]) == [((0, 1), (1, 1))]
    # no arrows: every summand is zero, so every singleton certifies
    arrowless = _data([[0, 0], [0, 0]])
    assert kernel_certificates(arrowless, [(1, 0), (0, 1)]) == [((0,), (1,)), ((1,), (1,))]


def test_kernel_certificates_verify_definition():
    data = _data([[0, 0, -1], [0, 0, 1], [1, -1, 0]])
    cvectors = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    for subset, lam in kernel_certificates(data, cvectors):
        assert all(l > 0 for l in lam)
        total = (0, 0, 0)
        for idx, l in zip(subset, lam):
            x = cvectors[idx]
            g = g_vector(data, x)
            gt = g_vector(data, tau_inverse_dim(data, x))
            w = tuple(a + b for a, b in zip(g, gt))
            total = tuple(t + l * wi for t, wi in zip(total, w))
        assert total == (0, 0, 0)


def test_kernel_certificates_skip_nonpositive_input():
    # Mixed-sign vectors are not module dimension vectors; they are ignored
    # rather than rejected, so a list with no usable entries certifies nothing.
    data = _data(B_A3)
    assert kernel_certificates(data, [(1, 0, 0), (0, -1, 0)]) == []
    assert kernel_certificates(data, [(0, -1, 0), (0, 0, -1)]) == []


def _two_term_sum(data, dim):
    g_next = g_vector(data, tau_inverse_dim(data, dim))
    return tuple(a + b for a, b in zip(g_vector(data, dim), g_next))


def test_kernel_certificates_match_subset_scan():
    # The extreme rays of the relation cone against the old scan over
    # subsets: same minimal subsets, same order, same multipliers.
    rng = random.Random(6101)
    found = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        arrows = random_acyclic_arrows(rng, n, max_mult=2, density=0.4)
        data = _data(arrows_to_b(n, arrows))
        cvectors = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(rng.randint(1, 5))]
        positive = [i for i, c in enumerate(cvectors) if any(c) and min(c) >= 0]
        expected = minimal_positive_relations([_two_term_sum(data, cvectors[i]) for i in positive])
        expected = [(tuple(positive[k] for k in subset), lam) for subset, lam in expected]
        assert kernel_certificates(data, cvectors) == expected, (arrows, cvectors)
        found += len(expected)
    assert found >= 100


@pytest.mark.parametrize(
    "rows, facet_rows",
    [(B_A3, 15), (_linear_a(4), 168), (B_D4, 20), (_linear_a(5), 384)],
    ids=["A3", "A4", "D4", "A5"],
)
def test_facet_rows_are_two_term_g_vector_sums(rows, facet_rows):
    # The paper's third result on computed fans: every facet row
    # a_k = c_k^T.B is +-(g(M) + g(tau^-1 M)) with dim M = |c_k|.
    em = validate(rows)
    data = path_algebra_data(em)
    catalog = enumerate_pattern(em, max_depth=None, with_polynomials=False)
    assert catalog.complete
    by_history = {node.history: node for node in catalog.seeds}
    seen = 0
    for cone in assemble_fan(catalog).cones:
        desc = cone.description
        c_matrix = by_history[cone.witnesses[0]].C_t
        for facet in desc.facets:
            row = desc.A.entries[facet.representative]
            w = _two_term_sum(data, tuple(abs(x) for x in c_matrix.col(facet.representative)))
            assert row in (w, tuple(-x for x in w))
            seen += 1
    assert seen == facet_rows
