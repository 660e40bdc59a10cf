"""Acceptance suite: one criterion per test, one printed line per criterion.

Every comparison is exact. Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines on passing runs as well.
"""

from __future__ import annotations

import functools
import json
import random
import subprocess
import sys

from xfan import (
    IntMatrix,
    LaurentPolynomial,
    assemble_fan,
    build_system,
    canonical_key,
    classify,
    enumerate_pattern,
    integer_kernel_basis,
    knit,
    normal_vector,
    path_algebra_data,
    positive_c_vectors,
    primitive_vector,
    theta,
    validate,
)

from oracles import (
    fraction_rank,
    g_matrices,
    polygon_triangulations,
    principal_seed_walk,
    random_skew_symmetrizable,
    random_acyclic_arrows,
    arrows_to_b,
    sampled_cone_dimension,
    verify_dv_gv,
)

B_A2 = [[0, 1], [-1, 0]]
B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]
B_KRONECKER = [[0, -2], [2, 0]]

# c-matrices of the six full-dimensional cones with their inequality rows
A3_DIM3_TABLE = [
    (((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 0), (-1, 0, -1), (0, 1, 0))),
    (((-1, 1, 0), (0, 1, 0), (0, 1, -1)), ((0, -1, 0), (-1, 2, -1), (0, -1, 0))),
    (((0, -1, 1), (1, -1, 1), (1, -1, 0)), ((-1, 1, -1), (1, -2, 1), (-1, 1, -1))),
    (((0, 0, -1), (-1, 1, -1), (-1, 0, 0)), ((1, -1, 1), (-1, 0, -1), (1, -1, 1))),
    (((0, 0, -1), (0, -1, 0), (-1, 0, 0)), ((0, -1, 0), (1, 0, 1), (0, -1, 0))),
    (((0, 0, 1), (0, -1, 0), (1, 0, 0)), ((0, 1, 0), (1, 0, 1), (0, 1, 0))),
]

# pairs of c-matrices sharing one dimension-2 cone, with the merged rows
A3_DIM2_TABLE = [
    (
        ((0, -1, 1), (-1, 0, 1), (-1, 0, 0)),
        ((0, 0, -1), (1, 0, -1), (1, -1, 0)),
        ((1, -1, 1), (0, -1, 0), (-1, 1, -1)),
    ),
    (
        ((1, 0, 0), (0, 1, 0), (0, 1, -1)),
        ((-1, 1, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (-1, 1, -1), (0, -1, 0)),
    ),
    (
        ((0, 0, 1), (0, -1, 0), (-1, 0, 0)),
        ((0, 0, -1), (0, -1, 0), (1, 0, 0)),
        ((0, -1, 0), (1, 0, 1), (0, 1, 0)),
    ),
]

# cyclic-orientation c-matrices sharing the unique dimension-1 cone
A3_DIM1_TABLE = [
    ((0, -1, 0), (1, -1, 0), (0, 0, 1)),
    ((1, 0, 0), (0, -1, 1), (0, -1, 0)),
]


def _criterion(num, slug):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"ACCEPTANCE {num:02d} {slug}: FAIL", flush=True)
                raise
            print(f"ACCEPTANCE {num:02d} {slug}: PASS", flush=True)

        return run

    return wrap


def _node_with_c(catalog, c_entries):
    for node in catalog.nodes:
        if node.C_t.entries == c_entries:
            return node
    raise AssertionError(f"no visited node carries the c-matrix {c_entries}")


@_criterion(1, "a3-fan-reproduction")
def test_criterion_01():
    em = validate(B_A3)
    cat = enumerate_pattern(em)
    assert cat.complete
    assert len(cat) == 84
    assert cat.seed_class_count() == 14
    assert cat.seed_class_count() == len(polygon_triangulations(6))

    for c_entries, rows in A3_DIM3_TABLE:
        node = _node_with_c(cat, c_entries)
        desc = classify(build_system(node, em))
        assert desc.A.entries == rows
        assert desc.dim == 3 and desc.implicit == ()

    for c_first, c_second, merged in A3_DIM2_TABLE:
        first = classify(build_system(_node_with_c(cat, c_first), em))
        second = classify(build_system(_node_with_c(cat, c_second), em))
        assert first.A.entries == merged
        assert set(second.A.entries) == set(merged)
        assert canonical_key(first) == canonical_key(second)
        for desc in (first, second):
            assert desc.dim == 2
            implicit_rows = [desc.A.entries[i] for i in desc.implicit]
            assert fraction_rank(implicit_rows) == 1

    dim1_keys = set()
    for c_entries in A3_DIM1_TABLE:
        desc = classify(build_system(_node_with_c(cat, c_entries), em))
        assert desc.dim == 1
        assert desc.implicit == (0, 1, 2)
        assert desc.lineality_basis == integer_kernel_basis(em.B) == ((1, 0, -1),)
        dim1_keys.add(canonical_key(desc))
    assert len(dim1_keys) == 1

    assert assemble_fan(cat).histogram == {3: 6, 2: 3, 1: 1}


@_criterion(2, "a3-facet-count")
def test_criterion_02():
    cat = enumerate_pattern(validate(B_A3))
    report = assemble_fan(cat)
    maximal = [c for c in report.cones if c.dim == 3]
    assert len(maximal) == 6
    for cone in maximal:
        assert len(cone.description.facets) == 2


@_criterion(3, "theta-example-and-agreement")
def test_criterion_03():
    cat = enumerate_pattern(validate(B_A3))
    t = theta((-1, -1, -1), cat)
    # y1^-1 y2^-1 y3^-1 (1+y1)(1+y3), expanded
    assert t.value.sorted_terms() == (
        ((-1, -1, -1), 1),
        ((-1, -1, 0), 1),
        ((0, -1, -1), 1),
        ((0, -1, 0), 1),
    )

    rng = random.Random(20240815)
    for rows, count in ((B_A2, 50), (B_A3, 50)):
        em = validate(rows)
        catalog = enumerate_pattern(em)
        systems = [(node, build_system(node, em)) for node in catalog.nodes]
        for _ in range(count):
            beta = tuple(rng.randint(-4, 4) for _ in range(em.n))
            expected = theta(beta, catalog).value
            witnessed = 0
            for node, A in systems:
                alpha = A.mul_vec(beta)
                if any(a < 0 for a in alpha):
                    continue
                witnessed += 1
                value = LaurentPolynomial(em.n, {beta: 1})
                for f, a in zip(node.F_t, alpha):
                    value = value * f ** a
                assert value == expected
            assert witnessed > 0


@_criterion(4, "tropical-duality-sign-coherence")
def test_criterion_04():
    rng = random.Random(4040)
    seen = 0
    while seen < 3:
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4), max_entry=3)
        if all(x == 0 for row in rows for x in row):
            continue
        seen += 1
        cat = enumerate_pattern(validate(rows), max_depth=8, with_polynomials=False)
        n = len(rows)
        ident = IntMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])
        # the g-vector recurrence of the oracle, not the library's C_t^-T
        g = g_matrices(rows, [node.history for node in cat.nodes])
        for node in cat.nodes:
            assert IntMatrix(g[node.history]).mul(node.C_t.transpose()) == ident
            for j in range(n):
                col = [node.C_t.entries[i][j] for i in range(n)]
                assert all(x >= 0 for x in col) or all(x <= 0 for x in col)


@_criterion(5, "dimension-formula")
def test_criterion_05():
    patterns = [
        (B_A2, None),
        (B_A3, None),
        ([[0, 1], [-2, 0]], None),
        ([[0, 1], [-3, 0]], None),
        (B_KRONECKER, 6),
    ]
    for rows, depth in patterns:
        em = validate(rows)
        kwargs = {"with_polynomials": False}
        if depth is not None:
            kwargs["max_depth"] = depth
        cat = enumerate_pattern(em, **kwargs)
        for node in cat.nodes:
            desc = classify(build_system(node, em))
            implicit_rows = [desc.A.entries[i] for i in desc.implicit]
            rank = fraction_rank(implicit_rows) if implicit_rows else 0
            assert desc.dim + rank == em.n
            if em.n <= 3 and depth is None:
                assert desc.dim == sampled_cone_dimension(desc.A.entries)


@_criterion(6, "quiver-cartan-identity")
def test_criterion_06():
    rng = random.Random(660)
    for _ in range(50):
        n = rng.randint(1, 6)
        rows = arrows_to_b(n, random_acyclic_arrows(rng, n))
        data = path_algebra_data(validate(rows))
        ct = data.cartan_inv
        rebuilt = [[ct.entries[j][i] - ct.entries[i][j] for j in range(n)] for i in range(n)]
        assert rebuilt == [list(r) for r in rows]


@_criterion(7, "normals-at-knitted-vertices")
def test_criterion_07():
    def linear_a(n):
        rows = [[0] * n for _ in range(n)]
        for i in range(n - 1):
            rows[i][i + 1] = 1
            rows[i + 1][i] = -1
        return rows

    d4 = [[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [-1, -1, -1, 0]]
    for rows in (linear_a(2), linear_a(3), linear_a(4), linear_a(5), d4):
        data = path_algebra_data(validate(rows))
        slices = knit(data)
        assert slices.exhaustive
        for pos in sorted(slices.objects):
            dim = slices.objects[pos]
            lhs, rhs, ok = verify_dv_gv(data.exchange.entries, data.cartan.entries, dim)
            assert ok and lhs == rhs
        for dim in slices.module_dimension_vectors():
            normal = normal_vector(data, dim, slices)
            assert normal == tuple(-x for x in data.exchange.mul_vec(dim))

    kron = path_algebra_data(validate(B_KRONECKER))
    window = knit(kron, window=8)
    for d in range(7):
        lhs, rhs, ok = verify_dv_gv(kron.exchange.entries, kron.cartan.entries, (d, d + 1))
        assert ok and lhs == (-2 * (d + 1), 2 * d)
        other_families = [(d + 1, d)] + ([(d, d)] if d else [])
        for dim in other_families:
            lhs2, rhs2, ok2 = verify_dv_gv(kron.exchange.entries, kron.cartan.entries, dim)
            assert ok2 and lhs2 == rhs2
        # hyperplane family (d+1) b1 - d b2 = 0
        normal = normal_vector(kron, (d, d + 1), window)
        assert primitive_vector(normal) == (d + 1, -d)


@_criterion(8, "positive-cvectors-are-root-dims")
def test_criterion_08():
    for rows in (B_A2, B_A3):
        cat = enumerate_pattern(validate(rows), with_polynomials=False)
        assert cat.complete
        data = path_algebra_data(validate(rows))
        slices = knit(data)
        assert positive_c_vectors(cat) == slices.module_dimension_vectors()
    assert len(positive_c_vectors(enumerate_pattern(validate(B_A2), with_polynomials=False))) == 3
    assert len(positive_c_vectors(enumerate_pattern(validate(B_A3), with_polynomials=False))) == 6


@_criterion(9, "f-polynomial-oracle")
def test_criterion_09():
    matrices = [B_A2, [[0, 2], [-1, 0]], [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]]
    for rows in matrices:
        em = validate(rows)
        cat = enumerate_pattern(em, max_depth=4)
        for node in cat.nodes:
            fpolys, _ = principal_seed_walk(rows, node.history)
            assert [dict(p.sorted_terms()) for p in node.F_t] == fpolys


@_criterion(10, "thread-determinism")
def test_criterion_10():
    a3 = json.dumps({"B": B_A3})
    outputs = []
    for _ in range(2):
        p = subprocess.run(
            [sys.executable, "-m", "xfan.cli", "fan", "--B", "-", "--exhaustive"],
            capture_output=True,
            text=True,
            input=a3,
        )
        assert p.returncode == 0
        outputs.append(p.stdout)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["nodes"] == 84
