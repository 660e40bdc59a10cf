"""Exchange matrix validation, mutation, the quiver [B]_+, and the lattice map."""

from __future__ import annotations

import random

import pytest

from xfan import (
    IndexOutOfRange,
    IntMatrix,
    NotAcyclic,
    NotSkewSymmetric,
    NotSkewSymmetrizable,
    integer_kernel_basis,
    knit,
    mutate,
    p_star,
    path_algebra_data,
    validate,
)

from oracles import (
    arrows_to_b,
    fraction_symmetrizer,
    kahn_topological_order,
    mutate_rectangular,
    path_counts,
    random_acyclic_arrows,
    random_sign_skew_symmetric,
    random_skew_symmetrizable,
)

B_A3 = [[0, 1, 0], [-1, 0, -1], [0, 1, 0]]


def test_validate_computes_minimal_symmetrizer():
    assert validate(B_A3).d == (1, 1, 1)
    assert validate([[0, 1], [-2, 0]]).d == (2, 1)
    assert validate([[0, 1], [-3, 0]]).d == (3, 1)
    assert validate([[0, -2], [2, 0]]).d == (1, 1)
    assert validate([[0]]).d == (1,)
    assert validate([[0, 0], [0, 0]]).d == (1, 1)
    # two components, scaled independently; an isolated vertex gets 1
    rows = [[0, 1, 0, 0, 0], [-2, 0, 0, 0, 0], [0, 0, 0, 3, 0], [0, 0, -6, 0, 0], [0, 0, 0, 0, 0]]
    assert validate(rows).d == (2, 1, 2, 1, 1)


def test_validate_accepts_supplied_symmetrizer_multiple():
    em = validate([[0, 1], [-2, 0]], d=(4, 2))
    assert em.d == (4, 2)
    with pytest.raises(NotSkewSymmetrizable):
        validate([[0, 1], [-2, 0]], d=(1, 1))


def test_validate_rejects_bad_matrices():
    with pytest.raises(NotSkewSymmetrizable):
        validate([[1, 0], [0, 1]])  # nonzero diagonal
    with pytest.raises(NotSkewSymmetrizable):
        validate([[0, 1], [1, 0]])  # sign-symmetric violation
    with pytest.raises(NotSkewSymmetrizable):
        validate([[0, 1], [0, 0]])  # zero against nonzero
    with pytest.raises(NotSkewSymmetrizable, match="around a cycle"):
        validate([[0, 1, 1], [-1, 0, 1], [-2, -1, 0]])
    with pytest.raises(ValueError):
        validate([[0, 1, 0], [-1, 0, 1]])  # not square


@pytest.mark.parametrize("d", [[1], [1, 1, 1], [1, 0], [2, -2]], ids=["short", "long", "zero", "negative"])
def test_validate_rejects_a_malformed_supplied_symmetrizer(d):
    with pytest.raises(NotSkewSymmetrizable, match="^supplied d must be n positive integers$"):
        validate([[0, 1], [-1, 0]], d)


def test_validate_random_skew_symmetrizable():
    rng = random.Random(1234)
    for _ in range(40):
        rows, d = random_skew_symmetrizable(rng, rng.randint(1, 4))
        em = validate(rows)
        dm = [[em.d[i] * em.B.entries[i][j] for j in range(em.n)] for i in range(em.n)]
        assert IntMatrix(dm).transpose() == IntMatrix(dm).neg()


def test_validate_symmetrizer_matches_fraction_oracle():
    # The kernel column sums must give the Fraction search's minimal d, and
    # both must reject the same inconsistent cycles.
    rng = random.Random(60221)
    rejected = 0
    for trial in range(2400):
        n = rng.randint(1, 6)
        if trial % 2:
            rows = random_sign_skew_symmetric(rng, n)
        else:
            rows, _ = random_skew_symmetrizable(rng, n)
        expected = fraction_symmetrizer(rows)
        if expected is None:
            rejected += 1
            with pytest.raises(NotSkewSymmetrizable, match="around a cycle"):
                validate(rows)
        else:
            assert validate(rows).d == expected, rows
    assert 300 <= rejected <= 1500, rejected


def test_mutate_example_and_involution():
    em = validate(B_A3)
    mu2 = mutate(em, 2)
    assert mu2.B.entries == ((0, -1, 0), (1, 0, 1), (0, -1, 0))
    assert mutate(mu2, 2) == em
    for k in (1, 2, 3):
        assert mutate(mutate(em, k), k) == em


def test_mutate_matches_rectangular_oracle():
    rng = random.Random(77)
    for _ in range(30):
        rows, _ = random_skew_symmetrizable(rng, rng.randint(2, 4))
        em = validate(rows)
        k = rng.randint(1, em.n)
        expected = mutate_rectangular([list(r) for r in em.B.entries], k - 1)
        assert mutate(em, k).B.entries == tuple(tuple(r) for r in expected)


def test_mutate_index_range():
    em = validate(B_A3)
    with pytest.raises(IndexOutOfRange):
        mutate(em, 0)
    with pytest.raises(IndexOutOfRange):
        mutate(em, 4)


def test_mutation_preserves_symmetrizer():
    rng = random.Random(4321)
    for _ in range(25):
        rows, _ = random_skew_symmetrizable(rng, 3)
        em = validate(rows)
        seq = [rng.randint(1, 3) for _ in range(6)]
        cur = em
        for k in seq:
            cur = mutate(cur, k)
        assert cur.d == em.d


def test_p_star_is_left_multiplication():
    em = validate(B_A3)
    assert p_star(em, (1, 0, 0)) == (0, -1, 0)
    assert p_star(em, (1, 1, 1)) == (1, -2, 1)
    assert p_star(em, (0, 0, 0)) == (0, 0, 0)


def test_kernel_of_p_star():
    assert integer_kernel_basis(validate(B_A3).B) == ((1, 0, -1),)
    # invertible exchange matrix, trivial kernel
    assert integer_kernel_basis(validate([[0, 1], [-2, 0]]).B) == ()
    # zero matrix, full kernel
    assert integer_kernel_basis(validate([[0, 0], [0, 0]]).B) == ((1, 0), (0, 1))


def test_quiver_of_orientation_and_multiplicity():
    # b_ij > 0 gives b_ij arrows i -> j
    assert path_algebra_data(validate(B_A3)).arrows.entries == ((0, 1, 0), (0, 0, 0), (0, 1, 0))
    kron = path_algebra_data(validate([[0, -2], [2, 0]]))
    assert kron.arrows.entries == ((0, 0), (2, 0))
    # the double arrow 2 -> 1 doubles both mesh middles
    meshes = knit(kron, window=1).meshes
    assert [(m.source, m.middles, m.target) for m in meshes] == [
        ((0, 0), ((1, 1), (1, 1)), (1, 0)),
        ((0, 1), ((0, 0), (0, 0)), (1, 1)),
    ]


def test_quiver_of_rejects_non_skew_symmetric():
    message = r"^quiver construction needs B\^T = -B with d = \(1,\.\.\.,1\)$"
    with pytest.raises(NotSkewSymmetric, match=message):
        path_algebra_data(validate([[0, 1], [-2, 0]]))
    # d = (2, 1, 1) and [B]_+ is the cycle 1 -> 2 -> 3 -> 1: the symmetry
    # check comes first
    cyclic = validate([[0, 1, -1], [-2, 0, 2], [2, -2, 0]])
    assert cyclic.d == (2, 1, 1)
    with pytest.raises(NotSkewSymmetric, match=message):
        path_algebra_data(cyclic)


def test_quiver_roundtrip_random():
    # the arrow matrix is [B]_+, and B = A - A^T
    rng = random.Random(2718)
    for _ in range(30):
        n = rng.randint(1, 5)
        arrows = random_acyclic_arrows(rng, n)
        em = validate(arrows_to_b(n, arrows))
        a = path_algebra_data(em).arrows
        assert a.entries == tuple(
            tuple(max(em.B.entries[i][j], 0) for j in range(n)) for i in range(n)
        )
        assert a.entries == tuple(
            tuple(sum(m for s, t, m in arrows if (s, t) == (i, j)) for j in range(n))
            for i in range(n)
        )
        assert em.B == IntMatrix(
            [[a.entries[i][j] - a.entries[j][i] for j in range(n)] for i in range(n)]
        )


def test_is_acyclic():
    message = "^path algebra data needs an acyclic quiver$"
    for rows in (B_A3, [[0, -2], [2, 0]], [[0, 0], [0, 0]], [[0]]):
        path_algebra_data(validate(rows))
    markov = [[0, 2, -2], [-2, 0, 2], [2, -2, 0]]
    # an oriented 4-cycle with a chord 1 -> 3 that leaves a cycle 1 -> 3 -> 4 -> 1
    square = arrows_to_b(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)])
    for rows in (markov, square):
        with pytest.raises(NotAcyclic, match=message):
            path_algebra_data(validate(rows))


def test_path_counts_match_kahn_sort_on_random_quivers():
    # Arrows get random orientations, so many quivers have an oriented
    # cycle; path_algebra_data must refuse exactly those.
    rng = random.Random(5051)
    cyclic = 0
    for _ in range(600):
        n = rng.randint(1, 7)
        arrows = [
            (i, j, rng.randint(1, 3)) if rng.random() < 0.5 else (j, i, rng.randint(1, 3))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.6
        ]
        em = validate(arrows_to_b(n, arrows))
        if kahn_topological_order(n, arrows) is not None:
            counts = path_algebra_data(em).cartan
            assert counts.entries == tuple(map(tuple, path_counts(n, arrows)))
        else:
            with pytest.raises(NotAcyclic):
                path_algebra_data(em)
            cyclic += 1
    assert 150 <= cyclic <= 450, cyclic
