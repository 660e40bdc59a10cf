"""Exchange matrix validation, mutation, quivers, and the lattice map."""

from __future__ import annotations

import random

import pytest

from xfan import (
    IndexOutOfRange,
    IntMatrix,
    NotAcyclic,
    NotSkewSymmetric,
    NotSkewSymmetrizable,
    Quiver,
    is_acyclic,
    kernel_of_p_star,
    mutate,
    p_star,
    path_algebra_data,
    quiver_of,
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


def test_validate_random_skew_symmetrizable():
    rng = random.Random(1234)
    for _ in range(40):
        rows, d = random_skew_symmetrizable(rng, rng.randint(1, 4))
        em = validate(rows)
        dm = [[em.d[i] * em.B.at(i, j) for j in range(em.n)] for i in range(em.n)]
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
    assert kernel_of_p_star(validate(B_A3)) == ((1, 0, -1),)
    # invertible exchange matrix, trivial kernel
    assert kernel_of_p_star(validate([[0, 1], [-2, 0]])) == ()
    # zero matrix, full kernel
    assert kernel_of_p_star(validate([[0, 0], [0, 0]])) == ((1, 0), (0, 1))


def test_quiver_of_orientation_and_multiplicity():
    q = quiver_of(validate(B_A3))
    assert q.n == 3
    assert q.arrows == ((0, 1, 1), (2, 1, 1))
    kron = quiver_of(validate([[0, -2], [2, 0]]))
    assert kron.arrows == ((1, 0, 2),)
    assert kron.out_neighbors(1) == (0, 0)
    assert kron.in_neighbors(0) == (1, 1)


def test_quiver_of_rejects_non_skew_symmetric():
    with pytest.raises(NotSkewSymmetric):
        quiver_of(validate([[0, 1], [-2, 0]]))


def test_quiver_roundtrip_random():
    rng = random.Random(2718)
    for _ in range(30):
        n = rng.randint(1, 5)
        arrows = random_acyclic_arrows(rng, n)
        em = validate(arrows_to_b(n, arrows))
        q = quiver_of(em)
        assert q.arrow_matrix().entries == tuple(
            tuple(max(em.B.at(i, j), 0) for j in range(n)) for i in range(n)
        )


def test_is_acyclic():
    assert is_acyclic(quiver_of(validate(B_A3)))
    markov = validate([[0, 2, -2], [-2, 0, 2], [2, -2, 0]])
    assert not is_acyclic(quiver_of(markov))


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
        quiver = Quiver(n, arrows)
        acyclic = kahn_topological_order(n, arrows) is not None
        assert is_acyclic(quiver) == acyclic, arrows
        counts = quiver.path_counts()
        if acyclic:
            assert counts.entries == tuple(map(tuple, path_counts(n, arrows)))
            assert path_algebra_data(quiver).cartan == counts
        else:
            assert counts is None
            with pytest.raises(NotAcyclic):
                path_algebra_data(quiver)
            cyclic += 1
    assert 150 <= cyclic <= 450, cyclic


def test_quiver_rejects_bad_arrows():
    with pytest.raises(ValueError, match="endpoints"):
        Quiver(2, [(-1, 0, 1)])
    with pytest.raises(ValueError, match="endpoints"):
        Quiver(2, [(0, 5, 1)])
    with pytest.raises(ValueError, match="more than one arrow"):
        Quiver(2, [(0, 1, 1), (0, 1, 2)])
    with pytest.raises(ValueError, match="more than one arrow"):
        Quiver(3, [(0, 1, 1), (1, 0, 1)])
    with pytest.raises(ValueError, match="loops"):
        Quiver(2, [(1, 1, 1)])
    with pytest.raises(ValueError, match="positive"):
        Quiver(2, [(0, 1, 0)])
    q = Quiver(3, [(2, 1, 2.0), (0, 1, 1)])
    assert q.arrows == ((0, 1, 1), (2, 1, 2))
    assert q.arrow_matrix().entries == ((0, 1, 0), (0, 0, 0), (0, 2, 0))
    assert q.in_neighbors(1) == (0, 2, 2)
