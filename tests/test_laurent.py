"""Laurent polynomial arithmetic and exact division."""

from __future__ import annotations

import random
from itertools import product

import pytest

from xfan import ExponentNegative, LaurentPolynomial, divide_exact
from xfan import laurent

from oracles import laurent_divide_exact, laurent_mul, laurent_pow


def _poly(nvars, terms):
    return LaurentPolynomial(nvars, terms)


def _random_poly(rng, nvars, allow_negative=False):
    lo = -2 if allow_negative else 0
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.randint(lo, 3) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + rng.randint(-4, 4)
    return _poly(nvars, terms)


def test_construction_drops_zero_coefficients():
    p = _poly(2, {(1, 0): 0, (0, 1): 3})
    assert p.sorted_terms() == (((0, 1), 3),)
    assert _poly(2, {(1, 1): 2, (0, 0): 0}).coefficient((0, 0)) == 0


def test_construction_merges_duplicate_exponents():
    p = LaurentPolynomial(1, [((2,), 1), ((2,), -1), ((0,), 5)])
    assert p.sorted_terms() == (((0,), 5),)


def test_wrong_exponent_length_rejected():
    with pytest.raises(ValueError):
        _poly(2, {(1, 2, 3): 1})


def test_one_zero_variable_helpers():
    one = LaurentPolynomial.one(3)
    assert one.is_one() and not one.is_zero()
    assert LaurentPolynomial(3).is_zero()
    y2 = LaurentPolynomial(3, {(0, 1, 0): 1})
    assert y2.sorted_terms() == (((0, 1, 0), 1),)


def test_ring_axioms_randomized():
    rng = random.Random(424242)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        a = _random_poly(rng, nvars, allow_negative=True)
        b = _random_poly(rng, nvars, allow_negative=True)
        c = _random_poly(rng, nvars, allow_negative=True)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert a - a == LaurentPolynomial(nvars)
        assert a * LaurentPolynomial.one(nvars) == a


def test_pow():
    y = _poly(1, {(1,): 1})
    p = y + LaurentPolynomial.one(1)
    assert p ** 0 == LaurentPolynomial.one(1)
    assert p ** 3 == p * p * p
    assert (p ** 2).coefficient((1,)) == 2
    with pytest.raises(ExponentNegative):
        p ** -1


def test_sorted_terms_ascending_lex():
    p = _poly(2, {(1, 0): 1, (0, 2): 1, (0, 0): 1, (1, 1): 1})
    exps = [e for e, _ in p.sorted_terms()]
    assert exps == sorted(exps)
    assert exps[0] == (0, 0)


def test_divide_exact_roundtrip():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        nvars = rng.randint(1, 3)
        a = _random_poly(rng, nvars)
        b = _random_poly(rng, nvars)
        if b.is_zero():
            continue
        checked += 1
        q = divide_exact(a * b, b)
        assert q == a or (a.is_zero() and q.is_zero())


def test_divide_exact_rejects_inexact():
    y = _poly(1, {(1,): 1})
    one = LaurentPolynomial.one(1)
    with pytest.raises(ArithmeticError):
        divide_exact(y + one, y - one)
    with pytest.raises(ArithmeticError):  # a single-term divisor whose coefficient does not divide
        divide_exact(y + _poly(1, {(0,): 3}), _poly(1, {(1,): 2}))
    with pytest.raises(ZeroDivisionError):
        divide_exact(y, LaurentPolynomial(1))


def test_divide_exact_rejects_mismatched_variable_counts():
    # as for + and *, in both orders
    two = _poly(2, {(0, 0): 1, (1, 0): 1})
    three = LaurentPolynomial.one(3)
    for num, den in ((two, three), (three, two)):
        with pytest.raises(ValueError, match="operands must share the variable count"):
            divide_exact(num, den)
        with pytest.raises(ValueError, match="operands must share the variable count"):
            num * den


def test_divide_exact_stops_when_a_quotient_term_leaves_the_box(monkeypatch):
    # leading coefficients +-1 keep every coefficient division integral, so
    # only the Newton box of the quotient stops these descents early
    pops = []
    real_pop = laurent.heappop

    def counted(heap):
        pops.append(1)
        return real_pop(heap)

    monkeypatch.setattr(laurent, "heappop", counted)
    cases = [
        ({(0,): 1}, {(0,): 1, (1,): 1}),
        ({(0, 0): 1, (0, 1): 1}, {(0, 0): 1, (1, 0): 1}),
        ({(0, 0): 1, (2, 1): -1}, {(0, 0): 1, (1, 1): -1}),
    ]
    for num, den in cases:
        del pops[:]
        nvars = len(next(iter(num)))
        with pytest.raises(ArithmeticError):
            divide_exact(_poly(nvars, num), _poly(nvars, den))
        assert 0 < len(pops) <= 5


@pytest.mark.parametrize(
    "num, den",
    [
        ({(0,): 1, (1037,): -1}, {(0,): 1, (1,): -1}),
        ({(0,): 1, (2000,): -1}, {(0,): 1, (1,): -1}),
        ({(0, 0): 1, (1100, 1100): -1}, {(0, 0): 1, (1, 1): -1}),
    ],
    ids=["y^1037", "y^2000", "(y1y2)^1100"],
)
def test_divide_exact_long_geometric_quotients(num, den):
    # k quotient terms from a two-term N and D: no step budget in |N| and
    # |D| alone admits every k
    nvars = len(next(iter(num)))
    q = divide_exact(_poly(nvars, num), _poly(nvars, den))
    k = max(max(e) for e in num)
    assert len(q.sorted_terms()) == k
    assert laurent_mul(dict(q.sorted_terms()), den) == num


def test_divide_exact_laurent_monomial_shift():
    # dividing by a pure monomial shifts exponents, possibly below zero
    p = _poly(1, {(2,): 1, (1,): 1})
    q = divide_exact(p, _poly(1, {(3,): 1}))
    assert q.sorted_terms() == (((-2,), 1), ((-1,), 1))


def test_hash_consistent_with_eq():
    a = _poly(2, {(1, 1): 2})
    b = _poly(2, [((1, 1), 1), ((1, 1), 1)])
    assert a == b and hash(a) == hash(b)


def _one_term(rng, nvars, spread=2):
    """One term with exponents near 0 or +-spread and coefficient +-1 or +-3."""
    exps = tuple(rng.choice((0, spread, -spread)) + rng.randint(-2, 2) for _ in range(nvars))
    return _poly(nvars, {exps: rng.choice((-3, -1, 1, 3))})


def _check_one_term_division(num, den):
    """divide_exact by the one-term den agrees with the oracle; True iff exact."""
    try:
        expected = laurent_divide_exact(dict(num._terms), dict(den._terms))
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            divide_exact(num, den)
        return False
    q = divide_exact(num, den)
    assert q._terms == expected
    _assert_clean(q)
    return True


def _assert_clean(p):
    # the term map holds exactly the nonzero terms (trace counters read it)
    assert isinstance(p._terms, dict)
    assert len(p._terms) == len(p.sorted_terms())
    assert 0 not in p._terms.values()


def test_kernel_matches_dict_oracle():
    rng = random.Random(31337)
    inexact = 0
    one_term = {True: 0, False: 0}
    for _ in range(80):
        nvars = rng.randint(1, 4)
        a = _random_poly(rng, nvars, allow_negative=True)
        b = _random_poly(rng, nvars, allow_negative=True)
        ta, tb = dict(a.sorted_terms()), dict(b.sorted_terms())
        prod = a * b
        assert dict(prod.sorted_terms()) == laurent_mul(ta, tb)
        assert a * a == _poly(nvars, laurent_mul(ta, ta))
        total = a + b
        for p in (prod, a * a, total):
            _assert_clean(p)
        for k in range(6):
            power = a ** k
            assert dict(power.sorted_terms()) == laurent_pow(ta, k, nvars)
            _assert_clean(power)
        m = _one_term(rng, nvars)
        assert _check_one_term_division(a * m, m)
        assert divide_exact(a * m, m) == a
        one_term[_check_one_term_division(total, m)] += 1
        if not tb:
            continue
        q = divide_exact(prod, b)
        assert q == a and dict(q.sorted_terms()) == laurent_divide_exact(dict(prod._terms), tb)
        _assert_clean(q)
        try:
            expected = laurent_divide_exact(dict(total._terms), tb)
        except ArithmeticError:
            inexact += 1
            with pytest.raises(ArithmeticError):
                divide_exact(total, b)
        else:
            assert dict(divide_exact(total, b).sorted_terms()) == expected
    assert inexact > 30
    assert min(one_term.values()) > 20


def _wide_poly(rng, nvars, spread):
    """Up to five terms whose exponents lie near 0 or near +-spread."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        exps = tuple(rng.choice((0, spread, -spread)) + rng.randint(-2, 2) for _ in range(nvars))
        terms[exps] = terms.get(exps, 0) + rng.choice((-1, 1)) * rng.randint(1, 10**6)
    return _poly(nvars, terms)


@pytest.mark.parametrize("spread", [3, 10**20], ids=["small", "1e20"])
def test_kernels_match_oracles_up_to_six_variables(spread):
    # 10**20 needs digits wider than one 30-bit machine digit of a Python int
    rng = random.Random(2718 + spread % 1000)
    exact = {True: 0, False: 0}  # one-term divisions of a
    for nvars in range(1, 7):
        for _ in range(6):
            a, b = _wide_poly(rng, nvars, spread), _wide_poly(rng, nvars, spread)
            ta, tb = dict(a._terms), dict(b._terms)
            prod = a * b
            assert prod._terms == laurent_mul(ta, tb)
            assert (a * a)._terms == laurent_mul(ta, ta)
            for k in range(4):
                assert (a ** k)._terms == laurent_pow(ta, k, nvars)
            q = divide_exact(prod, b)
            assert q == a and q._terms == laurent_divide_exact(prod._terms, tb)
            for p in (prod, a * a, a ** 3, q):
                _assert_clean(p)
            m = _one_term(rng, nvars, spread)
            assert _check_one_term_division(a * m, m)
            assert divide_exact(a * m, m) == a
            exact[_check_one_term_division(a, m)] += 1
    assert min(exact.values()) > 5


@pytest.mark.parametrize("reach", [0, 1, 2, 3, 4, 7, 8, 2**29, 2**30, 10**20])
def test_radix_holds_the_reach(reach):
    # the least power of two above twice the reach
    bits = laurent._bits(reach)
    assert 2 ** bits > 2 * reach and (bits == 1 or 2 ** (bits - 1) <= 2 * reach)


@pytest.mark.parametrize("bits", [1, 2, 3, 5, 30, 31, 61, 68])
def test_pack_round_trips_the_extreme_digit(bits):
    # signed digits |e| <= R/2 - 1 pack one to one, and key order is lex order
    top = 2 ** (bits - 1) - 1
    for nvars in range(1, 5):
        # built in ascending lex order
        terms = {exps: i + 1 for i, exps in enumerate(product((-top, 0, top), repeat=nvars))}
        layout = laurent._layout(bits, nvars)
        packed = laurent._pack(terms, layout[0])
        assert len(packed) == len(terms) and list(packed) == sorted(packed)
        assert laurent._unpack(packed, layout, (0,) * nvars)._terms == terms
        shift = tuple(range(nvars))
        moved = {tuple(e + s for e, s in zip(exps, shift)): c for exps, c in terms.items()}
        assert laurent._unpack(packed, layout, shift)._terms == moved


# numerator, denominator with leading coefficient +-1: every coefficient
# division is integral, and the greedy quotient y1^(a-1-j) y2^(c j) drifts
# up in y2 while y1 descends
DRIFTS = [
    ({(40, 0): 1, (0, 0): 1}, {(1, 0): 1, (0, 1): -1}),
    ({(40, 0): 1, (0, 0): -1}, {(1, 0): -1, (0, 3): 1}),
    ({(9, 0, 0): 1, (0, 0, 0): 1}, {(1, 0, 0): 1, (0, 1, 2): 1}),
    ({(6, 0, 0, 0): 1, (0, 0, 0, 0): 1}, {(1, 0, 0, 0): 1, (0, 0, 0, 5): -1}),
    # y1^3 - y1 y2 by y1 - y2^11 packs in R = 32: the greedy quotient
    # y1^2 + y1 y2^11 + y2^22 overflows the y2 digit and leaves the packed
    # remainder empty, so only the Newton box tells the division is inexact
    ({(3, 0): 1, (1, 1): -1}, {(1, 0): 1, (0, 11): -1}),
]


@pytest.mark.parametrize("num, den", DRIFTS)
def test_divide_exact_stops_at_the_newton_box(monkeypatch, num, den):
    pops = []
    real_pop = laurent.heappop

    def counted(heap):
        pops.append(1)
        return real_pop(heap)

    nvars = len(next(iter(num)))
    with pytest.raises(ArithmeticError):
        laurent_divide_exact(num, den)
    monkeypatch.setattr(laurent, "heappop", counted)
    with pytest.raises(ArithmeticError):
        divide_exact(_poly(nvars, num), _poly(nvars, den))
    assert len(pops) == 1
