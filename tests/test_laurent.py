"""Laurent polynomial arithmetic and exact division."""

from __future__ import annotations

import random

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
    assert LaurentPolynomial.zero(3).is_zero()
    y2 = LaurentPolynomial.variable(3, 1)
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
        assert a - a == LaurentPolynomial.zero(nvars)
        assert a * LaurentPolynomial.one(nvars) == a


def test_pow():
    y = LaurentPolynomial.variable(1, 0)
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
    y = LaurentPolynomial.variable(1, 0)
    one = LaurentPolynomial.one(1)
    with pytest.raises(ArithmeticError):
        divide_exact(y + one, y - one)
    with pytest.raises(ZeroDivisionError):
        divide_exact(y, LaurentPolynomial.zero(1))


def test_divide_exact_rejects_mismatched_variable_counts():
    # as for + and *, in both orders
    two = _poly(2, {(0, 0): 1, (1, 0): 1})
    three = LaurentPolynomial.one(3)
    for num, den in ((two, three), (three, two)):
        with pytest.raises(ValueError, match="operands must share the variable count"):
            divide_exact(num, den)
        with pytest.raises(ValueError, match="operands must share the variable count"):
            num * den


def test_divide_exact_stops_at_lex_bound(monkeypatch):
    # leading coefficients +-1 keep every coefficient division integral, so
    # only the lex lower bound of the quotient stops these descents early
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


def test_divide_exact_laurent_monomial_shift():
    # dividing by a pure monomial shifts exponents, possibly below zero
    p = _poly(1, {(2,): 1, (1,): 1})
    q = divide_exact(p, LaurentPolynomial.monomial(1, (3,)))
    assert q.sorted_terms() == (((-2,), 1), ((-1,), 1))


def test_hash_consistent_with_eq():
    a = _poly(2, {(1, 1): 2})
    b = _poly(2, [((1, 1), 1), ((1, 1), 1)])
    assert a == b and hash(a) == hash(b)


def _assert_clean(p):
    # the term map holds exactly the nonzero terms (trace counters read it)
    assert isinstance(p._terms, dict)
    assert len(p._terms) == len(p.sorted_terms())
    assert 0 not in p._terms.values()


def test_kernel_matches_dict_oracle():
    rng = random.Random(31337)
    inexact = 0
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
