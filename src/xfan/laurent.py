"""Sparse Laurent polynomials with integer coefficients.

Terms are a map from dense exponent vectors (length n, entries may be
negative) to nonzero integers. The representation is canonical: zero
coefficients are dropped at construction, so equality of polynomials is
equality of term maps.

Public construction checks every exponent and coefficient; polynomials
built inside the package are wrapped as they are, since their terms are
already clean. Products visit each pair of terms once (a square visits
each unordered pair once). Exact division takes the lex-largest remainder
term from a heap: O(T log T) comparisons for the T terms that ever enter
the remainder, on top of the term products, where a scan for the largest
term would cost O(T) per quotient term.
"""

from heapq import heapify, heappop, heappush
from itertools import islice
from operator import add, neg, sub

from .errors import ExponentNegative
from .intmat import _exact_int


class LaurentPolynomial:
    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        nvars = _exact_int(nvars)
        object.__setattr__(self, "nvars", nvars)
        clean = {}
        if terms:
            for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
                c = _exact_int(coeff)
                if c == 0:
                    continue
                key = tuple(_exact_int(e) for e in exps)
                if len(key) != nvars:
                    raise ValueError("exponent vector of wrong length")
                c += clean.pop(key, 0)
                if c:
                    clean[key] = c
        object.__setattr__(self, "_terms", clean)

    @classmethod
    def _trusted(cls, nvars, terms):
        """Wrap a term map built inside the package without checking it.

        ``terms`` must map int tuples of length ``nvars`` to nonzero ints;
        the polynomial takes ownership of the dict.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars, exps, coeff=1):
        return cls(nvars, {tuple(exps): coeff})

    @classmethod
    def variable(cls, nvars, index):
        """The single variable y_{index+1} as a polynomial."""
        exps = [0] * nvars
        exps[index] = 1
        return cls(nvars, {tuple(exps): 1})

    def sorted_terms(self):
        """Terms as ((exponents, coeff), ...) in ascending lex order."""
        return tuple((e, self._terms[e]) for e in sorted(self._terms))

    def is_zero(self):
        return not self._terms

    def is_one(self):
        return self._terms == {(0,) * self.nvars: 1}

    def constant_term(self):
        return self._terms.get((0,) * self.nvars, 0)

    def coefficient(self, exps):
        return self._terms.get(tuple(exps), 0)

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPolynomial)
            and self.nvars == other.nvars
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self._terms.items())))

    def __add__(self, other):
        self._check(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            s = terms.pop(e, 0) + c
            if s:
                terms[e] = s
        return LaurentPolynomial._trusted(self.nvars, terms)

    def __neg__(self):
        return LaurentPolynomial._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        if other is self:
            return self._square()
        terms = {}
        get = terms.get
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(map(add, e1, e2))
                terms[key] = get(key, 0) + c1 * c2
        return LaurentPolynomial._trusted(self.nvars, _nonzero(terms))

    def _square(self):
        """self * self, visiting each unordered pair of terms once."""
        items = list(self._terms.items())
        terms = {}
        get = terms.get
        for i, (e1, c1) in enumerate(items):
            key = tuple(map(add, e1, e1))
            terms[key] = get(key, 0) + c1 * c1
            twice = 2 * c1
            for e2, c2 in islice(items, i + 1, None):
                key = tuple(map(add, e1, e2))
                terms[key] = get(key, 0) + twice * c2
        return LaurentPolynomial._trusted(self.nvars, _nonzero(terms))

    def __pow__(self, exponent):
        exponent = _exact_int(exponent)
        if exponent < 0:
            if len(self._terms) == 1:
                ((exps, coeff),) = self._terms.items()
                if coeff in (1, -1):
                    inv_exps = tuple(-e for e in exps)
                    base = LaurentPolynomial._trusted(self.nvars, {inv_exps: coeff})
                    return base ** (-exponent)
            raise ExponentNegative(
                "negative power is only defined for monomials with coefficient +-1"
            )
        # square-and-multiply from the low bit; the result is empty until the
        # first set bit, so one is never multiplied in
        result = None
        base = self
        k = exponent
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return LaurentPolynomial.one(self.nvars) if result is None else result

    def _check(self, other):
        if not isinstance(other, LaurentPolynomial) or other.nvars != self.nvars:
            raise ValueError("operands must share the variable count")

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"y{i + 1}")
                elif e:
                    factors.append(f"y{i + 1}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def _nonzero(terms):
    """The term map without its zero coefficients (the same dict if it has none)."""
    if 0 in terms.values():
        return {e: c for e, c in terms.items() if c}
    return terms


def divide_exact(numerator, denominator):
    """Exact quotient in the Laurent ring, or ArithmeticError.

    Classic term-order division against the lex-maximal term of the
    denominator. When the division is exact every greedy step is a term of
    the true quotient, whose lex-smallest term is lexmin(N) - lexmin(D), and
    all coefficient divisions are integral. So a failed coefficient
    division or a quotient term below that bound means the inputs were not
    exactly divisible; a step limit backs this up.

    The remainder is kept with negated exponents, so its lex-largest term
    is the smallest key of a min-heap. A key that cancels stays in the heap
    and is skipped when popped. Lex order is a monomial order, so every
    term a step adds is lex-smaller than the term it took, and a popped key
    never comes back.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return numerator
    den = sorted((tuple(map(neg, e)), c) for e, c in denominator._terms.items())
    (lead, lead_coeff), rest = den[0], den[1:]
    remainder = {tuple(map(neg, e)): c for e, c in numerator._terms.items()}
    heap = list(remainder)
    heapify(heap)
    # lexmin(N) - lexmin(D), negated like the remainder keys
    bound = tuple(map(sub, max(heap), den[-1][0]))
    quotient = {}
    max_steps = 4 * (len(remainder) + 1) * (len(den) + 1) + 1000
    steps = 0
    while heap:
        top = heappop(heap)
        coeff = remainder.pop(top, 0)
        if not coeff:
            continue
        steps += 1
        if steps > max_steps:
            raise ArithmeticError("polynomials do not divide exactly")
        q_exps = tuple(map(sub, top, lead))
        q_coeff, rem = divmod(coeff, lead_coeff)
        if rem or q_exps > bound:
            raise ArithmeticError("polynomials do not divide exactly")
        quotient[tuple(map(neg, q_exps))] = q_coeff
        for e, c in rest:
            key = tuple(map(add, q_exps, e))
            s = remainder.get(key)
            if s is None:
                remainder[key] = -q_coeff * c
                heappush(heap, key)
            else:
                s -= q_coeff * c
                if s:
                    remainder[key] = s
                else:
                    del remainder[key]
    return LaurentPolynomial._trusted(numerator.nvars, quotient)
