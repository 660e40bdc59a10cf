"""Sparse Laurent polynomials with integer coefficients.

Terms are a map from dense exponent vectors (length n, entries may be
negative) to nonzero integers. The representation is canonical: zero
coefficients are dropped at construction, so equality of polynomials is
equality of term maps.
"""

from .errors import ExponentNegative


class LaurentPolynomial:
    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        object.__setattr__(self, "nvars", int(nvars))
        clean = {}
        if terms:
            for exps, coeff in terms.items() if isinstance(terms, dict) else terms:
                c = int(coeff)
                if c == 0:
                    continue
                key = tuple(int(e) for e in exps)
                if len(key) != nvars:
                    raise ValueError("exponent vector of wrong length")
                c += clean.pop(key, 0)
                if c:
                    clean[key] = c
        object.__setattr__(self, "_terms", clean)

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
        return LaurentPolynomial(self.nvars, terms)

    def __neg__(self):
        return LaurentPolynomial(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                s = terms.pop(key, 0) + c1 * c2
                if s:
                    terms[key] = s
        return LaurentPolynomial(self.nvars, terms)

    def __pow__(self, exponent):
        exponent = int(exponent)
        if exponent < 0:
            if len(self._terms) == 1:
                ((exps, coeff),) = self._terms.items()
                if coeff in (1, -1):
                    inv_exps = tuple(-e for e in exps)
                    base = LaurentPolynomial(self.nvars, {inv_exps: coeff})
                    return base ** (-exponent)
            raise ExponentNegative(
                "negative power is only defined for monomials with coefficient +-1"
            )
        result = LaurentPolynomial.one(self.nvars)
        base = self
        k = exponent
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

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


def divide_exact(numerator, denominator):
    """Exact quotient in the Laurent ring, or ArithmeticError.

    Classic term-order division against the lex-maximal term of the
    denominator. When the division is exact every greedy step is a term of
    the true quotient and all coefficient divisions are integral, so a
    failed coefficient division (or runaway descent) means the inputs were
    not exactly divisible.
    """
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return numerator
    n = numerator.nvars
    den_terms = denominator._terms
    lead = max(den_terms)
    lead_coeff = den_terms[lead]
    remainder = dict(numerator._terms)
    quotient = {}
    max_steps = 4 * (len(remainder) + 1) * (len(den_terms) + 1) + 1000
    steps = 0
    while remainder:
        steps += 1
        if steps > max_steps:
            raise ArithmeticError("polynomials do not divide exactly")
        top = max(remainder)
        q_coeff, rem = divmod(remainder[top], lead_coeff)
        if rem:
            raise ArithmeticError("polynomials do not divide exactly")
        q_exps = tuple(a - b for a, b in zip(top, lead))
        quotient[q_exps] = q_coeff
        for e, c in den_terms.items():
            key = tuple(a + b for a, b in zip(q_exps, e))
            s = remainder.pop(key, 0) - q_coeff * c
            if s:
                remainder[key] = s
    return LaurentPolynomial(n, quotient)
