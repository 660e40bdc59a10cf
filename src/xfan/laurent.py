"""Sparse Laurent polynomials with integer coefficients.

Terms are a map from dense exponent vectors (length n, entries may be
negative) to nonzero integers. The representation is canonical: zero
coefficients are dropped at construction, so equality of polynomials is
equality of term maps. Public construction checks every exponent and
coefficient; polynomials built inside the package are wrapped as they
are, since their terms are already clean.

Packed monomials. The arithmetic kernels (`_mul`, `_square`, `_pow`,
`_add`, `_divide`) run on term maps keyed by one integer per monomial:
the exponent vector e packs into sum_i e_i * R**(n-1-i), signed digits in
the radix R = 2**bits with the first variable most significant. While
every digit has |e_i| < R/2 the packing is one to one, integer order is
lex order, and the sum of two keys is the key of the product of their
monomials, so a term product is one integer addition instead of a new
exponent tuple (Monagan-Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007). One context
calls them: a `_Packing` over some polynomials forms `product`, y^origin
times a product of their powers (``*``, ``**`` and theta), and `exchange`,
a sum of such products divided exactly by one of them (`divide_exact` and
the F-polynomial mutation), each in one radix and unpacked once. It packs
each input and each power of it once per radix, and the enumeration gives
each expanded seed one context for the relations of all its children,
whose F_i it shares.

Sizing R. The reach of a term map is its largest |exponent|. A product
of maps with reaches r1 and r2 has reach at most r1 + r2 (a k-th power,
k * r1), so packing the factors in a radix R > 2 * (r1 + r2) keeps every
digit of every term product in range. Exact division of N by D packs
both in R > 2 * (reach N + reach D).

Exact division takes the lex-largest remainder term t from a heap
(Monagan-Pearce, "Sparse polynomial division using a heap", J. Symb.
Comp. 2011): O(T log T) comparisons for the T terms that ever enter the
remainder, on top of the term products. The quotient term t - lead(D)
has digits within reach N + reach D of zero, so it decodes exactly, and
it must lie in the Newton box [min N - min D, max N - max D] (per
variable): Newton polytopes add, so every term of an exact quotient does.
The box alone bounds the loop. A quotient term inside the box times any
term of D lies in box(N), so every remainder exponent stays in the finite
box(N) and no digit overflows. Each step adds only terms lex-smaller than
the one it takes, so no term is taken twice and the loop ends. It returns
only with an empty remainder, so a returned quotient is exact; an inexact
division raises ArithmeticError, at a quotient term outside the box or at
an inexact coefficient division.
"""

from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import chain, islice
from operator import mul, sub

from .errors import ExponentNegative
from .intmat import Value, _exact_int


class LaurentPolynomial(Value):
    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars, terms=None):
        nvars = _exact_int(nvars)
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
        super().__init__(nvars, clean)

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

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(0,) * nvars: 1})

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

    def __hash__(self):  # the term map is a dict
        return hash((self.nvars, frozenset(self._terms.items())))

    def __add__(self, other):
        self._check(other)
        return LaurentPolynomial._trusted(self.nvars, _add(self._terms, other._terms))

    def __neg__(self):
        return LaurentPolynomial._trusted(self.nvars, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return _Packing((self, other)).product((0,) * self.nvars, [(0, 2)] if other is self else [(0, 1), (1, 1)])

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
        return _Packing((self,)).product((0,) * self.nvars, [(0, exponent)])

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

    Term-order division against the lex-maximal term of the denominator;
    the module docstring shows why the Newton box alone bounds it.
    """
    numerator._check(denominator)
    if denominator.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if numerator.is_zero():
        return numerator
    return _Packing((numerator, denominator)).exchange([((0,) * numerator.nvars, [(0, 1)])], 1)


class _Packing:
    """The context of products and exchange relations over some polynomials, read by index.

    It takes each one's Newton box once, and packs each and computes each
    power of it once per radix, keeping them until it is dropped.
    """

    __slots__ = ("polys", "boxes", "packed")

    def __init__(self, polys):
        self.polys, self.boxes, self.packed = polys, {}, {}

    def bound(self, mono, powers):
        """Reach and Newton box of y^mono * prod polys[i]**e: reaches and Newton boxes add."""
        reach, lo, hi = max(map(abs, mono), default=0), mono, mono
        for i, e in powers:
            if i not in self.boxes:
                self.boxes[i] = _box(self.polys[i]._terms)
            p_lo, p_hi = self.boxes[i]
            reach += e * max(map(abs, p_lo + p_hi), default=0)
            lo, hi = [a + e * b for a, b in zip(lo, p_lo)], [a + e * b for a, b in zip(hi, p_hi)]
        return reach, lo, hi

    def power(self, i, e, bits):
        """polys[i] ** e, e >= 0, packed in the radix 2**bits."""
        key = (i, e, bits)
        if key not in self.packed:
            if e == 1:
                p = self.polys[i]
                self.packed[key] = _pack(p._terms, _layout(bits, p.nvars)[0])
            else:
                self.packed[key] = _pow(self.power(i, 1, bits), e)
        return self.packed[key]

    def side(self, mono, powers, bits):
        """y^mono * prod polys[i]**e over the (i, e) in powers, packed in the radix 2**bits."""
        shift = sum(map(mul, mono, _layout(bits, len(mono))[0]))
        return reduce(_mul, [self.power(i, e, bits) for i, e in powers], {shift: 1})

    def product(self, origin, powers):
        """y^origin * prod polys[i]**e over the (i, e) in powers, every e >= 0.

        The powers are packed in a radix sized from the sum of e times the
        reach of polys[i], and the product is unpacked once with its
        exponents moved by ``origin``, so origin never widens the radix.
        """
        bits = _bits(sum(e * _reach(self.polys[i]._terms) for i, e in powers))
        return _unpack(self.side((0,) * len(origin), powers, bits), _layout(bits, len(origin)), origin)

    def exchange(self, sides, k):
        """The exact quotient by polys[k] of the sum over sides of y^mono * prod polys[i]**e.

        ``sides`` holds (mono, powers) pairs, powers as `side` takes them;
        the polynomials are nonzero. One radix serves the whole relation,
        R > 2 * (reach N + reach D), and the sum lies in the hull of the
        sides' Newton boxes. Raises ArithmeticError when polys[k] does not
        divide the sum.
        """
        n = self.polys[k].nvars
        reaches, los, his = zip(*[self.bound(mono, powers) for mono, powers in sides])
        reach_d, *box_d = self.bound((0,) * n, [(k, 1)])
        bits = _bits(max(reaches) + reach_d)
        total = reduce(_add, [self.side(mono, powers, bits) for mono, powers in sides])
        box_n = tuple(map(min, zip(*los))), tuple(map(max, zip(*his)))
        layout = _layout(bits, n)
        return _unpack(_divide(total, self.power(k, 1, bits), layout, box_n, box_d), layout, (0,) * n)


def _reach(terms):
    """The largest |exponent| of a term map (0 for none)."""
    return max(map(abs, chain.from_iterable(terms)), default=0)


def _box(terms):
    """Newton box of a nonzero term map: per-variable (min, max) exponents."""
    columns = tuple(zip(*terms))
    return tuple(map(min, columns)), tuple(map(max, columns))


def _bits(reach):
    """Digit width of the least radix R = 2**bits with R > 2 * reach."""
    return reach.bit_length() + 1


@lru_cache(maxsize=256)
def _layout(bits, n):
    """Packing constants for n variables in the radix R = 2**bits.

    Returns (weights, half, halves, shifts). The key of an exponent vector
    e is sum(e_i * weights[i]); digit i of a key k is
    ((k + halves) >> shifts[i] & (R - 1)) - half, where half = R/2:
    ``halves`` adds R/2 to every digit, which makes each one nonnegative,
    so none borrows from the next.
    """
    half = 1 << (bits - 1)
    shifts = tuple(range(bits * (n - 1), -1, -bits))
    return tuple(1 << s for s in shifts), half, sum(half << s for s in shifts), shifts


def _pack(terms, weights):
    """The term map with each exponent vector packed into one int key."""
    return {sum(map(mul, exps, weights)): c for exps, c in terms.items()}


def _unpack(packed, layout, origin):
    """The polynomial of a packed term map, every exponent moved by ``origin``."""
    _, half, halves, shifts = layout
    mask = 2 * half - 1
    moved = tuple(zip(shifts, [o - half for o in origin]))
    terms = {tuple([((key + halves) >> s & mask) + o for s, o in moved]): c for key, c in packed.items()}
    return LaurentPolynomial._trusted(len(origin), terms)


def _nonzero(terms):
    """The term map without its zero coefficients (the same dict if it has none)."""
    if 0 in terms.values():
        return {e: c for e, c in terms.items() if c}
    return terms


def _add(a, b):
    """Sum of two term maps, under any one kind of key."""
    terms = dict(a)
    for e, c in b.items():
        s = terms.pop(e, 0) + c
        if s:
            terms[e] = s
    return terms


def _mul(a, b):
    """Product of two packed term maps, visiting each pair of terms once."""
    terms = {}
    get = terms.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            terms[key] = get(key, 0) + c1 * c2
    return _nonzero(terms)


def _square(a):
    """a * a, visiting each unordered pair of terms once."""
    items = list(a.items())
    terms = {}
    get = terms.get
    for i, (k1, c1) in enumerate(items):
        key = k1 + k1
        terms[key] = get(key, 0) + c1 * c1
        twice = 2 * c1
        for k2, c2 in islice(items, i + 1, None):
            key = k1 + k2
            terms[key] = get(key, 0) + twice * c2
    return _nonzero(terms)


def _pow(a, exponent):
    """a ** exponent (exponent >= 0) of a packed term map.

    Square-and-multiply from the low bit; the result is empty until the
    first set bit, so one is never multiplied in.
    """
    result = None
    while exponent:
        if exponent & 1:
            result = a if result is None else _mul(result, a)
        exponent >>= 1
        if exponent:
            a = _square(a)
    return {0: 1} if result is None else result


def _divide(num, den, layout, box_n, box_d):
    """Exact quotient of packed term maps, or ArithmeticError.

    ``box_n`` and ``box_d`` are Newton boxes (per-variable (min, max)
    exponents): box_n must hold num, and box_d must be den's own, since a
    wider one could reject a term of the true quotient. The keys must be
    packed by ``layout`` in a radix R > 2 * (reach box_n + reach box_d).

    The remainder is kept with negated keys, so its lex-largest term is
    the smallest key of a min-heap. A key that cancels stays in the heap
    and is skipped when popped. Lex order is a monomial order, so every
    term a step adds is lex-smaller than the term it took, and a popped key
    never comes back. The window check keeps every key in box_n, so the
    loop ends.
    """
    lead = max(den)
    lead_coeff = den[lead]
    rest = [(-k, c) for k, c in den.items() if k != lead]
    remainder = {-k: c for k, c in num.items()}
    heap = list(remainder)
    heapify(heap)
    # every quotient digit, read as _layout says, lies in the Newton box
    # [min N - min D, max N - max D]
    _, half, halves, shifts = layout
    mask = 2 * half - 1
    window = tuple(
        zip(
            shifts,
            [lo + half for lo in map(sub, box_n[0], box_d[0])],
            [hi + half for hi in map(sub, box_n[1], box_d[1])],
        )
    )
    quotient = {}
    while heap:
        top = heappop(heap)
        coeff = remainder.pop(top, 0)
        if not coeff:
            continue
        q = -top - lead
        q_coeff, rem = divmod(coeff, lead_coeff)
        if rem:
            raise ArithmeticError("polynomials do not divide exactly")
        biased = q + halves
        for shift, lo, hi in window:
            if not lo <= biased >> shift & mask <= hi:
                raise ArithmeticError("polynomials do not divide exactly")
        quotient[q] = q_coeff
        negated = top + lead  # -q
        for k, c in rest:
            key = negated + k
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
    return quotient
