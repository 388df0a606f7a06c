"""Sparse sums with exact coefficients: Laurent polynomials in v, polynomials
in two variables, and the packed-int form the Kazhdan-Lusztig and
R-polynomial tables compute in.

Terms is the one sparse-sum format: a dict {key: coefficient} that never
stores a zero coefficient.  It owns the merging constructor, +, truth,
equality, hashing, sorted items() and the signed printer.  LaurentPoly (key:
exponent of v), BiPoly (key: exponents of u and v) and hecke.HeckeElement
(key: group element, coefficient: LaurentPoly) add only their own
arithmetic.  Coefficients are Python ints (arbitrary precision) or exact
polynomials, so there is no floating point anywhere.
"""

from __future__ import annotations

# bound once: a global is found faster than the attribute object.__new__
_allocate = object.__new__


class Terms:
    """A finite sum of coefficients at keys, kept as a dict with no zero
    coefficient.  Instances are immutable; operations return new objects.

    The constructor takes a dict or an iterable of (key, coefficient) pairs,
    adds up repeated keys and drops zeros.  A coefficient is an int or a value
    that adds to the int 0, as LaurentPoly does.  Subclasses may turn the other
    operand of + and == into their own kind in _coerce; values of different
    kinds are never equal, and adding them raises TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    c0 = clean.get(k, 0) + c
                    if c0:
                        clean[k] = c0
                    else:
                        del clean[k]
        self._terms = clean

    def _new(self, terms: dict):
        """A value of self's kind over terms, which already has no zero."""
        out = _allocate(type(self))
        out._terms = terms
        return out

    def _coerce(self, other):
        return NotImplemented

    def __add__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            c0 = terms.get(k, 0) + c
            if c0:
                terms[k] = c0
            else:
                del terms[k]
        return self._new(terms)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a value with no key but 0 hashes as its coefficient there, so a
        # constant LaurentPoly and the int it equals are one dict key
        terms = self._terms
        if not terms or len(terms) == 1 and 0 in terms:
            return hash(terms.get(0, 0))
        return hash(frozenset(terms.items()))

    def items(self):
        """(key, coefficient) pairs in ascending key order."""
        return sorted(self._terms.items())

    # -- printing ----------------------------------------------------------

    _descending = False  # print the largest key first

    def _term(self, k, c) -> str:
        """The term c times the subclass's _monomial(k) ("" for the constant
        one), with a leading "-" when c < 0."""
        m = self._monomial(k)
        mag = abs(c)
        body = str(mag) if not m else m if mag == 1 else "%d*%s" % (mag, m)
        return body if c > 0 else "-" + body

    def __str__(self):
        term = self._term
        bits = []
        for k, c in sorted(self._terms.items(), reverse=self._descending):
            t = term(k, c)
            if bits:
                t = "- " + t[1:] if t[0] == "-" else "+ " + t
            bits.append(t)
        return " ".join(bits) if bits else "0"

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, str(self))


class LaurentPoly(Terms):
    """A Laurent polynomial sum_k c_k v^k with integer coefficients, as
    {exponent: coefficient}.  Ints take part in +, -, * and ==.

    >>> p = LaurentPoly({1: 1, -1: -1})
    >>> p * p
    LaurentPoly('v^2 - 2 + v^-2')
    >>> p.bar() == -p
    True
    """

    __slots__ = ()
    _descending = True

    def _coerce(self, other):
        return LaurentPoly({0: other}) if isinstance(other, int) else NotImplemented

    def _monomial(self, e) -> str:
        return "" if e == 0 else "v" if e == 1 else "v^%d" % e

    # -- ring structure ----------------------------------------------------

    __radd__ = Terms.__add__

    def __neg__(self):
        return self._new({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            return self._new({k: c * other for k, c in self._terms.items()})
        if type(other) is not LaurentPoly:
            return NotImplemented
        terms = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                c0 = terms.get(k, 0) + c1 * c2
                if c0:
                    terms[k] = c0
                else:
                    del terms[k]
        return self._new(terms)

    __rmul__ = __mul__

    # -- substitutions and accessors ---------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        return self._new({e + k: c for e, c in self._terms.items()})

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        return self._new({-e: c for e, c in self._terms.items()})

    def subst_neg_inv(self) -> "LaurentPoly":
        """The involution v -> -v^-1, so v^k -> (-1)^k v^-k."""
        return self._new({-e: (c if e % 2 == 0 else -c) for e, c in self._terms.items()})

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def coeff(self, k: int) -> int:
        return self._terms.get(k, 0)

    def degree_span(self) -> tuple[int, int]:
        """(min exponent, max exponent).  Raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("degree_span of the zero polynomial")
        return min(self._terms), max(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    def to_json(self) -> dict:
        return {"var": "v", "terms": [[e, c] for e, c in self.items()]}


ONE = LaurentPoly({0: 1})


class PackedPolys:
    """Polynomials with coefficients in [0, 2^bits) and at most ``bits``
    coefficients, packed into Python ints.

    c_0 + c_1 t + c_2 t^2 + ... packs to sum_k c_k 2^(bits k), so packed
    values add coefficientwise and << bits, >> bits multiply and divide by
    t, as long as every coefficient stays in range.  ``decode`` maps the
    digits [c_0, c_1, ...] to the LaurentPoly a value stands for; each
    distinct packed value is decoded once and the LaurentPoly interned.

    A table stores its packed values through ``intern``, so it holds one int
    object per distinct value, however many entries share it: intern(n, n)
    returns the first int equal to n that was interned.  It is the
    setdefault of one dict, so interning costs no Python-level call.
    """

    def __init__(self, bits: int, decode):
        self.bits, self.mask = bits, (1 << bits) - 1
        self._decode = decode
        self._polys: dict[int, LaurentPoly] = {}
        self.intern = {}.setdefault

    def poly(self, n: int) -> LaurentPoly:
        """The interned LaurentPoly of the packed value n >= 0."""
        p = self._polys.get(n)
        if p is None:
            digits = [(n >> k) & self.mask for k in range(0, n.bit_length(), self.bits)]
            p = self._polys[n] = self._decode(digits)
        return p


class BiPoly(Terms):
    """A polynomial in two variables u, v with integer coefficients, as
    {(u_exp, v_exp): coefficient}."""

    __slots__ = ()

    def _monomial(self, k) -> str:
        a, b = k
        u = "" if a == 0 else "u" if a == 1 else "u^%d" % a
        v = "" if b == 0 else "v" if b == 1 else "v^%d" % b
        return u + "*" + v if u and v else u or v

    def coeff(self, u_exp: int, v_exp: int) -> int:
        return self._terms.get((u_exp, v_exp), 0)

    def total_degrees(self) -> set[int]:
        return {a + b for (a, b) in self._terms}

    def to_json(self) -> dict:
        return {"vars": ["u", "v"], "terms": [[a, b, c] for (a, b), c in self.items()]}
