"""Sparse integer Laurent polynomials in v, polynomials in two variables, and
the packed-int form the Kazhdan-Lusztig and R-polynomial tables compute in.

Everything here is exact: coefficients are Python ints (arbitrary precision),
zero coefficients are never stored, and equality is structural.  The tables
hand out LaurentPoly values, so there is no floating point anywhere.
"""

from __future__ import annotations


class LaurentPoly:
    """A Laurent polynomial sum_k c_k v^k with integer coefficients.

    Internally a dict {exponent: coefficient} with no zero entries.
    Instances are immutable; all operations return new objects.

    >>> p = LaurentPoly({1: 1, -1: -1})
    >>> p * p
    LaurentPoly('v^2 - 2 + v^-2')
    >>> p.bar() == -p
    True
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
                    elif k in clean:
                        del clean[k]
        self._terms = clean

    # -- ring structure ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            c0 = terms.get(k, 0) + c
            if c0:
                terms[k] = c0
            elif k in terms:
                del terms[k]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {k: -c for k, c in self._terms.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            out = LaurentPoly.__new__(LaurentPoly)
            out._terms = {k: c * other for k, c in self._terms.items()}
            return out
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        terms = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                c0 = terms.get(k, 0) + c1 * c2
                if c0:
                    terms[k] = c0
                elif k in terms:
                    del terms[k]
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = terms
        return out

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly({0: other})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- substitutions and accessors ---------------------------------------

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by v^k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {e + k: c for e, c in self._terms.items()}
        return out

    def bar(self) -> "LaurentPoly":
        """The involution v -> v^-1."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {-e: c for e, c in self._terms.items()}
        return out

    def subst_neg_inv(self) -> "LaurentPoly":
        """The involution v -> -v^-1, so v^k -> (-1)^k v^-k."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._terms = {-e: (c if e % 2 == 0 else -c) for e, c in self._terms.items()}
        return out

    def eval_at_one(self) -> int:
        return sum(self._terms.values())

    def coeff(self, k: int) -> int:
        return self._terms.get(k, 0)

    def items(self):
        """(exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._terms.items())

    def degree_span(self) -> tuple[int, int]:
        """(min exponent, max exponent).  Raises on the zero polynomial."""
        if not self._terms:
            raise ValueError("degree_span of the zero polynomial")
        return min(self._terms), max(self._terms)

    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"var": "v", "terms": [[e, c] for e, c in self.items()]}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        if data.get("var") != "v":
            raise ValueError("expected a polynomial in v")
        return cls({int(e): int(c) for e, c in data["terms"]})

    def __repr__(self):
        return "LaurentPoly(%r)" % (str(self),)

    def __str__(self):
        if not self._terms:
            return "0"
        bits = []
        for e, c in sorted(self._terms.items(), reverse=True):
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "v" if e == 1 else "v^%d" % e
                body = var if mag == 1 else "%d*%s" % (mag, var)
            if not bits:
                bits.append(body if c > 0 else "-" + body)
            else:
                bits.append(("+ " if c > 0 else "- ") + body)
        return " ".join(bits)


ONE = LaurentPoly({0: 1})


class PackedPolys:
    """Polynomials with coefficients in [0, 2^bits) and at most ``bits``
    coefficients, packed into Python ints.

    c_0 + c_1 t + c_2 t^2 + ... packs to sum_k c_k 2^(bits k), so packed
    values add coefficientwise and << bits, >> bits multiply and divide by
    t, as long as every coefficient stays in range.  ``decode`` maps the
    digits [c_0, c_1, ...] to the LaurentPoly a value stands for; each
    distinct packed value is decoded once and the LaurentPoly interned.
    """

    def __init__(self, bits: int, decode):
        self.bits, self.mask = bits, (1 << bits) - 1
        self._decode = decode
        self._polys: dict[int, LaurentPoly] = {}

    def poly(self, n: int) -> LaurentPoly:
        """The interned LaurentPoly of the packed value n >= 0."""
        p = self._polys.get(n)
        if p is None:
            digits = [(n >> k) & self.mask for k in range(0, n.bit_length(), self.bits)]
            p = self._polys[n] = self._decode(digits)
        return p


class BiPoly:
    """A polynomial in two variables u, v with integer coefficients.

    Stored as {(u_exp, v_exp): coefficient}.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for key, c in (terms.items() if isinstance(terms, dict) else terms):
                if c:
                    k = (int(key[0]), int(key[1]))
                    c0 = clean.get(k, 0) + c
                    if c0:
                        clean[k] = c0
                    elif k in clean:
                        del clean[k]
        self._terms = clean

    @classmethod
    def from_uv_product(cls, pu: LaurentPoly, pv: LaurentPoly) -> "BiPoly":
        """The product pu(u) * pv(v) as a two-variable polynomial."""
        terms = {}
        for a, ca in pu.items():
            for b, cb in pv.items():
                terms[(a, b)] = ca * cb
        return cls(terms)

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            c0 = terms.get(k, 0) + c
            if c0:
                terms[k] = c0
            elif k in terms:
                del terms[k]
        out = BiPoly.__new__(BiPoly)
        out._terms = terms
        return out

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def coeff(self, u_exp: int, v_exp: int) -> int:
        return self._terms.get((u_exp, v_exp), 0)

    def items(self):
        """((u_exp, v_exp), coefficient) pairs in lexicographic order."""
        return sorted(self._terms.items())

    def swap_vars(self) -> "BiPoly":
        out = BiPoly.__new__(BiPoly)
        out._terms = {(b, a): c for (a, b), c in self._terms.items()}
        return out

    def total_degrees(self) -> set[int]:
        return {a + b for (a, b) in self._terms}

    def to_json(self) -> dict:
        return {"vars": ["u", "v"], "terms": [[a, b, c] for (a, b), c in self.items()]}

    @classmethod
    def from_json(cls, data: dict) -> "BiPoly":
        if data.get("vars") != ["u", "v"]:
            raise ValueError("expected a polynomial in u, v")
        return cls({(int(a), int(b)): int(c) for a, b, c in data["terms"]})

    def __repr__(self):
        return "BiPoly(%r)" % (str(self),)

    def __str__(self):
        if not self._terms:
            return "0"

        def mono(a, b):
            parts = []
            if a:
                parts.append("u" if a == 1 else "u^%d" % a)
            if b:
                parts.append("v" if b == 1 else "v^%d" % b)
            return "*".join(parts)

        bits = []
        for (a, b), c in self.items():
            m = mono(a, b)
            mag = abs(c)
            body = m if (mag == 1 and m) else (str(mag) if not m else "%d*%s" % (mag, m))
            if not bits:
                bits.append(body if c > 0 else "-" + body)
            else:
                bits.append(("+ " if c > 0 else "- ") + body)
        return " ".join(bits)
