"""Hecke algebra arithmetic and Kazhdan-Lusztig polynomials.

The normalization is the one where the canonical basis element attached to a
simple reflection is b_s = h_s + v, the quadratic relation reads
h_s^2 = 1 + (v^-1 - v) h_s, and the KL polynomials p_{x,y} lie in Z>=0[v]
with top term v^(l(y)-l(x)).  In this normalization the coefficients of
p_{x,y} are graded multiplicities of standard filtrations of indecomposable
projectives, which is what all the dimension bounds downstream consume.
"""

from __future__ import annotations

from .coxeter import CoxeterSystem
from .poly import ONE, LaurentPoly, PackedPolys, Terms


class HeckeElement(Terms):
    """A finite Z[v,v^-1]-combination of standard basis elements h_w, as
    {w: LaurentPoly} in one Hecke algebra."""

    __slots__ = ("system",)

    def __init__(self, system: CoxeterSystem, coeffs=None):
        super().__init__(coeffs)
        self.system = system

    @classmethod
    def standard(cls, system: CoxeterSystem, w: int) -> "HeckeElement":
        return cls(system, {w: ONE})

    @property
    def coeffs(self) -> dict[int, LaurentPoly]:
        return self._terms

    def _new(self, terms: dict) -> "HeckeElement":
        out = super()._new(terms)
        out.system = self.system
        return out

    def __add__(self, other):
        if isinstance(other, HeckeElement) and other.system is not self.system:
            raise ValueError("elements live in different Hecke algebras")
        return super().__add__(other)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElement":
        """Multiply by an integer or Laurent polynomial scalar."""
        return HeckeElement(self.system, {w: p * c for w, p in self._terms.items()})

    def coeff(self, w: int) -> LaurentPoly:
        return self._terms.get(w, LaurentPoly())

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.system is other.system and self._terms == other._terms

    def _term(self, w, p) -> str:
        return "(%s)*h[%s]" % (p, self.system.word_name(w))

    def __repr__(self):
        return "HeckeElement(%s)" % Terms.__str__(self)

    __str__ = __repr__


def mult_by_gen(h: HeckeElement, s: int, side: str = "right") -> HeckeElement:
    """Product of h with the standard generator h_s on the given side.

    h_w h_s = h_{ws} when ws > w, and h_{ws} + (v^-1 - v) h_w when ws < w;
    same shape on the left with sw.
    """
    sy = h.system
    table = sy.right[s] if side == "right" else sy.left[s]
    vinv_minus_v = LaurentPoly({-1: 1, 1: -1})
    terms = []
    for w, p in h.coeffs.items():
        ws = table[w]
        terms.append((ws, p))
        if sy.lengths[ws] < sy.lengths[w]:
            terms.append((w, p * vinv_minus_v))
    return HeckeElement(sy, terms)


class KLTable:
    """Memoized Kazhdan-Lusztig data for one Coxeter system.

    kl_basis_element(y) returns the canonical basis element b_y as a dict
    {x: p_{x,y}}; entries are computed by the standard induction on length
    (multiply b_{ys} by b_s, subtract mu-corrections) using the
    lowest-numbered right descent, so results are deterministic.  An entry
    never changes once computed.  kl_poly lifts x through the descents of y
    first, so a point query builds a row only when it needs one.

    Rows are {x: int} with p_{x,y} a PackedPolys int in v with B = l(w0) + 1
    bits per coefficient, so multiplying by v or v^-1 is << B or >> B; the
    >> B is exact because p_{x,u} lies in vZ[v] for x < u.  Values stay
    nonnegative (KL positivity; a partial mu-subtraction is at least the
    final value), and max_x p_{x,y}(1) at most doubles per step, so every
    coefficient is at most 2^l(w0) < 2^B.  A finished row stores its values
    through PackedPolys.intern, so the table holds one int object per
    distinct value.  HeckeElement and mult_by_gen stay on LaurentPoly on
    purpose, as the independent route to b_y.  The certificates read no KL
    value (the trivial-KL clause is read off the Bruhat graph), so a table
    serves the bounds, the CLI tables and the checks that compare the two.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._values = PackedPolys(system.lengths[system.w0] + 1,
                                   lambda digits: LaurentPoly(enumerate(digits)))
        self._basis: dict[int, dict[int, int]] = {0: {0: 1}}

    def _row(self, y: int) -> dict[int, int]:
        """b_y with packed coefficients."""
        hit = self._basis.get(y)
        if hit is not None:
            return hit
        sy = self.system
        bits, mask = self._values.bits, self._values.mask
        s = min(sy.right_descents(y))
        right, lengths = sy.right[s], sy.lengths
        bu = self._row(right[y])  # b_u for u = ys

        # b_u * b_s  =  b_u * h_s + v * b_u, one pair {x, xs} with xs > x at a
        # time: it gets v p_{x,u} + p_{xs,u} at x and p_{x,u} + v^-1 p_{xs,u}
        # at xs.  A term x of b_u with xs < x is met from xs, since xs < x <= u
        # puts xs in [e, u], the support of b_u.
        prod = {}
        for x, p in bu.items():
            xs = right[x]
            if lengths[xs] > lengths[x]:
                q = bu.get(xs)
                if q is None:
                    prod[x], prod[xs] = p << bits, p
                else:
                    assert not q & mask, "p_{x,u} for x < u lies in vZ[v]"
                    prod[x], prod[xs] = (p << bits) + q, p + (q >> bits)

        # subtract mu(z, u) * b_z over z < u with zs < z (mu(u, u) = 0); every partial
        # difference is at least the nonnegative final value, so no digit borrows
        for z, p in bu.items():
            mu = (p >> bits) & mask
            if mu and lengths[right[z]] < lengths[z]:
                for x, q in self._row(z).items():
                    r = prod.get(x, 0) - q * mu
                    if r:
                        prod[x] = r
                    else:
                        prod.pop(x, None)

        intern = self._values.intern
        for x, p in prod.items():
            prod[x] = intern(p, p)
        self._basis[y] = prod
        return prod

    def kl_basis_element(self, y: int) -> dict[int, LaurentPoly]:
        poly = self._values.poly
        return {x: poly(p) for x, p in self._row(y).items()}

    def kl_poly(self, x: int, y: int) -> LaurentPoly:
        """p_{x,y}; zero unless x <= y, with p_{x,x} = 1.

        x is first lifted to the top x* of W_I x W_J, with I and J the left
        and right descents of y: for a descent s of y with xs > x,
        p_{x,y} = v p_{xs,y}, and x <= y iff xs <= y (the same on the
        left).  So p_{x,y} = v^k p_{x*,y} with k = l(x*) - l(x), which is
        v^k when x* = y and 0 unless x* <= y; only otherwise is the row of
        y read, or built.
        """
        sy = self.system
        lengths = sy.lengths
        ly = lengths[y]
        moves = [t for t in (*sy.right, *sy.left) if lengths[t[y]] < ly]
        top, k, lifted = x, 0, True
        while lifted:
            lifted = False
            for t in moves:
                up = t[top]
                if lengths[up] > lengths[top]:
                    top, k, lifted = up, k + 1, True
        shift = self._values.bits * k
        if top == y:
            return self._values.poly(1 << shift)
        if not sy.bruhat_leq(top, y):
            return self._values.poly(0)
        return self._values.poly(self._row(y)[top] << shift)

    def nontrivial_from(self, x: int) -> list[tuple[int, LaurentPoly]]:
        """All y >= x whose p_{x,y} is not the single monomial v^(l(y)-l(x))."""
        return [(y, self.kl_poly(x, y)) for y in range(self.system.order)
                if not self.is_trivial(x, y)]

    def is_trivial(self, x: int, y: int) -> bool:
        """True when p_{x,y} is zero or the expected top monomial alone."""
        p = self._row(y).get(x, 0)
        lengths = self.system.lengths
        return not p or p == 1 << (self._values.bits * (lengths[y] - lengths[x]))

    def fill_all(self):
        """Precompute the whole triangular table (small groups only), by length."""
        for y in range(self.system.order):
            self._row(y)


def kl_element(table: KLTable, w: int) -> HeckeElement:
    """The canonical basis element b_w as a HeckeElement."""
    return HeckeElement(table.system, table.kl_basis_element(w))
