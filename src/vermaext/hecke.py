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
from .poly import ONE, LaurentPoly, PackedPolys


class HeckeElement:
    """A finite Z[v,v^-1]-combination of standard basis elements h_w."""

    __slots__ = ("system", "coeffs")

    def __init__(self, system: CoxeterSystem, coeffs=None):
        self.system = system
        self.coeffs = {}
        if coeffs:
            for w, p in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if p:
                    self.coeffs[w] = p

    @classmethod
    def standard(cls, system: CoxeterSystem, w: int) -> "HeckeElement":
        return cls(system, {w: ONE})

    def __add__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        if other.system is not self.system:
            raise ValueError("elements live in different Hecke algebras")
        coeffs = dict(self.coeffs)
        for w, p in other.coeffs.items():
            q = coeffs.get(w)
            q = p if q is None else q + p
            if q:
                coeffs[w] = q
            elif w in coeffs:
                del coeffs[w]
        return HeckeElement(self.system, coeffs)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElement":
        """Multiply by an integer or Laurent polynomial scalar."""
        if isinstance(c, int):
            c = LaurentPoly({0: c})
        return HeckeElement(self.system, {w: p * c for w, p in self.coeffs.items()})

    def coeff(self, w: int) -> LaurentPoly:
        return self.coeffs.get(w, LaurentPoly())

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.system is other.system and self.coeffs == other.coeffs

    def __repr__(self):
        sy = self.system
        bits = ["(%s)*h[%s]" % (p, sy.word_name(w)) for w, p in sorted(self.coeffs.items())]
        return "HeckeElement(" + (" + ".join(bits) if bits else "0") + ")"


def mult_by_gen(h: HeckeElement, s: int, side: str = "right") -> HeckeElement:
    """Product of h with the standard generator h_s on the given side.

    h_w h_s = h_{ws} when ws > w, and h_{ws} + (v^-1 - v) h_w when ws < w;
    same shape on the left with sw.
    """
    sy = h.system
    table = sy.right[s] if side == "right" else sy.left[s]
    vinv_minus_v = LaurentPoly({-1: 1, 1: -1})
    out = {}

    def bump(w, p):
        q = out.get(w)
        q = p if q is None else q + p
        if q:
            out[w] = q
        elif w in out:
            del out[w]

    for w, p in h.coeffs.items():
        ws = table[w]
        bump(ws, p)
        if sy.lengths[ws] < sy.lengths[w]:
            bump(w, p * vinv_minus_v)
    return HeckeElement(sy, out)


class KLTable:
    """Memoized Kazhdan-Lusztig data for one Coxeter system.

    kl_basis_element(y) returns the canonical basis element b_y as a dict
    {x: p_{x,y}}; entries are computed by the standard induction on length
    (multiply b_{ys} by b_s, subtract mu-corrections) using the
    lowest-numbered right descent, so results are deterministic.  An entry
    never changes once computed.

    Rows are {x: int} with p_{x,y} a PackedPolys int in v with B = l(w0) + 1
    bits per coefficient, so multiplying by v or v^-1 is << B or >> B; the
    >> B is exact because p_{x,u} lies in vZ[v] for x < u.  Values stay
    nonnegative (KL positivity; a partial mu-subtraction is at least the
    final value), and max_x p_{x,y}(1) at most doubles per step, so every
    coefficient is at most 2^l(w0) < 2^B.  HeckeElement and mult_by_gen stay
    on LaurentPoly on purpose, as the independent route to b_y.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._values = PackedPolys(system.lengths[system.w0] + 1,
                                   lambda digits: LaurentPoly(enumerate(digits)))
        self._basis: dict[int, dict[int, int]] = {0: {0: 1}}
        # extbounds.trivial_kl_certificate's answer per y, filled on request.
        self.trivial_certificates: dict[int, bool] = {}

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

        # b_u * b_s  =  b_u * h_s + v * b_u
        prod = {}
        for x, p in bu.items():
            xs = right[x]
            q = prod.get(xs)
            prod[xs] = p if q is None else q + p
            if lengths[xs] > lengths[x]:
                extra = p << bits
            else:
                assert not p & mask, "p_{x,u} for x < u lies in vZ[v]"
                extra = p >> bits
            q = prod.get(x)
            prod[x] = extra if q is None else q + extra

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

        self._basis[y] = prod
        return prod

    def kl_basis_element(self, y: int) -> dict[int, LaurentPoly]:
        poly = self._values.poly
        return {x: poly(p) for x, p in self._row(y).items()}

    def kl_poly(self, x: int, y: int) -> LaurentPoly:
        """p_{x,y}; zero unless x <= y, with p_{x,x} = 1."""
        return self._values.poly(self._row(y).get(x, 0))

    def mu(self, x: int, y: int) -> int:
        """Coefficient of v in p_{x,y}, the correction term of the induction."""
        return (self._row(y).get(x, 0) >> self._values.bits) & self._values.mask

    def nontrivial_from(self, x: int) -> list[tuple[int, LaurentPoly]]:
        """All y >= x whose p_{x,y} is not the single monomial v^(l(y)-l(x))."""
        ys = sorted(range(self.system.order), key=lambda y: (self.system.lengths[y], y))
        return [(y, self.kl_poly(x, y)) for y in ys if not self.is_trivial(x, y)]

    def is_trivial(self, x: int, y: int) -> bool:
        """True when p_{x,y} is zero or the expected top monomial alone."""
        p = self._row(y).get(x, 0)
        lengths = self.system.lengths
        return not p or p == 1 << (self._values.bits * (lengths[y] - lengths[x]))

    def fill_all(self):
        """Precompute the whole triangular table (small groups only)."""
        for y in sorted(range(self.system.order), key=lambda w: self.system.lengths[w]):
            self._row(y)

    def standard_in_kl_basis(self, w: int) -> dict[int, LaurentPoly]:
        """Expand h_w as a combination of canonical basis elements.

        Triangular back-substitution; composing with kl_basis_element is the
        identity, which pins the inversion convention used by the R-oracle.
        """
        sy = self.system
        rem = {w: ONE}
        out = {}
        for y in sorted(range(sy.order), key=lambda z: (-sy.lengths[z], z)):
            c = rem.get(y)
            if not c:
                continue
            out[y] = c
            for x, p in self.kl_basis_element(y).items():
                q = rem.get(x, LaurentPoly()) - p * c
                if q:
                    rem[x] = q
                elif x in rem:
                    del rem[x]
        if rem:
            raise AssertionError("triangular solve left a nonzero remainder")
        return out


def kl_element(table: KLTable, w: int) -> HeckeElement:
    """The canonical basis element b_w as a HeckeElement."""
    return HeckeElement(table.system, table.kl_basis_element(w))
