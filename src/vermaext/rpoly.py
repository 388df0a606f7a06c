"""R-polynomials in the w0-shifted indexing, with parabolic and singular kin.

r_{x,y} is the (x,y) entry of the change of basis from graded Verma classes
to graded dual Verma classes, so r_{x,y} = 0 unless x >= y, r_{x,x} = 1, and
r_{x,w0} is the Kronecker delta.  The family is computed by a two-term
recursion that walks the second index up towards w0.

Sign conventions are pinned so that the full rank-2 reference tables are
reproduced cell for cell; see RTable.r_poly for the exact recursion step.
The same convention makes r^(k) the alternating sum over homological degrees
of graded ext dimensions at internal shift -k, which is what the sign
compatibility detector and the expected-dimension reconstruction assume.
"""

from __future__ import annotations

import functools
import random

from .coxeter import CoxeterSystem, ParabolicSubset
from .hecke import KLTable
from .poly import ONE, LaurentPoly, PackedPolys

_ZERO = LaurentPoly()
_T = LaurentPoly({1: 1, -1: -1})  # t = v - v^-1


@functools.cache
def _t_power(k: int) -> LaurentPoly:
    return ONE if k == 0 else _t_power(k - 1) * _T


def _from_t(digits: list[int]) -> LaurentPoly:
    """R~(v - v^-1) from the coefficients of R~, lowest first."""
    return sum((c * _t_power(k) for k, c in enumerate(digits) if c), _ZERO)


class RTable:
    """Memoized ordinary R-polynomials for one Coxeter system.

    The memo holds R~_{x,y}, with r_{x,y}(v) = R~_{x,y}(v - v^-1), as a
    PackedPolys int in t = v - v^-1 with B = l(w0) + 1 bits per coefficient.
    In t the recursion of r_poly only adds nonnegative values:
    R~_{x,y} = R~_{xs,ys} + t R~_{x,ys}.  It is l(w0) - l(y) steps deep and
    each step at most doubles R~(1), so every coefficient is at most
    2^l(w0) < 2^B.  The memo is keyed by the int x * order + y and holds only
    pairs y < x, since _rt stores a value only after its x == y and
    bruhat_leq(y, x) tests; so a lookup reads the memo first, then tests
    x == y, and only then bruhat_leq(y, x).  r_poly_random_ascents,
    r_oracle_table and ParabolicRTable stay on LaurentPoly on purpose, as
    independent routes.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._memo: dict[int, int] = {}
        self._values = PackedPolys(system.lengths[system.w0] + 1, _from_t)
        self._signs: dict[tuple[int, int], tuple[int, ...]] = {}

    def r_poly(self, x: int, y: int) -> LaurentPoly:
        """r_{x,y}.  Zero unless x >= y.

        For y != w0, with s the lowest-numbered generator such that ys > y:

            r_{x,y} = r_{xs,ys}                       if xs > x,
            r_{x,y} = r_{xs,ys} + (v - v^-1) r_{x,ys} if xs < x.
        """
        return self._values.poly(self._rt(x, y))

    def _rt(self, x: int, y: int) -> int:
        """R~_{x,y} packed; the recursion of r_poly read in t = v - v^-1."""
        sy = self.system
        key = x * sy.order + y
        val = self._memo.get(key)
        if val is not None:
            return val
        if x == y:
            return 1
        if not sy.bruhat_leq(y, x):
            return 0
        s = sy.first_ascent[y]  # y < x <= w0, so y has an ascent
        xs, ys = sy.right[s][x], sy.right[s][y]
        val = self._rt(xs, ys)
        if sy.lengths[xs] < sy.lengths[x]:
            val += self._rt(x, ys) << self._values.bits
        self._memo[key] = val
        return val

    def r_poly_random_ascents(self, x: int, y: int, rng: random.Random) -> LaurentPoly:
        """Recompute r_{x,y} choosing a random ascent at every recursion node.

        Uses a private memo so the shared table is untouched; the result
        must not depend on the choices.
        """
        sy = self.system
        memo: dict[tuple[int, int], LaurentPoly] = {}

        def rec(a: int, b: int) -> LaurentPoly:
            if not sy.bruhat_leq(b, a):
                return _ZERO
            if a == b:
                return ONE
            hit = memo.get((a, b))
            if hit is not None:
                return hit
            lb = sy.lengths[b]
            ascents = [s for s in range(sy.rank) if sy.lengths[sy.right[s][b]] > lb]
            s = rng.choice(ascents)
            asx = sy.right[s][a]
            bs = sy.right[s][b]
            val = rec(asx, bs)
            if sy.lengths[asx] < sy.lengths[a]:
                val = val + rec(a, bs) * _T
            memo[(a, b)] = val
            return val

        return rec(x, y)

    def r_coeff_list(self, x: int, y: int) -> list[int]:
        """Dense coefficients of r_{x,y} over exponents -d..d in steps of 2."""
        sy = self.system
        if not sy.bruhat_leq(y, x):
            raise ValueError("r_coeff_list needs x >= y")
        d = sy.lengths[x] - sy.lengths[y]
        p = self.r_poly(x, y)
        return [p.coeff(k) for k in range(-d, d + 1, 2)]

    def delorme_check(self, x: int, y: int) -> bool:
        """Specialization at v=1 must be the Kronecker delta."""
        return self.r_poly(x, y).eval_at_one() == (1 if x == y else 0)

    def sign_compatibility(self, x: int, y: int) -> list[int]:
        """Exponents where the coefficient sign breaks the alternating rule.

        With d = l(x) - l(y), a nonzero coefficient at exponent k must have
        sign (-1)^((d-k)/2) for all extensions of the pair to sit on the
        expected edge.  An empty list is consistency; a nonempty list is a
        certificate that the pair has an additional extension.  Answers are
        kept per (R~_{x,y}, d); each call returns a new list.
        """
        sy = self.system
        if not sy.bruhat_leq(y, x):
            raise ValueError("sign_compatibility needs x >= y")
        d = sy.lengths[x] - sy.lengths[y]
        n = self._rt(x, y)
        bad = self._signs.get((n, d))
        if bad is None:
            bad = self._signs[n, d] = tuple(
                k for k, c in self._values.poly(n).items()
                if (c > 0) != (((d - k) // 2) % 2 == 0))
        return list(bad)


def r_oracle_table(kl: KLTable) -> dict[tuple[int, int], LaurentPoly]:
    """All R-polynomials by an independent linear-algebra route.

    Expand each graded Verma class in the simple basis (the canonical basis
    coefficients), apply the bar involution coefficientwise to model the
    simple-preserving duality, and solve the triangular system expressing
    Verma classes in dual Verma classes.  No R-recursion is used, so this is
    a genuine second route for equality testing.
    """
    sy = kl.system
    n = sy.order

    # delta[y][x] = p_{y,x}: multiplicity polynomial of the simple indexed by
    # x inside the Verma indexed by y.  nabla is its bar twist.
    delta = [{x: kl.kl_poly(y, x) for x in range(n) if kl.kl_poly(y, x)} for y in range(n)]
    nabla = [{x: p.bar() for x, p in row.items()} for row in delta]

    by_length = sorted(range(n), key=lambda w: (sy.lengths[w], w))
    table: dict[tuple[int, int], LaurentPoly] = {}
    for y in range(n):
        target = dict(delta[y])
        sol: dict[int, LaurentPoly] = {}
        for x in by_length:
            c = target.get(x, _ZERO) - sum(
                (nabla[z].get(x, _ZERO) * sol[z] for z in sol), _ZERO
            )
            if c:
                sol[x] = c
        for x, c in sol.items():
            table[(x, y)] = c
    return table


class ParabolicRTable:
    """Singular or parabolic R-polynomials attached to a parabolic subset.

    kind="singular": indexed by minimal representatives of W/W_J, computed
    from the ordinary table by summing the first index over its coset,

        sr_{x,y} = sum over w in W_J of r_{xw,y} v^(l(w) - 2 l(w0_J)).

    kind="parabolic": indexed by minimal representatives of W_J\\W, computed
    by its own recursion from the delta base at the top representative
    w0_J w0; when xs leaves the representative set the step contributes
    -v^-1 times the parent value.
    """

    def __init__(self, rtable: RTable, parabolic: ParabolicSubset, kind: str):
        if kind not in ("singular", "parabolic"):
            raise ValueError("kind must be 'singular' or 'parabolic'")
        self.rtable = rtable
        self.system = rtable.system
        self.parabolic = parabolic
        self.kind = kind
        sy = self.system
        if kind == "singular":
            self.reps = parabolic.coset_reps_right
        else:
            self.reps = parabolic.coset_reps_left
        self._rep_set = frozenset(self.reps)
        self.top = max(self.reps, key=lambda w: sy.lengths[w])
        self._memo: dict[tuple[int, int], LaurentPoly] = {}

    def _require_rep(self, w: int):
        if w not in self._rep_set:
            raise ValueError(
                "%s is not a minimal %s coset representative"
                % (self.system.word_name(w), self.kind)
            )

    def poly(self, x: int, y: int) -> LaurentPoly:
        self._require_rep(x)
        self._require_rep(y)
        key = (x, y)
        hit = self._memo.get(key)
        if hit is None:
            hit = self._sr(x, y) if self.kind == "singular" else self._pr(x, y)
            self._memo[key] = hit
        return hit

    def _sr(self, x: int, y: int) -> LaurentPoly:
        sy = self.system
        shift = -2 * sy.lengths[self.parabolic.longest]
        acc = _ZERO
        for w in self.parabolic.subgroup:
            r = self.rtable.r_poly(sy.mult(x, w), y)
            if r:
                acc = acc + r.shift(sy.lengths[w] + shift)
        return acc

    def _pr(self, x: int, y: int) -> LaurentPoly:
        sy = self.system
        if y == self.top:
            return ONE if x == self.top else _ZERO
        # lowest generator with ys > y staying inside the representative set
        s = None
        ly = sy.lengths[y]
        for j in range(sy.rank):
            yj = sy.right[j][y]
            if sy.lengths[yj] > ly and yj in self._rep_set:
                s = j
                break
        if s is None:
            raise AssertionError(
                "no representative-preserving ascent at %s" % sy.word_name(y)
            )
        ys = sy.right[s][y]
        xs = sy.right[s][x]
        if xs not in self._rep_set:
            parent = self.poly(x, ys)
            return LaurentPoly({-1: -1}) * parent
        val = self.poly(xs, ys)
        if sy.lengths[xs] < sy.lengths[x]:
            val = val + self.poly(x, ys) * _T
        return val
