"""Bounds and classifications for graded extensions between Verma modules.

Nothing here computes a true ext dimension at an interior point (that is an
open problem); the module computes what is forced by the combinatorics:

* the triangle of bidegrees where extensions between a fixed pair can live,
* hom-dimension grids into linear tilting coresolutions (upper bounds),
* a refinement subtracting the contribution that can never survive the
  differential,
* the expected dimensions read off the R-coefficients along the solid edge,
* certificates that a pair is completely determined by those coefficients.

Coordinates: a cell (a, b) holds data about ext^a(source<b>, target), and the
expected edge is b = 2a - d with d the length gap.  A coefficient r^(k) of
the pair aggregates, with sign (-1)^a, the extensions at internal shift -k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coxeter import CoxeterSystem
from .hecke import KLTable
from .intervals import EquivPartition, equiv_classes, pairs_of_keys
from .poly import BiPoly
from .rpoly import RTable


@dataclass(frozen=True)
class TrianglePoint:
    a: int
    b: int
    expected: bool
    south: bool
    east: bool


@dataclass(frozen=True)
class TriangleRegion:
    """Potentially-nonzero bidegrees for extensions of a pair with x >= y.

    Contains the lattice points (a, b) with 0 <= a <= d, 2a-d <= b <= a and
    b = d mod 2, minus the two dashed edges (b = a with a < d, and a = 0
    with b > -d).  The solid edge b = 2a-d is the expected edge; its two
    endpoints are the south vertex (0, -d) and the east vertex (d, d).
    """

    d: int
    points: tuple[TrianglePoint, ...]


def triangle_region(system: CoxeterSystem, x: int, y: int) -> TriangleRegion:
    d = system.pair_gap(x, y, "triangle_region")
    pts = []
    for a in range(d + 1):
        for b in range(2 * a - d, a + 1):
            if (b - d) % 2:
                continue
            south = (a, b) == (0, -d)
            east = (a, b) == (d, d)
            if b == a and a < d and not south:
                continue  # dashed diagonal edge
            if a == 0 and b > -d:
                continue  # dashed vertical edge
            pts.append(TrianglePoint(a, b, expected=(b == 2 * a - d), south=south, east=east))
    return TriangleRegion(d, tuple(pts))


@dataclass
class ExtGrid:
    """A bigraded grid of nonnegative integers attached to a (target, source) pair."""

    target: int
    source: int
    cells: dict[tuple[int, int], int] = field(default_factory=dict)
    untrusted: bool = False

    def value(self, a: int, b: int) -> int:
        return self.cells.get((a, b), 0)

    def nonzero(self) -> list[tuple[int, int, int]]:
        return sorted((a, b, v) for (a, b), v in self.cells.items() if v)


def kl_bound_poly(kl: KLTable, x_target: int, y_source: int) -> BiPoly:
    """Generating function of hom dimensions from the source Verma into the
    linear tilting coresolution of the target:

        sum over z in [x, y] of p_{y w0, z w0}(u) * p_{x, z}(v);

    the Bruhat interval holds exactly the nonzero summands (p_{x,z} != 0 iff
    x <= z, p_{y w0, z w0} != 0 iff z <= y), so only its KL rows are built.
    Coefficientwise it bounds every graded ext between the pair.
    """
    sy = kl.system
    w0 = sy.w0
    yw0 = sy.mult(y_source, w0)
    terms = []
    for z in sy.bruhat_interval(x_target, y_source):
        pu, pv = kl.kl_poly(yw0, sy.mult(z, w0)), kl.kl_poly(x_target, z)
        terms += [((a, b), ca * cb) for a, ca in pu.items() for b, cb in pv.items()]
    return BiPoly(terms)


def hom_grid(kl: KLTable, target: int, source: int) -> ExtGrid:
    """Hom dimensions from the source Verma into each term of the linear
    tilting coresolution of the target Verma, read off the bound polynomial:

        cell (a, a - k) = coefficient of u^k v^a in kl_bound_poly(kl, target, source)
                        = sum over z of p^(a)_{target, z} * p^(k)_{source w0, z w0}.

    The placement reproduces the reference socle grid exactly: expected-edge
    cells sit at b = 2a - d and every extension of the pair at bidegree
    (a, b) is bounded by cell (a, b).
    """
    bound = kl_bound_poly(kl, target, source)
    cells = {(a, a - k): c for (k, a), c in bound.items()}
    return ExtGrid(target, source, cells)


def refined_bound(kl: KLTable, x: int, y: int, a: int, b: int) -> int:
    """Sharper bound off the expected edge: the hom-grid value minus the
    largest single contribution from a summand indexed by some w >= y with
    l(w) = l(y) + a, since a hom landing there cannot survive the
    differential; w runs over [y, x], as p_{x w0, w w0} = 0 unless w <= x.
    Expected-edge cells are out of scope (guard below); the
    subtracted maximum over an empty witness set is zero.  Clamped at 0.

    One pass over [y, x] reads only the cell: its hom-grid value is the sum
    over z of [u^(a-b)] p_{x w0, z w0} * [v^a] p_{y,z}, as in hom_grid, and
    each z of length l(y) + a is a witness.
    """
    sy = kl.system
    d = sy.pair_gap(x, y, "refined_bound")
    if 2 * a - b == d:
        raise ValueError("refined_bound only applies off the expected edge")
    w0 = sy.w0
    xw0 = sy.mult(x, w0)
    total = best = 0
    lw = sy.lengths[y] + a
    for z in sy.bruhat_interval(y, x):
        c = kl.kl_poly(xw0, sy.mult(z, w0)).coeff(a - b)
        if c:
            total += c * kl.kl_poly(y, z).coeff(a)
            if sy.lengths[z] == lw:
                best = max(best, c)
    return max(total - best, 0)


def expected_dims(rt: RTable, x: int, y: int) -> ExtGrid:
    """Dimensions along the expected edge read off the R-coefficients:
    value (-1)^a r^(d-2a) at the point (a, 2a-d).

    When the pair passes the sign compatibility screen these are exactly the
    alternating-sum-forced dimensions; otherwise the grid is marked
    untrusted (some honest dimension off the edge is hidden in the sums).
    """
    sy = rt.system
    d = sy.pair_gap(x, y, "expected_dims")
    p = rt.r_poly(x, y)
    violations = rt.sign_compatibility(x, y)
    cells = {}
    for a in range(d + 1):
        val = p.coeff(d - 2 * a)
        if a % 2:
            val = -val
        if val:
            cells[(a, 2 * a - d)] = val
    grid = ExtGrid(y, x, cells, untrusted=bool(violations))
    if not violations:
        assert all(v >= 0 for v in cells.values())
    return grid


def expected_bipoly(rt: RTable, x: int, y: int) -> BiPoly:
    """Expected dimensions packed as the sum of dims * u^(d-a) v^a; zero
    unless x >= y, like r_{x,y}.  A cell (a, b) lies on b = 2a - d, so
    d - a = a - b."""
    if not rt.system.bruhat_leq(y, x):
        return BiPoly()
    grid = expected_dims(rt, x, y)
    return BiPoly({(a - b, a): v for (a, b), v in grid.cells.items()})


# -- certificates -------------------------------------------------------------

RANK2 = "Rank2"
SMALL_LENGTH_GAP = "SmallLengthGap"
TRIVIAL_KL = "TrivialKL"
BOOLEAN = "Boolean"
TYPE_A3_THEOREM = "TypeA3Theorem"


@dataclass(frozen=True)
class Certificate:
    """The clause of r_determined that certifies a pair: ``kind``, the only field."""

    kind: str


def trivial_kl_certificate(partition: EquivPartition, y: int) -> bool:
    """All p_{y,w} and p_{e,w w0} trivial for w >= y: every tilting summand in
    sight has the expected position and a simple socle, so nothing off the
    edge can occur for any x >= y.  The answer depends on y alone; it is
    partition.trivial_kl[y], read off the Bruhat graph, not off KL values."""
    return bool(partition.trivial_kl[y])


def r_determined(
    system: CoxeterSystem,
    x: int,
    y: int,
    *,
    partition: EquivPartition,
) -> Certificate | None:
    """Certificate that every graded extension of the pair is the
    expected-edge dimension given by the R-coefficients; None when no clause
    applies.  Every clause is tried on every call and reads only the group
    and ``partition`` (the descent equivalence partition), which is required.
    The clauses that hold for a whole descent class come first: rank at most
    2; length gap at most 3; a boolean or coboolean member in the pair's
    class; the proven type A3 statement.  Trivial KL data above y comes last.
    """
    d = system.pair_gap(x, y, "r_determined")
    if system.rank <= 2:
        return Certificate(RANK2)
    if d <= 3:
        return Certificate(SMALL_LENGTH_GAP)
    if partition.boolean_member(x, y):
        return Certificate(BOOLEAN)
    if system.type_label == "A3":
        return Certificate(TYPE_A3_THEOREM)
    if trivial_kl_certificate(partition, y):
        return Certificate(TRIVIAL_KL)
    return None


@dataclass(eq=False)
class AllExpectedReport:
    """The outcome of all_expected_predicate on one group.

    system: the group screened.
    sign_violations: (x, y, exponents) for every comparable pair x >= y that
        fails the sign rule, in pair order; exponents are those of
        RTable.sign_compatibility, a new list for each pair.
    uncertified_keys: the comparable pairs with no certificate, as a sorted
        int64 array of pair keys x * order + y, so in pair order: by x, then
        by y, each in index order.
    pairs: the number of comparable pairs screened.

    The property uncertified is the tuple view: the same pairs as (x, y)
    tuples in the same order, spelled anew on each read.  Renderers read the
    keys, so a whole-group scan makes no tuple per pair.  The report holds an
    array, so reports compare by identity.
    """

    system: CoxeterSystem
    sign_violations: list[tuple[int, int, list[int]]]
    uncertified_keys: np.ndarray
    pairs: int

    @property
    def uncertified(self) -> list[tuple[int, int]]:
        return pairs_of_keys(self.uncertified_keys, self.system.order)

    @property
    def verdict(self) -> bool:
        return not self.sign_violations and not len(self.uncertified_keys)

    @property
    def signs_consistent(self) -> bool:
        return not self.sign_violations

    def summary(self) -> str:
        sy = self.system
        lines = []
        if self.verdict:
            lines.append("%s: every pair certified; all extensions expected." % sy.type_label)
        elif self.sign_violations:
            lines.append(
                "%s: %d pair(s) violate sign compatibility (additional extensions exist)."
                % (sy.type_label, len(self.sign_violations))
            )
            for x, y, ks in self.sign_violations[:10]:
                lines.append(
                    "  (%s, %s) at exponents %s" % (sy.word_name(x), sy.word_name(y), ks)
                )
        else:
            lines.append(
                "%s: signs consistent with all-expected, but %d pair(s) lack a certificate."
                % (sy.type_label, len(self.uncertified_keys))
            )
        return "\n".join(lines)


def all_expected_predicate(system: CoxeterSystem) -> AllExpectedReport:
    """Screen the whole group: verdict True means every comparable pair both
    passes the sign rule and carries a determination certificate, i.e. all
    graded extensions between Vermas are the expected ones.  A True verdict
    is a proof only where a certificate clause is itself a proof (it is, for
    every clause used here); sign consistency alone is only necessary.

    The scan builds its own R table and descent partition, and no KL table,
    so every caller runs the same computation.  Work is done once per
    descent class: a move shortening both coordinates on one side keeps
    r_{x,y} (Bjorner-Brenti, Combinatorics of Coxeter Groups, Ch. 5) and the
    length gap, so the sign rule and r_determined are read off least pairs
    and gathered to pairs by class id.  A class counts as certified when its
    least pair's certificate is a class-level one; trivial KL depends on y
    alone, so the pairs of the other classes are filtered by one gather of
    the partition's trivial_kl.  The uncertified pairs are cut from the
    partition's sorted pair keys and stay keys.
    """
    rt = RTable(system)
    part = equiv_classes(system)
    least = part.pairs_at(part.least)
    signs = [rt.sign_compatibility(x, y) for x, y in least]
    certs = [r_determined(system, x, y, partition=part) for x, y in least]
    certified = np.array([cert is not None and cert.kind != TRIVIAL_KL for cert in certs])
    bad = np.flatnonzero(np.array([bool(s) for s in signs])[part.cids])
    violations = [(x, y, list(signs[cid]))
                  for (x, y), cid in zip(part.pairs_at(bad), part.cids[bad].tolist())]
    bare = part.keys[~certified[part.cids]]
    bare = bare[~part.trivial_kl[bare % system.order]]
    return AllExpectedReport(system, violations, bare, len(part.keys))
