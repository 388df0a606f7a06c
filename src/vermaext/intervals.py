"""Bruhat-pair equivalence classes and interval comparisons.

Two comparable pairs are linked when one simple reflection shortens both
coordinates on the same side.  Such a move keeps r_{x,y} (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Ch. 5; class_r_constancy checks it) and
l(x) - l(y), so the sign rule, the small-gap clause and boolean membership
in the class are class invariants.  Equivalent pairs need not have
isomorphic Bruhat intervals, which poset_isomorphic decides by brute force.
"""

from __future__ import annotations

import functools
from bisect import bisect_left

from .coxeter import CoxeterSystem
from .rpoly import RTable


class EquivPartition:
    """Union-find closure of the simultaneous-descent moves on pairs x >= y.

    One flat union-find over the indices of comparable_pairs(), found by the
    int key x * order + y, halving paths inline.  The smaller root wins each
    union, so a root is its class's least pair: class ids follow least pairs
    and members are in pair order.  cids[i] is the class id of pairs[i].
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self.pairs = pairs = system.comparable_pairs()
        order, lengths = system.order, system.lengths
        index = {x * order + y: i for i, (x, y) in enumerate(pairs)}
        parent = list(range(len(pairs)))
        # Right then left tables as one list of moves; bit m of descents[w]
        # is set iff move m shortens w, and common[mask] lists mask's moves.
        moves = system.right + system.left
        descents = [sum(1 << m for m, move in enumerate(moves) if lengths[move[w]] < lengths[w])
                    for w in range(order)]
        common = [[move for m, move in enumerate(moves) if mask >> m & 1]
                  for mask in range(1 << len(moves))]
        for i, (x, y) in enumerate(pairs):
            for move in common[descents[x] & descents[y]]:
                a, b = i, index[move[x] * order + move[y]]
                while parent[a] != a:
                    parent[a] = a = parent[parent[a]]
                while parent[b] != b:
                    parent[b] = b = parent[parent[b]]
                if a < b:
                    a, b = b, a
                parent[a] = b

        # parent[i] <= i throughout, so in index order parent[parent[i]] is
        # already the root of i, and each root opens the next class.
        cids: list[int] = []
        self.classes: list[list[tuple[int, int]]] = []
        for i, p in enumerate(pairs):
            r = parent[i] = parent[parent[i]]
            if r == i:
                self.classes.append([])
            cids.append(len(self.classes) - 1 if r == i else cids[r])
            self.classes[cids[i]].append(p)
        self.cids = cids
        # boolean_member's answer per class id, filled on first request.
        self._boolean_hit: dict[int, tuple[str, int, int] | None] = {}

    def _cid(self, x: int, y: int) -> int:
        """Class id of the pair, found by bisection; KeyError unless x >= y."""
        i = bisect_left(self.pairs, (x, y))
        if self.pairs[i:i + 1] != [(x, y)]:
            raise KeyError((x, y))
        return self.cids[i]

    def class_of(self, x: int, y: int) -> list[tuple[int, int]]:
        return self.classes[self._cid(x, y)]

    def same_class(self, pair1, pair2) -> bool:
        return self._cid(*pair1) == self._cid(*pair2)

    def class_sizes(self) -> list[int]:
        return sorted(len(c) for c in self.classes)

    def boolean_member(self, x: int, y: int):
        """Search the class of (x, y) for a coordinate that settles the pair.

        Returns ("x-boolean", x', y') when some member has boolean x', or
        ("w0y-boolean", x', y') when some member has boolean w0*y'; None if
        neither occurs anywhere in the class.  The answer is a class
        invariant, so each class is searched once and the first witness in
        member order is kept.
        """
        cid = self._cid(x, y)
        if cid not in self._boolean_hit:
            self._boolean_hit[cid] = self._first_boolean(self.classes[cid])
        return self._boolean_hit[cid]

    @functools.cached_property
    def _boolean_flags(self) -> tuple[list[bool], list[bool]]:
        """Per element w: whether w is boolean, and whether w0*w is."""
        sy = self.system
        return ([sy.is_boolean(w) for w in range(sy.order)],
                [sy.is_boolean(sy.mult(sy.w0, w)) for w in range(sy.order)])

    def _first_boolean(self, members):
        boolean, coboolean = self._boolean_flags
        hit = next((("x-boolean", wx, wy) for wx, wy in members if boolean[wx]), None)
        return hit or next((("w0y-boolean", wx, wy) for wx, wy in members if coboolean[wy]), None)


def equiv_classes(system: CoxeterSystem) -> EquivPartition:
    return EquivPartition(system)


def class_r_constancy(partition: EquivPartition, rt: RTable):
    """Check that the R-polynomial is constant across every class.

    Returns (ok, violations); violations lists (pair, pair, poly, poly).
    """
    violations = []
    for members in partition.classes:
        x0, y0 = members[0]
        ref = rt.r_poly(x0, y0)
        for (x, y) in members[1:]:
            p = rt.r_poly(x, y)
            if p != ref:
                violations.append(((x0, y0), (x, y), ref, p))
    return not violations, violations


# -- graded poset isomorphism ---------------------------------------------------

POSET_SIZE_CAP = 64


class IntervalTooLargeError(ValueError):
    pass


def _interval_poset(system: CoxeterSystem, y: int, x: int):
    """Elements, rank function and cover lists of the Bruhat interval [y, x]."""
    elems = system.bruhat_interval(y, x)
    if len(elems) > POSET_SIZE_CAP:
        raise IntervalTooLargeError(
            "interval [%s, %s] has %d elements, cap is %d"
            % (system.word_name(y), system.word_name(x), len(elems), POSET_SIZE_CAP)
        )
    pos = {z: i for i, z in enumerate(elems)}
    base = system.lengths[y]
    ranks = [system.lengths[z] - base for z in elems]
    n = len(elems)
    up = [[] for _ in range(n)]
    down = [[] for _ in range(n)]
    for i, zi in enumerate(elems):
        for j, zj in enumerate(elems):
            if ranks[j] == ranks[i] + 1 and system.bruhat_leq(zi, zj):
                up[i].append(j)
                down[j].append(i)
    return ranks, up, down


def poset_isomorphic(
    system1: CoxeterSystem, interval1: tuple[int, int],
    system2: CoxeterSystem, interval2: tuple[int, int],
) -> bool:
    """Graded-poset isomorphism of two Bruhat intervals, by backtracking.

    Intervals are given as (y, x) with y <= x.  Degree profiles per rank act
    as a cheap filter before the level-by-level search.
    """
    y1, x1 = interval1
    y2, x2 = interval2
    r1, up1, down1 = _interval_poset(system1, y1, x1)
    r2, up2, down2 = _interval_poset(system2, y2, x2)
    if len(r1) != len(r2) or max(r1, default=0) != max(r2, default=0):
        return False

    height = max(r1, default=0)
    lev1 = [[i for i, r in enumerate(r1) if r == k] for k in range(height + 1)]
    lev2 = [[i for i, r in enumerate(r2) if r == k] for k in range(height + 1)]
    if any(len(a) != len(b) for a, b in zip(lev1, lev2)):
        return False

    def profile(i, up, down):
        return (len(up[i]), len(down[i]))

    for k in range(height + 1):
        p1 = sorted(profile(i, up1, down1) for i in lev1[k])
        p2 = sorted(profile(i, up2, down2) for i in lev2[k])
        if p1 != p2:
            return False

    mapping = {}

    def extend(level: int) -> bool:
        if level > height:
            return True
        a_side = lev1[level]
        b_side = lev2[level]

        def assign(idx: int) -> bool:
            if idx == len(a_side):
                return extend(level + 1)
            i = a_side[idx]
            want_down = sorted(mapping[d] for d in down1[i])
            for j in b_side:
                if j in mapping.values():
                    continue
                if profile(i, up1, down1) != profile(j, up2, down2):
                    continue
                if sorted(down2[j]) != want_down:
                    continue
                mapping[i] = j
                if assign(idx + 1):
                    return True
                del mapping[i]
            return False

        return assign(0)

    return extend(0)
