"""Bruhat-pair equivalence classes and interval comparisons.

Two comparable pairs are linked when one simple reflection shortens both
coordinates on the same side.  Such a move keeps r_{x,y} (Bjorner-Brenti,
Combinatorics of Coxeter Groups, Ch. 5; class_r_constancy checks it) and
l(x) - l(y), so the sign rule, the small-gap clause and boolean membership
in the class are class invariants.  The classes are the connected
components of these moves, found on int arrays of pair keys.  Equivalent
pairs need not have isomorphic Bruhat intervals, which poset_isomorphic
decides by matching elements rank by rank, each to one with the same lower
covers.
"""

from __future__ import annotations

import functools

import numpy as np

from .coxeter import CoxeterSystem
from .rpoly import RTable


def pairs_of_keys(keys, order: int) -> list[tuple[int, int]]:
    """The pair keys x * order + y as (x, y) tuples that share one int per
    element: tolist() on an int array makes one per entry."""
    elements = np.arange(order).astype(object)
    x, y = np.divmod(keys, order)
    return list(zip(elements[x].tolist(), elements[y].tolist()))


class EquivPartition:
    """Components of the simultaneous-descent moves on pairs x >= y.

    keys holds every comparable pair as x * order + y, sorted, read off the
    Bruhat rows; position i in keys is pair i.  Each simultaneous descent
    sends a pair to one of smaller key, found by searchsorted; the edges
    are kept as int32 positions, so a group of 2^31 pairs or more raises
    ValueError.  The components come from hooking each tree's root to the
    least root it meets along an edge, then pointer jumping, so the root of
    a component is its least pair.  cids[i] is the class id of pair i, the rank of its
    class's least pair, and least[c] is the position of class c's least
    pair.  pairs and classes are tuple views built on first use; members
    are in pair order.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        order = system.order
        rows = np.frombuffer(b"".join(map(system._downset_row, range(order))), np.uint8)
        bits = np.unpackbits(rows.reshape(order, -1), axis=1, count=order, bitorder="little")
        self.keys = keys = np.flatnonzero(bits)
        if len(keys) >= 2**31:
            raise ValueError("%d comparable pairs: too many for int32 edge positions"
                             % len(keys))
        x, y = np.divmod(keys, order)
        lengths = np.array(system.lengths)
        parent = np.arange(len(keys))
        src, dst = [], []
        for move in (*system._perms, *np.array(system.left)):
            shorter = lengths[move] < lengths
            i = np.flatnonzero(shorter[x] & shorter[y]).astype(np.int32)
            j = np.searchsorted(keys, move[x[i]] * order + move[y[i]]).astype(np.int32)
            # i holds each pair once, so one move's edges need no .at
            parent[i] = np.minimum(parent[i], j)
            src.append(i)
            dst.append(j)
        src, dst = np.concatenate(src), np.concatenate(dst)
        while True:
            # parent[i] <= i everywhere, so jumping ends at the roots
            while not np.array_equal(up := parent[parent], parent):
                parent = up
            a, b = parent[src], parent[dst]
            split = a != b
            if not split.any():
                break
            src, dst, a, b = src[split], dst[split], a[split], b[split]
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        self.least = np.flatnonzero(parent == np.arange(len(keys)))
        cid_of_root = np.zeros(len(keys), np.intp)
        cid_of_root[self.least] = np.arange(len(self.least))
        self.cids = cid_of_root[parent]

    def pairs_at(self, index) -> list[tuple[int, int]]:
        """The pairs at the given positions, as (x, y) tuples."""
        return pairs_of_keys(self.keys[index], self.system.order)

    @functools.cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return self.pairs_at(slice(None))

    @functools.cached_property
    def classes(self) -> list[list[tuple[int, int]]]:
        members = list(map(self.pairs.__getitem__, np.argsort(self.cids, kind="stable").tolist()))
        bounds = [0, *np.cumsum(np.bincount(self.cids)).tolist()]
        return [members[a:b] for a, b in zip(bounds, bounds[1:])]

    def _cid(self, x: int, y: int) -> int:
        """Class id of the pair; KeyError unless 0 <= y <= x < order."""
        order = self.system.order
        if not (0 <= x < order and 0 <= y < order):
            raise KeyError((x, y))
        i = int(np.searchsorted(self.keys, x * order + y))
        if i == len(self.keys) or self.keys[i] != x * order + y:
            raise KeyError((x, y))
        return int(self.cids[i])

    def class_of(self, x: int, y: int) -> list[tuple[int, int]]:
        """The members of the class of (x, y), in pair order, as classes
        lists them; only this class is spelled."""
        return self.pairs_at(np.flatnonzero(self.cids == self._cid(x, y)))

    def same_class(self, pair1, pair2) -> bool:
        return self._cid(*pair1) == self._cid(*pair2)

    def class_sizes(self) -> list[int]:
        return sorted(np.bincount(self.cids).tolist())

    def boolean_member(self, x: int, y: int) -> bool:
        """Whether some member (x', y') of the class of (x, y) has x' boolean
        or w0*y' boolean.  The answer is a class invariant, read off one
        flag per class built on the first call."""
        return bool(self._boolean_classes[self._cid(x, y)])

    @functools.cached_property
    def _boolean_classes(self):
        sy = self.system
        boolean = np.array([sy.is_boolean(w) for w in range(sy.order)])
        coboolean = boolean[sy.w0_times]
        x, y = np.divmod(self.keys, sy.order)
        hit = np.zeros(len(self.least), bool)
        hit[self.cids[boolean[x] | coboolean[y]]] = True
        return hit


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
    """Ranks, up-degrees and lower-cover sets of the Bruhat interval [y, x],
    its elements listed in index order, so ranks never decrease."""
    elems = system.bruhat_interval(y, x)
    if len(elems) > POSET_SIZE_CAP:
        raise IntervalTooLargeError(
            "interval [%s, %s] has %d elements, cap is %d"
            % (system.word_name(y), system.word_name(x), len(elems), POSET_SIZE_CAP)
        )
    base = system.lengths[y]
    ranks = [system.lengths[z] - base for z in elems]
    up = [0] * len(elems)
    down = []
    for j, zj in enumerate(elems):
        covers = frozenset(i for i, zi in enumerate(elems)
                           if ranks[i] == ranks[j] - 1 and system.bruhat_leq(zi, zj))
        for i in covers:
            up[i] += 1
        down.append(covers)
    return ranks, up, down


def poset_isomorphic(
    system1: CoxeterSystem, interval1: tuple[int, int],
    system2: CoxeterSystem, interval2: tuple[int, int],
) -> bool:
    """Graded-poset isomorphism of two Bruhat intervals (y, x), y <= x.

    Equal rank lists and (rank, up, down) degree multisets are a cheap
    filter.  Then element i is matched, in index order, to an unused one of
    the same rank and up-degree whose lower covers are the images of i's.
    Index order is length order, so i's lower covers are matched first, and
    a complete matching preserves covers both ways.
    """
    r1, up1, down1 = _interval_poset(system1, *interval1)
    r2, up2, down2 = _interval_poset(system2, *interval2)
    degrees1, degrees2 = zip(r1, up1, map(len, down1)), zip(r2, up2, map(len, down2))
    if r1 != r2 or sorted(degrees1) != sorted(degrees2):
        return False
    image = [0] * len(r1)
    used = [False] * len(r2)

    def extend(i: int) -> bool:
        if i == len(r1):
            return True
        want = {image[d] for d in down1[i]}
        for j, taken in enumerate(used):
            if taken or r2[j] != r1[i] or up2[j] != up1[i] or down2[j] != want:
                continue
            image[i], used[j] = j, True
            if extend(i + 1):
                return True
            used[j] = False
        return False

    return extend(0)
