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
    sends a pair to one of smaller key, found by searchsorted.  The moves
    are taken one at a time and no edge outlives its move: parent is kept
    fully jumped, so the ends of an edge read their roots directly, and each
    round hooks the larger root of every edge that still joins two roots to
    the smaller, jumps the hooked roots to the new roots and then every pair
    once, until every edge of the move joins one root.  parent[k] <= k
    throughout, so the root of a component is its least pair.  Pair
    coordinates and parents are int32, so a group of 2^31 pairs or more
    raises ValueError.  cids[i] is the class id of pair i, the rank of its
    class's least pair, and least[c] is the position of class c's least
    pair.  pairs and classes are tuple views built on first use; members
    are in pair order.
    """

    def __init__(self, system: CoxeterSystem):
        self.system = system
        order = system.order
        rows = np.frombuffer(b"".join(map(system._downset_row, range(order))), np.uint8)
        bits = np.unpackbits(rows.reshape(order, -1), axis=1, count=order, bitorder="little")
        del rows
        self.keys = keys = np.flatnonzero(bits)
        del bits
        if len(keys) >= 2**31:
            raise ValueError("%d comparable pairs: too many for int32 positions" % len(keys))
        x, y = (a.astype(np.int32) for a in np.divmod(keys, order))
        lengths = np.array(system.lengths)
        parent = np.arange(len(keys), dtype=np.int32)
        for move in (*system._perms, *np.array(system.left)):
            shorter = lengths[move] < lengths
            i = np.flatnonzero(shorter[x] & shorter[y]).astype(np.int32)
            j = np.searchsorted(keys, move[x[i]] * order + move[y[i]]).astype(np.int32)
            while True:
                a, b = parent[i], parent[j]
                split = a != b
                if not split.any():
                    break
                i, j, a, b = i[split], j[split], a[split], b[split]
                hooked = np.maximum(a, b)
                np.minimum.at(parent, hooked, np.minimum(a, b))
                # Only the hooked roots moved, each to a smaller old root:
                # jump them to the new roots, then every pair in one gather.
                root = parent[hooked]
                while not np.array_equal(up := parent[root], root):
                    root = up
                parent[hooked] = root
                parent = parent[parent]
        self.least = np.flatnonzero(parent == np.arange(len(keys), dtype=np.int32))
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

    @functools.cached_property
    def trivial_kl(self) -> np.ndarray:
        """trivial_kl[y]: whether p_{y,w} and p_{e,w0 w} are trivial for
        every w >= y, read off the Bruhat graph on first use.

        Every u <= w has at least l(w) reflections t with ut <= w (Deodhar),
        and in a Weyl group p_{y,w} is trivial iff every u in [y, w] has
        exactly l(w) (Carrell-Peterson, Proc. Sympos. Pure Math. 56, 1994,
        with KL monotonicity, Braden-MacPherson, Math. Ann. 321, 2001).  So
        mark the pairs u <= w with more: some p_{y,w} is nontrivial iff y
        lies below a marked u, and some p_{e,v} with v <= w0 y iff a marked
        w lies below w0 y.  The build holds four order x order byte arrays.
        """
        sy = self.system
        below = np.stack(list(map(sy._downset_bits, range(sy.order)))).view(bool)
        above = np.ascontiguousarray(below.T)
        # Right multiplication by each reflection t, keyed by e * t; the
        # conjugate s t s acts as s, then t, then s.
        reflections, todo = {}, list(sy._perms)
        while todo:
            t = todo.pop()
            if int(t[0]) not in reflections:
                reflections[int(t[0])] = t
                todo += [s[t[s]] for s in sy._perms]
        count = np.zeros(below.shape, np.uint8)  # at most l(w0) < 256 reflections
        for perm in reflections.values():
            count += above[perm]
        marked = count > np.array(sy.lengths, np.uint8)
        del count
        marked &= above
        return ~(below.any(0, where=marked.any(1)[:, None])
                 | above.any(0, where=marked.any(0)[:, None])[sy.w0_times])


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
