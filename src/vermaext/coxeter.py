"""Finite crystallographic Coxeter systems with fully enumerated elements.

A group is built once, one length stratum at a time: the integer weights of
a stratum are one numpy array, the next stratum is their reflections along
ascents with repeats dropped, and weights are told apart by int64 keys.  Then
it is frozen: every element is a dense index, multiplication by a generator
is a table lookup, and each element keeps one byte for its ShortLex-minimal
reduced word: the last letter s, since the rest is the word of w s, so a word
is read off on request.  Everything downstream (Hecke algebra, R-polynomials,
Bruhat scans) works with these indices.

Supported types: A_n (n>=1), B_n/C_n (n>=2), D_n (n>=4), E6/E7/E8, F4, G2.
Type B3 uses the generator names s0, s1, s2 with the double bond between
s0 and s1; all other types use s1..sn in Bourbaki numbering.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cached_property
from itertools import repeat
from math import factorial

import numpy as np

DEFAULT_CAP = 100_000


class UnsupportedTypeError(ValueError):
    """The Cartan type descriptor is not one of the supported finite types."""


class CapExceededError(ValueError):
    """The group order exceeds the enumeration cap; raise the cap to force."""


def _chain_cartan(n):
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        cartan[i][i] = 2
        if i + 1 < n:
            cartan[i][i + 1] = -1
            cartan[i + 1][i] = -1
    return cartan


def canonical_label(label: str) -> str:
    """A type label in its canonical spelling: "e_7" and "E7" both give "E7"."""
    m = re.fullmatch(r"([ABCDEFG])[_]?(\d+)", label.strip().upper())
    if not m:
        raise UnsupportedTypeError("unrecognized Cartan type: %r" % (label,))
    return "%s%d" % (m.group(1), int(m.group(2)))


def _cartan_and_names(label: str):
    """Cartan matrix, generator names and group order for a type label."""
    label = canonical_label(label)
    family, n = label[0], int(label[1:])
    if family == "A" and n >= 1:
        cartan = _chain_cartan(n)
        order = factorial(n + 1)
    elif family in ("B", "C") and n >= 2:
        cartan = _chain_cartan(n)
        if family == "B" and n == 3:
            # The s0,s1,s2 labeling: double bond between the first two nodes.
            cartan[0][1] = -2
            names = ["s0", "s1", "s2"]
            return cartan, names, 48
        if family == "B":
            cartan[n - 1][n - 2] = -2
        else:
            cartan[n - 2][n - 1] = -2
        order = (2 ** n) * factorial(n)
    elif family == "D" and n >= 4:
        cartan = _chain_cartan(n - 1)
        for row in cartan:
            row.append(0)
        cartan.append([0] * n)
        cartan[n - 1][n - 1] = 2
        cartan[n - 1][n - 3] = -1
        cartan[n - 3][n - 1] = -1
        order = (2 ** (n - 1)) * factorial(n)
    elif family == "E" and n in (6, 7, 8):
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 attached to node 4.
        cartan = [[0] * n for _ in range(n)]
        for i in range(n):
            cartan[i][i] = 2
        chain = [1, 3, 4, 5, 6, 7, 8][: n - 1]
        for a, b in zip(chain, chain[1:]):
            cartan[a - 1][b - 1] = -1
            cartan[b - 1][a - 1] = -1
        cartan[2 - 1][4 - 1] = -1
        cartan[4 - 1][2 - 1] = -1
        order = {6: 51_840, 7: 2_903_040, 8: 696_729_600}[n]
    elif family == "F" and n == 4:
        cartan = _chain_cartan(4)
        cartan[2][1] = -2
        order = 1152
    elif family == "G" and n == 2:
        cartan = [[2, -1], [-3, 2]]
        order = 12
    else:
        raise UnsupportedTypeError("unsupported rank for type %s: %d" % (family, n))

    names = ["s%d" % (i + 1) for i in range(n)]
    return cartan, names, order


def expected_order(label: str) -> int:
    """Group order for a type label by the classical formula, without building."""
    return _cartan_and_names(label)[2]


# Weight keys: coordinates in (-64, 64) as the digits of one base-128 int64.
# Digits from a complete residue system make the key injective, and nine
# digits fit, since 63 * (128**9 - 1) / 127 < 2**63.
_RADIX = 128
_POWERS = _RADIX ** np.arange(9, dtype=np.int64)


def _pack_keys(lam):
    """One int64 key per row of the int64 array lam (the last axis is the
    coordinate axis); ValueError if a coordinate or the rank does not fit."""
    rank = lam.shape[-1]
    if rank > len(_POWERS):
        raise ValueError("rank %d does not fit a weight key" % rank)
    if np.abs(lam).max() >= _RADIX // 2:
        raise ValueError("weight coordinate beyond %d does not fit a key" % (_RADIX // 2 - 1))
    return lam @ _POWERS[:rank]


# dominance_keys packs its matrices in batches of at least this many rows:
# few numpy calls on a small group, little memory on a large one
_PACK_ROWS = 4096


def _pack_fields(fields):
    """One int per row of the nonnegative int array fields, one byte per
    entry, the first entry lowest; ValueError if an entry reaches 128, since
    the dominance test needs the top bit of every byte clear."""
    if fields.max() >= 128:
        raise ValueError("key field %d does not fit 7 bits" % fields.max())
    rows = fields.astype(np.uint8).reshape(len(fields), -1)
    # A bytes item drops its trailing zero bytes, the high ones here.
    return list(map(int.from_bytes, rows.view("S%d" % rows.shape[1]).ravel().tolist(),
                    repeat("little")))


class CoxeterSystem:
    """A fully enumerated finite Weyl group.

    Elements are indices 0..order-1 in ShortLex order of their canonical
    reduced words, so the identity is 0 and the longest element is order-1.
    Order rule: index order is (length, index) order, so any set of elements
    listed by ascending index is sorted by length, and its last element is
    one of greatest length.  Nothing downstream re-sorts by length.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, type_label, cartan, gen_names):
        self.type_label = type_label
        self.cartan = tuple(tuple(row) for row in cartan)
        self.gen_names = list(gen_names)
        self.rank = len(gen_names)
        # Bruhat downset rows, one packed little-endian bit row per upper
        # element, built on first request (see _downset_row), by permuting
        # with the rows of the right multiplication table, kept as one
        # (rank, order) array.
        self._perms = self._enumerate()
        self._rows: dict[int, bytes] = {0: bytes([1]).ljust((self.order + 7) // 8, b"\0")}
        self._names: dict[int, str] = {0: "e"}

    # -- construction --------------------------------------------------------

    def _enumerate(self):
        """Fill the element tables; return `right` as a (rank, order) array.

        The weight of w is w^-1 rho in fundamental-weight coordinates, so
        right multiplication by s_j reflects it, lam - lam[j] * alpha_j, and
        s_j is an ascent of w iff lam[j] > 0.  Stratum l + 1 is made from
        the ascents (p, j) of stratum l, whose rows are in ShortLex order.
        In row-major order the ascents are ordered by (parent position,
        generator), which is the lexicographic order of the words
        word(p) + (j,), so the first candidate reaching an element spells
        its ShortLex-minimal word.  Only the last letter j of that word is
        kept: the rest is the word of the parent p = w s_j (see word).
        """
        rank, cartan = self.rank, self.cartan
        # Column j*rank + i of `reflect` gives coordinate i of s_j lam, which
        # is lam[i] - lam[j] * cartan[i][j].
        reflect = np.array([[(k == i) - (k == j) * cartan[i][j]
                             for j in range(rank) for i in range(rank)]
                            for k in range(rank)], dtype=np.int64)
        lam = np.array([[1] * rank], dtype=np.int64)  # rho, the weight of e
        sizes, first_ascent = [1], []
        # For each element past e, the ascent p * rank + j that made it
        codes = []
        # The ascents (p, j) of each stratum as p * rank + j, and the
        # elements p s_j they reach
        moves, targets = [], []
        start = 0  # index of the first element of stratum lam
        while True:
            ascent = lam > 0
            # the lowest s with ws > w; w0, with none, is mended below
            first_ascent.append(ascent.argmax(1))
            ascent = ascent.ravel()
            cand = (lam @ reflect).reshape(-1, rank)[ascent]
            if not len(cand):
                break
            keys = _pack_keys(cand)
            by_key = keys.argsort(kind="stable")
            sorted_keys = keys[by_key]
            new = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
            first = np.empty(len(keys), dtype=bool)
            first[by_key] = new
            # A candidate reaches the element its group's first candidate
            # became: that one's position among the kept candidates.
            reached = np.empty(len(keys), dtype=np.int64)
            reached[by_key] = (first.cumsum() - 1)[by_key[new]][new.cumsum() - 1]
            # ascent.nonzero() holds p * rank + j for each candidate (p, j)
            flat = start * rank + ascent.nonzero()[0]
            codes.append(flat[first])
            start += len(lam)
            moves.append(flat)
            targets.append(start + reached)
            lam = cand[first]
            sizes.append(len(lam))
        order = start + len(lam)

        # An ascent (p, j) reaching w is the descent (w, j) reaching p, and
        # every descent is one of these.
        src, s = np.divmod(np.concatenate(moves), rank)
        del moves
        dst = np.concatenate(targets)
        del targets
        right = np.empty((rank, order), dtype=np.intp)
        right[s, src] = dst
        right[s, dst] = src
        del src, s, dst
        # e has no last letter: it gets rank, like w0's first ascent
        last = np.concatenate(([rank], np.concatenate(codes) % rank)).astype(np.uint8)
        del codes

        # Replay every word from the right, all elements at once, one letter
        # per step.  A word that has run out sits at e, whose letter rank
        # picks the padding row of `step`, which fixes everything.
        step = np.concatenate((right, np.arange(order)[None]))
        parent = step[last, np.arange(order)]
        inverse = np.zeros(order, np.intp)
        cur = np.arange(order)
        for _ in sizes[1:]:
            inverse = step[last[cur], inverse]
            cur = parent[cur]
        del step, parent, cur

        self.order = order
        self.lengths = [length for length, size in enumerate(sizes) for _ in range(size)]
        self.e = 0
        self.w0 = order - 1
        first_ascent = np.concatenate(first_ascent).astype(np.uint8)
        first_ascent[-1] = rank
        self.first_ascent = first_ascent.tobytes()
        self.last_letter = last.tobytes()
        # One int object per element, shared by every table: tolist() on
        # an int array would make a new one for every entry.
        elements = np.arange(order).astype(object)
        self.right = [elements[row].tolist() for row in right]
        self.left = [elements[inverse[row[inverse]]].tolist() for row in right]
        self.inverse = elements[inverse].tolist()
        return right

    @cached_property
    def dominance_keys(self) -> tuple[list[int], int]:
        """(keys, high): one packed key per element, for a necessary test of
        the Bruhat order; built on first use.

        Byte rank * i + k of keys[w] is the coefficient of alpha_k in
        omega_i - w^-1 omega_i.  For dominant lam, y <= x implies that
        y^-1 lam - x^-1 lam lies in Q+, the nonnegative span of the simple
        roots: the order is invariant under inversion, and a cover
        u < u t_beta with u beta > 0 gives u lam - u t_beta lam =
        <lam, beta^v> u beta.  So y <= x implies keys[x] >= keys[y] in every
        byte, which is ((keys[x] | high) - keys[y]) & high == high, where
        high sets the top bit of every byte, so no borrow crosses a byte.

        The keys are built one length stratum at a time, holding only the
        matrices of the stratum before and those not yet packed, which are
        packed as soon as they reach _PACK_ROWS rows.  Let C(w) be the
        rank x rank matrix of the coefficients above.  With s the last letter
        of w and u = ws, which lies in the stratum before, only column s
        changes:
        C(w)[i, s] = C(u)[i, s] + delta_is - sum_k C(u)[i, k] cartan[s][k].
        """
        rank, lengths = self.rank, self.lengths
        cartan = np.array(self.cartan, dtype=np.int16)[:, :, None]
        eye = np.eye(rank, dtype=np.int16)
        last = np.frombuffer(self.last_letter, np.uint8)
        fields = np.zeros((1, rank, rank), dtype=np.int16)  # those of e
        keys, unpacked, start = [], [fields], 0
        bounds = [bisect_left(lengths, k) for k in range(lengths[-1] + 2)]
        for lo, hi in zip(bounds[1:], bounds[2:]):
            s = last[lo:hi]
            c = fields[self._perms[s, np.arange(lo, hi)] - start]
            column = eye[s]
            step = column - (c @ cartan[s])[:, :, 0]
            fields = c + step[:, :, None] * column[:, None]
            unpacked.append(fields)
            start = lo
            if hi - len(keys) >= _PACK_ROWS or hi == self.order:
                keys += _pack_fields(np.concatenate(unpacked))
                unpacked = []
        return keys, int.from_bytes(b"\x80" * rank * rank, "little")

    @cached_property
    def _support_masks(self) -> bytes:
        """One byte per element: bit j is set iff s_j occurs in a reduced
        word of w.  One pass in index order, since the support of w is that
        of ws together with its last letter s."""
        masks = bytearray(self.order)
        right, last = self.right, self.last_letter
        for w in range(1, self.order):
            s = last[w]
            masks[w] = masks[right[s][w]] | 1 << s
        return bytes(masks)

    @cached_property
    def w0_times(self) -> list[int]:
        """w0_times[w] is w0 * w, equal to mult(w0, w); built on first use by
        left-multiplying every element at once by the letters of w0's word.
        w0 is an involution, so the letters may go in word order."""
        left = np.array(self.left)
        w0w = np.arange(self.order)
        for j in self.word(self.w0):
            w0w = left[j][w0w]
        return np.arange(self.order).astype(object)[w0w].tolist()

    @cached_property
    def canonical_words(self) -> list[tuple[int, ...]]:
        """Every element's ShortLex-minimal reduced word, in index order;
        built on first use, one tuple per element.  The library reads words
        through word() instead."""
        return [self.word(w) for w in range(self.order)]

    # -- basic group operations ----------------------------------------------

    def word(self, w: int) -> tuple[int, ...]:
        """The ShortLex-minimal reduced word of w, read off its last letters
        in O(l(w)): the word of w is word(w s) + (s,) for its last letter s."""
        right, last, letters = self.right, self.last_letter, []
        for _ in range(self.lengths[w]):
            s = last[w]
            letters.append(s)
            w = right[s][w]
        return tuple(reversed(letters))

    def mult(self, a: int, b: int) -> int:
        """Product a*b = s_i1 (... (s_ik b)) for the word (i1, ..., ik) of a,
        walked from its last letter."""
        right, left, last, x = self.right, self.left, self.last_letter, b
        for _ in range(self.lengths[a]):
            s = last[a]
            x = left[s][x]
            a = right[s][a]
        return x

    def conj_w0(self, w: int) -> int:
        """w0 * w * w0, a Dynkin diagram automorphism."""
        return self.mult(self.mult(self.w0, w), self.w0)

    def right_descents(self, w: int) -> frozenset[int]:
        lw = self.lengths[w]
        return frozenset(j for j in range(self.rank) if self.lengths[self.right[j][w]] < lw)

    def left_descents(self, w: int) -> frozenset[int]:
        lw = self.lengths[w]
        return frozenset(j for j in range(self.rank) if self.lengths[self.left[j][w]] < lw)

    def support(self, w: int) -> frozenset[int]:
        """Generators occurring in a reduced word of w (word independent)."""
        return frozenset(self.word(w))

    def is_boolean(self, w: int) -> bool:
        """True iff some (hence the canonical) reduced word is multiplicity-free,
        i.e. l(w) equals the size of the support."""
        return self.lengths[w] == self._support_masks[w].bit_count()

    def is_bigrassmannian(self, w: int) -> bool:
        if w == self.e:
            return False
        return len(self.left_descents(w)) == 1 and len(self.right_descents(w)) == 1

    # -- Bruhat order ----------------------------------------------------------

    def _downset_row(self, y: int) -> bytes:
        """The packed row of y: bit x is set iff x <= y.

        With s the lowest right descent of y, x <= y iff x <= ys or
        xs <= ys, so the row of y is the row of ys or-ed with itself permuted
        by s.  Rows missing along the descent chain are built on the way up.
        """
        rows = self._rows
        chain = []
        while y not in rows:
            s = min(self.right_descents(y))
            chain.append((y, s))
            y = self.right[s][y]
        row = rows[y]
        for y, s in reversed(chain):
            bits = np.unpackbits(np.frombuffer(row, np.uint8), count=self.order, bitorder="little")
            row = np.packbits(bits | bits[self._perms[s]], bitorder="little").tobytes()
            rows[y] = row
        return row

    def bruhat_leq(self, x: int, y: int) -> bool:
        """True iff x <= y in the Bruhat order."""
        if x == y or x == 0:
            return True
        if self.lengths[x] > self.lengths[y]:
            return False
        row = self._rows.get(y) or self._downset_row(y)
        return bool(row[x >> 3] >> (x & 7) & 1)

    def _downset_bits(self, y: int) -> np.ndarray:
        """The row of y unpacked: one uint8 0 or 1 per element."""
        return np.unpackbits(np.frombuffer(self._downset_row(y), np.uint8), count=self.order,
                             bitorder="little")

    def bruhat_downset(self, y: int) -> list[int]:
        """All x with x <= y, in increasing index order."""
        return np.flatnonzero(self._downset_bits(y)).tolist()

    def bruhat_interval(self, y: int, x: int) -> list[int]:
        """Elements z with y <= z <= x, in index, i.e. (length, index), order;
        [] unless y <= x.  Read off two rows: left multiplication by w0
        reverses the order, so z >= y iff w0 z <= w0 y, and the interval is
        the row of x and-ed with the row of w0 y gathered through w0_times."""
        below = self._downset_bits(x)
        above = self._downset_bits(self.w0_times[y])[self.w0_times]
        return np.flatnonzero(below & above).tolist()

    def pair_gap(self, x: int, y: int, caller: str) -> int:
        """l(x) - l(y) for a pair with x >= y; ValueError naming caller otherwise."""
        if not self.bruhat_leq(y, x):
            raise ValueError("%s needs x >= y" % caller)
        return self.lengths[x] - self.lengths[y]

    def comparable_pairs(self):
        """All ordered pairs (x, y) with x >= y, sorted by index."""
        return [(x, y) for x in range(self.order) for y in self.bruhat_downset(x)]

    # -- parabolic data ----------------------------------------------------------

    def parabolic(self, J) -> "ParabolicSubset":
        return ParabolicSubset(self, J)

    # -- names and parsing -------------------------------------------------------

    def word_name(self, w: int) -> str:
        """Canonical ShortLex word of w, e.g. 's1*s2*s1'; 'e' for the identity.
        Each name is spelled once, on first request."""
        name = self._names.get(w)
        if name is None:
            name = self._names[w] = "*".join(map(self.gen_names.__getitem__, self.word(w)))
        return name

    def gen_index(self, name: str) -> int:
        name = name.strip()
        if name in self.gen_names:
            return self.gen_names.index(name)
        # A3 carries the traditional letter names r, s, t for its three nodes.
        if self.rank == 3 and name in ("r", "s", "t") and self.gen_names == ["s1", "s2", "s3"]:
            return {"r": 0, "s": 1, "t": 2}[name]
        raise ValueError("unknown generator %r for type %s" % (name, self.type_label))

    def element(self, word: str) -> int:
        """Parse 'e', 'w0', or a generator word like 's1*s2*s1' (A3 also r/s/t)."""
        word = word.strip()
        if word == "e":
            return 0
        if word == "w0":
            return self.w0
        return self.from_word(self.gen_index(tok) for tok in word.split("*"))

    def from_word(self, word) -> int:
        """Element from an iterable of generator indices."""
        x = 0
        for j in word:
            x = self.right[j][x]
        return x

    def __repr__(self):
        return "CoxeterSystem(%s, order=%d)" % (self.type_label, self.order)


class ParabolicSubset:
    """A standard parabolic subgroup W_J with its minimal coset representatives.

    coset_reps_right: minimal-length representatives of W / W_J
                      (elements with no right descent in J).
    coset_reps_left:  minimal-length representatives of W_J \\ W
                      (elements with no left descent in J).
    """

    def __init__(self, system: CoxeterSystem, J):
        self.system = system
        self.J = frozenset(J)
        if not self.J <= set(range(system.rank)):
            raise ValueError("J must be a subset of the generator indices")

        # w lies in W_J iff its reduced words use only generators in J, and
        # index order is (length, index) order
        outside = 255 - sum(1 << j for j in self.J)
        self.subgroup = tuple(w for w, mask in enumerate(system._support_masks)
                              if not mask & outside)
        self.longest = self.subgroup[-1]

        self.coset_reps_right = tuple(
            w for w in range(system.order) if not (system.right_descents(w) & self.J)
        )
        self.coset_reps_left = tuple(
            w for w in range(system.order) if not (system.left_descents(w) & self.J)
        )

    def __repr__(self):
        names = ",".join(self.system.gen_names[j] for j in sorted(self.J))
        return "ParabolicSubset({%s}, |W_J|=%d)" % (names, len(self.subgroup))


def build_system(type_label: str, cap: int = DEFAULT_CAP) -> CoxeterSystem:
    """Enumerate the Weyl group of the given type.

    Raises UnsupportedTypeError for unknown labels and CapExceededError when
    the classical order formula already exceeds the cap (so e.g. E7 is never
    enumerated by accident; pass an explicit larger cap to force it).
    """
    cartan, names, order = _cartan_and_names(type_label)
    if order > cap:
        raise CapExceededError(
            "type %s has order %d, above the cap %d" % (type_label, order, cap)
        )
    system = CoxeterSystem(canonical_label(type_label), cartan, names)
    if system.order != order:
        raise AssertionError(
            "enumeration of %s found %d elements, expected %d"
            % (type_label, system.order, order)
        )
    return system
