"""Finite crystallographic Coxeter systems with fully enumerated elements.

A group is built once by breadth-first search acting on integer weight
coordinates, then frozen: every element is a dense index, multiplication by a
generator is a table lookup, and each element knows its ShortLex-minimal
reduced word.  Everything downstream (Hecke algebra, R-polynomials, Bruhat
scans) works with these indices.

Supported types: A_n (n>=1), B_n/C_n (n>=2), D_n (n>=4), E6/E7/E8, F4, G2.
Type B3 uses the generator names s0, s1, s2 with the double bond between
s0 and s1; all other types use s1..sn in Bourbaki numbering.
"""

from __future__ import annotations

import re
from functools import reduce

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

    def fact(k):
        return reduce(lambda a, b: a * b, range(1, k + 1), 1)

    if family == "A" and n >= 1:
        cartan = _chain_cartan(n)
        order = fact(n + 1)
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
        order = (2 ** n) * fact(n)
    elif family == "D" and n >= 4:
        cartan = _chain_cartan(n - 1)
        for row in cartan:
            row.append(0)
        cartan.append([0] * n)
        cartan[n - 1][n - 1] = 2
        cartan[n - 1][n - 3] = -1
        cartan[n - 3][n - 1] = -1
        order = (2 ** (n - 1)) * fact(n)
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


class CoxeterSystem:
    """A fully enumerated finite Weyl group.

    Elements are indices 0..order-1 in ShortLex order of their canonical
    reduced words, so the identity is 0 and the longest element is order-1.
    Instances are immutable after construction and safe to share.
    """

    def __init__(self, type_label, cartan, gen_names):
        self.type_label = type_label
        self.cartan = tuple(tuple(row) for row in cartan)
        self.gen_names = list(gen_names)
        self.rank = len(gen_names)
        self._enumerate()
        # Bruhat downset rows, one packed little-endian bit row per upper
        # element, built on first request (see _downset_row).
        self._perms = [np.asarray(r, dtype=np.intp) for r in self.right]
        self._rows: dict[int, bytes] = {0: bytes([1]).ljust((self.order + 7) // 8, b"\0")}
        self._names: dict[int, str] = {0: "e"}

    # -- construction --------------------------------------------------------

    def _enumerate(self):
        rank = self.rank
        cartan = self.cartan
        rho = tuple([1] * rank)

        def reflect(lam, j):
            lj = lam[j]
            return tuple(lam[i] - lj * cartan[i][j] for i in range(rank))

        # BFS stratum by stratum.  Processing each stratum in lexicographic
        # word order and trying generators in increasing index order makes the
        # first discovery of an element use its ShortLex-minimal reduced word.
        index_of = {rho: 0}
        words = [()]
        states = [rho]
        stratum = [((), rho)]
        while stratum:
            nxt = {}
            for word, lam in stratum:
                for j in range(rank):
                    if lam[j] < 0:
                        continue  # descent: already seen, shorter
                    mu = reflect(lam, j)
                    if mu in index_of or mu in nxt:
                        continue
                    nxt[mu] = word + (j,)
            stratum = sorted(((w, s) for s, w in nxt.items()), key=lambda t: t[0])
            for word, lam in stratum:
                index_of[lam] = len(states)
                states.append(lam)
                words.append(word)

        self.order = len(states)
        self.canonical_words = words
        self.lengths = [len(w) for w in words]
        self.e = 0
        self.w0 = self.order - 1
        # The lowest s with ws > w (lam[s] > 0), rank for w0; one byte each.
        self.first_ascent = bytes(next((j for j in range(rank) if lam[j] > 0), rank)
                                  for lam in states)

        # Per-generator right multiplication tables from the state map.
        right = [[0] * self.order for _ in range(rank)]
        for w, lam in enumerate(states):
            for j in range(rank):
                right[j][w] = index_of[reflect(lam, j)]
        self.right = right

        inverse = [0] * self.order
        for w, word in enumerate(words):
            x = 0
            for j in reversed(word):
                x = right[j][x]
            inverse[w] = x
        self.inverse = inverse

        left = [[0] * self.order for _ in range(rank)]
        for j in range(rank):
            rj = right[j]
            for w in range(self.order):
                left[j][w] = inverse[rj[inverse[w]]]
        self.left = left

    # -- basic group operations ----------------------------------------------

    def mult(self, a: int, b: int) -> int:
        """Product a*b via the canonical word of b."""
        x = a
        for j in self.canonical_words[b]:
            x = self.right[j][x]
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
        return frozenset(self.canonical_words[w])

    def is_boolean(self, w: int) -> bool:
        """True iff some (hence the canonical) reduced word is multiplicity-free."""
        return self.lengths[w] == len(self.support(w))

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

    def bruhat_downset(self, y: int) -> list[int]:
        """All x with x <= y, in increasing index order."""
        bits = np.unpackbits(np.frombuffer(self._downset_row(y), np.uint8), bitorder="little")
        return np.flatnonzero(bits).tolist()

    def bruhat_interval(self, y: int, x: int) -> list[int]:
        """Elements z with y <= z <= x, sorted by (length, index)."""
        zs = [z for z in self.bruhat_downset(x) if self.bruhat_leq(y, z)]
        zs.sort(key=lambda z: (self.lengths[z], z))
        return zs

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
            name = self._names[w] = "*".join(self.gen_names[j] for j in self.canonical_words[w])
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
        x = 0
        for tok in word.split("*"):
            x = self.right[self.gen_index(tok)][x]
        return x

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

        members = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                for j in self.J:
                    u = system.right[j][w]
                    if u not in members:
                        members.add(u)
                        nxt.append(u)
            frontier = nxt
        self.subgroup = tuple(sorted(members, key=lambda w: (system.lengths[w], w)))
        self.longest = max(self.subgroup, key=lambda w: system.lengths[w])

        self.coset_reps_right = tuple(
            w for w in range(system.order) if not (system.right_descents(w) & self.J)
        )
        self.coset_reps_left = tuple(
            w for w in range(system.order) if not (system.left_descents(w) & self.J)
        )

    def decompose_right(self, w: int) -> tuple[int, int]:
        """w = rep * u with rep a W/W_J minimal representative, u in W_J."""
        sy = self.system
        u = 0
        while True:
            ds = sy.right_descents(w) & self.J
            if not ds:
                return w, sy.inverse[u]
            j = min(ds)
            w = sy.right[j][w]
            u = sy.right[j][u]

    def decompose_left(self, w: int) -> tuple[int, int]:
        """w = u * rep with u in W_J, rep a W_J\\W minimal representative."""
        sy = self.system
        u = 0
        while True:
            ds = sy.left_descents(w) & self.J
            if not ds:
                return sy.inverse[u], w
            j = min(ds)
            w = sy.left[j][w]
            u = sy.left[j][u]

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
