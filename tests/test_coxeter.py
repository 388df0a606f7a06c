import itertools
import random
import tracemalloc

import numpy as np
import pytest

from vermaext.coxeter import (
    CapExceededError,
    UnsupportedTypeError,
    _pack_fields,
    _pack_keys,
    build_system,
    expected_order,
)
from vermaext.rpoly import RTable

TABLES = ("last_letter", "lengths", "first_ascent", "right", "left", "inverse")
# The types whose build is checked against the reference search below
REFERENCE_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "B5",
                   "C3", "D4", "D5", "F4", "G2"]


def reference_tables(system):
    """The element tables of `system` by a pure-Python breadth-first search.

    Each stratum is processed in lexicographic word order and generators are
    tried in increasing index order, so the first discovery of an element
    uses its ShortLex-minimal reduced word.  Weights are tuples of integer
    coordinates; s_j is an ascent of the weight lam iff lam[j] > 0.
    """
    rank, cartan = system.rank, system.cartan
    rho = tuple([1] * rank)

    def reflect(lam, j):
        lj = lam[j]
        return tuple(lam[i] - lj * cartan[i][j] for i in range(rank))

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

    order = len(states)
    right = [[index_of[reflect(lam, j)] for lam in states] for j in range(rank)]
    inverse = [0] * order
    for w, word in enumerate(words):
        x = 0
        for j in reversed(word):
            x = right[j][x]
        inverse[w] = x
    left = [[inverse[rj[inverse[w]]] for w in range(order)] for rj in right]
    return {
        "canonical_words": words,
        # e has no last letter, so its byte is not compared
        "last_letter": bytes(word[-1] for word in words[1:]),
        "lengths": [len(w) for w in words],
        "first_ascent": bytes(next((j for j in range(rank) if lam[j] > 0), rank)
                              for lam in states),
        "right": right,
        "left": left,
        "inverse": inverse,
    }


def assert_matches_reference(system):
    want = reference_tables(system)
    assert system.order == len(want["lengths"])
    assert list(map(system.word, range(system.order))) == want["canonical_words"]
    for name in TABLES:
        got = getattr(system, name)
        if name == "last_letter":
            got = got[1:]
        assert got == want[name], name


@pytest.fixture(scope="module")
def a3():
    return build_system("A3")


@pytest.fixture(scope="module")
def b3():
    return build_system("B3")


class TestBuild:
    @pytest.mark.parametrize(
        "label,order,longest",
        [
            ("A1", 2, 1),
            ("A2", 6, 3),
            ("A3", 24, 6),
            ("B2", 8, 4),
            ("B3", 48, 9),
            ("C3", 48, 9),
            ("D4", 192, 12),
            ("G2", 12, 6),
            ("F4", 1152, 24),
        ],
    )
    def test_orders_and_longest(self, label, order, longest):
        sy = build_system(label)
        assert sy.order == order == expected_order(label)
        assert sy.lengths[sy.w0] == longest

    def test_b3_order_formula(self):
        # brute-force BFS count against 2^3 * 3!
        assert build_system("B3").order == 2 ** 3 * 6

    def test_unsupported(self):
        for bad in ("H3", "Z9", "D3", "B1", "E5"):
            with pytest.raises(UnsupportedTypeError):
                build_system(bad)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            build_system("E7")
        with pytest.raises(CapExceededError):
            build_system("A3", cap=10)

    def test_b3_names(self, b3):
        assert b3.gen_names == ["s0", "s1", "s2"]
        # double bond between s0 and s1
        assert b3.cartan[0][1] * b3.cartan[1][0] == 2
        assert b3.cartan[1][2] * b3.cartan[2][1] == 1


class TestStructure:
    def test_identity_and_longest(self, a3):
        assert a3.lengths[0] == 0
        assert a3.word_name(0) == "e"
        longest = [w for w in range(a3.order) if a3.lengths[w] == 6]
        assert longest == [a3.w0]

    def test_length_steps(self, a3):
        for w in range(a3.order):
            for s in range(a3.rank):
                assert abs(a3.lengths[a3.right[s][w]] - a3.lengths[w]) == 1
                assert a3.right[s][a3.right[s][w]] == w

    def test_w0_complement(self, a3):
        for w in range(a3.order):
            assert a3.lengths[a3.mult(a3.w0, w)] == 6 - a3.lengths[w]
            assert a3.lengths[a3.mult(w, a3.w0)] == 6 - a3.lengths[w]

    def test_canonical_words_multiply_back(self, a3):
        for w in range(a3.order):
            word = a3.word(w)
            assert len(word) == a3.lengths[w]
            assert a3.from_word(word) == w

    @pytest.mark.parametrize("label", REFERENCE_TYPES)
    def test_shortlex_indexing(self, label):
        # index order is (length, index) order, and nothing downstream
        # re-sorts by length: ascending lists of elements are sorted by
        # length, and a coset's or subgroup's last element is its longest
        sy = build_system(label)
        keys = [(sy.lengths[w], sy.word(w)) for w in range(sy.order)]
        assert keys == sorted(keys)
        assert all(a <= b for a, b in zip(sy.lengths, sy.lengths[1:]))
        for y in range(sy.order):
            down = sy.bruhat_downset(y)
            assert down == sorted(down) and down[-1] == y
        if label not in ("A3", "B3", "D4"):
            return
        for r in range(sy.rank + 1):
            for J in itertools.combinations(range(sy.rank), r):
                par = sy.parabolic(J)
                for ws in (par.subgroup, par.coset_reps_right, par.coset_reps_left):
                    assert list(ws) == sorted(ws)
                    top = sy.lengths[ws[-1]]
                    assert all(sy.lengths[w] < top for w in ws[:-1])

    @pytest.mark.parametrize("label", ["G2", "A3", "B3", "D4"])
    def test_canonical_words_are_shortlex_minimal(self, label):
        # brute force over every reduced word via the descent recursion
        sy = build_system(label)
        memo = {0: [()]}

        def reduced_words(w):
            if w not in memo:
                memo[w] = [word + (s,)
                           for s in sorted(sy.right_descents(w))
                           for word in reduced_words(sy.right[s][w])]
            return memo[w]

        for w in range(sy.order):
            assert min(reduced_words(w)) == sy.word(w)

    def test_inverse(self, a3):
        for w in range(a3.order):
            assert a3.mult(w, a3.inverse[w]) == 0
            assert a3.lengths[a3.inverse[w]] == a3.lengths[w]

    def test_left_right_mult_commute(self, a3):
        for w in range(a3.order):
            for s in range(a3.rank):
                for t in range(a3.rank):
                    assert a3.left[s][a3.right[t][w]] == a3.right[t][a3.left[s][w]]

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "B4", "F4", "D5"])
    def test_w0_times_is_left_multiplication_by_w0(self, label):
        sy = build_system(label)
        assert sy.w0_times == [sy.mult(sy.w0, w) for w in range(sy.order)]
        assert all(type(w) is int for w in sy.w0_times)

    def test_w0_conjugation_is_automorphism(self, a3, b3):
        for sy in (a3, b3):
            for w in range(sy.order):
                assert sy.lengths[sy.mult(sy.w0_times[w], sy.w0)] == sy.lengths[w]


class TestEnumeration:
    @pytest.mark.parametrize("label", REFERENCE_TYPES)
    def test_matches_reference_search(self, label):
        assert_matches_reference(build_system(label))

    def test_public_types(self):
        sy = build_system("B3")
        assert type(sy.first_ascent) is bytes
        assert type(sy.lengths) is list and type(sy.inverse) is list
        assert all(type(row) is list for row in sy.right + sy.left)
        words = list(map(sy.word, range(sy.order)))
        assert all(type(word) is tuple for word in words)
        tables = [sy.lengths, sy.inverse, *sy.right, *sy.left]
        assert all(type(x) is int for table in tables for x in table)
        assert all(type(j) is int for word in words for j in word)

    def test_tables_share_one_int_per_element(self):
        # D5 has 1,920 elements, beyond the interpreter's small-int cache
        sy = build_system("D5")
        ids = {id(x) for table in (sy.inverse, *sy.right, *sy.left) for x in table}
        assert len(ids) == sy.order

    def test_e6_invariants(self):
        sy = build_system("E6")
        order = np.arange(sy.order)
        lengths = np.array(sy.lengths)
        inverse = np.array(sy.inverse)
        assert (inverse[inverse] == order).all()
        for j in range(sy.rank):
            right, left = np.array(sy.right[j]), np.array(sy.left[j])
            assert (right[right] == order).all()
            assert (abs(lengths[right] - lengths) == 1).all()
            assert (left == inverse[right[inverse]]).all()
        for w in range(1, sy.order):
            word = sy.word(w)
            assert len(word) == sy.lengths[w]
            assert sy.word(sy.right[word[-1]][w]) == word[:-1]

    def test_key_packing_refuses_what_does_not_fit(self):
        assert _pack_keys(np.array([[63, -63]])).tolist() == [63 - 63 * 128]
        for lam in ([[64, 0]], [[0, -64]]):
            with pytest.raises(ValueError):
                _pack_keys(np.array(lam))
        with pytest.raises(ValueError):
            _pack_keys(np.zeros((1, 10), dtype=np.int64))


class TestWords:
    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_mult_concatenates_words_on_every_pair(self, label):
        sy = build_system(label)
        words = [sy.word(w) for w in range(sy.order)]
        for a in range(sy.order):
            for b in range(sy.order):
                assert sy.mult(a, b) == sy.from_word(words[a] + words[b]), (a, b)

    def test_mult_concatenates_words_on_e6(self):
        sy = build_system("E6")
        rng = random.Random(31)
        for _ in range(2000):
            a, b = rng.randrange(sy.order), rng.randrange(sy.order)
            assert sy.mult(a, b) == sy.from_word(sy.word(a) + sy.word(b)), (a, b)

    @pytest.mark.parametrize("label", ["G2", "A3", "B3", "D4", "F4"])
    def test_support_is_the_set_of_letters(self, label):
        # is_boolean reads the support masks, built from the last letters
        sy = build_system(label)
        assert sy.last_letter[0] == sy.rank
        for w in range(sy.order):
            support = frozenset(sy.word(w))
            assert support == {j for j in range(sy.rank) if sy._support_masks[w] >> j & 1}
            assert sy.is_boolean(w) == (len(support) == sy.lengths[w])

    def test_no_library_path_builds_every_word(self):
        sy = build_system("E6")
        for w in range(sy.order):
            sy.word_name(w)
        w = sy.element("s1*s3*s4*s2")
        assert sy.mult(w, sy.inverse[w]) == 0
        assert frozenset(sy.word(w)) == frozenset([0, 1, 2, 3])
        assert sy.is_boolean(w)
        assert sy.w0_times[0] == sy.w0
        assert len(sy.parabolic((0, 1)).subgroup) == 4
        sy.dominance_keys
        assert RTable(sy).r_poly(sy.w0, 0).coeff(sy.lengths[sy.w0]) == 1

    def test_e6_build_and_dominance_keys_traced_peak(self):
        # one byte per element for the words, and key matrices packed a few
        # strata at a time, peak at about 15 MB; a word tuple per element
        # and whole-group key matrices took about 42 MB
        tracemalloc.start()
        try:
            build_system("E6").dominance_keys
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


def reference_dominance_fields(system, w):
    """The rank x rank coefficients of alpha_k in omega_i - w^-1 omega_i, by
    applying to each omega_i the letters of the canonical word of w^-1, the
    last letter first.  With d = omega_i - mu, the reflection s takes mu to
    mu - <mu, alpha_s^v> alpha_s, and <mu, alpha_s^v> is
    delta_is - sum_k d[k] cartan[s][k]."""
    rank, cartan = system.rank, system.cartan
    rows = []
    for i in range(rank):
        d = [0] * rank
        for s in reversed(system.word(system.inverse[w])):
            d[s] += (i == s) - sum(d[k] * cartan[s][k] for k in range(rank))
        rows.append(d)
    return rows


class TestDominanceKeys:
    @pytest.mark.parametrize("label", ["A3", "B3", "G2", "F4"])
    def test_matches_reference(self, label):
        sy = build_system(label)
        keys, high = sy.dominance_keys
        assert high == int.from_bytes(b"\x80" * sy.rank ** 2, "little")
        for w in range(sy.order):
            fields = [f for row in reference_dominance_fields(sy, w) for f in row]
            assert keys[w] == int.from_bytes(bytes(fields), "little"), w

    @pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "C3",
                                       "D4", "D5", "F4", "G2"])
    def test_holds_on_every_comparable_pair(self, label):
        sy = build_system(label)
        keys, high = sy.dominance_keys
        for x in range(sy.order):
            kx = keys[x] | high
            assert all((kx - keys[y]) & high == high for y in sy.bruhat_downset(x)), x

    def test_packing_refuses_a_field_of_128(self):
        assert _pack_fields(np.array([[127, 1, 0]])) == [127 + 256]
        assert _pack_fields(np.zeros((2, 2, 2), dtype=np.int16)) == [0, 0]
        with pytest.raises(ValueError):
            _pack_fields(np.array([[0, 128]]))

    def test_built_on_first_use(self):
        sy = build_system("B3")
        assert "dominance_keys" not in vars(sy)
        assert sy.dominance_keys is sy.dominance_keys


class TestBruhat:
    def test_identity_minimum(self, a3):
        assert all(a3.bruhat_leq(0, w) for w in range(a3.order))

    def test_length_monotone(self, a3):
        for x in range(a3.order):
            for y in range(a3.order):
                if a3.bruhat_leq(x, y):
                    assert a3.lengths[x] <= a3.lengths[y]

    def test_paper_example(self, a3):
        assert a3.bruhat_leq(a3.element("s"), a3.element("s*r*t*s"))

    def test_downset_of_w0_is_everything(self, a3):
        assert len(a3.bruhat_downset(a3.w0)) == a3.order

    def test_graded_poset(self, a3):
        # every non-identity element covers something one step down
        for w in range(1, a3.order):
            assert any(
                a3.lengths[u] == a3.lengths[w] - 1 and a3.bruhat_leq(u, w)
                for u in range(a3.order)
            )

    @pytest.mark.parametrize("label", ["G2", "B2", "A3", "B3", "D4"])
    def test_matches_subword_property(self, label):
        # x <= y iff x is the product of a subword of a reduced word of y
        sy = build_system(label)
        belows = []
        for y in range(sy.order):
            below = {0}
            for j in sy.word(y):
                below |= {sy.right[j][u] for u in below}
            for x in range(sy.order):
                assert sy.bruhat_leq(x, y) == (x in below), (x, y)
            assert sy.bruhat_downset(y) == sorted(below)
            belows.append(below)
        # the interval [y, x] read off two rows is the downset of x filtered
        # by z >= y; it is [] when y is not <= x
        for x in range(sy.order):
            for y in range(sy.order):
                want = [z for z in sy.bruhat_downset(x) if y in belows[z]]
                assert sy.bruhat_interval(y, x) == want, (x, y)
                assert want or y not in belows[x]

    @pytest.mark.parametrize("label,pairs", [("B4", 40_249), ("F4", 396_809)])
    def test_comparable_pair_counts(self, label, pairs):
        assert len(build_system(label).comparable_pairs()) == pairs

    def test_comparable_pairs_share_element_ints(self):
        # one int object per element across all pairs, so a pair costs its
        # tuple and list slot, about 64 bytes; a fresh int per y took about 80
        sy = build_system("F4")
        for y in range(sy.order):
            sy._downset_row(y)
        tracemalloc.start()
        try:
            pairs = sy.comparable_pairs()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / len(pairs) < 70
        assert len({id(y) for _, y in pairs}) <= sy.order

    def test_rows_built_lazily(self):
        sy = build_system("F4")
        y = sy.w0
        before = len(sy._rows)
        assert sy.bruhat_leq(sy.element("s1*s3"), y)
        assert len(sy._rows) - before <= sy.lengths[y] + 1

    def test_preserved_by_w0_conjugation(self, a3):
        w0_conj = [a3.mult(w0w, a3.w0) for w0w in a3.w0_times]
        for x in range(a3.order):
            for y in range(a3.order):
                assert a3.bruhat_leq(x, y) == a3.bruhat_leq(w0_conj[x], w0_conj[y])


@pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4"])
def test_first_ascent_is_lowest_ascent(label):
    sy = build_system(label)
    assert len(sy.first_ascent) == sy.order
    for w in range(sy.order):
        ascents = [s for s in range(sy.rank) if sy.lengths[sy.right[s][w]] > sy.lengths[w]]
        assert sy.first_ascent[w] == (ascents[0] if ascents else sy.rank)


class TestPredicates:
    def test_descents(self, a3):
        assert a3.right_descents(0) == frozenset()
        assert a3.left_descents(a3.w0) == frozenset(range(3))
        rst = a3.element("r*s*t")
        assert a3.left_descents(rst) == frozenset([0])
        assert a3.right_descents(rst) == frozenset([2])

    def test_boolean(self, a3):
        assert a3.is_boolean(0)
        assert a3.is_boolean(a3.element("r*t*s"))
        assert not a3.is_boolean(a3.element("s*r*t*s"))

    def test_boolean_against_all_reduced_words(self, a3, b3):
        # brute force: w is boolean iff some reduced word is multiplicity-free
        for sy in (a3, b3):
            for w in range(sy.order):
                target_len = sy.lengths[w]
                found = [False]

                def walk(u, used, word_len):
                    if word_len == target_len:
                        found[0] = found[0] or (u == w)
                        return
                    for s in range(sy.rank):
                        if s in used:
                            continue
                        us = sy.right[s][u]
                        if sy.lengths[us] == word_len + 1:
                            walk(us, used | {s}, word_len + 1)

                walk(0, frozenset(), 0)
                assert sy.is_boolean(w) == found[0], sy.word_name(w)

    def test_bigrassmannian(self, a3):
        for s in range(3):
            assert a3.is_bigrassmannian(a3.right[s][0])
        assert not a3.is_bigrassmannian(a3.w0)
        assert not a3.is_bigrassmannian(0)

    def test_bigrassmannian_count_s4(self, a3):
        # descent pair (s2, s2) carries exactly 1 + q_{2,2} = 2 elements
        hits = [
            w
            for w in range(a3.order)
            if a3.is_bigrassmannian(w)
            and a3.left_descents(w) == frozenset([1])
            and a3.right_descents(w) == frozenset([1])
        ]
        assert len(hits) == 2


class TestParabolic:
    def test_empty(self, a3):
        par = a3.parabolic(())
        assert par.longest == 0
        assert len(par.coset_reps_right) == a3.order
        assert len(par.coset_reps_left) == a3.order

    def test_full(self, a3):
        par = a3.parabolic(range(3))
        assert par.longest == a3.w0
        assert par.coset_reps_right == (0,)

    def test_a2_example(self):
        a2 = build_system("A2")
        par = a2.parabolic([0])  # J = {s}
        reps = sorted(a2.word_name(w) for w in par.coset_reps_right)
        assert reps == ["e", "s1*s2", "s2"]

    def test_factorization(self, b3):
        for J in ([0], [0, 2], [1, 2]):
            par = b3.parabolic(J)
            assert len(par.coset_reps_right) * len(par.subgroup) == b3.order

    @pytest.mark.parametrize("label", ["A3", "B3", "D4", "F4"])
    def test_subgroup_is_closure_of_identity(self, label):
        # oracle: close {e} under right multiplication by the generators in J
        sy = build_system(label)
        for r in range(sy.rank + 1):
            for J in itertools.combinations(range(sy.rank), r):
                members, frontier = {0}, [0]
                while frontier:
                    frontier = {sy.right[j][w] for w in frontier for j in J} - members
                    members.update(frontier)
                closure = sorted(members, key=lambda w: (sy.lengths[w], w))
                par = sy.parabolic(J)
                assert par.subgroup == tuple(closure)
                assert par.longest == max(closure, key=lambda w: sy.lengths[w])


class TestParsing:
    def test_round_trip(self, a3):
        for w in range(a3.order):
            assert a3.element(a3.word_name(w)) == w

    @pytest.mark.parametrize("label", ["B3", "F4"])
    def test_word_name_spells_canonical_word(self, label):
        sy = build_system(label)
        assert sy.word_name(0) == "e"
        for _ in range(2):  # spelled on the first pass, kept for the second
            for w in range(1, sy.order):
                assert sy.word_name(w) == "*".join(sy.gen_names[j] for j in sy.word(w))

    def test_aliases(self, a3):
        assert a3.element("r*t*s") == a3.element("s1*s3*s2")
        assert a3.element("w0") == a3.w0

    def test_unknown_generator(self, a3):
        with pytest.raises(ValueError):
            a3.element("s9")
