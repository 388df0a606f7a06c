import tracemalloc

import pytest

from vermaext import intervals
from vermaext.coxeter import CoxeterSystem, build_system
from vermaext.intervals import (
    IntervalTooLargeError,
    class_r_constancy,
    equiv_classes,
    poset_isomorphic,
)
from vermaext.refdata import A3_CLASS_COUNT, A3_CLASS_SIZES, A3_PAIR_COUNT
from vermaext.rpoly import RTable


@pytest.fixture(scope="module")
def a3():
    return build_system("A3")


@pytest.fixture(scope="module")
def part3(a3):
    return equiv_classes(a3)


class TestPartition:
    def test_pairs_are_comparable(self, a3, part3):
        for x, y in part3.pairs:
            assert a3.bruhat_leq(y, x)
        assert len(part3.pairs) == A3_PAIR_COUNT

    def test_diagonal_single_class(self, a3, part3):
        where = dict(zip(part3.pairs, part3.cids))
        for w in range(a3.order):
            assert where[(w, w)] == where[(0, 0)]
            assert part3.same_class((w, w), (0, 0))

    def test_paper_move(self, a3, part3):
        rts = a3.element("r*t*s")
        srts = a3.element("s*r*t*s")
        assert part3.same_class((rts, 0), (srts, a3.element("s")))

    def test_golden_class_structure(self, part3):
        assert len(part3.classes) == A3_CLASS_COUNT
        assert part3.class_sizes() == A3_CLASS_SIZES

    def test_length_gap_is_class_invariant(self, a3, part3):
        for members in part3.classes:
            gaps = {a3.lengths[x] - a3.lengths[y] for x, y in members}
            assert len(gaps) == 1

    def test_moves_stay_inside_classes(self, a3, part3):
        for (x, y) in part3.pairs:
            for s in range(a3.rank):
                xs, ys = a3.right[s][x], a3.right[s][y]
                if a3.lengths[xs] < a3.lengths[x] and a3.lengths[ys] < a3.lengths[y]:
                    assert part3.same_class((x, y), (xs, ys))

    def test_w0_e_is_singleton(self, a3, part3):
        assert part3.class_of(a3.w0, 0) == [(a3.w0, 0)]

    def test_lookup_refuses_incomparable_pairs(self, a3, part3):
        with pytest.raises(KeyError):
            part3.class_of(0, a3.w0)
        with pytest.raises(KeyError):
            part3.same_class((0, 0), (0, a3.w0))
        with pytest.raises(KeyError):
            part3.boolean_member(a3.order, 0)
        # as a key x * order + y, (1, order) would alias the pair (2, e)
        with pytest.raises(KeyError):
            part3.class_of(1, a3.order)
        with pytest.raises(KeyError):
            part3.boolean_member(1, a3.order)
        with pytest.raises(KeyError):
            part3.class_of(2, -a3.order)


def _bfs_classes(system):
    """Classes of the simultaneous-descent moves by breadth-first search over
    both directions of every move, numbered by their least pair index and
    listed in pair order."""
    pairs = system.comparable_pairs()
    where = {p: i for i, p in enumerate(pairs)}
    lengths = system.lengths
    seen = {}
    for start in pairs:
        if start in seen:
            continue
        seen[start] = start
        queue = [start]
        for x, y in queue:
            for table in system.right + system.left:
                q = (table[x], table[y])
                down = lengths[q[0]] < lengths[x] and lengths[q[1]] < lengths[y]
                up = lengths[q[0]] > lengths[x] and lengths[q[1]] > lengths[y]
                if (down or up) and q not in seen:
                    assert q in where, "a move left the comparable pairs"
                    seen[q] = start
                    queue.append(q)
    members = {}
    for p in pairs:
        members.setdefault(seen[p], []).append(p)
    classes = sorted(members.values(), key=lambda c: where[c[0]])
    return classes, {p: cid for cid, c in enumerate(classes) for p in c}


@pytest.mark.parametrize("label", ["A1", "A2", "G2", "A3", "B3", "D4", "B4"])
def test_partition_matches_bfs_closure(label):
    system = build_system(label)
    part = equiv_classes(system)
    classes, class_id = _bfs_classes(system)
    assert part.classes == classes
    assert dict(zip(part.pairs, part.cids)) == class_id


@pytest.mark.parametrize("label", ["B4", "F4"])
def test_partition_traced_peak_per_pair(label):
    # the edges are hooked one move at a time and none is kept, so the peak
    # is about 37 bytes a pair, 16 of them the kept keys and class ids; the
    # whole edge list held at once took about 110
    system = build_system(label)
    for y in range(system.order):
        system._downset_row(y)
    tracemalloc.start()
    try:
        part = equiv_classes(system)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(part.keys) < 64


@pytest.mark.parametrize("label", ["B3", "D4"])
def test_class_of_spells_one_class(label):
    # class_of gathers one class's members off the class ids; it must list
    # what the whole class list holds, in the same order
    part = equiv_classes(build_system(label))
    for pair, cid in zip(part.pairs, part.cids.tolist()):
        assert part.class_of(*pair) == part.classes[cid]


class TestRConstancy:
    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_exhaustive(self, label):
        sy = build_system(label)
        ok, violations = class_r_constancy(equiv_classes(sy), RTable(sy))
        assert ok and violations == []

    def test_diagonal_class_all_one(self, a3, part3):
        rt = RTable(a3)
        from vermaext.poly import LaurentPoly

        for x, y in part3.class_of(0, 0):
            assert rt.r_poly(x, y) == LaurentPoly({0: 1})


class TestBooleanCertificate:
    def test_paper_pair(self, a3, part3):
        rts = a3.element("r*t*s")
        assert a3.is_boolean(rts)
        assert part3.boolean_member(rts, 0) is True
        assert _scan_class(a3, part3.class_of(rts, 0)) is not None

    def test_near_longest(self, a3, part3):
        w0s = a3.right[1][a3.w0]
        assert part3.boolean_member(a3.w0, w0s) is True
        assert _scan_class(a3, part3.class_of(a3.w0, w0s)) is not None

    def test_d4_top_pair_unknown(self):
        d4 = build_system("D4")
        part = equiv_classes(d4)
        assert part.boolean_member(d4.w0, 0) is False

    def test_sound_against_signs(self, a3, part3):
        # every boolean-certified pair also passes the sign screen
        rt = RTable(a3)
        for x, y in part3.pairs:
            if part3.boolean_member(x, y):
                assert rt.sign_compatibility(x, y) == []


def _scan_class(system, members):
    """A direct search of the class for a witness: x-boolean first, then
    w0y-boolean."""
    for wx, wy in members:
        if system.is_boolean(wx):
            return ("x-boolean", wx, wy)
    for wx, wy in members:
        if system.is_boolean(system.mult(system.w0, wy)):
            return ("w0y-boolean", wx, wy)
    return None


class TestBooleanMemo:
    @pytest.mark.parametrize("label", ["A3", "B3", "D4"])
    def test_memo_matches_direct_scan(self, label):
        sy = build_system(label)
        part = equiv_classes(sy)
        for x, y in part.pairs:
            want = _scan_class(sy, part.class_of(x, y)) is not None
            assert part.boolean_member(x, y) is want
            assert part.boolean_member(x, y) is want  # second call reads the flags

    def test_nothing_searched_at_construction(self, monkeypatch):
        counted = []
        original = CoxeterSystem.is_boolean
        monkeypatch.setattr(
            CoxeterSystem, "is_boolean",
            lambda self, w: counted.append(w) or original(self, w),
        )
        equiv_classes(build_system("D4"))
        assert counted == []


class TestPosetIso:
    def test_self(self, a3):
        rts = a3.element("r*t*s")
        assert poset_isomorphic(a3, (0, rts), a3, (0, rts))

    def test_two_chains(self, a3):
        assert poset_isomorphic(
            a3, (0, a3.element("s1")), a3, (0, a3.element("s3"))
        )

    def test_paper_nonisomorphism(self, a3):
        rts = a3.element("r*t*s")
        srts = a3.element("s*r*t*s")
        assert not poset_isomorphic(a3, (0, rts), a3, (a3.element("s"), srts))

    def test_interval_sizes_differ(self, a3):
        rts = a3.element("r*t*s")
        srts = a3.element("s*r*t*s")
        assert len(a3.bruhat_interval(0, rts)) == 8
        assert len(a3.bruhat_interval(a3.element("s"), srts)) == 10

    def test_boolean_cube(self, a3):
        # [e, rts] is the poset of subsets of a 3-set: compare against [e, sub]
        b3 = build_system("B3")
        cube1 = (0, a3.element("r*t*s"))
        cube2 = (0, b3.element("s0*s2"))
        assert not poset_isomorphic(a3, cube1, b3, cube2)  # 8 vs 4 elements
        square_a = (0, a3.element("s1*s3"))
        assert poset_isomorphic(a3, square_a, b3, cube2)

    def test_cross_system(self, a3):
        b3 = build_system("B3")
        assert poset_isomorphic(
            a3, (0, a3.element("s1")), b3, (0, b3.element("s2"))
        )

    def test_cap(self, a3):
        d4 = build_system("D4")
        with pytest.raises(IntervalTooLargeError):
            poset_isomorphic(d4, (0, d4.w0), d4, (0, d4.w0))

    def test_rank_profile_filter(self, a3):
        # intervals of equal size but different rank profiles
        i1 = (0, a3.element("r*t*s"))  # ranks 1,3,3,1
        chain = (0, a3.element("s1*s2*s1"))
        assert not poset_isomorphic(a3, i1, a3, chain)

    @pytest.mark.parametrize("label", ["A3", "B3"])
    def test_automorphic_copies(self, label):
        # inversion and conjugation by w0 are Bruhat automorphisms; the copies
        # list their elements in another index order, so the match found is
        # not the identity
        sy = build_system(label)
        inv = sy.inverse
        w0_conj = [sy.mult(w0w, sy.w0) for w0w in sy.w0_times]
        for x, y in sy.comparable_pairs():
            assert poset_isomorphic(sy, (y, x), sy, (inv[y], inv[x]))
            assert poset_isomorphic(sy, (y, x), sy, (w0_conj[y], w0_conj[x]))

    def test_no_match_past_the_filters(self, a3, monkeypatch):
        # bottom 0, atoms 1-4, coatoms 5-8 over the given atoms, top 9; the
        # atom-coatom covers form one 8-cycle or two 4-cycles, which have
        # the same (rank, up, down) degrees
        def graded(coatom_covers):
            down = [frozenset(), *[frozenset({0})] * 4,
                    *map(frozenset, coatom_covers), frozenset(range(5, 9))]
            up = [sum(i in d for d in down) for i in range(10)]
            return [0, 1, 1, 1, 1, 2, 2, 2, 2, 3], up, down

        posets = {
            "cycle": graded([{1, 2}, {2, 3}, {3, 4}, {4, 1}]),
            "relabelled cycle": graded([{3, 1}, {2, 4}, {1, 4}, {3, 2}]),
            "two squares": graded([{1, 2}, {3, 4}, {1, 2}, {3, 4}]),
        }
        degrees = {name: sorted(zip(r, u, map(len, d))) for name, (r, u, d) in posets.items()}
        assert degrees["cycle"] == degrees["two squares"]
        monkeypatch.setattr(intervals, "_interval_poset", lambda system, y, x: posets[x])
        assert not poset_isomorphic(a3, (0, "cycle"), a3, (0, "two squares"))
        assert poset_isomorphic(a3, (0, "cycle"), a3, (0, "relabelled cycle"))
