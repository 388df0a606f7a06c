"""Check the Bruhat-graph reading of trivial KL polynomials against the KL
table on groups too large for tier-1.

    PYTHONPATH=src python tests/check_bruhat_oracles.py [TYPE ...]

In a Weyl group every u <= w has at least l(w) reflections t with ut <= w
(Deodhar), and p_{y,w} is the single monomial v^(l(w)-l(y)) iff every u in
[y, w] has exactly l(w) (Carrell-Peterson, with KL monotonicity).  Both are
read off the Bruhat rows here, with the reflections found as the conjugates
w s w^-1, and every comparable pair is compared with KLTable.is_trivial.
EquivPartition.trivial_kl, which the certificates read, is compared with
the same table.  Exits 1 at the first mismatch.
"""

import sys
import time

import numpy as np

from vermaext.coxeter import build_system
from vermaext.hecke import KLTable
from vermaext.intervals import equiv_classes

LARGE = ("F4", "D5", "B5")


def main(labels):
    for label in labels or LARGE:
        sy = build_system(label)
        start = time.perf_counter()
        order, lengths = sy.order, np.array(sy.lengths)
        right = np.array(sy.right)
        reflections = {sy.mult(sy.right[s][w], sy.inverse[w])
                       for w in range(order) for s in range(sy.rank)}
        if len(reflections) != lengths[-1]:
            sys.exit("%s: %d reflections, expected l(w0) = %d"
                     % (label, len(reflections), lengths[-1]))
        perms = []
        for t in reflections:
            perm = np.arange(order)
            for j in sy.word(t):
                perm = right[j][perm]
            perms.append(perm)
        below = np.stack([sy._downset_bits(w) for w in range(order)]).view(bool)
        above = np.ascontiguousarray(below.T)  # above[u, w]: u <= w
        count = sum(above[perm].astype(np.uint8) for perm in perms)
        short = np.argwhere(above & (count < lengths))
        if len(short):
            u, w = short[0].tolist()
            sys.exit("%s: %s <= %s has %d reflections below, fewer than l(w) = %d"
                     % (label, sy.word_name(u), sy.word_name(w), count[u, w], lengths[w]))
        # nontrivial[y, w]: some u in [y, w] has more than l(w), closed down
        # along the covers y < yt, one length at a time from the top
        nontrivial = above & (count > lengths)
        bounds = np.searchsorted(lengths, np.arange(lengths[-1] + 2))
        for k in reversed(range(lengths[-1])):
            lo, hi = bounds[k], bounds[k + 1]
            for perm in perms:
                up = perm[lo:hi]
                cover = lengths[up] == k + 1
                nontrivial[lo:hi][cover] |= nontrivial[up[cover]]
        kl = KLTable(sy)
        pairs = 0
        for w in range(order):
            ys = np.flatnonzero(below[w])
            got = ~nontrivial[ys, w]
            want = np.array([kl.is_trivial(y, w) for y in ys.tolist()])
            if (got != want).any():
                y = ys[np.argmax(got != want)]
                sys.exit("%s: p(%s, %s) is %s, the Bruhat graph says %s"
                         % (label, sy.word_name(y), sy.word_name(w),
                            kl.kl_poly(y, w), "trivial" if ~nontrivial[y, w] else "not"))
            pairs += len(ys)
        # trivial_kl[y]: every p_{y,w} and p_{e,w0 w} with w >= y trivial
        bad = nontrivial | nontrivial[0, sy.w0_times][None]
        want = ~(above & bad).any(1)
        got = equiv_classes(sy).trivial_kl
        if (got != want).any():
            sys.exit("%s: trivial_kl differs from the KL table at %s"
                     % (label, sy.word_name(int(np.argmax(got != want)))))
        print("%s: %d pairs and %d reflections, Carrell-Peterson and Deodhar hold, "
              "trivial_kl matches, in %.2f s" % (label, pairs, len(perms),
                                                 time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
