"""Check the interval isomorphism search against two Bruhat automorphisms on
groups too large for tier-1.

    PYTHONPATH=src python tests/check_poset_isomorphism.py [TYPE ...]

Inversion and conjugation by w0 preserve the Bruhat order, so every interval
[y, x] is isomorphic to [y^-1, x^-1] and to [w0 y w0, w0 x w0], whose
elements come in another index order.  Every interval of at most
POSET_SIZE_CAP elements is tried; exits 1 at the first one the search calls
not isomorphic.
"""

import sys
import time

from vermaext.coxeter import build_system
from vermaext.intervals import POSET_SIZE_CAP, poset_isomorphic

LARGE = ("A4", "D4")


def main(labels):
    for label in labels or LARGE:
        sy = build_system(label)
        start = time.perf_counter()
        inv = sy.inverse
        w0_conj = [sy.mult(w0w, sy.w0) for w0w in sy.w0_times]
        tried = 0
        for x, y in sy.comparable_pairs():
            if len(sy.bruhat_interval(y, x)) > POSET_SIZE_CAP:
                continue
            for image in ((inv[y], inv[x]), (w0_conj[y], w0_conj[x])):
                if not poset_isomorphic(sy, (y, x), sy, image):
                    sys.exit("%s: [%s, %s] not matched to [%s, %s]" % (
                        label, sy.word_name(y), sy.word_name(x),
                        sy.word_name(image[0]), sy.word_name(image[1])))
            tried += 1
        print("%s: %d intervals, each matched to its inverse and w0-conjugate copy, in %.2f s"
              % (label, tried, time.perf_counter() - start))


if __name__ == "__main__":
    main(sys.argv[1:])
