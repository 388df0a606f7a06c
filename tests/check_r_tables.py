"""Fill the R table over every comparable pair of D5 and B5, groups too large
for tier-1, and check it two ways: Delorme's specialization at v = 1 on every
pair, and the random-ascent recursion on 300 seeded pairs.

    PYTHONPATH=src python tests/check_r_tables.py [TYPE ...]

Prints the pair count and the fill time of each group, and for D5 the bytes
the filled memo holds as tracemalloc counts them.  Exits 1 at the first pair
that fails a check.  It takes several seconds per group, so it runs as its
own CI step, outside the tier-1 tests.
"""

import random
import sys
import time
import tracemalloc

from vermaext.coxeter import build_system
from vermaext.rpoly import RTable

LARGE = ("D5", "B5")
TRACED = ("D5",)
SEED = 20222
REPLAYS = 300


def fail(system, what, x, y):
    print("%s: %s fails at (%s, %s)"
          % (system.type_label, what, system.word_name(x), system.word_name(y)))
    sys.exit(1)


def main(labels):
    for label in labels or LARGE:
        system = build_system(label)
        pairs = system.comparable_pairs()
        traced = label in TRACED
        if traced:
            tracemalloc.start()
        start = time.perf_counter()
        rt = RTable(system)
        for x, y in pairs:
            rt.r_poly(x, y)
        filled = time.perf_counter() - start
        size = ""
        if traced:
            size = ", %.1f MB traced" % (tracemalloc.get_traced_memory()[0] / 2**20)
            tracemalloc.stop()
        for x, y in pairs:
            if not rt.delorme_check(x, y):
                fail(system, "Delorme's check", x, y)
        rng = random.Random(SEED)
        for x, y in rng.sample(pairs, REPLAYS):
            if rt.r_poly_random_ascents(x, y, rng) != rt.r_poly(x, y):
                fail(system, "the random-ascent replay", x, y)
        print("%s: %d pairs filled in %.2f s%s; Delorme holds on every pair, "
              "%d random-ascent replays agree" % (label, len(pairs), filled, size, REPLAYS))


if __name__ == "__main__":
    main(sys.argv[1:])
