"""Check the weight-dominance keys that prune the R recursion on groups too
large for the tier-1 tests: every comparable pair of B5 and A6, and the full
downsets of 500 seeded elements of E6.

    PYTHONPATH=src python tests/check_dominance_keys.py

The keys must pass their test on every pair y <= x, or r_poly would return 0
for a nonzero R-polynomial.  Exits 1 at the first pair that fails.  It takes
several seconds, so it runs as its own CI step, outside the tier-1 tests.
"""

import random
import sys
import time

from vermaext.coxeter import build_system

SEED = 20221
E6_SAMPLE = 500


def check(system, uppers) -> int:
    """The number of pairs y <= x checked for the x in uppers; exits 1 at
    the first one whose keys fail the test."""
    keys, high = system.dominance_keys
    pairs = 0
    for x in uppers:
        kx = keys[x] | high
        below = system.bruhat_downset(x)
        for y in below:
            if (kx - keys[y]) & high != high:
                print("%s: the keys fail on %s <= %s"
                      % (system.type_label, system.word_name(y), system.word_name(x)))
                sys.exit(1)
        pairs += len(below)
    return pairs


def main():
    for label in ("B5", "A6", "E6"):
        start = time.perf_counter()
        system = build_system(label)
        if label == "E6":
            uppers = random.Random(SEED).sample(range(system.order), E6_SAMPLE)
        else:
            uppers = range(system.order)
        pairs = check(system, uppers)
        print("%s: the keys hold on %d comparable pairs below %d elements (%.1f s)"
              % (label, pairs, len(uppers), time.perf_counter() - start))


if __name__ == "__main__":
    main()
