"""Compare the stratum-wise build with the reference breadth-first search on
the largest groups the default cap admits.

    PYTHONPATH=src python tests/check_enumeration.py [TYPE ...]

Exits 1 at the first table that differs.  It takes several seconds, so it
runs as its own CI step, outside the tier-1 tests.
"""

import sys
import time

from test_coxeter import assert_matches_reference

from vermaext.coxeter import build_system

LARGE = ("E6", "A7", "B6", "C6", "D6")


def main(labels):
    for label in labels or LARGE:
        start = time.perf_counter()
        system = build_system(label)
        built = time.perf_counter() - start
        assert_matches_reference(system)
        print("%s: order %d, built in %.2f s, every table matches the reference search"
              % (label, system.order, built))


if __name__ == "__main__":
    main(sys.argv[1:])
