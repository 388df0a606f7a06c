"""Compare the descent-class partition with the breadth-first closure of the
tests on groups too large for tier-1.

    PYTHONPATH=src python tests/check_partition.py [TYPE ...]

Exits 1 at the first group whose class ids or least pairs differ.  The
closure takes several seconds per group, so this runs as its own CI step,
outside the tier-1 tests.
"""

import sys
import time

from test_intervals import _bfs_classes

from vermaext.coxeter import build_system
from vermaext.intervals import equiv_classes

LARGE = ("F4", "D5", "B5")


def main(labels):
    for label in labels or LARGE:
        system = build_system(label)
        start = time.perf_counter()
        part = equiv_classes(system)
        built = time.perf_counter() - start
        classes, class_id = _bfs_classes(system)
        if part.cids.tolist() != [class_id[p] for p in part.pairs]:
            sys.exit("%s: class ids differ from the breadth-first closure" % label)
        if part.pairs_at(part.least) != [members[0] for members in classes]:
            sys.exit("%s: least pairs differ from the breadth-first closure" % label)
        print("%s: %d pairs in %d classes, built in %.2f s, matching the closure"
              % (label, len(part.keys), len(part.least), built))


if __name__ == "__main__":
    main(sys.argv[1:])
