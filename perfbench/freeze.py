"""Write perfbench/digests.json: the frozen outputs the workloads check.

    python3 perfbench/freeze.py

Run it in a git checkout of a commit whose outputs are trusted; it records
that commit.  It records, for every size: the scan stdout digest, the
full-table digest, per-query R digests of the point stream for the check
seed and the held-out seed of perfbench/metrics.json, and the query-mix call
catalogue with one stdout digest per call (made with an empty cache).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import vermaext  # noqa: E402
import vermaext.cli  # noqa: E402,F401

import workloads as wl  # noqa: E402

CATALOGUE_SEED = 0
PER_STRATUM = 6


def catalogue(rng: random.Random) -> list[dict]:
    """Call argv lists by stratum; every one must exit 0."""
    out = []

    def add(stratum, argv):
        if all(e["argv"] != argv for e in out):
            out.append({"stratum": stratum, "argv": argv})

    for g in wl.MIX_GROUPS:
        sy = vermaext.build_system(g)
        pairs = sy.comparable_pairs()
        name = sy.word_name
        for t in wl.PAIR_TEMPLATES:
            for _ in range(PER_STRATUM):
                x, y = rng.choice(pairs)
                fmt = ["--format", rng.choice(("text", "json", "csv"))]
                argv = {
                    "kl": ["kl", "--type", g, "--from", name(y), "--to", name(x)],
                    "kl-nontrivial": ["kl", "--type", g, "--nontrivial-from", name(y)],
                    "rpoly": ["rpoly", "--type", g, "--from", name(x), "--to", name(y)],
                    "grid": ["grid", "--type", g, "--target", name(y), "--source", name(x)],
                    "bound": ["bound", "--type", g, "--target", name(y), "--source", name(x)],
                    "triangle": ["triangle", "--type", g, "--from", name(x), "--to", name(y)],
                    "classes": ["classes", "--type", g]
                    + (["--pair", "%s,%s" % (name(x), name(y))] if rng.random() < 0.5 else []),
                }[t]
                add("%s:%s" % (t, g), argv + fmt)
        if g not in wl.MIX_TABLE_GROUPS:
            continue
        for fmt in ("text", "json", "csv"):
            add("rpoly-table:" + g, ["rpoly", "--type", g, "--table", "--format", fmt])
            add("rpoly-expected:" + g,
                ["rpoly", "--type", g, "--table", "--expected", "--format", fmt])
        for cmd in ("srpoly", "prpoly"):
            for _ in range(PER_STRATUM):
                J = sorted(rng.sample(sy.gen_names, rng.randrange(1, sy.rank)))
                add("%s-table:%s" % (cmd, g),
                    [cmd, "--type", g, "--J", ",".join(J), "--table",
                     "--format", rng.choice(("text", "json"))])
    for suite in wl.SUITES:
        add("verify:" + suite, ["verify", "--suite", suite])
    a5 = vermaext.build_system("A5")
    for _ in range(2 * PER_STRATUM):
        w = rng.randrange(1, a5.order)
        add("predict:A5", ["predict", "--type", "A5", "--w", a5.word_name(w),
                           "--format", rng.choice(("text", "json"))])
    return out


def digest_catalogue(entries):
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix="freeze-", dir=wl.WORK_DIR)
    try:
        for i, entry in enumerate(entries):
            cache = os.path.join(work, str(i))
            rc, out = wl.run_cli(vermaext, entry["argv"] + ["--cache-dir", cache])
            if rc != 0:
                raise SystemExit("catalogue call failed: %s" % " ".join(entry["argv"]))
            entry["sha256"] = wl.sha256(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    point_seeds = (wl.seeds()["check"], wl.seeds()["held_out"])

    frozen = {"scan-b4": {}, "tables-f4": {}, "point-e6": {}}
    for size in ("full", "smoke"):
        scan = wl.Scan(vermaext, size, 0, None)
        rc, out = scan.unit().outputs
        data = json.loads(out)
        print(size, "scan counts", data["pairs"], len(data["sign_violations"]),
              len(data["uncertified"]))
        frozen["scan-b4"][size] = {"stdout_sha256": wl.sha256(out)}

        tables = wl.Tables(vermaext, size, 0, None)
        tables.setup()
        pairs, part, kl, rt, _ = tables.unit().outputs
        print(size, "table counts", len(pairs), len(part.classes))
        frozen["tables-f4"][size] = {
            "tables_sha256": wl.tables_digest(tables.system, kl, rt, pairs, part)}
        del pairs, part, kl, rt, tables

        frozen["point-e6"][size] = {}
        for seed in point_seeds:
            point = wl.Point(vermaext, size, seed, None)
            point.setup()
            point.prepare()
            frozen["point-e6"][size][str(seed)] = [
                wl.sha256(repr(p.items())) for p in point.unit().outputs]

    entries = catalogue(random.Random(CATALOGUE_SEED))
    digest_catalogue(entries)
    frozen["query-mix"] = {"catalogue": entries}
    frozen["frozen_from_commit"] = commit
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
