"""Self-test of the benchmark: run with ``python3 -m pytest perfbench``.

Runs every workload at its smoke size (B3 scan, A4 tables, D4 point queries,
a 20-call query mix) through run.py's own command line, with and without
tracing, and fails if a result line breaks the schema of BENCHMARK.json or
a correctness gate.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def test_smoke_schema_and_gates():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        cwd=os.path.dirname(HERE), capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
