"""The parity tool runs on the benchmark's inputs and prints the same digests twice."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PARITY = Path(__file__).resolve().parent / "parity.py"


def test_parity_is_reproducible():
    # seed 1 of every workload, in two fresh processes
    runs = [
        subprocess.run(
            [sys.executable, str(PARITY), "--seeds", "1"],
            capture_output=True, text=True, check=True,
        ).stdout
        for _ in range(2)
    ]
    lines = runs[0].splitlines()
    assert [line.split()[:2] for line in lines[:-1]] == [
        ["star-compress", "seed=1"], ["star-query", "seed=1"], ["certify", "seed=1"],
    ]
    assert lines[-1].startswith("all ")
    assert runs[0] == runs[1]
