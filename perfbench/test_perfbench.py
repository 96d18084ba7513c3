"""Tests of the benchmark itself: reproducible digests and exact counts,
and refusal to run without the library sources.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def run_ok(workload: str, seed: int, trace: int) -> tuple[str, dict, dict]:
    """(parity digest, exact counts or {}, result object) of one short run."""
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = re.search(r"^parity digest .*: ([0-9a-f]{64})$", proc.stdout, re.M).group(1)
    counts = next((json.loads(l.split(": ", 1)[1]) for l in lines
                   if l.startswith("counts: ")), {})
    return digest, counts, json.loads(lines[-1])


def test_digest_and_counts_repeat_and_follow_the_seed():
    digest_a, counts_a, result_a = run_ok("large-fallback", 3, trace=1)
    digest_b, counts_b, _ = run_ok("large-fallback", 3, trace=1)
    digest_c, _, result_c = run_ok("large-fallback", 4, trace=0)

    assert digest_a == digest_b
    assert counts_a == counts_b
    assert digest_c != digest_a
    for key in ("tsp.subsets_priced", "lp_round.catalog_tours", "lp_round.lp_dense_bytes",
                "itp.candidate_offsets", "big_matching.big_customers", "tsp.exact_tsp.calls"):
        assert key in counts_a

    # alg2 refuses every large catalog today; those attempts stay failures.
    assert result_a["correct"] and result_c["correct"]
    assert result_c["failed"] * 2 == result_c["attempted"]
    assert result_c["metrics"]["ok_frac"]["value"] == 0.5
    assert result_c["metrics"]["cost_ratio_lb"]["value"] >= 1.0
    assert counts_a["lp_round.catalog_refused"] > 0
    assert result_a["metrics"]["trace.attributed_frac"]["value"] > 0.95


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "exact-lp", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
