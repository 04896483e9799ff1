"""Self-check of the benchmark, on tiny inputs (about half a minute).

    python3 bench/selfcheck.py

from the root of a checkout.  It checks that

* every workload, untraced and traced, emits exactly the metric names of
  BENCHMARK.json with their units, and answers every job correctly;
* a corrupted expected answer is counted as a failed job;
* a TSS isomorphism whose edge map is wrong is rejected by the checker;
* the hard TSS negative really is one (brute force over all bijections);
* run.py exits non-zero, printing no result, where there is no source tree.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from itertools import permutations
from pathlib import Path

import run  # sets the BLAS thread caps before numpy loads
import checks
import gen
import numpy as np
import workloads

ROOT = Path.cwd()

# layer metrics that later changes are expected to cite
REQUIRED = [
    "cli.main.self_s",
    "groupoids.enumerate_functors.yielded",
    "groupoids.FiniteGroupoid.__eq__.calls",
    "bibundles.principality.biprincipal_ratio",
    "bibundles.bibundle_isomorphic.hit_ratio",
    "bibundles.tensor.carrier_points",
    "groups.group_isomorphisms.results",
    "tss.graph_automorphisms.order",
    "gauge.apply_gauge.points",
    "gauge.apply_gauge.computed_bytes",
    "io.load_field.bytes",
    "io.save_field.bytes",
    "picard_s", "verify_exact_s", "validate_s", "morita_s", "compose_s",
    "tss_iso_s", "tss_picard_ingredients_s", "gauge_apply_s", "gauge_check_s",
    "trace.overhead_ratio",
]


def corrupt_first(jobs):
    """Change the expected answer (never the exit code) of the first job."""
    exp = jobs[0].expect
    if "order" in exp:
        exp["order"] += 1
    elif "kind" in exp:
        exp["kind"] = "tss" if exp["kind"] != "tss" else "groupoid"
    else:
        exp["case"].A = exp["case"].A * 1.01


def check_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    missing = [n for n in REQUIRED if n not in names]
    assert not missing, f"BENCHMARK.json lacks {missing}"
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, runner = run.run(workload, 7, 0.1, trace, ROOT, size="tiny")
            assert result["correct"] and result["failed"] == 0, runner.failures
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metric names or units differ"
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values())
        print(f"ok  {workload}: metric names and units, all answers right")


def check_corruption():
    for workload in workloads.WORKLOADS:
        result, _ = run.run(workload, 7, 0.1, 0, ROOT, size="tiny",
                            corrupt=corrupt_first)
        ok_frac = result["metrics"]["ok_frac"]["value"]
        assert not result["correct"] and result["failed"] >= 1 and ok_frac < 1, \
            f"{workload}: a corrupted expected answer was not caught"
        print(f"ok  {workload}: corrupted answer counted, ok_frac {ok_frac:.3f}")


def check_edge_map():
    """A right tss-iso report passes; the same with two edge images swapped fails."""
    sys.path.insert(0, str(ROOT / "src"))
    import moritakit.cli as cli

    rng = np.random.default_rng(7)
    rdir = ROOT / "bench" / "work" / "selfcheck-edges"
    try:
        r = workloads.Round(rdir, rng, gen.Labeller(rng), "tiny")
        workloads.BUILDERS["equiv"](r)
        job = next(j for j in r.jobs if j.command == "tss-iso" and j.expect["exit"] == 0)
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(job.argv))
    finally:
        shutil.rmtree(rdir, ignore_errors=True)
    report = json.loads(buf.getvalue())
    failure = checks.check(job, code, report, rng)
    assert failure is None, failure
    emap = report["result"]["isomorphism"]["edges"]
    emap[0], emap[1] = emap[1], emap[0]
    assert checks.check(job, code, report, rng) is not None, "wrong edge map passed"
    print("ok  a tss-iso edge map with two images swapped is rejected")


def check_hard_negative():
    for n in (4, 8):
        _, _, e12 = gen.circulant(n, (1, 2), 0, [1.0, 1.0])
        _, _, e13 = gen.circulant(n, (1, 3), 0, [1.0, 1.0])
        target = sorted((t, h) for t, h, _ in e13)
        assert not any(sorted((p[t], p[h]) for t, h, _ in e12) == target
                       for p in permutations(range(n))), f"C{n}(1,2) ~ C{n}(1,3)"
    print("ok  C8(1,2) and C8(1,3) are not isomorphic")


def check_no_source():
    bare = ROOT / "bench" / "work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "gauge",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without a source tree: exit code", proc.returncode, "and no result")


if __name__ == "__main__":
    check_hard_negative()
    check_edge_map()
    check_names()
    check_corruption()
    check_no_source()
    print("benchmark self-check passed")
