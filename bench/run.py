"""moritakit benchmark: seeded CLI workloads with per-module layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload pic-enum --seed 1 --seconds 20 --trace 0

Each workload is a list of CLI jobs (one "round") on freshly generated
inputs, run through ``moritakit.cli.main(argv)`` in this process, one job
after the other, with stdout captured.  Rounds repeat until ``--seconds``
have passed.  Every job's answer is checked.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the ``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, and
its ``per_layer`` metrics with ``--trace 1``.  See bench/README.md.
"""
from __future__ import annotations

import os

# Cap BLAS threads at the cores this process may use, before numpy loads.
_CORES = str(len(os.sched_getaffinity(0)))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = _CORES

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

COMMANDS = ("picard", "verify-exact", "validate", "morita", "compose", "tss-iso",
            "tss-picard-ingredients", "gauge-apply", "gauge-check")
COLD_IMPORTS = 5


def cold_import_seconds(root: Path) -> float:
    """Import time of ``moritakit.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = ("import time; t = time.perf_counter(); import moritakit.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip())


class Runner:
    """Runs rounds of one workload and keeps per-round timings."""

    def __init__(self, cli, workload, seed, root: Path, size="full", corrupt=None):
        self.cli = cli
        self.build = workloads.BUILDERS[workload]
        self.size = size
        self.corrupt = corrupt
        self.rng = np.random.default_rng([seed, workloads.WORKLOADS.index(workload)])
        self.check_rng = np.random.default_rng([seed, 99])
        self.lab = gen.Labeller(self.rng)
        self.workdir = root / "bench" / "work" / f"{workload}-{seed}-{os.getpid()}"
        self.rounds = []  # dicts: inputs_s, wall_s, per-command seconds
        self.attempted = 0
        self.failures = []

    def round(self, tracer=None):
        rdir = self.workdir / f"r{len(self.rounds)}"
        t0 = time.perf_counter()
        r = workloads.Round(rdir, self.rng, self.lab, self.size)
        self.build(r)
        inputs = time.perf_counter() - t0
        if self.corrupt is not None:
            self.corrupt(r.jobs)
        per_cmd = dict.fromkeys(COMMANDS, 0.0)
        wall = 0.0
        try:
            for job in r.jobs:
                seconds, failure = self.run_job(job, tracer)
                per_cmd[job.command] += seconds
                wall += seconds
                self.attempted += 1
                if failure:
                    self.failures.append(f"{job.command}: {failure}")
        finally:
            shutil.rmtree(rdir, ignore_errors=True)
        self.rounds.append({"inputs_s": inputs, "wall_s": wall, **per_cmd,
                            "round_s": time.perf_counter() - t0})

    def run_until(self, start, seconds, tracer=None):
        """Whole rounds, at least one, while the next is expected to end in time.

        The next round is expected to take as long as the last one did.
        """
        first = len(self.rounds)
        while len(self.rounds) == first or (
                time.perf_counter() - start + self.rounds[-1]["round_s"] <= seconds):
            self.round(tracer)
        return self.rounds[first:]

    def run_job(self, job, tracer):
        if tracer is not None:
            tracer.job = self.attempted
        gc.collect()  # start every job from the same collector state
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = self.cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed job
            return time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        try:
            failure = checks.check(job, code, json.loads(buf.getvalue()),
                                   self.check_rng)
        except Exception as exc:  # a report the checker cannot read is wrong
            failure = f"malformed report: {type(exc).__name__}: {exc}"
        return seconds, failure

    def median(self, key, rounds=None):
        return statistics.median(r[key] for r in (rounds or self.rounds))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def run(workload, seed, seconds, trace, root: Path, size="full", corrupt=None):
    """One benchmark run; returns (result dict, runner)."""
    sys.path.insert(0, str(root / "src"))
    import moritakit.cli as cli

    spec = json.loads((root / "BENCHMARK.json").read_text())
    imports = [cold_import_seconds(root) for _ in range(COLD_IMPORTS)]
    runner = Runner(cli, workload, seed, root, size, corrupt)
    start = time.perf_counter()
    try:
        if not trace:
            runner.run_until(start, seconds)
            values = {
                "setup_s": statistics.median(imports),
                "wall_s": runner.median("wall_s"),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_frac": 1 - len(runner.failures) / runner.attempted,
            }
            wanted = spec["end_to_end"]
        else:
            values, traced = traced_run(runner, seconds, start, root, workload, seed)
            wanted = spec["per_layer"]
            # a listed layer metric of a function this workload never calls
            # is 0; a name that matches no traced function is an error
            for m in wanted:
                if m["name"] not in values:
                    if m["name"].rsplit(".", 1)[0] not in traced:
                        raise KeyError(f"{m['name']} matches no traced function")
                    values[m["name"]] = 0.0
    finally:
        runner.close()
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    result = {"correct": not runner.failures, "attempted": runner.attempted,
              "failed": len(runner.failures), "metrics": metrics}
    return result, runner


def traced_run(runner, seconds, start, root, workload, seed):
    """Untraced rounds for half the time, then traced rounds.

    The untraced rounds give the per-command seconds and the baseline for
    the tracing overhead; the traced rounds give the layer metrics.
    """
    import tracing

    untraced = runner.run_until(start, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = runner.run_until(start, seconds, tracer)
    finally:
        tracer.uninstall()
    values = tracer.metrics(len(traced))
    for command in COMMANDS:
        values[command.replace("-", "_") + "_s"] = runner.median(command, untraced)
    values["trace.untraced_wall_s"] = runner.median("wall_s", untraced)
    values["trace.traced_wall_s"] = runner.median("wall_s", traced)
    values["trace.overhead_ratio"] = (values["trace.traced_wall_s"]
                                      / values["trace.untraced_wall_s"])
    tracer.write(root / "bench" / "out" / f"trace-{workload}",
                 {"workload": workload, "seed": seed, "metrics": values,
                  "untraced_rounds": untraced, "traced_rounds": traced})
    return values, set(tracer.stats)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "moritakit" / "cli.py").is_file():
        print(f"no moritakit source under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    result, runner = run(args.workload, args.seed, args.seconds, args.trace, root)
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in runner.rounds)
    print(f"{args.workload}: {runner.attempted} job(s), {len(runner.failures)} failed; "
          f"job seconds per round: {walls}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
