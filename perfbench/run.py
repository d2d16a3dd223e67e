"""recaudit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload audit-run --seed 1 --seconds 50 --trace 0

The benchmark writes a seeded synthetic event log, then invokes the recaudit
command line on it as child processes, one at a time (a closed loop with one
client, ``--threads 1``), until ``--seconds`` have passed.  Every invocation
is checked: exit code, warning codes, no traceback, the workload's output
shape, and report bytes identical to a reference ``--threads 2`` invocation.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
also runs the command twice in process under :mod:`tracing` and reports the
per-layer metrics.  The last line of standard output is the result object;
the lines before it list every metric with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

from gen import write_log  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# timed invocations (and dry runs) per result, however short --seconds is
MIN_TIMED = 3
INPUT_NAME = "events.csv"
OUTPUT_NAME = "out"
# the report that carries timings, and so is left out of the byte comparison
TIMED_REPORT = "manifest.json"

EMPTY_TRACE = {"names": [], "spans": [], "counts": {}, "cases_scored": {}}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    warnings: frozenset[str]
    stdout: bytes
    problems: list[str] = field(default_factory=list)
    digest: dict[str, str] | None = None


def _child_env() -> dict[str, str]:
    # recaudit reads RECAUDIT_* variables as config overrides; none may leak in
    env = {k: v for k, v in os.environ.items() if not k.startswith("RECAUDIT_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(argv: list[str], workdir: str) -> Invocation:
    """Run one child to completion, timing it and reading its rusage."""
    stdout_path = os.path.join(workdir, "stdout.txt")
    stderr_path = os.path.join(workdir, "stderr.txt")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=_child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    # os.wait4 reaped the child; tell Popen, so that it never waits for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(stdout_path, "rb") as handle:
        stdout = handle.read()
    with open(stderr_path, "rb") as handle:
        stderr = handle.read().decode("utf-8", "replace")
    result = Invocation(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode,
        warnings=_warning_codes(stderr),
        stdout=stdout,
    )
    if "Traceback" in stderr:
        result.problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return result


def _warning_codes(stderr: str) -> frozenset[str]:
    return frozenset(
        line.split(":", 1)[0] for line in stderr.splitlines() if line.startswith("W-")
    )


def _report_digest(outdir: str) -> dict[str, str]:
    digest = {}
    for folder, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(folder, name)
            relative = os.path.relpath(path, outdir)
            if relative == TIMED_REPORT:
                continue
            with open(path, "rb") as handle:
                digest[relative] = hashlib.sha256(handle.read()).hexdigest()
    return digest


class Bench:
    """One workload on one seed: its inputs, invocations and checks."""

    def __init__(self, workload: Workload, seed: int, workdir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.reference: dict[str, str] | None = None

    def cli_args(self, threads: int) -> list[str]:
        return [
            *self.workload.args,
            "--input", INPUT_NAME,
            "--output-dir", OUTPUT_NAME,
            "--seed", str(self.seed),
            "--threads", str(threads),
        ]

    def fail(self, invocation: Invocation, problem: str) -> None:
        """A check made after the invocation was recorded failed."""
        print(f"check failed (traced): {problem}", file=sys.stderr)
        if not invocation.problems:
            self.failed += 1
        invocation.problems.append(problem)

    def _record(self, invocation: Invocation, label: str) -> Invocation:
        self.attempted += 1
        if invocation.problems:
            self.failed += 1
            for problem in invocation.problems:
                print(f"check failed ({label}): {problem}", file=sys.stderr)
        return invocation

    def dry_run(self) -> Invocation:
        argv = [sys.executable, "-m", "recaudit.cli", *self.cli_args(1), "--dry-run"]
        result = _spawn(argv, self.workdir)
        if result.exit_code != 0:
            result.problems.append(f"dry run exited {result.exit_code}")
        else:
            try:
                if json.loads(result.stdout).get("dry_run") is not True:
                    result.problems.append("dry run printed no plan")
            except ValueError:
                result.problems.append("dry run printed no JSON plan")
        return self._record(result, "dry run")

    def invoke(self, threads: int, traced_spans: str | None = None) -> Invocation:
        """One checked invocation; the report digest of the first one is the reference."""
        outdir = os.path.join(self.workdir, OUTPUT_NAME)
        shutil.rmtree(outdir, ignore_errors=True)
        if traced_spans is None:
            argv = [sys.executable, "-m", "recaudit.cli", *self.cli_args(threads)]
            label = f"threads {threads}"
        else:
            tracer = os.path.join(HERE, "tracing.py")
            argv = [sys.executable, tracer, traced_spans, *self.cli_args(threads)]
            label = "traced"
        result = _spawn(argv, self.workdir)
        if result.exit_code != self.workload.exit_code:
            result.problems.append(
                f"exit code {result.exit_code}, expected {self.workload.exit_code}"
            )
        if result.warnings != self.workload.warnings:
            result.problems.append(
                f"warnings {sorted(result.warnings)}, expected {sorted(self.workload.warnings)}"
            )
        if os.path.isdir(outdir):
            try:
                result.problems.extend(self.workload.check_outputs(outdir))
            except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
                result.problems.append(f"unreadable outputs: {exc!r}")
            result.digest = _report_digest(outdir)
        else:
            result.problems.append("no output directory")
        if result.digest is not None:
            if self.reference is None:
                self.reference = result.digest
            elif result.digest != self.reference:
                changed = sorted(
                    name
                    for name in set(result.digest) | set(self.reference)
                    if result.digest.get(name) != self.reference.get(name)
                )
                result.problems.append(f"report bytes differ from the reference: {changed}")
        return self._record(result, label)


def _five_numbers(values: list[float]) -> tuple[float, ...]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return min(values), q1, median, q3, max(values)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    workdir = os.path.join(WORK, f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        info = write_log(workload.log, seed, os.path.join(workdir, INPUT_NAME))
        print(f"input: {info['rows']} rows, {info['bytes']} bytes, sha256 {info['sha256']}")
        bench = Bench(workload, seed, workdir)

        bench.dry_run()  # untimed: lets the interpreter write its bytecode cache
        # the --threads 2 invocation is the byte reference and warms the file cache
        bench.invoke(threads=2)

        # Host speed drifts over tens of seconds on a shared machine, so dry runs
        # alternate with timed invocations and both sample the whole window.  A
        # pair starts only if the slowest pair so far would still end in the window.
        setup: list[float] = []
        timed: list[Invocation] = []
        started = time.perf_counter()
        slowest_pair = 0.0
        while len(timed) < MIN_TIMED or time.perf_counter() - started + slowest_pair < seconds:
            pair_start = time.perf_counter()
            setup.append(bench.dry_run().wall_s)
            timed.append(bench.invoke(threads=1))
            slowest_pair = max(slowest_pair, time.perf_counter() - pair_start)

        # Medians over the whole window: the host's speed changes level for tens
        # of seconds at a time, and a median over a long window averages those
        # levels, where the fastest invocation depends on which levels the
        # window happened to catch (see README.md).
        wall = statistics.median(t.wall_s for t in timed)
        print(f"timed invocations: {len(timed)}")
        for name, values in (
            ("wall_s", [t.wall_s for t in timed]),
            ("cpu_s", [t.cpu_s for t in timed]),
            ("setup_s", setup),
        ):
            low, q1, median, q3, high = _five_numbers(values)
            print(f"{name}: min {low:.4f} q1 {q1:.4f} median {median:.4f} q3 {q3:.4f} max {high:.4f}")
        if not trace:
            metrics = {
                "setup_s": statistics.median(setup),
                "wall_s": wall,
                "cpu_s": statistics.median(t.cpu_s for t in timed),
                "peak_rss_mb": statistics.median(t.peak_rss_mb for t in timed),
            }
            metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        else:
            metrics = traced_metrics(bench, wall)
        return {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_metrics(bench: Bench, untraced_wall: float) -> dict:
    """Per-layer metrics from two traced runs whose exact counts must agree."""
    runs = []
    for attempt in range(2):
        spans_path = os.path.join(bench.workdir, f"spans-{attempt}.json")
        invocation = bench.invoke(threads=1, traced_spans=spans_path)
        document = EMPTY_TRACE  # a traced run that crashed has already failed its checks
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                document = json.load(handle)
            idle = sorted(bench.workload.layers - set(document["names"]))
            if idle:
                bench.fail(invocation, f"layers that recorded no call: {idle}")
        times, exact = layer_metrics(document)
        runs.append((invocation, times, exact))
    if runs[0][2] != runs[1][2]:
        differing = sorted(k for k in runs[0][2] if runs[0][2][k] != runs[1][2][k])
        bench.fail(runs[1][0], f"exact counts differ between runs: {differing}")
    metrics = {}
    for name in runs[0][1]:
        value = statistics.median(times[name] for _, times, _ in runs)
        metrics[name] = _metric(value, _unit(name))
    for name, value in runs[0][2].items():
        metrics[name] = _metric(value, _unit(name))
    traced_wall = statistics.median(invocation.wall_s for invocation, _, _ in runs)
    metrics["trace.overhead_s"] = _metric(traced_wall - untraced_wall, "s")
    return dict(sorted(metrics.items()))


def _unit(name: str) -> str:
    base = name.split(".")[1] if name.startswith("models.") else name.rsplit(".", 1)[1]
    if base.endswith("_per_s"):
        return "1/s"
    if base.endswith("_us"):
        return "us"
    if base.endswith("_s"):
        return "s"
    if base.endswith("_ratio"):
        return "ratio"
    if base == "bytes":
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="recaudit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "recaudit", "cli.py")):
        print(f"error: recaudit sources not found under {SRC}", file=sys.stderr)
        return 1
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
