"""Byte-identity matrix: one fixed list of invocations against two ``src/`` trees.

Each invocation runs at ``--threads 1`` and ``2`` twice: with the working
tree's ``src/`` and with ``src/`` of a git revision (``git archive REV src``,
unpacked in a temporary directory).  For each run it hashes the exit code,
stderr, stdout (except ``run``'s, which is its manifest) and every file the
run wrote except ``manifest.json``, with the input, output and source paths
replaced by placeholders, and compares the two trees' hashes.

The inputs are written, not downloaded: the ``audit-run`` and
``sampled-compare`` logs of ``perfbench/gen.py`` at seeds 5 and 6, a
day-resolution log with an event-type column derived from a small generated
one, a log whose ids hold tabs and quotes derived from another, and a log
with CRLF line ends whose ids hold a quoted CR or CRLF derived from a third.
At most two processes run at once; a ``--threads 2`` run counts as two.

It prints one line per difference, a summary line, and a line with the
line count of ``src/recaudit/*.py`` in both trees.  It exits 1 on any
difference that no ``--allow`` glob matches, or on any item that the working
tree writes differently at ``--threads 1`` and ``2``.  A glob matches
``INVOCATION/threads-N/ITEM``, where ITEM is ``exit``, ``stdout``,
``stderr``, ``output-dir`` or a file name::

    python tests/byte_matrix.py --base HEAD~1
    python tests/byte_matrix.py --base HEAD --allow 'window-error-*'
    python tests/byte_matrix.py --base HEAD --allow '*-quoted/*/dataset.tsv'

The name does not start with ``test_``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import glob
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREADS = ("1", "2")
SLOTS = 2  # processes at once; a --threads 2 run forks two workers and counts as two
SEEDS = (5, 6)

TIME = ("--strategy", "time", "--test-days", "1")
LOO = ("--strategy", "loo")
RANDOM = ("--strategy", "random", "--fraction", "0.2", "--split-seed", "3")
# the commands as the benchmark workloads call them (perfbench/workloads.py)
AUDIT_RUN = ("run", "--model", "markov", "--sampler", "none", *TIME)
SAMPLED_COMPARE = (
    "compare", "--models", "markov,session_knn", "--samplers", "none,uniform:100,popularity:100",
    "--tie-policy", "random", *TIME, "--seed", "5",
)
# config documents written next to the logs; an argument "{name}" is its path
CONFIGS = {
    "cooccurrence-window": {"model": {"name": "cooccurrence", "params": {"window": 2}}},
}


def invocations() -> dict[str, tuple[str, tuple[str, ...]]]:
    """name -> (input log, argv without output directory and threads)."""
    cases = {}
    for seed in SEEDS:
        for log, workload in (("audit", AUDIT_RUN), ("compare", SAMPLED_COMPARE)):
            name = f"{log}-{seed}"
            cases |= {
                f"ingest-{name}": (name, ("ingest",)),
                f"preprocess-{name}": (name, ("preprocess",)),
                f"split-{name}": (name, ("split", *TIME)),
                f"diagnose-{name}": (name, ("diagnose", *TIME)),
                f"evaluate-{name}": (name, (
                    "evaluate", *TIME, "--model", "session_knn", "--sampler", "uniform:100",
                    "--tie-policy", "random", "--seed", "3",
                )),
                f"workload-{name}": (name, workload),
            }
    audit, compare = "audit-5", "compare-5"
    cases |= {
        # data path and splits
        "preprocess-gap": (audit, (
            "preprocess", "--session-mode", "gap", "--gap-seconds", "1200",
            "--min-item-support", "3",
        )),
        "split-window": (audit, ("split", "--strategy", "time", "--test-days", "2",
                                 "--window-days", "3")),
        "split-loo-most-recent": (audit, ("split", *LOO, "--selection", "most_recent:500")),
        "split-loo-random": (compare, ("split", *LOO, "--selection", "random:400",
                                       "--split-seed", "2")),
        "split-random": (compare, ("split", *RANDOM)),
        # diagnostics
        "diagnose-random-csv": (audit, ("diagnose", *RANDOM, "--csv")),
        "diagnose-loo-csv": (compare, ("diagnose", *LOO, "--csv", "--tie-policy", "pessimistic")),
        "diagnose-prefix-start": (audit, ("diagnose", *TIME, "--prefix-start", "3")),
        # evaluation: tie policies, samplers, prefixes, windows
        "evaluate-loo-close-embedding": (audit, (
            "evaluate", *LOO, "--model", "markov", "--sampler", "close_embedding:30",
            "--seed", "11",
        )),
        "evaluate-prefix-start": (audit, (
            "evaluate", *TIME, "--model", "cooccurrence", "--prefix-start", "3",
            "--tie-policy", "pessimistic",
        )),
        "evaluate-window-cooccurrence": (audit, (
            "evaluate", *TIME, "--config", "{cooccurrence-window}", "--csv",
        )),
        "evaluate-random-split": (compare, (
            "evaluate", *RANDOM, "--model", "popularity", "--sampler", "top_popular:50",
        )),
        "compare-four-models": (compare, (
            "compare", *TIME, "--models", "markov,cooccurrence,popularity,session_knn",
            "--samplers", "top_popular:100,inverse_popularity:100,close_embedding:50,"
            "uniform:100,popularity:100,none",
            "--tie-policy", "random", "--seed", "5", "--csv",
        )),
        "compare-loo-embeddings": (audit, (
            "compare", *LOO, "--models", "markov,cooccurrence,popularity",
            "--samplers", "similar_embedding:50,farthest_embedding:50,uniform:50",
            "--tie-policy", "pessimistic", "--seed", "4", "--metric", "mrr",
        )),
        # session_knn where every case starts a chain
        "compare-loo-session-knn": (compare, (
            "compare", *LOO, "--models", "markov,session_knn",
            "--samplers", "none,popularity:100", "--tie-policy", "random", "--seed", "5",
        )),
        # a master seed of two uint32 words
        "compare-two-word-seed": (compare, (
            "compare", *TIME, "--models", "markov,session_knn",
            "--samplers", "uniform:100,popularity:100", "--tie-policy", "random",
            "--seed", "4294967301",
        )),
        "compare-least-similar": (audit, (
            "compare", *TIME, "--models", "markov,session_knn",
            "--samplers", "least_similar_embedding:20,inverse_popularity:1%", "--seed", "8",
        )),
        "run-loo-cooccurrence": (audit, (
            "run", *LOO, "--model", "cooccurrence", "--sampler", "uniform:50",
            "--tie-policy", "random", "--seed", "2",
        )),
        "run-popularity-sampler": (compare, (
            "run", *TIME, "--model", "session_knn", "--sampler", "popularity:100",
            "--tie-policy", "random", "--seed", "9",
        )),
        "run-window-csv": (audit, (
            "run", "--strategy", "time", "--test-days", "2", "--window-days", "3",
            "--model", "markov", "--csv",
        )),
        # day resolution, ISO dates and an event-type column
        "diagnose-daily": ("daily", ("diagnose", "--strategy", "time", "--test-days", "2")),
        "preprocess-daily-typed": ("daily", (
            "preprocess", "--type-column", "type", "--keep-event-type", "view",
        )),
        "run-daily-loo": ("daily", ("run", *LOO, "--type-column", "type", "--csv")),
        "split-daily-one-test-day": ("daily", ("split", *TIME)),
        "split-daily-two-test-days": ("daily", ("split", "--strategy", "time", "--test-days", "2")),
        # ids holding a tab or a quote, which every dump quotes
        "ingest-quoted": ("quoted", ("ingest",)),
        "preprocess-quoted": ("quoted", ("preprocess",)),
        "split-quoted": ("quoted", ("split", *TIME)),
        # ids holding a quoted CR, in a file with CRLF line ends
        "ingest-cr": ("cr", ("ingest",)),
        "preprocess-cr": ("cr", ("preprocess",)),
        "split-cr": ("cr", ("split", *TIME)),
        # known errors
        "error-missing-input": ("missing", ("ingest",)),
        "error-random-split-without-seed": (audit, ("split", "--strategy", "random",
                                                   "--fraction", "0.2")),
        "error-unknown-model": (audit, ("evaluate", *TIME, "--model", "nope")),
        "error-repeated-model": (audit, ("compare", "--models", "markov,markov")),
        "error-embedding-sampler-without-seed": (audit, (
            "compare", *TIME, "--models", "markov", "--samplers", "none,close_embedding:10",
        )),
        # a training window below one day or without a time split
        "window-error-zero-days-split": (audit, ("split", "--window-days", "0")),
        "window-error-zero-days-diagnose": (audit, ("diagnose", "--window-days", "0")),
        "window-error-loo-diagnose": (audit, ("diagnose", *LOO, "--window-days", "3")),
    }
    return cases


def _write_daily_log(path: str) -> None:
    """A generated log with ISO dates for timestamps and a view/cart type column."""
    from gen import LogSpec, generate

    spec = LogSpec(entities=600, events_per_entity=8, items=400, days=10)
    rows = generate(spec, seed=7).decode("ascii").splitlines()[1:]
    lines = ["entity,item,timestamp,type"]
    for k, row in enumerate(rows):
        entity, item, stamp = row.split(",")
        day = time.strftime("%Y-%m-%d", time.gmtime(int(stamp)))
        lines.append(f"{entity},{item},{day},{'cart' if k % 5 == 4 else 'view'}")
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _write_marked_log(path: str, seed: int, marks: tuple[str, ...], lineterminator: str) -> None:
    """A generated log in which some entity and item ids hold a mark: the
    mark of an id is ``marks[n % 5]`` for id number ``n``.

    ``csv.writer`` quotes a field holding a mark it treats as special: a tab,
    a quote, a LF, and a CR only when ``lineterminator`` holds one.
    """
    from gen import LogSpec, generate

    spec = LogSpec(entities=500, events_per_entity=10, items=300, days=10)
    rows = generate(spec, seed=seed).decode("ascii").splitlines()

    def marked(identifier: str) -> str:
        return identifier[0] + marks[int(identifier[1:]) % 5] + identifier[1:]

    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator=lineterminator)
        writer.writerow(rows[0].split(","))
        for row in rows[1:]:
            entity, item, stamp = row.split(",")
            writer.writerow((marked(entity) if int(entity[1:]) % 3 == 0 else entity,
                             marked(item), stamp))


def write_inputs(corpus: str) -> dict[str, str]:
    """Write every input log and config document; name -> path."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    writing, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # keep perfbench/ clean
    try:
        from gen import write_log
        from workloads import WORKLOADS

        paths = {"missing": os.path.join(corpus, "missing.csv")}
        for seed in SEEDS:
            for log, workload in (("audit", "audit-run"), ("compare", "sampled-compare")):
                paths[f"{log}-{seed}"] = os.path.join(corpus, f"{log}-{seed}.csv")
                write_log(WORKLOADS[workload].log, seed, paths[f"{log}-{seed}"])
        paths["daily"] = os.path.join(corpus, "daily.csv")
        _write_daily_log(paths["daily"])
        paths["quoted"] = os.path.join(corpus, "quoted.csv")
        _write_marked_log(paths["quoted"], 8, ("\t", '"', "", "", ""), "\n")
        # CRLF line ends, and ids holding a quoted CR or CRLF
        paths["cr"] = os.path.join(corpus, "cr.csv")
        _write_marked_log(paths["cr"], 9, ("\r", "\r\n", "", "", ""), "\r\n")
    finally:
        sys.dont_write_bytecode = writing
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    for name, document in CONFIGS.items():
        paths[name] = os.path.join(corpus, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return paths


def extract_base(rev: str, destination: str) -> str:
    """Unpack ``src/`` of ``rev`` under ``destination``; return its path."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")
    return os.path.join(destination, "src")


def line_count(src: str) -> int:
    """Lines of the package's modules under ``src``, as ``wc -l src/recaudit/*.py`` counts."""
    total = 0
    for path in glob.glob(os.path.join(src, "recaudit", "*.py")):
        with open(path, "rb") as handle:
            total += handle.read().count(b"\n")
    return total


def _digest(data: bytes, replacements: list[tuple[str, str]]) -> str:
    text = data.decode("utf-8", errors="replace")
    for path, placeholder in replacements:
        text = text.replace(path, placeholder)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(src: str, argv: list[str], outdir: str, corpus: str, cwd: str) -> dict[str, str]:
    """ITEM -> hash for one invocation of the ``src`` tree."""
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "recaudit.cli", *argv, "--output-dir", outdir]
    replacements = [(outdir, "<out>"), (corpus, "<corpus>"), (src, "<src>")]
    try:
        proc = subprocess.run(command, capture_output=True, env=env, cwd=cwd, timeout=600)
    except subprocess.TimeoutExpired:
        return {"exit": "timeout"}
    result = {
        "exit": str(proc.returncode),
        "stderr": _digest(proc.stderr, replacements),
        "output-dir": "present" if os.path.isdir(outdir) else "absent",
    }
    if argv[0] != "run":  # run prints its manifest
        result["stdout"] = _digest(proc.stdout, replacements)
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            if name != "manifest.json":
                with open(os.path.join(outdir, name), "rb") as handle:
                    result[name] = _digest(handle.read(), replacements)
    return result


class _Slots:
    """At most ``SLOTS`` processes at once; a run takes as many as it forks."""

    def __init__(self) -> None:
        self.free = SLOTS
        self.changed = threading.Condition()

    def run(self, weight: int, work):
        with self.changed:
            self.changed.wait_for(lambda: self.free >= weight)
            self.free -= weight
        try:
            return work()
        finally:
            with self.changed:
                self.free += weight
                self.changed.notify_all()


def _pair(base: dict, tree: dict, item: str) -> str:
    """Both sides of a difference, hashes shortened."""
    return f"base {str(base.get(item))[:12]} tree {str(tree.get(item))[:12]}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--allow", action="append", default=[], metavar="GLOB",
                        help="a difference to accept, as INVOCATION/threads-N/ITEM")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    cases = invocations()
    with tempfile.TemporaryDirectory(prefix="byte-matrix-") as tmp:
        corpus = os.path.join(tmp, "corpus")
        os.makedirs(corpus)
        paths = write_inputs(corpus)
        trees = {"tree": os.path.join(ROOT, "src"), "base": extract_base(args.base, tmp)}
        lines = {side: line_count(src) for side, src in trees.items()}
        jobs = [(name, threads, side) for name in cases for threads in THREADS for side in trees]
        slots = _Slots()

        def job(name, threads, side):
            log, command = cases[name]
            argv = [
                command[0], "--input", paths[log],
                *(paths[a[1:-1]] if a.startswith("{") else a for a in command[1:]),
                "--threads", threads,
            ]
            outdir = os.path.join(tmp, "out", side, f"{name}-t{threads}")
            return slots.run(int(threads), lambda: outcome(trees[side], argv, outdir, corpus, tmp))

        with ThreadPoolExecutor(max_workers=SLOTS) as pool:
            futures = {key: pool.submit(job, *key) for key in jobs}
            results = {key: future.result() for key, future in futures.items()}

    compared = differences = allowed = 0
    for name in cases:
        for threads in THREADS:
            tree, base = results[name, threads, "tree"], results[name, threads, "base"]
            for item in sorted(set(tree) | set(base)):
                compared += 1
                if tree.get(item) == base.get(item):
                    continue
                key = f"{name}/threads-{threads}/{item}"
                if any(fnmatch.fnmatchcase(key, glob) for glob in args.allow):
                    allowed += 1
                    print(f"allowed: {key}: {_pair(base, tree, item)}")
                else:
                    differences += 1
                    print(f"DIFFERS: {key}: {_pair(base, tree, item)}")
    # the working tree must give the same bytes at every thread count
    split_pairs = 0
    for name in cases:
        one, two = (results[name, threads, "tree"] for threads in THREADS)
        for item in sorted(set(one) | set(two)):
            if one.get(item) != two.get(item):
                split_pairs += 1
                print(f"THREADS DIFFER: {name}/{item}: "
                      f"{str(one.get(item))[:12]} vs {str(two.get(item))[:12]}")
    print(
        f"byte matrix: {len(cases)} invocations x threads {','.join(THREADS)} against "
        f"{args.base}: {compared} items compared, {differences} differ, {allowed} allowed "
        f"differences, {split_pairs} differ between thread counts, "
        f"{time.perf_counter() - started:.0f} s"
    )
    print(f"src/recaudit/*.py: {lines['base']} lines at {args.base}, "
          f"{lines['tree']} in the working tree")
    return 1 if differences or split_pairs else 0


if __name__ == "__main__":
    sys.exit(main())
