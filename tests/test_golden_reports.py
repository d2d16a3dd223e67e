"""Report bytes against committed hashes: the byte-identity oracle as a test.

Each case runs ``main(argv)`` in process on the ``tests/synth.py`` corpus at
``--threads 1`` and ``2`` and hashes its exit code, stderr, stdout (except
``run``'s, which is the manifest) and every file it writes except
``manifest.json``, with the corpus and output paths replaced by placeholders.
Both thread counts must give the hashes in ``tests/golden_reports.json``.

The file records the numpy major.minor it was made with; on another numpy
the test is skipped, since floating-point results may round differently. An
announced version bump, which changes report bytes on purpose, regenerates
it::

    PYTHONPATH=src:tests python tests/test_golden_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np
import pytest

import recaudit
from recaudit.cli import main
from synth import DAY, browsing_rows, write_events_csv

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_reports.json")
NUMPY_VERSION = ".".join(np.__version__.split(".")[:2])
THREADS = ("1", "2")

TIME = ("--strategy", "time", "--test-days", "1")
LOO = ("--strategy", "loo")
RANDOM = ("--strategy", "random", "--fraction", "0.25", "--split-seed", "5")
TYPED = ("--type-column", "type", "--keep-event-type", "view")

# config documents written next to the corpora; a case names one as "{name}"
CONFIGS = {
    "cooccurrence_window": {"model": {"name": "cooccurrence", "params": {"window": 2}}},
}

# name -> (corpus, argv without input, output directory and threads)
CASES = {
    "ingest": ("events", ("ingest",)),
    "preprocess-gap": ("events", (
        "preprocess", "--session-mode", "gap", "--gap-seconds", "1200", "--min-item-support", "2",
    )),
    "preprocess-gap-cascade": ("events", (
        "preprocess", "--session-mode", "gap", "--gap-seconds", "600",
    )),
    "preprocess-typed": ("typed", ("preprocess", *TYPED)),
    "split-time": ("events", ("split", *TIME)),
    "split-loo": ("events", ("split", *LOO, "--selection", "most_recent:20")),
    "split-random": ("events", ("split", *RANDOM)),
    "split-window": ("events", ("split", *TIME, "--window-days", "3")),
    "diagnose-time-csv": ("events", ("diagnose", *TIME, "--csv")),
    "diagnose-loo-csv": ("events", ("diagnose", *LOO, "--csv", "--tie-policy", "pessimistic")),
    "diagnose-day-collisions": ("daily", ("diagnose", *TIME)),
    "evaluate-optimistic": ("events", ("evaluate", *TIME, "--model", "markov")),
    "evaluate-pessimistic-top-popular": ("events", (
        "evaluate", *TIME, "--model", "session_knn", "--tie-policy", "pessimistic",
        "--sampler", "top_popular:10", "--csv",
    )),
    "evaluate-random-uniform": ("events", (
        "evaluate", *TIME, "--model", "cooccurrence", "--tie-policy", "random",
        "--sampler", "uniform:10", "--seed", "3", "--csv",
    )),
    "evaluate-random-split-prefix": ("events", (
        "evaluate", *RANDOM, "--model", "popularity", "--prefix-start", "2",
    )),
    "evaluate-random-split-cooccurrence": ("events", (
        "evaluate", *RANDOM, "--model", "cooccurrence", "--prefix-start", "2",
        "--tie-policy", "random", "--seed", "6",
    )),
    "evaluate-window-cooccurrence": ("events", (
        "evaluate", *TIME, "--config", "{cooccurrence_window}", "--tie-policy", "pessimistic",
    )),
    "evaluate-loo-popularity": ("events", (
        "evaluate", *LOO, "--model", "markov", "--sampler", "popularity:10", "--seed", "4",
    )),
    "evaluate-unknown-model": ("events", ("evaluate", *TIME, "--model", "nope")),
    "compare-time-csv": ("events", (
        "compare", *TIME, "--models", "markov,popularity,session_knn",
        "--samplers", "none,uniform:10,top_popular:5", "--seed", "3", "--csv", "--metric", "mrr",
    )),
    "compare-loo-embedding": ("events", (
        "compare", *LOO, "--models", "markov,cooccurrence",
        "--samplers", "none,close_embedding:10", "--tie-policy", "random", "--seed", "3",
    )),
    "run-time-csv": ("events", (
        "run", *TIME, "--model", "markov", "--sampler", "uniform:10", "--seed", "3", "--csv",
    )),
    "run-window": ("events", (
        "run", *TIME, "--window-days", "3", "--model", "session_knn", "--tie-policy", "random",
        "--seed", "2",
    )),
    "run-typed-loo": ("typed", ("run", *TYPED, *LOO, "--csv")),
}
PROB_ARGV = ("prob", "--catalog", "1000", "--rank", "40", "--samples", "100", "--cutoff", "10")


def write_corpora(root):
    rows = browsing_rows()
    daily = [
        (f"u{user}", f"i{(user + 3 * d + k) % 20:03d}", d * DAY)
        for user in range(30) for d in range(4) for k in range(3)
    ]
    typed = [(*row, "cart" if k % 4 == 3 else "view") for k, row in enumerate(rows)]
    paths = {}
    for name, document in CONFIGS.items():
        paths[name] = os.path.join(root, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    return paths | {
        "events": write_events_csv(os.path.join(root, "events.csv"), rows),
        "daily": write_events_csv(os.path.join(root, "daily.csv"), daily),
        "typed": write_events_csv(
            os.path.join(root, "typed.csv"), typed, header=("entity", "item", "timestamp", "type")
        ),
    }


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome(argv, root, outdir=None):
    """Hashes of one invocation's exit code, streams and written files."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))

    def normal(text):
        if outdir is not None:
            text = text.replace(outdir, "<out>")
        return text.replace(root, "<corpus>")

    result = {"exit": code, "stderr": digest(normal(err.getvalue()))}
    if argv[0] != "run":  # run prints its manifest
        result["stdout"] = digest(normal(out.getvalue()))
    if outdir is not None and os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            if name != "manifest.json":
                with open(os.path.join(outdir, name), encoding="utf-8") as handle:
                    result[name] = digest(normal(handle.read()))
    return result


def outcomes(threads):
    """{case name: hashes} for every case at one thread count, plus ``prob``."""
    results = {}
    with tempfile.TemporaryDirectory() as root:
        corpora = write_corpora(root)
        for name, (corpus, argv) in CASES.items():
            outdir = os.path.join(root, f"out-{threads}-{name}")
            argv = [arg.format(**corpora) for arg in argv]
            results[name] = outcome(
                [*argv, "--input", corpora[corpus], "--output-dir", outdir, "--threads", threads],
                root, outdir,
            )
        results["prob"] = outcome(PROB_ARGV, root)
    return results


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        document = json.load(handle)
    if document["numpy"] != NUMPY_VERSION:
        pytest.skip(f"golden hashes were made with numpy {document['numpy']}, not {NUMPY_VERSION}")
    assert document["tool_version"] == recaudit.__version__, (
        "an announced version bump regenerates tests/golden_reports.json"
    )
    return document["cases"]


@pytest.mark.parametrize("threads", THREADS)
def test_reports_match_golden_hashes(golden, threads):
    results = outcomes(threads)
    assert sorted(results) == sorted(golden)
    for name, expected in golden.items():
        assert results[name] == expected, name


if __name__ == "__main__":
    cases = outcomes(THREADS[0])
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(
            {"numpy": NUMPY_VERSION, "tool_version": recaudit.__version__, "cases": cases},
            handle, indent=1, sort_keys=True,
        )
        handle.write("\n")
    sys.exit(0)
