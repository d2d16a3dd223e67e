"""The benchmark's workloads: an input log shape, a recaudit command, and
what a correct invocation of that command looks like.

Each workload stresses different layers (see README.md for the shares):

* ``audit-run``: the one-shot ``run`` command on second-resolution data.
  Every layer runs; the sequentiality probe and cooccurrence scoring
  dominate, and no negatives are sampled.
* ``sampled-compare``: ``compare`` of markov and session_knn under three
  candidate samplers.  Model scoring and negative sampling do most of the
  work; it is the only workload that samples negatives and draws random ties.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

from gen import LogSpec

# Span names (see tracing.py) of the layers each workload is documented to
# exercise.  A traced run in which one of them records no call fails: a call
# site that moved out of the wrappers' reach must not read as a layer gone idle.
DATA_PATH = (
    "events.ingest", "preprocess.total", "preprocess.sessionize", "preprocess.collapse",
    "preprocess.support_filter", "splitting.split", "reports.write",
)
DIAGNOSTICS = (
    "diagnostics.collisions", "diagnostics.transition_rate", "diagnostics.overlap",
    "diagnostics.transition_set", "diagnostics.sequentiality",
)
EVALUATION = (
    "evaluation.evaluate", "evaluation.enumerate_cases", "evaluation.case_rng",
    "evaluation.rank",
)


def _model_layers(*names: str) -> tuple[str, ...]:
    return tuple(f"models.{step}.{name}" for name in names for step in ("fit", "score"))


W_SAMPLED_METRICS = "W-SAMPLED-METRICS"


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name), encoding="utf-8") as handle:
        return json.load(handle)


def _check_audit_run(outdir: str) -> list[str]:
    problems = []
    if "sequentiality" not in _load(outdir, "diagnostics.json"):
        problems.append("diagnostics.json has no sequentiality section")
    metrics = _load(outdir, "metrics.json")
    if metrics.get("case_count", 0) < 1:
        problems.append("metrics.json scored no case")
    return problems


def _check_sampled_compare(outdir: str) -> list[str]:
    problems = []
    reports = _load(outdir, "comparison.json").get("reports", [])
    if len(reports) != 6:
        problems.append(f"expected 6 reports, found {len(reports)}")
    totals = {r["total_cases"] for r in reports}
    if len(totals) != 1:
        problems.append(f"models disagree on total_cases: {sorted(totals)}")
    for report in reports:
        for metric in ("recall", "mrr"):
            for cutoff, value in report[metric].items():
                if not 0.0 <= value <= 1.0:
                    problems.append(
                        f"{report['model']}/{report['sampler']} {metric}@{cutoff} = {value}"
                    )
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    log: LogSpec
    # recaudit arguments; the benchmark adds --input, --output-dir, --seed, --threads
    args: tuple[str, ...]
    exit_code: int
    warnings: frozenset[str]
    check_outputs: Callable[[str], list[str]]
    layers: frozenset[str]  # spans the traced run must record


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="audit-run",
            log=LogSpec(
                entities=4000, events_per_entity=20, items=3000, days=14,
            ),
            args=(
                "run", "--model", "markov", "--sampler", "none",
                "--strategy", "time", "--test-days", "1",
            ),
            exit_code=0,
            warnings=frozenset(),
            check_outputs=_check_audit_run,
            layers=frozenset(
                DATA_PATH + DIAGNOSTICS + EVALUATION + _model_layers("markov", "cooccurrence")
            ),
        ),
        Workload(
            name="sampled-compare",
            log=LogSpec(
                entities=5000, events_per_entity=20, items=12000, days=70,
                zipf_exponent=0.6,
            ),
            args=(
                "compare", "--models", "markov,session_knn",
                "--samplers", "none,uniform:100,popularity:100",
                "--tie-policy", "random", "--strategy", "time", "--test-days", "1",
            ),
            exit_code=2,
            warnings=frozenset({W_SAMPLED_METRICS}),
            check_outputs=_check_sampled_compare,
            layers=frozenset(
                DATA_PATH + EVALUATION + ("evaluation.sample_negatives",)
                + _model_layers("markov", "session_knn")
            ),
        ),
    )
}
