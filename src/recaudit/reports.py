"""Report serialization and the run manifest.

Everything written here is deterministic for identical inputs: JSON is
emitted with sorted keys and fixed indentation, CSV floats use ``repr`` so
parsing them back is lossless, and nothing in a report carries wall-clock
information.  Timing lives only in the manifest, which is expected to differ
between reruns; the reports are expected not to.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, TextIO

from .diagnostics import (
    CollisionReport,
    OverlapReport,
    SequentialityReport,
    TransitionRatePoint,
)
from .evaluation import MetricReport

W_COLLISION_HIGH = "W-COLLISION-HIGH"
W_LOO_LEAKAGE = "W-LOO-LEAKAGE"
W_RANDOM_SPLIT = "W-RANDOM-SPLIT"
W_SAMPLED_METRICS = "W-SAMPLED-METRICS"

METRICS_CSV_HEADER = ("model", "sampler", "cutoff", "recall", "mrr")


def json_text(payload) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_dump(path: str, dump: Callable[[TextIO], None]) -> str:
    """Create ``path`` (and its directory) and let ``dump`` write the text."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        dump(handle)
    return path


def write_text(path: str, text: str) -> str:
    return write_dump(path, lambda handle: handle.write(text))


def write_json(path: str, payload) -> str:
    return write_text(path, json_text(payload))


def file_checksum(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return f"sha256:{digest.hexdigest()}"


def metrics_csv_text(reports: Iterable[MetricReport]) -> str:
    """Flat cutoff-by-model-by-sampler matrix; floats survive a roundtrip."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    for report in reports:
        for cutoff in report.cutoffs:
            writer.writerow(
                [
                    report.model,
                    report.sampler,
                    cutoff,
                    repr(report.recall[cutoff]),
                    repr(report.mrr[cutoff]),
                ]
            )
    return buffer.getvalue()


def rate_csv_text(series: Iterable[TransitionRatePoint]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("day", "new_transitions", "denominator", "rate"))
    for point in series:
        writer.writerow(
            [
                point.day,
                point.new_transitions,
                point.denominator,
                "" if point.rate is None else repr(point.rate),
            ]
        )
    return buffer.getvalue()


def key_value_csv_text(payload: dict) -> str:
    """Flat two-column projection for scalar report sections."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("key", "value"))
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                writer.writerow((f"{key}.{sub}", value[sub]))
        else:
            writer.writerow((key, value))
    return buffer.getvalue()


def sequentiality_csv_text(report: SequentialityReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        (
            "cutoff",
            "sequential_recall",
            "order_agnostic_recall",
            "relative_change_recall",
            "sequential_mrr",
            "order_agnostic_mrr",
            "relative_change_mrr",
        )
    )
    for cutoff in report.cutoffs:
        rel_r = report.relative_change_recall[cutoff]
        rel_m = report.relative_change_mrr[cutoff]
        writer.writerow(
            [
                cutoff,
                repr(report.sequential.recall[cutoff]),
                repr(report.order_agnostic.recall[cutoff]),
                "" if rel_r is None else repr(rel_r),
                repr(report.sequential.mrr[cutoff]),
                repr(report.order_agnostic.mrr[cutoff]),
                "" if rel_m is None else repr(rel_m),
            ]
        )
    return buffer.getvalue()


def diagnostics_document(
    collisions: CollisionReport | None = None,
    rate: list[TransitionRatePoint] | None = None,
    overlap: OverlapReport | None = None,
    sequentiality: SequentialityReport | None = None,
) -> dict:
    """Assemble the diagnose payload; absent sections are omitted, never null."""
    document: dict = {}
    if collisions is not None:
        document["collisions"] = collisions.to_dict()
    if rate is not None:
        document["new_transition_rate"] = [point.to_dict() for point in rate]
    if overlap is not None:
        document["overlap"] = overlap.to_dict()
    if sequentiality is not None:
        document["sequentiality"] = sequentiality.to_dict()
    return document


def peak_rss_mb() -> float | None:
    """This process's resident-set high-water mark in MB (``VmHWM``), or None
    where ``/proc/self/status`` has no such line.

    ``ru_maxrss`` is not used: after ``exec`` it still counts the resident
    set of the process that launched this one.
    """
    try:
        with open("/proc/self/status", "rb") as status:
            for line in status:
                if line.startswith(b"VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 2)  # the line reads "<n> kB"
    except OSError:
        pass
    return None


@dataclass
class RunManifest:
    """What a run did: inputs, stages, outputs, and anything worth flagging.

    Timings and throughput figures belong here and nowhere else; two runs of
    the same config must produce byte-identical reports even though their
    manifests differ in the timing block.
    """

    tool_version: str
    resolved_config: dict
    argv: list[str] = field(default_factory=list)  # the command line, options included
    input_checksums: dict[str, str] = field(default_factory=dict)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    # the process's peak resident set after each stage and for the whole run
    stage_peak_rss_mb: dict[str, float | None] = field(default_factory=dict)
    peak_rss_mb: float | None = None
    stage_stats: dict[str, dict] = field(default_factory=dict)
    report_paths: dict[str, str] = field(default_factory=dict)
    warnings: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # skipped sections and why
    error: dict | None = None

    def add_warning(self, code: str, message: str) -> None:
        if not any(w["code"] == code for w in self.warnings):
            self.warnings.append({"code": code, "message": message})

    def to_dict(self) -> dict:
        payload = {
            "tool_version": self.tool_version,
            "resolved_config": self.resolved_config,
            "argv": self.argv,
            "input_checksums": self.input_checksums,
            "stage_seconds": self.stage_seconds,
            "stage_peak_rss_mb": self.stage_peak_rss_mb,
            "peak_rss_mb": self.peak_rss_mb,
            "stage_stats": self.stage_stats,
            "report_paths": self.report_paths,
            "warnings": self.warnings,
            "notes": self.notes,
        }
        if self.error is not None:
            payload["error"] = self.error
        return payload
