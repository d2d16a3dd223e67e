"""Report serialization and the run manifest.

Two functions format every report: :func:`plain` turns a report (or a list
of them) into its JSON form, and :func:`csv_text` writes every CSV
projection.  Everything written here is deterministic for identical inputs:
JSON is emitted with sorted keys and fixed indentation, CSV floats use
``repr`` so parsing them back is lossless, and nothing in a report carries
wall-clock information.  Timing lives only in the manifest, which is
expected to differ between reruns; the reports are expected not to.
"""

from __future__ import annotations

import csv
import dataclasses
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


def plain(value):
    """The JSON form of a report: a dataclass becomes a dict of its fields
    (less those marked ``metadata={"report": False}``), dict keys become
    ``str`` and tuples become lists.  A report whose shape differs from its
    fields says so in its own ``to_dict``.

    Keys become ``str`` before :func:`json_text` sorts them, so cutoffs sort
    as text ("1", "10", "20", "5"), not as numbers.
    """
    if hasattr(value, "to_dict"):
        return value.to_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            item.name: plain(getattr(value, item.name))
            for item in dataclasses.fields(value)
            if item.metadata.get("report", True)
        }
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def csv_text(header: Iterable, rows: Iterable[Iterable]) -> str:
    """A header row and data rows, one per line.  ``csv.writer`` writes a
    float by ``repr``, so it survives a roundtrip, and None as an empty field."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def metrics_csv_text(reports: Iterable[MetricReport]) -> str:
    """Flat cutoff-by-model-by-sampler matrix."""
    return csv_text(METRICS_CSV_HEADER, (
        (report.model, report.sampler, n, report.recall[n], report.mrr[n])
        for report in reports for n in report.cutoffs
    ))


def rate_csv_text(series: Iterable[TransitionRatePoint]) -> str:
    return csv_text(
        ("day", "new_transitions", "denominator", "rate"),
        ((p.day, p.new_transitions, p.denominator, p.rate) for p in series),
    )


def key_value_csv_text(payload: dict) -> str:
    """Flat two-column projection for scalar report sections."""
    rows = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            rows.extend((f"{key}.{sub}", value[sub]) for sub in sorted(value))
        else:
            rows.append((key, value))
    return csv_text(("key", "value"), rows)


def sequentiality_csv_text(report: SequentialityReport) -> str:
    aware, agnostic = report.sequential, report.order_agnostic
    return csv_text(
        ("cutoff", "sequential_recall", "order_agnostic_recall", "relative_change_recall",
         "sequential_mrr", "order_agnostic_mrr", "relative_change_mrr"),
        (
            (n, aware.recall[n], agnostic.recall[n], report.relative_change_recall[n],
             aware.mrr[n], agnostic.mrr[n], report.relative_change_mrr[n])
            for n in report.cutoffs
        ),
    )


def diagnostics_document(
    collisions: CollisionReport | None = None,
    rate: list[TransitionRatePoint] | None = None,
    overlap: OverlapReport | None = None,
    sequentiality: SequentialityReport | None = None,
) -> dict:
    """Assemble the diagnose payload; absent sections are omitted, never null."""
    sections = {
        "collisions": collisions,
        "new_transition_rate": rate,
        "overlap": overlap,
        "sequentiality": sequentiality,
    }
    return {key: plain(section) for key, section in sections.items() if section is not None}


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
        payload = dataclasses.asdict(self)
        if self.error is None:
            del payload["error"]
        return payload
