"""Report serialization: stable JSON, lossless CSV, manifest bookkeeping."""

import csv
import io
import json

from recaudit.diagnostics import TransitionRatePoint
from recaudit.evaluation import MetricReport
from recaudit.reports import (
    METRICS_CSV_HEADER,
    RunManifest,
    diagnostics_document,
    file_checksum,
    json_text,
    key_value_csv_text,
    metrics_csv_text,
    rate_csv_text,
    write_json,
    write_text,
)


def report(model="markov", sampler="none", recall=None, mrr=None):
    recall = recall or {1: 0.125, 20: 0.625}
    mrr = mrr or {1: 0.125, 20: 0.2952380952380952}
    return MetricReport(
        model=model,
        sampler=sampler,
        tie_policy="optimistic",
        master_seed=0,
        cutoffs=tuple(sorted(recall)),
        recall=recall,
        mrr=mrr,
        case_count=8,
        skipped_unseen_target_count=0,
        total_cases=8,
        catalog_size=40,
    )


class TestJsonText:
    def test_sorted_keys_and_trailing_newline(self):
        text = json_text({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_deterministic_for_equal_payloads(self):
        one = json_text({"x": [1, 2], "y": {"k": 0.1}})
        two = json_text({"y": {"k": 0.1}, "x": [1, 2]})
        assert one == two

    def test_non_ascii_passes_through(self):
        assert "é" in json_text({"name": "café"})


class TestFiles:
    def test_write_text_creates_directories(self, tmp_path):
        target = tmp_path / "a" / "b" / "out.txt"
        written = write_text(str(target), "payload\n")
        assert written == str(target)
        assert target.read_text(encoding="utf-8") == "payload\n"

    def test_write_json_roundtrip(self, tmp_path):
        target = tmp_path / "doc.json"
        write_json(str(target), {"k": [1, 2, 3]})
        assert json.loads(target.read_text()) == {"k": [1, 2, 3]}

    def test_checksum_is_prefixed_and_stable(self, tmp_path):
        target = tmp_path / "data.bin"
        target.write_bytes(b"abc")
        digest = file_checksum(str(target))
        assert digest == (
            "sha256:ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad"
        )


class TestMetricsCsv:
    def test_header(self):
        text = metrics_csv_text([report()])
        assert text.splitlines()[0] == ",".join(METRICS_CSV_HEADER)

    def test_floats_roundtrip_exactly(self):
        source = report(recall={5: 1 / 3}, mrr={5: 2 / 7})
        rows = [
            {**row, "cutoff": int(row["cutoff"]), "recall": float(row["recall"]),
             "mrr": float(row["mrr"])}
            for row in csv.DictReader(io.StringIO(metrics_csv_text([source])))
        ]
        assert rows == [
            {
                "model": "markov",
                "sampler": "none",
                "cutoff": 5,
                "recall": 1 / 3,
                "mrr": 2 / 7,
            }
        ]

    def test_one_row_per_model_sampler_cutoff(self):
        text = metrics_csv_text([report(), report(model="popularity")])
        assert len(text.splitlines()) == 1 + 2 * 2


class TestSectionCsv:
    def test_rate_csv_blank_for_missing_rate(self):
        series = [
            TransitionRatePoint(day=0, new_transitions=4, denominator=2, rate=2.0),
            TransitionRatePoint(day=1, new_transitions=0, denominator=0, rate=None),
        ]
        lines = rate_csv_text(series).splitlines()
        assert lines[0] == "day,new_transitions,denominator,rate"
        assert lines[1] == "0,4,2,2.0"
        assert lines[2] == "1,0,0,"

    def test_key_value_flattens_one_level(self):
        text = key_value_csv_text({"total": 3, "histogram": {"2": 1}})
        lines = text.splitlines()
        assert "key,value" == lines[0]
        assert "histogram.2,1" in lines
        assert "total,3" in lines


class TestDiagnosticsDocument:
    def test_absent_sections_are_omitted_not_null(self):
        doc = diagnostics_document(collisions=None, rate=None, overlap=None, sequentiality=None)
        assert doc == {}

    def test_rate_section_serialized(self):
        series = [TransitionRatePoint(day=1, new_transitions=2, denominator=4, rate=0.5)]
        doc = diagnostics_document(rate=series)
        assert doc == {
            "new_transition_rate": [
                {"day": 1, "new_transitions": 2, "denominator": 4, "rate": 0.5}
            ]
        }


class TestManifest:
    def test_warning_dedupe_by_code(self):
        manifest = RunManifest(tool_version="0.1.0", resolved_config={})
        manifest.add_warning("W-X", "first")
        manifest.add_warning("W-X", "second")
        manifest.add_warning("W-Y", "other")
        assert [w["code"] for w in manifest.warnings] == ["W-X", "W-Y"]
        assert manifest.warnings[0]["message"] == "first"

    def test_error_key_only_when_set(self):
        manifest = RunManifest(tool_version="0.1.0", resolved_config={})
        assert "error" not in manifest.to_dict()
        manifest.error = {"stage": "split", "message": "boom"}
        assert manifest.to_dict()["error"]["stage"] == "split"

    def test_to_dict_is_json_serializable(self):
        manifest = RunManifest(
            tool_version="0.1.0",
            resolved_config={"seed": 1},
            stage_seconds={"ingest": 0.25},
            stage_stats={"ingest": {"events": 10}},
        )
        json.dumps(manifest.to_dict())
