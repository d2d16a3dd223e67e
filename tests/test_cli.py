"""Command-line behaviour: exit codes, payloads, warnings, determinism."""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit import cli
from recaudit.cli import main
from recaudit.models import MarkovModel
from synth import DAY, browsing_rows, write_events_csv

REPORT_FILES = (
    "resolved_config.json",
    "provenance.json",
    "split.json",
    "diagnostics.json",
    "metrics.json",
)


def run_cli(argv):
    """Invoke main() with captured streams; parse stdout as JSON when possible."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = text
    return code, payload, err.getvalue()


def warning_codes(payload):
    return [w["code"] for w in payload.get("warnings", [])]


@pytest.fixture(scope="module")
def events_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "events.csv"
    return write_events_csv(path, browsing_rows())


@pytest.fixture(scope="module")
def daily_csv(tmp_path_factory):
    """Day-resolution log where every event shares its day slot with others."""
    rows = []
    for user in range(30):
        for d in range(4):
            for k in range(3):
                rows.append((f"u{user}", f"i{(user + 3 * d + k) % 20:03d}", d * DAY))
    path = tmp_path_factory.mktemp("daily") / "events.csv"
    return write_events_csv(path, rows)


class TestProb:
    def test_forward_matches_reference_point(self):
        code, payload, _ = run_cli(
            ["prob", "--catalog", "10000", "--rank", "1490",
             "--samples", "100", "--cutoff", "20"]
        )
        assert code == 0
        assert payload["probability"] == pytest.approx(0.9002792812053647, rel=1e-12)
        assert payload["probability_log_space"] == pytest.approx(
            payload["probability"], rel=1e-9
        )

    def test_forward_second_reference_point(self):
        code, payload, _ = run_cli(
            ["prob", "--catalog", "100000", "--rank", "14878",
             "--samples", "100", "--cutoff", "20"]
        )
        assert code == 0
        assert payload["probability"] == pytest.approx(0.9000230735272912, rel=1e-12)

    def test_inverse_recovers_rank(self):
        code, payload, _ = run_cli(
            ["prob", "--catalog", "10000", "--samples", "100",
             "--cutoff", "20", "--target-probability", "0.9"]
        )
        assert code == 0 and payload["max_rank"] == 1490

    def test_inverse_large_catalog(self):
        code, payload, _ = run_cli(
            ["prob", "--catalog", "100000", "--samples", "100",
             "--cutoff", "20", "--target-probability", "0.9"]
        )
        assert code == 0 and payload["max_rank"] == 14878

    def test_needs_exactly_one_of_rank_and_target(self):
        code, _, err = run_cli(
            ["prob", "--catalog", "100", "--samples", "10", "--cutoff", "5"]
        )
        assert code == 1 and "rank" in err
        code, _, err = run_cli(
            ["prob", "--catalog", "100", "--samples", "10", "--cutoff", "5",
             "--rank", "3", "--target-probability", "0.5"]
        )
        assert code == 1

    def test_domain_error_exits_one(self):
        code, _, err = run_cli(
            ["prob", "--catalog", "100", "--samples", "10", "--cutoff", "5",
             "--rank", "500"]
        )
        assert code == 1 and "error" in err


class TestIngest:
    def test_summary_and_canonical_dump(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["ingest", "--input", events_csv, "--output-dir", str(tmp_path)]
        )
        assert code == 0
        assert payload["rejected_rows"] == 0
        assert payload["timestamp_resolution"] == "seconds"
        assert payload["entities"] == 80
        dump = tmp_path / "canonical_events.tsv"
        assert dump.exists()
        first = dump.read_text(encoding="utf-8").splitlines()[0]
        assert first.split("\t")[:3] == ["entity", "item", "timestamp"]

    def test_missing_input_is_a_config_error(self, tmp_path):
        code, _, err = run_cli(["ingest", "--output-dir", str(tmp_path)])
        assert code == 1 and "input.path" in err

    def test_absent_file_exits_one(self, tmp_path):
        code, _, err = run_cli(
            ["ingest", "--input", str(tmp_path / "nope.csv"),
             "--output-dir", str(tmp_path)]
        )
        assert code == 1


class TestPreprocess:
    def test_writes_provenance_and_dataset(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["preprocess", "--input", events_csv, "--output-dir", str(tmp_path)]
        )
        assert code == 0
        steps = json.loads((tmp_path / "provenance.json").read_text())
        assert isinstance(steps, list) and steps
        assert {"step", "events_before", "events_after"} <= set(steps[0])
        assert (tmp_path / "dataset.tsv").exists()
        assert payload["sequences"] > 0


class TestSplit:
    def test_time_split_is_clean(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["split", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1"]
        )
        assert code == 0 and warning_codes(payload) == []
        assert payload["spec"]["strategy"] == "time"
        assert (tmp_path / "train.tsv").exists()
        assert (tmp_path / "test.tsv").exists()
        stats = payload["stats"]
        assert stats["train"]["events"] > 0 and stats["test"]["events"] > 0

    def test_loo_split_warns(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["split", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "loo", "--selection", "most_recent:1"]
        )
        assert code == 2 and warning_codes(payload) == ["W-LOO-LEAKAGE"]

    def test_random_split_warns(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["split", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "random", "--fraction", "0.2", "--split-seed", "5"]
        )
        assert code == 2 and warning_codes(payload) == ["W-RANDOM-SPLIT"]

    def test_random_split_without_seed_fails(self, events_csv, tmp_path):
        code, _, err = run_cli(
            ["split", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "random", "--fraction", "0.2"]
        )
        assert code == 1 and "seed" in err


class TestDiagnose:
    def test_all_sections_present(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["diagnose", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1", "--seed", "0"]
        )
        assert code == 0
        for section in ("collisions", "new_transition_rate", "overlap", "sequentiality"):
            assert section in payload
        on_disk = json.loads((tmp_path / "diagnostics.json").read_text())
        assert on_disk == payload

    def test_csv_projections(self, events_csv, tmp_path):
        code, _, _ = run_cli(
            ["diagnose", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1", "--seed", "0", "--csv"]
        )
        assert code == 0
        for name in (
            "diagnostics_collisions.csv",
            "diagnostics_rate.csv",
            "diagnostics_overlap.csv",
            "diagnostics_sequentiality.csv",
        ):
            assert (tmp_path / name).exists(), name

    def test_day_collisions_warn(self, daily_csv, tmp_path):
        code, payload, err = run_cli(
            ["diagnose", "--input", daily_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1", "--seed", "0"]
        )
        assert code == 2
        assert warning_codes(payload) == ["W-COLLISION-HIGH"]
        assert "W-COLLISION-HIGH" in err

    def test_rate_section_omitted_on_single_day_data(self, tmp_path):
        rows = [(f"u{k}", f"i{(k + j) % 5:03d}", 100 + 10 * j)
                for k in range(30) for j in range(4)]
        path = write_events_csv(tmp_path / "oneday.csv", rows)
        code, payload, err = run_cli(
            ["diagnose", "--input", path, "--output-dir", str(tmp_path)]
        )
        assert code == 0
        assert "new_transition_rate" not in payload
        assert "collisions" in payload
        assert "skipping" in err


class TestEvaluate:
    def test_full_ranking_clean_exit(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--model", "popularity", "--sampler", "none"]
        )
        assert code == 0 and warning_codes(payload) == []
        assert payload["model"] == "popularity"
        assert set(payload["recall"]) == {"1", "5", "10", "20"}
        assert (tmp_path / "metrics.json").exists()

    def test_sampled_metrics_warn(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--model", "markov", "--sampler", "uniform:20", "--seed", "42"]
        )
        assert code == 2 and warning_codes(payload) == ["W-SAMPLED-METRICS"]

    def test_csv_matrix(self, events_csv, tmp_path):
        run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--model", "popularity", "--sampler", "none", "--csv"]
        )
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines[0] == "model,sampler,cutoff,recall,mrr"
        assert len(lines) == 5

    def test_unknown_model_exits_one(self, events_csv, tmp_path):
        code, _, err = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--model", "nonsense"]
        )
        assert code == 1 and "model.name" in err

    def test_stochastic_sampler_without_seed_fails(self, events_csv, tmp_path):
        code, _, err = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--model", "markov", "--sampler", "uniform:20"]
        )
        assert code == 1 and "seed" in err


class TestCompare:
    def test_models_by_samplers_grid(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["compare", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--models", "markov,popularity",
             "--samplers", "none,uniform:20", "--seed", "9"]
        )
        assert code == 2
        assert warning_codes(payload) == ["W-SAMPLED-METRICS"]
        assert len(payload["reports"]) == 4
        assert len(payload["crossings"]) == 2
        assert payload["metric"] == "recall"
        pairs = {(r["model"], r["sampler"]) for r in payload["reports"]}
        assert ("markov", "none") in pairs
        assert ("popularity", "uniform:20") in pairs
        assert (tmp_path / "comparison.json").exists()

    def test_full_only_comparison_is_clean(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["compare", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--models", "markov,popularity", "--samplers", "none"]
        )
        assert code == 0 and warning_codes(payload) == []

    def test_model_params_agree_with_evaluate(self, events_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"model": {"name": "session_knn", "params": {"k": 1}}}
        ))
        common = ["--input", events_csv, "--config", str(config),
                  "--strategy", "time", "--test-days", "1"]
        code, evaluated, _ = run_cli(
            ["evaluate", *common, "--output-dir", str(tmp_path / "eval"),
             "--sampler", "none"]
        )
        assert code == 0
        code, compared, _ = run_cli(
            ["compare", *common, "--output-dir", str(tmp_path / "cmp"),
             "--models", "session_knn,markov", "--samplers", "none"]
        )
        assert code == 0
        by_model = {r["model"]: r for r in compared["reports"]}
        assert by_model["session_knn"]["recall"] == evaluated["recall"]
        assert by_model["session_knn"]["mrr"] == evaluated["mrr"]

    def test_model_params_that_do_not_fit_are_a_config_error(self, events_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"model": {"name": "markov", "params": {"k": 1}}}
        ))
        code, _, err = run_cli(
            ["compare", "--input", events_csv, "--config", str(config),
             "--output-dir", str(tmp_path), "--models", "markov", "--samplers", "none"]
        )
        assert code == 1
        assert "model.params" in err and "Traceback" not in err

    def test_bad_sampler_text(self, events_csv, tmp_path):
        code, _, err = run_cli(
            ["compare", "--input", events_csv, "--output-dir", str(tmp_path),
             "--models", "markov", "--samplers", "uniform:-3", "--seed", "0"]
        )
        assert code == 1


class TestRun:
    def test_manifest_and_reports(self, events_csv, tmp_path):
        code, payload, _ = run_cli(
            ["run", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--model", "markov", "--sampler", "uniform:20", "--seed", "42"]
        )
        assert code == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest == payload
        assert set(manifest["stage_seconds"]) == {
            "ingest", "preprocess", "split", "diagnose", "evaluate"
        }
        assert manifest["stage_stats"]["evaluate"]["scored_lists_per_second"] > 0
        checksum = next(iter(manifest["input_checksums"].values()))
        assert checksum.startswith("sha256:")
        for path in manifest["report_paths"].values():
            assert os.path.exists(path), path
        assert [w["code"] for w in manifest["warnings"]] == ["W-SAMPLED-METRICS"]
        assert "error" not in manifest

    def test_reports_bytewise_stable_across_reruns_and_threads(
        self, events_csv, tmp_path
    ):
        outputs = []
        for name, threads in (("a", "1"), ("b", "1"), ("c", "4")):
            outdir = tmp_path / name
            code, _, _ = run_cli(
                ["run", "--input", events_csv, "--output-dir", str(outdir),
                 "--strategy", "time", "--test-days", "1",
                 "--model", "markov", "--sampler", "uniform:20",
                 "--tie-policy", "random", "--seed", "42",
                 "--threads", threads]
            )
            assert code == 2
            blobs = {}
            for report in REPORT_FILES:
                data = (outdir / report).read_bytes()
                if report == "resolved_config.json":
                    doc = json.loads(data)
                    doc["output"]["directory"] = "NORMALIZED"
                    data = json.dumps(doc, sort_keys=True).encode()
                blobs[report] = data
            outputs.append(blobs)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_stage_failure_writes_partial_manifest(self, tmp_path):
        rows = [(f"u{k}", f"i{(k + j) % 4:03d}", 50 + j)
                for k in range(20) for j in range(3)]
        path = write_events_csv(tmp_path / "oneday.csv", rows)
        code, _, err = run_cli(
            ["run", "--input", path, "--output-dir", str(tmp_path / "out"),
             "--strategy", "time", "--test-days", "1", "--model", "markov"]
        )
        assert code == 1
        assert "split" in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "split"
        assert "ingest" in manifest["stage_seconds"]
        assert "evaluate" not in manifest["stage_seconds"]

    @pytest.mark.parametrize(
        "name, text", [("scores.tsv", "0\tabc\n"), ("scores.npy", "not an npy file\n")]
    )
    def test_malformed_external_scores_write_partial_manifest(
        self, events_csv, tmp_path, name, text
    ):
        scores = tmp_path / name
        scores.write_text(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"model": {"name": "external", "scores_path": str(scores)}}
        ))
        code, _, err = run_cli(
            ["run", "--input", events_csv, "--config", str(config),
             "--output-dir", str(tmp_path / "out"), "--strategy", "time",
             "--test-days", "1"]
        )
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert name in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "evaluate"

    @pytest.mark.parametrize(
        "model, sampler, name",
        [
            ({"name": "external", "scores_path": "missing.tsv"}, "none", "missing.tsv"),
            ({"name": "external", "scores_path": "missing.npy"}, "none", "missing.npy"),
            (
                {"name": "markov", "embeddings_path": "missing_vectors.tsv"},
                "similar_embedding:5",
                "missing_vectors.tsv",
            ),
        ],
    )
    def test_missing_model_file_writes_partial_manifest(
        self, events_csv, tmp_path, model, sampler, name
    ):
        for key in ("scores_path", "embeddings_path"):
            if key in model:
                model[key] = str(tmp_path / model[key])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": model}))
        code, _, err = run_cli(
            ["run", "--input", events_csv, "--config", str(config),
             "--output-dir", str(tmp_path / "out"), "--strategy", "time",
             "--test-days", "1", "--sampler", sampler]
        )
        assert code == 1
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error in stage evaluate:") and name in err
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "evaluate"

    def test_resolved_config_reproduces_run(self, events_csv, tmp_path):
        first = tmp_path / "first"
        code, payload, _ = run_cli(
            ["run", "--input", events_csv, "--output-dir", str(first),
             "--strategy", "time", "--test-days", "1",
             "--model", "markov", "--sampler", "uniform:20", "--seed", "42"]
        )
        assert code == 2
        second = tmp_path / "second"
        config_path = tmp_path / "replay.json"
        replay = json.loads((first / "resolved_config.json").read_text())
        replay["output"]["directory"] = str(second)
        config_path.write_text(json.dumps(replay))
        code, _, _ = run_cli(["run", "--config", str(config_path)])
        assert code == 2
        assert (first / "metrics.json").read_bytes() == (
            second / "metrics.json"
        ).read_bytes()


class TestDryRun:
    def test_prints_plan_and_touches_nothing(self, events_csv, tmp_path):
        outdir = tmp_path / "out"
        code, payload, _ = run_cli(
            ["run", "--input", events_csv, "--output-dir", str(outdir),
             "--model", "markov", "--dry-run"]
        )
        assert code == 0
        assert payload["dry_run"] is True
        assert payload["planned_stages"] == [
            "ingest", "preprocess", "split", "diagnose", "evaluate"
        ]
        assert payload["resolved_config"]["model"]["name"] == "markov"
        assert not outdir.exists()

    def test_dry_run_still_validates(self, events_csv, tmp_path):
        code, _, err = run_cli(
            ["run", "--input", events_csv, "--output-dir", str(tmp_path),
             "--model", "markov", "--sampler", "uniform:20", "--dry-run"]
        )
        assert code == 1 and "seed" in err


class TestUsageAndConfig:
    def test_unknown_subcommand(self):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1 and "invalid choice" in err

    def test_unknown_flag(self):
        code, _, err = run_cli(["ingest", "--wat"])
        assert code == 1

    def test_no_subcommand(self):
        code, _, _ = run_cli([])
        assert code == 1

    def test_unknown_config_key_in_file(self, events_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"evaluator": {"cutoffs": [1]}}))
        code, _, err = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--config", str(config)]
        )
        assert code == 1 and "evaluator.cutoffs" in err

    def test_env_var_reaches_the_run(self, events_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("RECAUDIT_EVAL__CUTOFFS", "[2, 6]")
        code, payload, _ = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--model", "popularity", "--sampler", "none"]
        )
        assert code == 0
        assert set(payload["recall"]) == {"2", "6"}

    def test_cli_flag_beats_env_var(self, events_csv, tmp_path, monkeypatch):
        monkeypatch.setenv("RECAUDIT_EVAL__CUTOFFS", "[2, 6]")
        code, payload, _ = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path),
             "--strategy", "time", "--test-days", "1",
             "--model", "popularity", "--sampler", "none", "--cutoffs", "3,9"]
        )
        assert code == 0
        assert set(payload["recall"]) == {"3", "9"}

    def test_config_file_supplies_input(self, events_csv, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "input": {"path": events_csv},
            "output": {"directory": str(tmp_path)},
        }))
        code, payload, _ = run_cli(["ingest", "--config", str(config)])
        assert code == 0 and payload["events"] > 0


# malformed rows the parser must reject, one per kind
BAD_ROWS = {
    "missing_column": "u1,i1",
    "empty_entity": ",i1,100",
    "empty_item": "u1,,100",
    "negative_time": "u1,i1,-5",
    "non_numeric_time": "u1,i1,abc",
    "bad_iso_time": "u1,i1,2020-02-30",
}
# lines that are not rows (blank) or are well-formed despite a stray quote
NEUTRAL_LINES = ("", 'u1,i"1,100', 'u2",i2,200')


@st.composite
def fuzzed_logs(draw):
    """(csv text, number of injected bad rows) for a tiny log."""
    # entity u<k> starts on day k % 3, so a one-day time split has both sides
    lines = [
        f"u{entity},i{draw(st.integers(0, 3))},{(entity % 3) * DAY + 3600 + 60 * step}"
        for entity in range(6)
        for step in range(draw(st.integers(0, 5)))
    ]
    bad = draw(st.lists(st.sampled_from(sorted(BAD_ROWS)), max_size=4))
    neutral = draw(st.lists(st.sampled_from(NEUTRAL_LINES), max_size=3))
    for position, line in zip(
        draw(st.lists(st.integers(0, 40), min_size=len(bad) + len(neutral),
                      max_size=len(bad) + len(neutral))),
        [BAD_ROWS[kind] for kind in bad] + list(neutral),
    ):
        lines.insert(position % (len(lines) + 1), line)
    bad_count = len(bad)
    if draw(st.booleans()):
        # an opening quote on the last line swallows only that line: one bad row
        lines.append('"u3,i3,300')
        bad_count += 1
    return "entity,item,timestamp\n" + "\n".join(lines) + "\n", bad_count


class TestMalformedInputFuzz:
    @given(fuzzed_logs(), st.sampled_from([0.01, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_run_fails_cleanly_or_counts_every_reject(self, log, reject_fraction):
        text, bad_count = log
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "events.csv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as handle:
                json.dump({
                    "input": {"max_reject_fraction": reject_fraction},
                    "preprocess": {"min_item_support": 1},
                }, handle)
            outdir = os.path.join(tmp, "out")
            code, _, err = run_cli(
                ["run", "--input", path, "--config", config, "--output-dir", outdir,
                 "--strategy", "time", "--test-days", "1", "--model", "markov"]
            )
            with open(os.path.join(outdir, "manifest.json"), encoding="utf-8") as handle:
                manifest = json.load(handle)
        assert "Traceback" not in err
        if code == 1:
            stage = manifest["error"]["stage"]
            assert err.strip().splitlines()[-1].startswith(f"error in stage {stage}: ")
        else:
            assert code in (0, 2)
            assert "error" not in manifest
            assert manifest["stage_stats"]["ingest"]["rejected_rows"] == bad_count


PLANNED = {
    "ingest": ["ingest"],
    "preprocess": ["ingest", "preprocess"],
    "split": ["ingest", "preprocess", "split"],
    "diagnose": ["ingest", "preprocess", "split", "diagnose"],
    "evaluate": ["ingest", "preprocess", "split", "evaluate"],
    "compare": ["ingest", "preprocess", "split", "evaluate"],
    "run": ["ingest", "preprocess", "split", "diagnose", "evaluate"],
}


def command_args(command):
    return ["--models", "markov,cooccurrence"] if command == "compare" else []


def write_config(tmp_path, **sections):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(sections))
    return str(config)


class TestStageRunner:
    @pytest.mark.parametrize("command", sorted(PLANNED))
    def test_every_command_writes_a_manifest_of_its_stages(
        self, events_csv, tmp_path, command
    ):
        config = write_config(
            tmp_path, input={"path": events_csv}, split={"strategy": "time", "test_days": 1}
        )
        outdir = tmp_path / "out"
        code, payload, _ = run_cli(
            [command, "--config", config, "--output-dir", str(outdir), "--seed", "3",
             *command_args(command)]
        )
        assert code == 0
        _, plan, _ = run_cli(
            [command, "--config", config, "--dry-run", *command_args(command)]
        )
        assert plan["planned_stages"] == PLANNED[command]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert set(manifest["stage_seconds"]) == set(PLANNED[command])
        assert "error" not in manifest and manifest["notes"] == []
        assert (outdir / "resolved_config.json").exists()
        for path in manifest["report_paths"].values():
            assert os.path.exists(path), path

    @pytest.mark.parametrize("command", sorted(PLANNED))
    def test_missing_input_fails_in_ingest_with_a_partial_manifest(
        self, tmp_path, command
    ):
        outdir = tmp_path / "out"
        code, payload, err = run_cli(
            [command, "--config", write_config(tmp_path, input={"path": str(tmp_path / "nope.csv")}),
             "--output-dir", str(outdir), *command_args(command)]
        )
        assert code == 1 and payload == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error in stage ingest: ") and "nope.csv" in err
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["error"]["stage"] == "ingest"
        assert manifest["stage_seconds"] == {}

    def test_skipped_sections_are_noted_in_the_manifest(self, tmp_path):
        rows = [(f"u{k}", f"i{(k + j) % 5:03d}", 100 + 10 * j)
                for k in range(30) for j in range(4)]
        path = write_events_csv(tmp_path / "oneday.csv", rows)
        code, _, err = run_cli(
            ["diagnose", "--input", path, "--output-dir", str(tmp_path / "out")]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        notes = [line[len("note: "):] for line in err.splitlines() if line.startswith("note: ")]
        assert notes and manifest["notes"] == notes

    def test_threads_below_one_is_a_usage_error(self, events_csv, tmp_path):
        outdir = tmp_path / "out"
        code, _, err = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(outdir),
             "--threads", "0"]
        )
        assert code == 1 and "--threads" in err
        assert not outdir.exists()

    def test_same_config_gives_same_numbers_in_every_command(self, events_csv, tmp_path):
        config = write_config(
            tmp_path,
            input={"path": events_csv},
            split={"strategy": "time", "test_days": 1},
            model={"name": "markov"},
            eval={"tie_policy": "random", "sampler": "uniform:20"},
            seed=5,
        )

        def outputs(command, *extra, exit_code=2):
            outdir = tmp_path / command
            code, payload, _ = run_cli(
                [command, "--config", config, "--output-dir", str(outdir), *extra]
            )
            assert code == exit_code
            return payload, outdir

        evaluated, _ = outputs("evaluate")
        compared, _ = outputs(
            "compare", "--models", "popularity,markov", "--samplers", "none,uniform:20"
        )
        diagnosed, _ = outputs("diagnose", exit_code=0)
        _, run_dir = outputs("run")
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert evaluated.pop("warnings") == compared["warnings"]
        assert metrics == evaluated
        assert metrics in compared["reports"]
        diagnostics = json.loads((run_dir / "diagnostics.json").read_text())
        assert diagnosed.pop("warnings") == []
        assert diagnostics == diagnosed

    def test_run_reuses_the_probe_report_of_its_model(self, events_csv, tmp_path, monkeypatch):
        fits, evaluated = [], []
        fit, evaluate = MarkovModel.fit, cli.evaluate
        monkeypatch.setattr(
            MarkovModel, "fit", lambda model, train: fits.append(1) or fit(model, train)
        )
        monkeypatch.setattr(
            cli,
            "evaluate",
            lambda *args, **kwargs: evaluated.append(kwargs["model_name"])
            or evaluate(*args, **kwargs),
        )
        outdir = tmp_path / "out"
        code, _, _ = run_cli(
            ["run", "--input", events_csv, "--output-dir", str(outdir),
             "--strategy", "time", "--test-days", "1", "--model", "markov"]
        )
        assert code == 0
        assert len(fits) == 1 and evaluated == ["markov", "cooccurrence"]
        metrics = json.loads((outdir / "metrics.json").read_text())
        diagnostics = json.loads((outdir / "diagnostics.json").read_text())
        assert diagnostics["sequentiality"]["sequential"] == metrics


class TestCompareExternal:
    @pytest.fixture()
    def scores_tsv(self, events_csv, tmp_path):
        code, report, _ = run_cli(
            ["evaluate", "--input", events_csv, "--output-dir", str(tmp_path / "probe"),
             "--strategy", "time", "--test-days", "1", "--model", "popularity"]
        )
        assert code == 0
        rng = np.random.default_rng(4)
        path = tmp_path / "scores.tsv"
        with open(path, "w", encoding="utf-8") as handle:
            for case in range(report["total_cases"]):
                row = rng.random(report["catalog_size"])
                handle.write("\t".join([str(case), *map(repr, row.tolist())]) + "\n")
        return str(path)

    def test_compare_reports_the_same_external_numbers_as_evaluate(
        self, events_csv, tmp_path, scores_tsv
    ):
        common = ["--input", events_csv, "--strategy", "time", "--test-days", "1",
                  "--config", write_config(tmp_path, model={"scores_path": scores_tsv})]
        code, evaluated, _ = run_cli(
            ["evaluate", *common, "--output-dir", str(tmp_path / "eval"),
             "--model", "external"]
        )
        assert code == 0
        code, compared, err = run_cli(
            ["compare", *common, "--output-dir", str(tmp_path / "cmp"),
             "--models", "external,markov"]
        )
        assert code == 0, err
        evaluated.pop("warnings")
        assert compared["reports"][0] == evaluated
        assert [r["model"] for r in compared["reports"]] == ["external", "markov"]

    def test_compare_naming_external_needs_scores(self, events_csv, tmp_path):
        code, _, err = run_cli(
            ["compare", "--input", events_csv, "--output-dir", str(tmp_path),
             "--models", "external,markov"]
        )
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert "model.scores_path" in err and "Traceback" not in err
