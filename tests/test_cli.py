"""Command-line behaviour: exit codes, payloads, warnings, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recaudit
from recaudit import cli
from recaudit.cli import main
from recaudit.config import CONFIG_KEYS
from recaudit.evaluation import SamplerSpec
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

    def test_log_space_probability_is_at_most_one(self):
        code, payload, _ = run_cli(
            ["prob", "--catalog", "8792", "--samples", "100", "--cutoff", "20", "--rank", "2"]
        )
        assert code == 0
        assert payload["probability"] == 1.0
        assert payload["probability_log_space"] <= 1.0

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

    @pytest.mark.parametrize("sampler", ["uniform:10", "popularity:10", "inverse_popularity:10"])
    def test_random_sampler_without_seed_fails_like_evaluate(
        self, events_csv, tmp_path, sampler
    ):
        code, payload, err = run_cli(
            ["compare", "--input", events_csv, "--output-dir", str(tmp_path / "out"),
             "--models", "markov", "--samplers", f"none,{sampler}"]
        )
        assert code == 1 and payload == ""
        assert err.splitlines() == [
            "error: stochastic evaluation needs a seed: "
            "set 'eval.master_seed' or the global 'seed'"
        ]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [[], ["--dry-run"]], ids=["run", "dry-run"])
    @pytest.mark.parametrize(
        "models, samplers, message",
        [
            ("markov,nope", "none",
             "error: model 'nope' is unknown "
             "(have cooccurrence, markov, popularity, session_knn, external)"),
            ("markov,markov", "none", "error: --models lists 'markov' twice"),
            (" markov,popularity, markov", "none", "error: --models lists 'markov' twice"),
            ("markov", "top_popular,top_popular:100",
             "error: --samplers lists 'top_popular:100' twice"),
            ("markov", "none,uniform:10%, uniform:10.0%",
             "error: --samplers lists 'uniform:10%' twice"),
            ("markov", "none,none", "error: --samplers lists 'none' twice"),
        ],
        ids=["unknown-model", "repeated-model", "repeated-model-spaced",
             "sampler-default-count", "sampler-percent-spelling", "repeated-none"],
    )
    def test_bad_grid_is_rejected_before_any_stage(
        self, events_csv, tmp_path, models, samplers, message, dry_run
    ):
        code, payload, err = run_cli(
            ["compare", "--input", events_csv, "--output-dir", str(tmp_path / "out"),
             f"--models={models}", f"--samplers={samplers}", "--seed", "1", *dry_run]
        )
        assert code == 1 and payload == ""
        assert err.splitlines() == [message]
        assert not (tmp_path / "out").exists()

    def test_manifest_records_the_command_line(self, events_csv, tmp_path):
        argv = ["compare", "--input", events_csv, "--output-dir", str(tmp_path),
                "--strategy", "time", "--test-days", "1", "--models", "markov,popularity",
                "--samplers", "none,uniform:20", "--metric", "mrr", "--seed", "9"]
        code, _, _ = run_cli(argv)
        assert code == 2
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["argv"] == argv


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

    def test_package_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), "rb") as handle:
            declared = tomllib.load(handle)["project"]["version"]
        assert recaudit.__version__ == declared

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


def assert_failure_contract(code, err, outdir):
    """Exit 0, 1 or 2 and no traceback; a failure prints one error line, last.

    A failure inside the stage runner names its stage and leaves a manifest
    recording it; one before the runner starts is a plain ``error:`` line.
    """
    assert code in (0, 1, 2) and "Traceback" not in err, err
    manifest_path = os.path.join(outdir, "manifest.json")
    manifest = {}
    if os.path.exists(manifest_path):
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    errors = [line for line in err.splitlines() if line.startswith("error")]
    if code != 1:
        assert errors == [] and "error" not in manifest, err
        return
    assert errors == err.rstrip("\n").splitlines()[-1:], err
    if "error" in manifest:
        assert errors[0].startswith(f"error in stage {manifest['error']['stage']}: "), err
    else:
        assert errors[0].startswith("error: "), err


def fuzz_run(argv):
    """run_cli in a fresh output directory; (exit code, stderr) after the contract check."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = os.path.join(tmp, "out")
        code, _, err = run_cli([*argv, "--output-dir", outdir])
        assert_failure_contract(code, err, outdir)
    return code, err


# tokens that mean something to some config key, so fuzzed strings are not all noise
CONFIG_TOKENS = (
    "uniform:3", "popularity:50%", "inverse_popularity:2", "top_popular:0", "uniform:0.0%",
    "similar_embedding:2", "farthest_embedding:999", "uniform:x", "none", "random",
    "pessimistic", "loo", "time", "most_recent:2", "random:1", "random:-1", "all", "gap",
    "by_entity", "markov", "session_knn", "cooccurrence", "external", "popularity",
    "all_sequences", "active_sequences", ",", "\t", "", "x",
)
JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(-(2**70), 2**70),
    st.floats(),
    st.sampled_from(CONFIG_TOKENS),
    st.text(max_size=5),
    st.lists(st.integers(-3, 40), max_size=4),
    st.dictionaries(
        st.sampled_from(["smoothing", "window", "k", "sample_size", "decay", "x"]),
        st.one_of(st.integers(-3, 5), st.floats(), st.sampled_from(["none", "linear", ""])),
        max_size=2,
    ),
)
# the command line sets input and output; everything else comes from the fuzz
FUZZED_KEYS = sorted(set(CONFIG_KEYS) - {"input.path", "output.directory"})
FUZZ_COMMANDS = (
    ("run",),
    ("compare", "--models", "markov,popularity", "--samplers", "none,popularity:3"),
)


def nested(flat):
    document = {}
    for path, value in flat.items():
        *parents, leaf = path.split(".")
        node = document
        for part in parents:
            node = node.setdefault(part, {})
        node[leaf] = value
    return document


@st.composite
def embedding_files(draw, items):
    """(TSV bytes, whether a defect must fail the run) for a catalog's embeddings."""
    lines = [f"{item}\t{k % 5}.5\t{k % 3}".encode() for k, item in enumerate(items)]
    kind = draw(st.sampled_from([None, "drop", "dimension", "token", "id_only", "not_utf8"]))
    if kind is not None:
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[at]
        elif kind == "dimension":
            lines[at] += b"\t1"
        elif kind == "token":
            bad = draw(st.sampled_from([b"x", b"", b"nan", b"inf", b"1e999", b"0x1"]))
            lines[at] = lines[at].rsplit(b"\t", 1)[0] + b"\t" + bad
        elif kind == "id_only":
            lines[at] = lines[at].split(b"\t", 1)[0]
        else:
            lines.insert(at, b"\xff\xfe\t1\t2")
    for extra in draw(st.lists(st.sampled_from(["blank", "unknown_item"]), max_size=2)):
        line = b"" if extra == "blank" else b"not-an-item\tx"
        lines.insert(draw(st.integers(0, len(lines))), line)
    ending = draw(st.sampled_from([b"\n", b"\r\n"]))
    return ending.join(lines) + ending, kind is not None


@st.composite
def score_files(draw, catalog_size, cases):
    """(TSV bytes, whether a defect must fail the run) for external scores."""
    rng = np.random.default_rng(draw(st.integers(0, 3)))
    lines = [
        "\t".join([str(case), *map(repr, rng.random(catalog_size).tolist())]).encode()
        for case in range(cases)
    ]
    kind = draw(st.sampled_from([None, "drop", "count", "token", "index", "not_utf8"]))
    if kind is not None:
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "drop":
            del lines[at]
        elif kind == "count":
            if draw(st.booleans()):
                lines[at] += b"\t0.5"
            else:
                lines[at] = lines[at].rsplit(b"\t", 1)[0]
        elif kind == "token":
            bad = draw(st.sampled_from([b"x", b"", b"nan", b"-inf", b"1e999"]))
            lines[at] = lines[at].rsplit(b"\t", 1)[0] + b"\t" + bad
        elif kind == "index":
            bad = draw(st.sampled_from([b"x", b"1.5", b""]))
            lines[at] = bad + b"\t" + lines[at].split(b"\t", 1)[1]
        else:
            lines.insert(at, b"0\t\xff")
    for extra in draw(st.lists(st.sampled_from(["blank", "unused_case"]), max_size=2)):
        line = b"" if extra == "blank" else (str(cases + 7) + "\t1" * catalog_size).encode()
        lines.insert(draw(st.integers(0, len(lines))), line)
    # a dropped row may belong to a case whose target is unscored
    return b"\n".join(lines) + b"\n", kind not in (None, "drop")


NPY_DTYPES = ("f8", "f4", "i8", "?", "c16", "U3", "S3", "M8[s]", "O", "f8,f8")


@st.composite
def score_arrays(draw, catalog_size, cases):
    """(.npy bytes, whether the file must fail the run) for external scores."""
    dtype = np.dtype(draw(st.sampled_from(NPY_DTYPES)))
    shape = draw(st.sampled_from([
        (cases, catalog_size), (cases, catalog_size + 1), (catalog_size,),
        (cases, catalog_size, 1), (0, catalog_size),
    ]))
    matrix = np.ones(shape, dtype=dtype)
    poisoned = dtype.kind == "f" and len(shape) == 2 and shape[0] > 0 and draw(st.booleans())
    if poisoned:
        matrix[-1, 0] = np.nan
    buffer = io.BytesIO()
    np.save(buffer, matrix, allow_pickle=True)
    data = buffer.getvalue()
    cut = draw(st.sampled_from([None, 0, 10, len(data) // 2, len(data) - 1]))
    if cut is not None:
        data = data[:cut]
    fatal = (
        dtype.kind not in "biuf" or shape != (cases, catalog_size) or poisoned or cut is not None
    )
    return data, fatal


@pytest.fixture(scope="module")
def catalog(events_csv, tmp_path_factory):
    """(catalog item ids, test cases) of a one-day time split of ``events_csv``."""
    outdir = tmp_path_factory.mktemp("catalog")
    code, report, _ = run_cli(
        ["evaluate", "--input", events_csv, "--output-dir", str(outdir / "eval"),
         "--model", "popularity"]
    )
    assert code == 0
    code, _, _ = run_cli(
        ["preprocess", "--input", events_csv, "--output-dir", str(outdir / "data")]
    )
    assert code == 0
    with open(outdir / "data" / "dataset.tsv", encoding="utf-8") as handle:
        items = sorted({line.split("\t")[2] for line in list(handle)[1:]})
    assert len(items) == report["catalog_size"]
    return items, report["total_cases"]


# model and sampler specs, good and bad, for compare's comma-separated lists
GRID_TOKENS = (
    "markov", "popularity", "cooccurrence", "session_knn", "external", "nope", "none",
    "uniform:3", "uniform:0", "uniform:-1", "uniform:x", "uniform:", "uniform:99999",
    "popularity:50%", "uniform:0%", "uniform:100%", "uniform:nan%", "uniform:1e999%",
    "top_popular:2", "similar_embedding:2", "bogus:3", ":3", "", " ", "\t",
    # equal entries in different spellings
    " markov ", "none ", "top_popular", "top_popular:100", "uniform:3.0%", "uniform:3%",
)
GRID_LISTS = st.lists(
    st.one_of(st.sampled_from(GRID_TOKENS), st.text(alphabet=" ,:%x1", max_size=4)),
    max_size=4,
).map(",".join)


def grid_entries(text, parse=str.strip):
    """The parsed entries of a --models/--samplers list, or None if one does not parse."""
    try:
        return [parse(part) for part in text.split(",") if part.strip()]
    except ValueError:
        return None


class TestFailureContractFuzz:
    @given(GRID_LISTS, GRID_LISTS, st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_compare_grids(self, events_csv, models, samplers, seeded):
        seed = ["--seed", "3"] if seeded else []
        code, err = fuzz_run(
            ["compare", "--input", events_csv, f"--models={models}", f"--samplers={samplers}",
             *seed]
        )
        # no grid with a repeated model or sampler gets past the command line
        names, specs = grid_entries(models), grid_entries(samplers, SamplerSpec.parse)
        if len(set(names)) < len(names) or (specs is not None and len(set(specs)) < len(specs)):
            assert code == 1, err

    @given(
        st.dictionaries(st.sampled_from(FUZZED_KEYS), JSON_VALUES, min_size=1, max_size=3),
        st.sampled_from(FUZZ_COMMANDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_config_values(self, events_csv, flat, command):
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as handle:
                json.dump(nested(flat), handle)
            fuzz_run([*command, "--input", events_csv, "--config", config])

    @given(
        st.dictionaries(
            st.one_of(
                st.sampled_from(FUZZED_KEYS).map(
                    lambda key: "RECAUDIT_" + key.upper().replace(".", "__")
                ),
                st.text(alphabet="ABEVL_", max_size=6).map(lambda name: "RECAUDIT_" + name),
            ),
            st.one_of(
                JSON_VALUES.map(json.dumps),
                st.sampled_from(["NaN", "-Infinity", "[1,", "{", "1e999", "nul l"]),
                st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"),
                        max_size=5),
            ),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(FUZZ_COMMANDS),
    )
    @settings(max_examples=60, deadline=None)
    def test_environment_values(self, events_csv, environ, command):
        with mock.patch.dict(os.environ, environ):
            fuzz_run([*command, "--input", events_csv])

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_embeddings_files(self, events_csv, catalog, data):
        items, _ = catalog
        text, fatal = data.draw(embedding_files(items))
        sampler = data.draw(st.sampled_from(["similar_embedding:3", "close_embedding:3"]))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "vectors.tsv")
            with open(path, "wb") as handle:
                handle.write(text)
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as handle:
                json.dump({"model": {"embeddings_path": path}}, handle)
            code, err = fuzz_run(
                ["evaluate", "--input", events_csv, "--config", config, "--sampler", sampler]
            )
        assert code == (1 if fatal else 2), err

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_scores_files(self, events_csv, catalog, data):
        items, cases = catalog
        suffix = data.draw(st.sampled_from([".tsv", ".npy"]))
        if suffix == ".tsv":
            content, fatal = data.draw(score_files(len(items), cases))
        else:
            content, fatal = data.draw(score_arrays(len(items), cases))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scores" + suffix)
            with open(path, "wb") as handle:
                handle.write(content)
            config = os.path.join(tmp, "config.json")
            with open(config, "w", encoding="utf-8") as handle:
                json.dump({"model": {"name": "external", "scores_path": path}}, handle)
            code, err = fuzz_run(["evaluate", "--input", events_csv, "--config", config])
        if fatal:
            assert code == 1, err


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
        assert set(manifest["stage_peak_rss_mb"]) == set(manifest["stage_seconds"])
        # a running high-water mark, in stage order, then the whole run's
        peaks = [manifest["stage_peak_rss_mb"][stage] for stage in PLANNED[command]]
        peaks.append(manifest["peak_rss_mb"])
        if manifest["peak_rss_mb"] is None:  # no VmHWM line on this platform
            assert peaks == [None] * len(peaks)
        else:
            assert peaks == sorted(peaks) and peaks[0] > 0
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

    def test_ingest_rejects_are_noted_in_the_manifest(self, tmp_path):
        path = write_events_csv(tmp_path / "events.csv", browsing_rows())
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("u999,i001,notatime\n")
        outdir = tmp_path / "out"
        code, _, err = run_cli(["ingest", "--input", path, "--output-dir", str(outdir)])
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["stage_stats"]["ingest"]["rejected_rows"] == 1
        [note] = manifest["notes"]
        assert note.startswith("ingest rejected 1/") and "notatime" in note
        assert err.splitlines() == [note]

    def test_event_type_filter_warning_is_noted_in_the_manifest(self, events_csv, tmp_path):
        outdir = tmp_path / "out"
        code, _, err = run_cli(
            ["preprocess", "--input", events_csv, "--output-dir", str(outdir),
             "--keep-event-type", "view"]
        )
        assert code == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["notes"] == ["event-type filter skipped: log carries no event types"]
        assert err.splitlines() == manifest["notes"]

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
            lambda models, *args, **kwargs: evaluated.append(list(models))
            or evaluate(models, *args, **kwargs),
        )
        outdir = tmp_path / "out"
        code, _, _ = run_cli(
            ["run", "--input", events_csv, "--output-dir", str(outdir),
             "--strategy", "time", "--test-days", "1", "--model", "markov"]
        )
        assert code == 0
        assert len(fits) == 1 and evaluated == [["markov", "cooccurrence"]]
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


# Runs in a fresh interpreter: a run whose sequentiality probe fits markov and
# cooccurrence, then an evaluation that derives item embeddings.
SCIPY_FREE_RUN = """
import contextlib, io, json, sys
from recaudit.cli import main
csv, out = sys.argv[1], sys.argv[2]
common = ["--input", csv, "--strategy", "time", "--test-days", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        main(["run", *common, "--output-dir", out + "/run", "--model", "markov"]),
        main(["evaluate", *common, "--output-dir", out + "/evaluate",
              "--sampler", "similar_embedding:5", "--seed", "1"]),
    ]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_no_command_imports_scipy(events_csv, tmp_path):
    env = {k: v for k, v in os.environ.items() if not k.startswith("RECAUDIT_")}
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, events_csv, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result == {"codes": [0, 2], "scipy": []}
    diagnostics = json.loads((tmp_path / "run" / "diagnostics.json").read_text())
    assert "sequentiality" in diagnostics
    assert (tmp_path / "evaluate" / "metrics.json").exists()
