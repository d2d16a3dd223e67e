"""Configuration loading: precedence, validation, and self-describing output."""

import json

import pytest

from recaudit.config import CONFIG_KEYS, RunConfig
from recaudit.errors import ConfigError
from recaudit.evaluation import SamplerSpec
from recaudit.splitting import STRATEGY_LOO


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestDefaults:
    def test_empty_config_resolves(self):
        cfg = RunConfig.load()
        assert cfg.get("split.strategy") == "time"
        assert cfg.get("eval.cutoffs") == [1, 5, 10, 20]
        assert cfg.get("preprocess.min_item_support") == 5

    def test_time_split_backfills_one_test_day(self):
        cfg = RunConfig.load()
        assert cfg.get("split.test_days") == 1

    def test_schema_keys_are_dotted(self):
        assert "eval.tie_policy" in CONFIG_KEYS
        assert "input.columns.entity" in CONFIG_KEYS
        assert all("." in key or key == "seed" for key in CONFIG_KEYS)


class TestPrecedence:
    def test_file_overrides_defaults(self, tmp_path):
        path = write_config(tmp_path, {"preprocess": {"min_item_support": 9}})
        cfg = RunConfig.load(path)
        assert cfg.get("preprocess.min_item_support") == 9

    def test_env_overrides_file(self, tmp_path):
        path = write_config(tmp_path, {"eval": {"tie_policy": "optimistic"}})
        cfg = RunConfig.load(
            path, environ={"RECAUDIT_EVAL__TIE_POLICY": "pessimistic"}
        )
        assert cfg.get("eval.tie_policy") == "pessimistic"

    def test_cli_overrides_env(self, tmp_path):
        path = write_config(tmp_path, {"eval": {"tie_policy": "optimistic"}})
        cfg = RunConfig.load(
            path,
            overrides={"eval.tie_policy": "random", "eval.master_seed": 3},
            environ={"RECAUDIT_EVAL__TIE_POLICY": "pessimistic"},
        )
        assert cfg.get("eval.tie_policy") == "random"

    def test_none_overrides_are_skipped(self):
        cfg = RunConfig.load(overrides={"split.strategy": None})
        assert cfg.get("split.strategy") == "time"

    def test_env_values_parse_as_json(self):
        cfg = RunConfig.load(
            overrides={"eval.master_seed": 0},
            environ={"RECAUDIT_EVAL__CUTOFFS": "[1, 3]", "RECAUDIT_SEED": "7"},
        )
        assert cfg.get("eval.cutoffs") == [1, 3]
        assert cfg.get("seed") == 7

    def test_unrelated_env_vars_ignored(self):
        cfg = RunConfig.load(environ={"PATH": "/bin", "RECAUDITX_SEED": "1"})
        assert cfg.get("seed") is None


class TestRejection:
    def test_unknown_key_named_in_error(self, tmp_path):
        path = write_config(tmp_path, {"evall": {"cutoffs": [1]}})
        with pytest.raises(ConfigError, match="evall.cutoffs"):
            RunConfig.load(path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, {"split": {"strategee": "time"}})
        with pytest.raises(ConfigError, match="split.strategee"):
            RunConfig.load(path)

    def test_wrong_type_rejected(self, tmp_path):
        path = write_config(tmp_path, {"preprocess": {"min_seq_len": "two"}})
        with pytest.raises(ConfigError, match="min_seq_len"):
            RunConfig.load(path)

    def test_bool_is_not_an_int(self, tmp_path):
        path = write_config(tmp_path, {"seed": True})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.load(path)

    def test_non_object_document(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigError):
            RunConfig.load(str(path))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(ConfigError):
            RunConfig.load(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(str(tmp_path / "absent.json"))

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.load(str(path))

    @pytest.mark.parametrize("key", ["seed", "split.seed", "eval.master_seed"])
    def test_negative_seed(self, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.load(overrides={key: -1}, environ={})

    @pytest.mark.parametrize("delimiter", ["", ",;"])
    def test_delimiter_is_one_character(self, delimiter):
        with pytest.raises(ConfigError, match="delimiter"):
            RunConfig.load(overrides={"input.delimiter": delimiter}, environ={})

    def test_null_only_where_the_default_is_null(self, tmp_path):
        RunConfig.load(write_config(tmp_path, {"split": {"seed": None}}), environ={})
        with pytest.raises(ConfigError, match="eval.cutoffs"):
            RunConfig.load(write_config(tmp_path, {"eval": {"cutoffs": None}}), environ={})

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            RunConfig.load(overrides={"split.strategy": "chronological"})

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model.name"):
            RunConfig.load(overrides={"model.name": "transformer"})

    def test_external_model_needs_scores(self):
        with pytest.raises(ConfigError, match="scores_path"):
            RunConfig.load(overrides={"model.name": "external"})


class TestSeedRequirements:
    def test_random_split_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.load(
                overrides={"split.strategy": "random", "split.fraction": 0.1}
            )

    def test_global_seed_satisfies_random_split(self):
        cfg = RunConfig.load(
            overrides={"split.strategy": "random", "split.fraction": 0.1, "seed": 4}
        )
        assert cfg.split_spec().seed == 4

    def test_stochastic_sampler_needs_seed(self):
        with pytest.raises(ConfigError, match="master_seed"):
            RunConfig.load(overrides={"eval.sampler": "uniform:100"})

    def test_deterministic_sampler_needs_no_seed(self):
        cfg = RunConfig.load(overrides={"eval.sampler": "top_popular:50"})
        assert cfg.sampler_spec().strategy == "top_popular"

    def test_random_ties_need_seed(self):
        with pytest.raises(ConfigError, match="master_seed"):
            RunConfig.load(overrides={"eval.tie_policy": "random"})

    def test_embedding_sampler_without_file_needs_embedding_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.load(
                overrides={"eval.sampler": "similar_embedding:50",
                           "eval.master_seed": 0}
            )

    def test_embedding_file_waives_embedding_seed(self, tmp_path):
        cfg = RunConfig.load(
            overrides={
                "eval.sampler": "similar_embedding:50",
                "eval.master_seed": 0,
                "model.embeddings_path": str(tmp_path / "emb.tsv"),
            }
        )
        assert cfg.sampler_spec().strategy == "similar_embedding"


class TestResolved:
    def test_resolved_backfills_effective_seeds(self):
        cfg = RunConfig.load(
            overrides={"split.strategy": "random", "split.fraction": 0.1, "seed": 11}
        )
        doc = cfg.resolved()
        assert doc["split"]["seed"] == 11

    def test_resolved_reruns_identically(self, tmp_path):
        cfg = RunConfig.load(
            overrides={
                "split.strategy": "random",
                "split.fraction": 0.25,
                "eval.sampler": "uniform:30",
                "eval.tie_policy": "random",
                "seed": 3,
            }
        )
        first = cfg.resolved()
        path = write_config(tmp_path, first)
        again = RunConfig.load(path).resolved()
        assert first == again

    def test_resolved_is_a_copy(self):
        cfg = RunConfig.load()
        doc = cfg.resolved()
        doc["split"]["strategy"] = "mutated"
        assert cfg.get("split.strategy") == "time"

    def test_master_seed_backfilled_from_global(self):
        cfg = RunConfig.load(overrides={"eval.sampler": "uniform:10", "seed": 5})
        assert cfg.resolved()["eval"]["master_seed"] == 5


class TestDerivedObjects:
    def test_loo_alias(self):
        cfg = RunConfig.load(overrides={"split.strategy": "loo"})
        assert cfg.split_spec().strategy == STRATEGY_LOO

    def test_selection_string_parsed(self):
        cfg = RunConfig.load(
            overrides={"split.strategy": "loo", "split.selection": "most_recent:2"}
        )
        sel = cfg.split_spec().selection
        assert sel.kind == "most_recent" and sel.k == 2

    def test_random_selection_needs_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.load(
                overrides={"split.strategy": "loo", "split.selection": "random:1"}
            )

    def test_sampler_spec_roundtrip(self):
        cfg = RunConfig.load(
            overrides={"eval.sampler": "uniform:0.5%", "eval.master_seed": 0}
        )
        spec = cfg.sampler_spec()
        assert spec == SamplerSpec.parse("uniform:0.5%")

    def test_eval_config_carries_cutoffs(self):
        cfg = RunConfig.load(overrides={"eval.cutoffs": [2, 4]})
        assert cfg.eval_config().cutoffs == (2, 4)

    def test_float_cutoffs_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(overrides={"eval.cutoffs": [1.5]})

    def test_bad_tie_policy_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.load(overrides={"eval.tie_policy": "generous"})

    def test_column_mapping_defaults(self):
        mapping = RunConfig.load().column_mapping()
        assert (mapping.entity, mapping.item, mapping.time) == (
            "entity",
            "item",
            "timestamp",
        )

    def test_model_request_params(self):
        cfg = RunConfig.load(
            overrides={"model.name": "markov"},
        )
        name, params = cfg.model_request()
        assert name == "markov" and params == {}

    def test_model_params_from_file(self, tmp_path):
        path = write_config(
            tmp_path, {"model": {"name": "session_knn", "params": {"k": 7}}}
        )
        name, params = RunConfig.load(path).model_request()
        assert name == "session_knn" and params == {"k": 7}
