"""Run configuration: one self-describing document drives a whole run.

Keys live in seven sections (``input``, ``preprocess``, ``split``,
``diagnostics``, ``model``, ``eval``, ``output``) plus a global ``seed``.
Precedence, lowest to highest: built-in defaults, config file, environment
variables (``RECAUDIT_SECTION__KEY=value``), explicit overrides (CLI flags).
Unknown keys are rejected by name instead of being silently ignored, and any
stage that consumes randomness must be able to resolve a seed from its own
key or the global one; a missing seed is an error, not an implicit default.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any, Mapping

from .diagnostics import (
    COLLISION_EVENT_FRACTION_THRESHOLD, RATE_DENOMINATORS, SEQUENTIAL_BASELINES,
)
from .errors import ConfigError
from .evaluation import (
    SAMPLER_NONE,
    EMBEDDING_SAMPLERS,
    RANDOM_SAMPLERS,
    TIE_RANDOM,
    EvalConfig,
    SamplerSpec,
)
from .events import ColumnMapping
from .models import MODEL_BUILDERS
from .preprocess import PipelineConfig
from .splitting import (
    SELECT_ALL,
    STRATEGY_LOO,
    STRATEGY_RANDOM,
    STRATEGY_TIME,
    LeaveOneOutSelection,
    SplitSpec,
)

ENV_PREFIX = "RECAUDIT_"

# accepted in configs and on the command line for the long strategy name
STRATEGY_ALIASES = {"loo": STRATEGY_LOO}

_SEED_KEYS = ("seed", "split.seed", "eval.master_seed", "model.embedding_seed")
_FRACTION_KEYS = (
    "input.max_reject_fraction", "diagnostics.verdict_threshold", "diagnostics.collision_threshold"
)

_SCHEMA: dict[str, tuple[type, Any]] = {
    "seed": (int, None),
    "input.path": (str, None),
    "input.delimiter": (str, None),
    "input.max_reject_fraction": (float, 0.01),
    "input.columns.entity": (str, "entity"),
    "input.columns.item": (str, "item"),
    "input.columns.time": (str, "timestamp"),
    "input.columns.type": (str, None),
    "preprocess.keep_event_type": (str, None),
    "preprocess.session_mode": (str, "by_entity"),
    "preprocess.gap_seconds": (int, 3600),
    "preprocess.min_seq_len": (int, 2),
    "preprocess.min_item_support": (int, 5),
    "split.strategy": (str, STRATEGY_TIME),
    "split.split_time": (int, None),
    "split.test_days": (int, None),
    "split.selection": (str, SELECT_ALL),
    "split.fraction": (float, None),
    "split.seed": (int, None),
    "split.window_days": (int, None),
    "split.min_seq_len": (int, 2),
    "diagnostics.collision_threshold": (float, COLLISION_EVENT_FRACTION_THRESHOLD),
    "diagnostics.rate_denominator": (str, "active_sequences"),
    "diagnostics.sequential_baseline": (str, "markov"),
    "diagnostics.verdict_threshold": (float, 0.05),
    "diagnostics.verdict_cutoff": (int, None),
    "model.name": (str, "markov"),
    "model.params": (dict, {}),
    "model.embeddings_path": (str, None),
    "model.embedding_dim": (int, 32),
    "model.embedding_seed": (int, None),
    "model.scores_path": (str, None),
    "eval.cutoffs": (list, [1, 5, 10, 20]),
    "eval.tie_policy": (str, "optimistic"),
    "eval.sampler": (str, SAMPLER_NONE),
    "eval.prefix_start": (int, 1),
    "eval.master_seed": (int, None),
    "output.directory": (str, "."),
    "output.csv": (bool, False),
}

CONFIG_KEYS = tuple(_SCHEMA)


def _flatten(nested: Mapping, prefix: str = "") -> dict[str, Any]:
    flat: dict[str, Any] = {}
    for key, value in nested.items():
        path = f"{prefix}{key}"
        if path in _SCHEMA or not isinstance(value, Mapping):
            flat[path] = value
        else:
            flat.update(_flatten(value, f"{path}."))
    return flat


def _env_overrides(environ: Mapping[str, str]) -> dict[str, Any]:
    """RECAUDIT_EVAL__TIE_POLICY=random -> {'eval.tie_policy': 'random'}."""
    out: dict[str, Any] = {}
    for name in sorted(environ):
        if not name.startswith(ENV_PREFIX):
            continue
        path = name[len(ENV_PREFIX) :].lower().replace("__", ".")
        raw = environ[name]
        try:
            out[path] = json.loads(raw)
        except json.JSONDecodeError:
            out[path] = raw
    return out


def _check_type(path: str, value: Any) -> Any:
    expected, default = _SCHEMA[path]
    if value is None:
        if default is None:
            return None
        raise ConfigError(f"config key {path!r} expects {expected.__name__}, got null")
    if expected is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if expected is int and (isinstance(value, bool) or not isinstance(value, int)):
        raise ConfigError(f"config key {path!r} expects an integer, got {value!r}")
    if not isinstance(value, expected):
        raise ConfigError(
            f"config key {path!r} expects {expected.__name__}, got {value!r}"
        )
    return value


class RunConfig:
    """Validated, fully-resolved configuration for one run."""

    def __init__(self, flat: dict[str, Any]):
        unknown = sorted(set(flat) - set(_SCHEMA))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = {path: copy.deepcopy(default) for path, (_, default) in _SCHEMA.items()}
        for path, value in flat.items():
            values[path] = _check_type(path, value)
        strategy = values["split.strategy"]
        values["split.strategy"] = STRATEGY_ALIASES.get(strategy, strategy)
        self._values = values
        # seeds as given: the defaults filled in later never satisfy a need for one
        self._given_seeds = {path: values[path] for path in _SEED_KEYS}
        self._validate()

    @classmethod
    def load(
        cls,
        path: str | None = None,
        overrides: Mapping[str, Any] | None = None,
        environ: Mapping[str, str] | None = None,
    ) -> "RunConfig":
        """Merge file, environment, and explicit overrides (in that order)."""
        flat: dict[str, Any] = {}
        if path is not None:
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    document = json.load(handle)
            except OSError as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
            if not isinstance(document, dict):
                raise ConfigError("config document must be a JSON object")
            flat.update(_flatten(document))
        env = environ if environ is not None else os.environ
        flat.update(_env_overrides(env))
        for key, value in (overrides or {}).items():
            if value is not None:
                flat[key] = value
        return cls(flat)

    def get(self, path: str) -> Any:
        return self._values[path]

    def resolved(self) -> dict:
        """Nested document with every default filled in; emitted with results."""
        nested: dict = {}
        for path, value in self._values.items():
            parts = path.split(".")
            node = nested
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = copy.deepcopy(value)
        return nested

    # ---- cross-field validation -------------------------------------------

    def _seed(self, key: str) -> int | None:
        """The seed ``key`` was given, else the global ``seed`` (``None`` if neither)."""
        value = self._given_seeds[key]
        return self._given_seeds["seed"] if value is None else value

    def _require_seed(self, specific_key: str, reason: str) -> int:
        value = self._seed(specific_key)
        if value is None:
            raise ConfigError(
                f"{reason} needs a seed: set {specific_key!r} or the global 'seed'"
            )
        self._values[specific_key] = value  # resolved config re-runs byte-identically
        return value

    def _validate(self) -> None:
        v = self._values
        for path in _SEED_KEYS:
            if v[path] is not None and v[path] < 0:
                raise ConfigError(f"config key {path!r} must be non-negative, got {v[path]}")
        for path in _FRACTION_KEYS:
            if not 0 <= v[path] <= 1:  # NaN fails every comparison
                raise ConfigError(f"config key {path!r} must be a number in [0, 1], got {v[path]}")
        if v["input.delimiter"] is not None and len(v["input.delimiter"]) != 1:
            raise ConfigError(
                f"input.delimiter must be one character, got {v['input.delimiter']!r}"
            )
        if v["split.strategy"] not in (STRATEGY_TIME, STRATEGY_LOO, STRATEGY_RANDOM):
            raise ConfigError(f"split.strategy {v['split.strategy']!r} is unknown")
        if (
            v["split.strategy"] == STRATEGY_TIME
            and v["split.split_time"] is None
            and v["split.test_days"] is None
        ):
            v["split.test_days"] = 1  # whole-run default: hold out the final day
        if v["split.window_days"] is not None and v["split.window_days"] < 1:
            raise ConfigError("split.window_days must be at least 1")
        if v["split.window_days"] is not None and v["split.strategy"] != STRATEGY_TIME:
            raise ConfigError("split.window_days needs the time split strategy")
        if v["split.strategy"] == STRATEGY_RANDOM:
            self._require_seed("split.seed", "the random split")
        selection = v["split.selection"]
        if selection.partition(":")[0] == "random":
            self._require_seed("split.seed", "random leave-one-out selection")
        if v["diagnostics.rate_denominator"] not in RATE_DENOMINATORS:
            raise ConfigError(
                f"diagnostics.rate_denominator must be one of {RATE_DENOMINATORS}"
            )
        if v["diagnostics.sequential_baseline"] not in SEQUENTIAL_BASELINES:
            raise ConfigError(
                f"diagnostics.sequential_baseline must be one of {SEQUENTIAL_BASELINES}"
            )
        self.check_model(v["model.name"])
        self.resolve_sampler_seeds([self.sampler_spec()])
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in v["eval.cutoffs"]):
            raise ConfigError("eval.cutoffs must be a list of integers")
        v["eval.master_seed"] = self._seed("eval.master_seed") or 0
        self.eval_config()
        self.pipeline_config()
        self.split_spec()
        cutoff = v["diagnostics.verdict_cutoff"]
        if cutoff is not None and cutoff not in v["eval.cutoffs"]:
            raise ConfigError(
                f"diagnostics.verdict_cutoff {cutoff} is not in eval.cutoffs {v['eval.cutoffs']}"
            )
        if v["model.embedding_dim"] < 1:
            raise ConfigError(
                f"model.embedding_dim must be at least 1, got {v['model.embedding_dim']}"
            )
        name, params = v["model.name"], v["model.params"]
        if any(not isinstance(key, str) for key in params):
            raise ConfigError("model.params keys must be strings")
        if name != "external":
            try:
                MODEL_BUILDERS[name](**params)  # built, not fitted: its params are checked
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"model.params does not fit model {name!r}: {exc}") from exc

    # ---- domain-object builders -------------------------------------------

    def _section(self, prefix: str) -> dict[str, Any]:
        """The keys under ``prefix``, named as the fields of the object they build."""
        return {
            path[len(prefix) :]: value
            for path, value in self._values.items()
            if path.startswith(prefix)
        }

    def column_mapping(self) -> ColumnMapping:
        return ColumnMapping(**self._section("input.columns."))

    def pipeline_config(self) -> PipelineConfig:
        try:
            return PipelineConfig(**self._section("preprocess."))
        except ValueError as exc:
            raise ConfigError(f"preprocess.*: {exc}") from exc

    def _selection(self) -> LeaveOneOutSelection:
        raw = self._values["split.selection"]
        kind, sep, amount = raw.partition(":")
        k = None
        if sep:
            try:
                k = int(amount)
            except ValueError as exc:
                raise ConfigError(f"split.selection {raw!r}: k must be an integer") from exc
        try:
            return LeaveOneOutSelection(kind=kind, k=k, seed=self._seed("split.seed"))
        except ValueError as exc:
            raise ConfigError(f"split.selection: {exc}") from exc

    def split_spec(self) -> SplitSpec:
        v = self._values
        strategy = v["split.strategy"]
        try:
            if strategy == STRATEGY_TIME:
                return SplitSpec(
                    strategy=strategy,
                    split_time=v["split.split_time"],
                    test_days=v["split.test_days"],
                )
            if strategy == STRATEGY_LOO:
                return SplitSpec(strategy=strategy, selection=self._selection())
            return SplitSpec(strategy, fraction=v["split.fraction"], seed=self._seed("split.seed"))
        except ValueError as exc:
            raise ConfigError(f"split.*: {exc}") from exc

    def eval_config(self) -> EvalConfig:
        fields = self._section("eval.")
        del fields["sampler"]
        try:
            return EvalConfig(**fields)
        except ValueError as exc:
            raise ConfigError(f"eval.*: {exc}") from exc

    def check_model(self, name: str, key: str = "model.name") -> None:
        """Reject a model name nothing builds, and 'external' without its scores."""
        if name not in MODEL_BUILDERS and name != "external":
            known = ", ".join(sorted(MODEL_BUILDERS) + ["external"])
            raise ConfigError(f"{key} {name!r} is unknown (have {known})")
        if name == "external" and self._values["model.scores_path"] is None:
            raise ConfigError(f"{key} 'external' needs model.scores_path")

    def sampler_spec(self) -> SamplerSpec:
        try:
            return SamplerSpec.parse(self._values["eval.sampler"])
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"eval.sampler: {exc}") from exc

    def resolve_sampler_seeds(self, samplers: list[SamplerSpec]) -> None:
        """Resolve the seeds that random ties and ``samplers`` need; raise if one is unset."""
        strategies = {sampler.strategy for sampler in samplers}
        v = self._values
        if strategies.intersection(RANDOM_SAMPLERS) or v["eval.tie_policy"] == TIE_RANDOM:
            self._require_seed("eval.master_seed", "stochastic evaluation")
        if strategies.intersection(EMBEDDING_SAMPLERS) and v["model.embeddings_path"] is None:
            self._require_seed("model.embedding_seed", "deriving item embeddings")

    def model_request(self) -> tuple[str, dict]:
        return self._values["model.name"], dict(self._values["model.params"])
