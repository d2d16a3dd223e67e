"""Batch command-line front door.

Subcommands mirror the pipeline stages (``ingest``, ``preprocess``,
``split``, ``diagnose``, ``evaluate``, ``compare``, ``prob``) plus ``run``,
which executes everything.  Every data command is a list of stage names that
one runner walks over a shared context (see :data:`PLANS`); each command
writes ``resolved_config.json`` and ``manifest.json`` next to its reports.
Every command accepts the same configuration document; command-line flags
override file and environment values, and ``--dry-run`` prints the
fully-resolved plan without touching data.

Exit codes: 0 clean success, 1 hard error, 2 success with audit warnings
(machine-readable ``W-*`` codes on stderr and in the payload).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import __version__
from .config import CONFIG_KEYS, RANDOM_SAMPLERS, RunConfig
from .diagnostics import (
    collision_hazard, collision_stats, new_transition_rate, probe_models,
    sequentiality_probe, transition_overlap,
)
from .errors import (
    ConfigError, DiagnosticsError, EvaluationError, ModelError, RecauditError, SplitError,
)
from .evaluation import (
    EMBEDDING_SAMPLERS, SAMPLER_NONE, MetricReport, SamplerSpec, crossing_analysis, evaluate,
)
from .events import dump_canonical, ingest_csv
from .models import ExternalScoresModel, build_model, derive_embeddings, load_embeddings
from .preprocess import preprocess
from .probability import (
    max_rank_with_probability, sampled_topc_probability, sampled_topc_probability_float,
)
from .reports import (
    W_COLLISION_HIGH, W_LOO_LEAKAGE, W_RANDOM_SPLIT, W_SAMPLED_METRICS, RunManifest,
    diagnostics_document, file_checksum, json_text, key_value_csv_text, metrics_csv_text,
    peak_rss_mb, plain, rate_csv_text, sequentiality_csv_text, write_dump, write_json,
    write_text,
)
from .splitting import STRATEGY_LOO, STRATEGY_RANDOM, apply_split, truncate_training_window

PROG = "recaudit"

# the stages each data command runs, in order; --dry-run prints them
PLANS = {
    "ingest": ("ingest",),
    "preprocess": ("ingest", "preprocess"),
    "split": ("ingest", "preprocess", "split"),
    "diagnose": ("ingest", "preprocess", "split", "diagnose"),
    "evaluate": ("ingest", "preprocess", "split", "evaluate"),
    "compare": ("ingest", "preprocess", "split", "evaluate"),
    "run": ("ingest", "preprocess", "split", "diagnose", "evaluate"),
}

_DELIMITER_ALIASES = {"comma": ",", "tab": "\t"}

_WARNING_TEXT = {
    W_LOO_LEAKAGE: (
        "leave-one-out split: test answers precede training events in time, "
        "so reported metrics can leak future information"
    ),
    W_RANDOM_SPLIT: (
        "random split ignores temporal order; train may contain events from "
        "after the test interactions"
    ),
    W_SAMPLED_METRICS: (
        "metrics are computed against sampled negatives and overstate "
        "full-catalog ranking quality"
    ),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1; the default argparse status of 2 is reserved
    # for success-with-warnings
    def error(self, message):
        raise _UsageError(message)


def _out(payload) -> None:
    sys.stdout.write(json_text(payload))


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def _positive_int(text: str) -> int:
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer: {text!r}")
    return int(text)


# (flag, config key, argparse keywords) for the settings of each stage; a
# command takes the flags of the stages it runs
_STAGE_FLAGS = {
    "ingest": (
        ("--input", "input.path", {"metavar": "FILE"}),
        ("--delimiter", "input.delimiter", {
            "choices": sorted(_DELIMITER_ALIASES),
            "help": "force the field separator instead of auto-detecting",
        }),
        ("--entity-column", "input.columns.entity", {}),
        ("--item-column", "input.columns.item", {}),
        ("--time-column", "input.columns.time", {}),
        ("--type-column", "input.columns.type", {}),
    ),
    "preprocess": (
        ("--keep-event-type", "preprocess.keep_event_type", {}),
        ("--session-mode", "preprocess.session_mode", {}),
        ("--gap-seconds", "preprocess.gap_seconds", {"type": int}),
        ("--min-seq-len", "preprocess.min_seq_len", {"type": int}),
        ("--min-item-support", "preprocess.min_item_support", {"type": int}),
    ),
    "split": (
        ("--strategy", "split.strategy", {}),
        ("--split-time", "split.split_time", {"type": int}),
        ("--test-days", "split.test_days", {"type": int}),
        ("--selection", "split.selection", {
            "help": "leave-one-out selection: all, most_recent:K, or random:K",
        }),
        ("--fraction", "split.fraction", {"type": float}),
        ("--split-seed", "split.seed", {"type": int}),
        ("--window-days", "split.window_days", {"type": int}),
    ),
    "diagnose": (
        ("--cutoffs", "eval.cutoffs", {"type": _int_list}),
        ("--tie-policy", "eval.tie_policy", {}),
        ("--prefix-start", "eval.prefix_start", {"type": int}),
    ),
}
_STAGE_FLAGS["evaluate"] = _STAGE_FLAGS["diagnose"]

_COMMAND_HELP = {
    "ingest": "parse raw events, write the canonical dump",
    "preprocess": "sessionize, collapse, and filter events",
    "split": "produce a train/test split with stats",
    "diagnose": "run the evaluation-flaw diagnostics",
    "evaluate": "fit one model and report recall/MRR",
    "compare": "evaluate several models under several candidate policies",
    "run": "full pipeline with manifest",
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG, description="Audit-first offline evaluation for next-item recommenders."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    for command, plan in PLANS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", metavar="FILE", help="JSON configuration document")
        p.add_argument("--output-dir", dest="output.directory", metavar="DIR")
        p.add_argument("--csv", dest="output.csv", action="store_true", default=None,
                       help="also write CSV projections of the reports")
        p.add_argument("--threads", type=_positive_int, default=1, help=(
            "parallelism cap for evaluation (default 1; results never depend on it)"
        ))
        p.add_argument("--dry-run", action="store_true",
                       help="validate configuration and print the resolved plan only")
        p.add_argument("--seed", dest="seed", type=int, help="global seed")
        added = set()
        for stage in plan:
            for flag, key, options in _STAGE_FLAGS.get(stage, ()):
                if flag not in added:
                    p.add_argument(flag, dest=key, **options)
                    added.add(flag)
        if command in ("evaluate", "run"):
            p.add_argument("--model", dest="model.name")
            p.add_argument("--sampler", dest="eval.sampler")
        if command == "compare":
            p.add_argument("--models", required=True, help="comma-separated model names")
            p.add_argument("--samplers", default=SAMPLER_NONE, help=(
                "comma-separated sampler specs, e.g. none,uniform:100,uniform:0.1%%"
            ))
            p.add_argument("--metric", choices=("recall", "mrr"), default="recall")

    p_prob = sub.add_parser("prob", help="closed-form probability of a sampled top-C hit")
    p_prob.add_argument("--catalog", type=int, required=True)
    p_prob.add_argument("--samples", type=int, required=True)
    p_prob.add_argument("--cutoff", type=int, required=True)
    p_prob.add_argument("--rank", type=int)
    p_prob.add_argument("--target-probability", type=float, help=(
        "solve for the largest full rank still reaching this probability"
    ))
    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None}
    raw_delimiter = overrides.get("input.delimiter")
    if raw_delimiter is not None:
        overrides["input.delimiter"] = _DELIMITER_ALIASES[raw_delimiter]
    return RunConfig.load(path=args.config, overrides=overrides)


def _no_repeats(flag: str, entries: list, label=str) -> None:
    """Reject a list in which an entry equals an earlier one."""
    for k, entry in enumerate(entries):
        if entry in entries[:k]:
            raise ConfigError(f"{flag} lists {label(entry)!r} twice")


def _grid(cfg: RunConfig, args) -> tuple[list[str], list[SamplerSpec]]:
    """The models and samplers the evaluate stage crosses."""
    if args.command != "compare":
        return [cfg.get("model.name")], [cfg.sampler_spec()]
    names = [name.strip() for name in args.models.split(",") if name.strip()]
    if not names:
        raise ConfigError("--models needs at least one model name")
    for name in names:
        cfg.check_model(name, "model")
    _no_repeats("--models", names)
    try:
        samplers = [SamplerSpec.parse(text) for text in args.samplers.split(",") if text.strip()]
    except ValueError as exc:
        raise ConfigError(f"--samplers: {exc}") from exc
    if not samplers:
        raise ConfigError("--samplers needs at least one sampler spec")
    _no_repeats("--samplers", samplers, SamplerSpec.describe)
    if any(sampler.strategy in RANDOM_SAMPLERS for sampler in samplers):
        cfg.sampling_seed()
    return names, samplers


class _Context:
    """What the stages of one command share: data, fitted models, reports, manifest."""

    def __init__(self, cfg: RunConfig, args, argv, names, samplers) -> None:
        self.cfg = cfg
        self.args = args
        self.plan = PLANS[args.command]
        # run writes each stage's report as the stage ends and keeps warnings
        # in the manifest; the other commands write their last stage's report
        # and data dumps with the warnings embedded, and print it
        self.full_run = args.command == "run"
        self.outdir = cfg.get("output.directory")
        self.names, self.samplers = names, samplers
        self.manifest = RunManifest(
            tool_version=__version__, resolved_config=cfg.resolved(), argv=argv
        )
        self.log = self.data = self.split = self.embeddings = None
        self.sections = (None, None, None, None)
        self.models: dict = {}  # (name, params) -> fitted model
        self.reports: dict = {}  # (name, params, sampler, eval config) -> MetricReport
        self.pass_of: dict = {}  # id(report) -> index of the pass that produced it
        self.passes: list[tuple[int, float]] = []  # (ranked lists, seconds) per pass
        self.results: list[MetricReport] = []

    @property
    def warnings(self) -> list[dict]:
        return self.manifest.warnings

    def warn(self, code: str, message: str | None = None) -> None:
        self.manifest.add_warning(code, message or _WARNING_TEXT[code])

    def note(self, message: str) -> None:
        print(f"note: {message}", file=sys.stderr)
        self.manifest.notes.append(message)

    def write(self, key: str, name: str, content) -> str:
        path = os.path.join(self.outdir, name)
        if isinstance(content, str):
            write_text(path, content)
        elif callable(content):
            write_dump(path, content)  # a dump streamed to its file
        else:
            write_json(path, content)
        self.manifest.report_paths[key] = path
        return path

    def embed_warnings(self, payload: dict) -> dict:
        if not self.full_run:
            payload["warnings"] = self.warnings
        return payload

    def grid(self, requests: list[tuple[str, dict]], samplers: list[SamplerSpec]):
        """Reports for each sampler × (model name, params), sampler-major.

        Models are fitted once per name and params.  The cells no earlier
        request produced are ranked in one evaluation pass over their models
        and samplers.
        """
        eval_cfg = self.cfg.eval_config()
        model_keys = [(name, json.dumps(params, sort_keys=True)) for name, params in requests]
        params_of = dict(zip(model_keys, (params for _, params in requests)))
        cells = [
            (*model_key, sampler, eval_cfg) for sampler in samplers for model_key in model_keys
        ]
        missing = [cell for cell in cells if cell not in self.reports]
        if missing:
            fitted = {}
            for name, params_text, _, _ in missing:
                model_key = (name, params_text)
                if model_key not in self.models:
                    self.models[model_key] = _fit_model(
                        self.cfg, name, params_of[model_key], self.split.train
                    )
                fitted[name] = self.models[model_key]
            pass_samplers = list(dict.fromkeys(cell[2] for cell in missing))
            if self.embeddings is None and any(
                sampler.strategy in EMBEDDING_SAMPLERS for sampler in pass_samplers
            ):
                self.embeddings = _embeddings(self.cfg, self.split.train)
            started = time.perf_counter()
            result = evaluate(
                fitted, self.split, eval_cfg, pass_samplers,
                embeddings=self.embeddings, workers=self.args.threads,
            )
            seconds = time.perf_counter() - started
            lists = sum(report.case_count for report in result.reports.values())
            for cell in missing:
                report = result[cell[0], cell[2]]
                self.reports[cell] = report
                self.pass_of[id(report)] = len(self.passes)
            self.passes.append((lists, seconds))
        return [self.reports[cell] for cell in cells]


def _fit_model(cfg: RunConfig, name: str, params: dict, train):
    """The one place a model is built from config and fitted."""
    if name == "external":
        return ExternalScoresModel(cfg.get("model.scores_path"), train.num_items).fit(train)
    try:
        model = build_model(name, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model.params does not fit model {name!r}: {exc}") from exc
    return model.fit(train)


def _embeddings(cfg: RunConfig, train):
    path = cfg.get("model.embeddings_path")
    if path is not None:
        return load_embeddings(path, train.item_index)
    return derive_embeddings(train, cfg.get("model.embedding_dim"), cfg.embedding_seed())


# ---- stages: each fills the context and returns its manifest stats ----------


def _stage_ingest(ctx: _Context):
    cfg = ctx.cfg
    path = cfg.get("input.path")
    if path is None:
        raise ConfigError("input.path is required (set it or pass --input)")
    ctx.log = log = ingest_csv(
        path, cfg.column_mapping(), delimiter=cfg.get("input.delimiter"),
        max_reject_fraction=cfg.get("input.max_reject_fraction"),
    )
    ctx.manifest.input_checksums[path] = file_checksum(path)
    return {
        "events": log.num_events,
        "entities": log.num_entities,
        "rejected_rows": log.rejected_count,
        "timestamp_resolution": log.timestamp_resolution,
    }


def _stage_preprocess(ctx: _Context):
    ctx.data = data = preprocess(ctx.log, ctx.cfg.pipeline_config())
    if "diagnose" not in ctx.plan:
        ctx.log = None  # no later stage reads it: free it before the models grow
    return {"events": data.num_events, "sequences": data.num_sequences, "items": data.num_items}


def _stage_split(ctx: _Context):
    cfg = ctx.cfg
    try:
        split = apply_split(ctx.data, cfg.split_spec())
        window = cfg.get("split.window_days")
        if window is not None:
            split = truncate_training_window(split, window, cfg.get("split.min_seq_len"))
        ctx.split = split
    except (SplitError, ConfigError) as exc:
        # the diagnostics can do without a split; evaluation cannot
        if ctx.plan[-1] != "diagnose":
            raise
        ctx.note(f"split unavailable, overlap and sequentiality omitted: {exc}")


def _stage_diagnose(ctx: _Context):
    """Best-effort sections: what cannot be computed is omitted, not nulled."""
    cfg = ctx.cfg
    collisions = collision_stats(ctx.log)
    rate = overlap = sequentiality = None
    try:
        rate = new_transition_rate(ctx.data, cfg.get("diagnostics.rate_denominator"))
    except DiagnosticsError as exc:
        ctx.note(f"skipping new_transition_rate: {exc}")
    if ctx.split is not None:
        try:
            overlap = transition_overlap(ctx.split)
        except DiagnosticsError as exc:
            ctx.note(f"skipping overlap: {exc}")
        try:
            names = probe_models(cfg.get("diagnostics.sequential_baseline"))
            reports = ctx.grid([(name, {}) for name in names], [SamplerSpec()])
            sequentiality = sequentiality_probe(
                *reports,
                verdict_cutoff=cfg.get("diagnostics.verdict_cutoff"),
                verdict_threshold=cfg.get("diagnostics.verdict_threshold"),
            )
        except (DiagnosticsError, EvaluationError, ModelError) as exc:
            ctx.note(f"skipping sequentiality: {exc}")
    ctx.sections = (collisions, rate, overlap, sequentiality)


def _stage_evaluate(ctx: _Context):
    # model.params belong to the configured model.name only
    configured, params = ctx.cfg.model_request()
    ctx.results = ctx.grid(
        [(name, params if name == configured else {}) for name in ctx.names], ctx.samplers
    )
    # throughput of the passes that ranked these reports, each counted once
    passes = [ctx.passes[i] for i in sorted({ctx.pass_of[id(r)] for r in ctx.results})]
    lists = sum(count for count, _ in passes)
    seconds = sum(spent for _, spent in passes)
    return {
        "test_cases": ctx.results[0].total_cases,
        "scored_cases": sum(report.case_count for report in ctx.results),
        "scored_lists_per_second": round(lists / seconds, 2) if seconds > 0 else None,
    }


# ---- writes: after a stage, the reports it produced -------------------------


def _write_ingest(ctx: _Context):
    if ctx.full_run:
        return None
    return {
        **ctx.manifest.stage_stats["ingest"],
        "event_types": sorted(ctx.log.event_types()),
        "canonical_path": ctx.write(
            "canonical_events", "canonical_events.tsv",
            lambda stream: dump_canonical(ctx.log, stream),
        ),
    }


def _write_preprocess(ctx: _Context):
    data = ctx.data
    provenance_path = ctx.write("provenance", "provenance.json", plain(data.provenance))
    if ctx.full_run:
        return None
    return {
        **ctx.manifest.stage_stats["preprocess"],
        "provenance_path": provenance_path,
        "dataset_path": ctx.write("dataset", "dataset.tsv", data.dump_canonical),
    }


def _warn_split(ctx: _Context) -> None:
    strategy = ctx.cfg.get("split.strategy")
    if strategy == STRATEGY_LOO:
        ctx.warn(W_LOO_LEAKAGE)
    elif strategy == STRATEGY_RANDOM:
        ctx.warn(W_RANDOM_SPLIT)


def _write_split(ctx: _Context):
    split = ctx.split
    payload = {
        "spec": plain(split.spec),
        "split_time": split.split_time,
        "window_days": split.window_days,
        "stats": plain(split.stats),
    }
    if not ctx.full_run:
        payload["train_path"] = ctx.write("train", "train.tsv", split.train.dump_canonical)
        payload["test_path"] = ctx.write("test", "test.tsv", split.test.dump_canonical)
    ctx.write("split", "split.json", payload)
    _warn_split(ctx)
    return ctx.embed_warnings(payload)


def _write_diagnose(ctx: _Context):
    collisions, rate, overlap, sequentiality = ctx.sections
    threshold = ctx.cfg.get("diagnostics.collision_threshold")
    if collision_hazard(collisions, ctx.log.timestamp_resolution, threshold):
        ctx.warn(
            W_COLLISION_HIGH,
            f"{collisions.colliding_event_fraction:.1%} of events share a "
            "day-resolution timestamp slot; within-day event order is not behavioural",
        )
    document = ctx.embed_warnings(
        diagnostics_document(collisions, rate, overlap, sequentiality)
    )
    ctx.write("diagnostics", "diagnostics.json", document)
    if ctx.cfg.get("output.csv"):
        texts = {"collisions": key_value_csv_text(plain(collisions))}
        if rate is not None:
            texts["rate"] = rate_csv_text(rate)
        if overlap is not None:
            texts["overlap"] = key_value_csv_text(plain(overlap))
        if sequentiality is not None:
            texts["sequentiality"] = sequentiality_csv_text(sequentiality)
        for key, text in texts.items():
            ctx.write(f"diagnostics_{key}_csv", f"diagnostics_{key}.csv", text)
    return document


def _write_evaluate(ctx: _Context):
    _warn_split(ctx)
    if any(s.strategy != SAMPLER_NONE for s in ctx.samplers):
        ctx.warn(W_SAMPLED_METRICS)
    reports, csv = ctx.results, ctx.cfg.get("output.csv")
    if ctx.args.command != "compare":
        payload = ctx.embed_warnings(plain(reports[0]))
        ctx.write("metrics", "metrics.json", payload)
        if csv:
            ctx.write("metrics_csv", "metrics.csv", metrics_csv_text(reports))
        return payload
    metric, width = ctx.args.metric, len(ctx.names)
    crossings = [
        crossing_analysis(block[i], block[j], metric)
        for block in (reports[k : k + width] for k in range(0, len(reports), width))
        for i in range(width)
        for j in range(i + 1, width)
    ]
    payload = {
        "metric": metric,
        "reports": plain(reports),
        "crossings": plain(crossings),
        "warnings": ctx.warnings,
    }
    ctx.write("comparison", "comparison.json", payload)
    if csv:
        ctx.write("comparison_csv", "comparison.csv", metrics_csv_text(reports))
    return payload


STAGES = {
    "ingest": (_stage_ingest, _write_ingest),
    "preprocess": (_stage_preprocess, _write_preprocess),
    "split": (_stage_split, _write_split),
    "diagnose": (_stage_diagnose, _write_diagnose),
    "evaluate": (_stage_evaluate, _write_evaluate),
}


class _NoteHandler(logging.Handler):
    """Puts each library log record in the manifest's notes and on stderr."""

    def __init__(self, notes: list[str]) -> None:
        super().__init__(logging.WARNING)
        self.notes = notes

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        self.notes.append(message)
        print(message, file=sys.stderr)


def _run(args, argv: list[str]) -> int:
    """Walk the command's stages; write the manifest whether or not they succeed."""
    cfg = _config_from_args(args)
    names, samplers = _grid(cfg, args)
    plan = PLANS[args.command]
    if args.dry_run:
        _out({
            "dry_run": True,
            "planned_stages": list(plan),
            "output_directory": cfg.get("output.directory"),
            "resolved_config": cfg.resolved(),
        })
        return 0
    ctx = _Context(cfg, args, argv, names, samplers)
    manifest = ctx.manifest
    ctx.write("resolved_config", "resolved_config.json", cfg.resolved())
    manifest_path = os.path.join(ctx.outdir, "manifest.json")
    payload = None
    logger, handler = logging.getLogger(__package__), _NoteHandler(manifest.notes)
    logger.addHandler(handler)
    try:
        for stage in plan:
            run_stage, write = STAGES[stage]
            started = time.perf_counter()
            stats = run_stage(ctx)
            manifest.stage_seconds[stage] = time.perf_counter() - started
            manifest.stage_peak_rss_mb[stage] = peak_rss_mb()
            if stats is not None:
                manifest.stage_stats[stage] = stats
            if ctx.full_run or stage == plan[-1]:
                payload = write(ctx)
    except RecauditError as exc:
        manifest.error = {"stage": stage, "message": str(exc)}
        manifest.peak_rss_mb = peak_rss_mb()
        write_json(manifest_path, plain(manifest))
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1
    finally:
        logger.removeHandler(handler)
    manifest.report_paths["manifest"] = manifest_path
    manifest.peak_rss_mb = peak_rss_mb()
    write_json(manifest_path, plain(manifest))
    _out(plain(manifest) if ctx.full_run else payload)
    for warning in ctx.warnings:
        print(f"{warning['code']}: {warning['message']}", file=sys.stderr)
    return 2 if ctx.warnings else 0


def cmd_prob(args) -> int:
    if (args.rank is None) == (args.target_probability is None):
        raise _UsageError("prob needs exactly one of --rank or --target-probability")
    question = (args.catalog, args.samples, args.cutoff)
    payload = dict(zip(("catalog", "samples", "cutoff"), question))
    try:
        if args.rank is not None:
            question = (args.catalog, args.rank, args.samples, args.cutoff)
            payload["rank"] = args.rank
            payload["probability"] = sampled_topc_probability(*question)
            payload["probability_log_space"] = sampled_topc_probability_float(*question)
        else:
            payload["target_probability"] = args.target_probability
            payload["max_rank"] = max_rank_with_probability(*question, args.target_probability)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _out(payload)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        return cmd_prob(args) if args.command == "prob" else _run(args, argv)
    except (_UsageError, RecauditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
