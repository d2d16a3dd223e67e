"""Batch command-line front door.

Subcommands mirror the pipeline stages (``ingest``, ``preprocess``,
``split``, ``diagnose``, ``evaluate``, ``compare``, ``prob``) plus ``run``,
which executes everything and writes a manifest.  Every command accepts the
same configuration document; command-line flags override file and
environment values, and ``--dry-run`` prints the fully-resolved plan without
touching data.

Exit codes: 0 clean success, 1 hard error, 2 success with audit warnings
(machine-readable ``W-*`` codes on stderr and in the payload).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from .config import CONFIG_KEYS, RunConfig
from .diagnostics import (
    collision_hazard,
    collision_stats,
    new_transition_rate,
    sequentiality_probe,
    transition_overlap,
)
from .errors import (
    ConfigError,
    DiagnosticsError,
    EvaluationError,
    ModelError,
    RecauditError,
    SplitError,
)
from .evaluation import (
    EMBEDDING_SAMPLERS,
    SAMPLER_NONE,
    SamplerSpec,
    crossing_analysis,
    evaluate,
)
from .events import canonical_dump_text, ingest_csv
from .models import (
    ExternalScoresModel,
    build_model,
    derive_embeddings,
    load_embeddings,
)
from .preprocess import preprocess
from .probability import (
    max_rank_with_probability,
    sampled_topc_probability,
    sampled_topc_probability_float,
)
from .reports import (
    W_COLLISION_HIGH,
    W_LOO_LEAKAGE,
    W_RANDOM_SPLIT,
    W_SAMPLED_METRICS,
    RunManifest,
    diagnostics_document,
    file_checksum,
    json_text,
    key_value_csv_text,
    metrics_csv_text,
    rate_csv_text,
    sequentiality_csv_text,
    write_json,
    write_text,
)
from .splitting import (
    STRATEGY_LOO,
    STRATEGY_RANDOM,
    apply_split,
    truncate_training_window,
)

PROG = "recaudit"

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


def _note(message: str) -> None:
    print(f"note: {message}", file=sys.stderr)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Audit-first offline evaluation for next-item recommenders.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="FILE", help="JSON configuration document")
        p.add_argument("--output-dir", dest="output.directory", metavar="DIR")
        p.add_argument(
            "--csv",
            dest="output.csv",
            action="store_true",
            default=None,
            help="also write CSV projections of the reports",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="parallelism cap for evaluation (default 1; results never depend on it)",
        )
        p.add_argument(
            "--dry-run",
            action="store_true",
            help="validate configuration and print the resolved plan only",
        )
        p.add_argument("--seed", dest="seed", type=int, help="global seed")

    def input_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", dest="input.path", metavar="FILE")
        p.add_argument(
            "--delimiter",
            dest="input.delimiter",
            choices=sorted(_DELIMITER_ALIASES),
            help="force the field separator instead of auto-detecting",
        )
        p.add_argument("--entity-column", dest="input.columns.entity")
        p.add_argument("--item-column", dest="input.columns.item")
        p.add_argument("--time-column", dest="input.columns.time")
        p.add_argument("--type-column", dest="input.columns.type")

    def preprocess_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--keep-event-type", dest="preprocess.keep_event_type")
        p.add_argument("--session-mode", dest="preprocess.session_mode")
        p.add_argument("--gap-seconds", dest="preprocess.gap_seconds", type=int)
        p.add_argument("--min-seq-len", dest="preprocess.min_seq_len", type=int)
        p.add_argument(
            "--min-item-support", dest="preprocess.min_item_support", type=int
        )

    def split_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--strategy", dest="split.strategy")
        p.add_argument("--split-time", dest="split.split_time", type=int)
        p.add_argument("--test-days", dest="split.test_days", type=int)
        p.add_argument(
            "--selection",
            dest="split.selection",
            help="leave-one-out selection: all, most_recent:K, or random:K",
        )
        p.add_argument("--fraction", dest="split.fraction", type=float)
        p.add_argument("--split-seed", dest="split.seed", type=int)
        p.add_argument("--window-days", dest="split.window_days", type=int)

    def eval_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cutoffs", dest="eval.cutoffs", type=_int_list)
        p.add_argument("--tie-policy", dest="eval.tie_policy")
        p.add_argument("--prefix-start", dest="eval.prefix_start", type=int)

    p_ingest = sub.add_parser("ingest", help="parse raw events, write the canonical dump")
    common(p_ingest)
    input_flags(p_ingest)
    p_ingest.set_defaults(handler=cmd_ingest)

    p_pre = sub.add_parser("preprocess", help="sessionize, collapse, and filter events")
    common(p_pre)
    input_flags(p_pre)
    preprocess_flags(p_pre)
    p_pre.set_defaults(handler=cmd_preprocess)

    p_split = sub.add_parser("split", help="produce a train/test split with stats")
    common(p_split)
    input_flags(p_split)
    preprocess_flags(p_split)
    split_flags(p_split)
    p_split.set_defaults(handler=cmd_split)

    p_diag = sub.add_parser("diagnose", help="run the evaluation-flaw diagnostics")
    common(p_diag)
    input_flags(p_diag)
    preprocess_flags(p_diag)
    split_flags(p_diag)
    eval_flags(p_diag)
    p_diag.set_defaults(handler=cmd_diagnose)

    p_eval = sub.add_parser("evaluate", help="fit one model and report recall/MRR")
    common(p_eval)
    input_flags(p_eval)
    preprocess_flags(p_eval)
    split_flags(p_eval)
    eval_flags(p_eval)
    p_eval.add_argument("--model", dest="model.name")
    p_eval.add_argument("--sampler", dest="eval.sampler")
    p_eval.set_defaults(handler=cmd_evaluate)

    p_cmp = sub.add_parser(
        "compare", help="evaluate several models under several candidate policies"
    )
    common(p_cmp)
    input_flags(p_cmp)
    preprocess_flags(p_cmp)
    split_flags(p_cmp)
    eval_flags(p_cmp)
    p_cmp.add_argument("--models", required=True, help="comma-separated model names")
    p_cmp.add_argument(
        "--samplers",
        default=SAMPLER_NONE,
        help="comma-separated sampler specs, e.g. none,uniform:100,uniform:0.1%%",
    )
    p_cmp.add_argument("--metric", choices=("recall", "mrr"), default="recall")
    p_cmp.set_defaults(handler=cmd_compare)

    p_prob = sub.add_parser(
        "prob", help="closed-form probability of a sampled top-C hit"
    )
    p_prob.add_argument("--catalog", type=int, required=True)
    p_prob.add_argument("--samples", type=int, required=True)
    p_prob.add_argument("--cutoff", type=int, required=True)
    p_prob.add_argument("--rank", type=int)
    p_prob.add_argument(
        "--target-probability",
        type=float,
        help="solve for the largest full rank still reaching this probability",
    )
    p_prob.set_defaults(handler=cmd_prob)

    p_run = sub.add_parser("run", help="full pipeline with manifest")
    common(p_run)
    input_flags(p_run)
    preprocess_flags(p_run)
    split_flags(p_run)
    eval_flags(p_run)
    p_run.add_argument("--model", dest="model.name")
    p_run.add_argument("--sampler", dest="eval.sampler")
    p_run.set_defaults(handler=cmd_run)

    return parser


def _config_from_args(args) -> RunConfig:
    overrides = {}
    for key, value in vars(args).items():
        if key in CONFIG_KEYS and value is not None:
            overrides[key] = value
    raw_delimiter = overrides.get("input.delimiter")
    if raw_delimiter is not None:
        overrides["input.delimiter"] = _DELIMITER_ALIASES[raw_delimiter]
    return RunConfig.load(path=args.config, overrides=overrides)


def _dry_run(cfg: RunConfig, stages: list[str]) -> int:
    _out(
        {
            "dry_run": True,
            "planned_stages": stages,
            "output_directory": cfg.get("output.directory"),
            "resolved_config": cfg.resolved(),
        }
    )
    return 0


def _finish(warnings: list[dict]) -> int:
    for warning in warnings:
        print(f"{warning['code']}: {warning['message']}", file=sys.stderr)
    return 2 if warnings else 0


def _warning(code: str) -> dict:
    return {"code": code, "message": _WARNING_TEXT[code]}


def _split_strategy_warnings(cfg: RunConfig) -> list[dict]:
    strategy = cfg.get("split.strategy")
    if strategy == STRATEGY_LOO:
        return [_warning(W_LOO_LEAKAGE)]
    if strategy == STRATEGY_RANDOM:
        return [_warning(W_RANDOM_SPLIT)]
    return []


# ---- stage runners ---------------------------------------------------------


def _stage_ingest(cfg: RunConfig):
    path = cfg.get("input.path")
    if path is None:
        raise ConfigError("input.path is required (set it or pass --input)")
    return ingest_csv(
        path,
        cfg.column_mapping(),
        delimiter=cfg.get("input.delimiter"),
        max_reject_fraction=cfg.get("input.max_reject_fraction"),
    )


def _stage_split(cfg: RunConfig, data):
    split = apply_split(data, cfg.split_spec())
    window = cfg.get("split.window_days")
    if window is not None:
        split = truncate_training_window(split, window, cfg.get("split.min_seq_len"))
    return split


def _fit_model(cfg: RunConfig, split):
    name, params = cfg.model_request()
    if name == "external":
        model = ExternalScoresModel(
            cfg.get("model.scores_path"), split.train.num_items
        )
        return model.fit(split.train), name
    return _build_model(name, params).fit(split.train), name


def _build_model(name: str, params: dict):
    try:
        return build_model(name, **params)
    except TypeError as exc:
        raise ConfigError(f"model.params does not fit model {name!r}: {exc}") from exc


def _embeddings_for(cfg: RunConfig, split, samplers) -> object | None:
    if not any(s.strategy in EMBEDDING_SAMPLERS for s in samplers):
        return None
    path = cfg.get("model.embeddings_path")
    if path is not None:
        return load_embeddings(path, split.train.item_index)
    return derive_embeddings(
        split.train, cfg.get("model.embedding_dim"), cfg.embedding_seed()
    )


def _diagnostics_sections(cfg: RunConfig, log, data, split, threads: int):
    """Best-effort sections: what cannot be computed is omitted, not nulled."""
    collisions = collision_stats(log)
    rate = None
    try:
        rate = new_transition_rate(data, cfg.get("diagnostics.rate_denominator"))
    except DiagnosticsError as exc:
        _note(f"skipping new_transition_rate: {exc}")
    overlap = None
    sequentiality = None
    if split is not None:
        try:
            overlap = transition_overlap(split)
        except (DiagnosticsError, EvaluationError) as exc:
            _note(f"skipping overlap: {exc}")
        try:
            eval_cfg = cfg.eval_config()
            sequentiality = sequentiality_probe(
                split,
                cutoffs=eval_cfg.cutoffs,
                sequential_model=cfg.get("diagnostics.sequential_baseline"),
                tie_policy=eval_cfg.tie_policy,
                master_seed=eval_cfg.master_seed,
                verdict_cutoff=cfg.get("diagnostics.verdict_cutoff"),
                verdict_threshold=cfg.get("diagnostics.verdict_threshold"),
                workers=threads,
            )
        except (DiagnosticsError, EvaluationError, ModelError) as exc:
            _note(f"skipping sequentiality: {exc}")
    return collisions, rate, overlap, sequentiality


def _write_diagnostics_csv(outdir: str, collisions, rate, overlap, sequentiality):
    paths = {}
    if collisions is not None:
        paths["diagnostics_collisions_csv"] = write_text(
            os.path.join(outdir, "diagnostics_collisions.csv"),
            key_value_csv_text(collisions.to_dict()),
        )
    if rate is not None:
        paths["diagnostics_rate_csv"] = write_text(
            os.path.join(outdir, "diagnostics_rate.csv"), rate_csv_text(rate)
        )
    if overlap is not None:
        paths["diagnostics_overlap_csv"] = write_text(
            os.path.join(outdir, "diagnostics_overlap.csv"),
            key_value_csv_text(overlap.to_dict()),
        )
    if sequentiality is not None:
        paths["diagnostics_sequentiality_csv"] = write_text(
            os.path.join(outdir, "diagnostics_sequentiality.csv"),
            sequentiality_csv_text(sequentiality),
        )
    return paths


def _spec_dict(spec) -> dict:
    selection = None
    if spec.selection is not None:
        selection = {
            "kind": spec.selection.kind,
            "k": spec.selection.k,
            "seed": spec.selection.seed,
        }
    return {
        "strategy": spec.strategy,
        "split_time": spec.split_time,
        "test_days": spec.test_days,
        "selection": selection,
        "fraction": spec.fraction,
        "seed": spec.seed,
    }


def _split_payload(split) -> dict:
    return {
        "spec": _spec_dict(split.spec),
        "split_time": split.split_time,
        "window_days": split.window_days,
        "stats": split.stats.to_dict(),
    }


# ---- commands --------------------------------------------------------------


def cmd_ingest(args) -> int:
    cfg = _config_from_args(args)
    if args.dry_run:
        return _dry_run(cfg, ["ingest"])
    log = _stage_ingest(cfg)
    outdir = cfg.get("output.directory")
    dump_path = write_text(
        os.path.join(outdir, "canonical_events.tsv"), canonical_dump_text(log)
    )
    _out(
        {
            "events": log.num_events,
            "entities": log.num_entities,
            "rejected_rows": log.rejected_count,
            "timestamp_resolution": log.timestamp_resolution,
            "event_types": sorted(log.event_types()),
            "canonical_path": dump_path,
        }
    )
    return 0


def cmd_preprocess(args) -> int:
    cfg = _config_from_args(args)
    if args.dry_run:
        return _dry_run(cfg, ["ingest", "preprocess"])
    data = preprocess(_stage_ingest(cfg), cfg.pipeline_config())
    outdir = cfg.get("output.directory")
    provenance_path = write_json(
        os.path.join(outdir, "provenance.json"), data.provenance_report()
    )
    dataset_path = write_text(
        os.path.join(outdir, "dataset.tsv"), data.canonical_text()
    )
    _out(
        {
            "events": data.num_events,
            "sequences": data.num_sequences,
            "items": data.num_items,
            "provenance_path": provenance_path,
            "dataset_path": dataset_path,
        }
    )
    return 0


def cmd_split(args) -> int:
    cfg = _config_from_args(args)
    if args.dry_run:
        return _dry_run(cfg, ["ingest", "preprocess", "split"])
    data = preprocess(_stage_ingest(cfg), cfg.pipeline_config())
    split = _stage_split(cfg, data)
    outdir = cfg.get("output.directory")
    payload = _split_payload(split)
    payload["train_path"] = write_text(
        os.path.join(outdir, "train.tsv"), split.train.canonical_text()
    )
    payload["test_path"] = write_text(
        os.path.join(outdir, "test.tsv"), split.test.canonical_text()
    )
    write_json(os.path.join(outdir, "split.json"), payload)
    warnings = _split_strategy_warnings(cfg)
    payload["warnings"] = warnings
    _out(payload)
    return _finish(warnings)


def cmd_diagnose(args) -> int:
    cfg = _config_from_args(args)
    if args.dry_run:
        return _dry_run(cfg, ["ingest", "preprocess", "split", "diagnose"])
    log = _stage_ingest(cfg)
    data = preprocess(log, cfg.pipeline_config())
    split = None
    try:
        split = _stage_split(cfg, data)
    except (SplitError, ConfigError) as exc:
        _note(f"split unavailable, overlap and sequentiality omitted: {exc}")
    collisions, rate, overlap, sequentiality = _diagnostics_sections(
        cfg, log, data, split, args.threads
    )
    document = diagnostics_document(collisions, rate, overlap, sequentiality)
    warnings = []
    if collision_hazard(
        collisions, log.timestamp_resolution, cfg.get("diagnostics.collision_threshold")
    ):
        warnings.append(
            {
                "code": W_COLLISION_HIGH,
                "message": (
                    f"{collisions.colliding_event_fraction:.1%} of events share a "
                    "day-resolution timestamp slot; within-day event order is "
                    "not behavioural"
                ),
            }
        )
    document["warnings"] = warnings
    outdir = cfg.get("output.directory")
    write_json(os.path.join(outdir, "diagnostics.json"), document)
    if cfg.get("output.csv"):
        _write_diagnostics_csv(outdir, collisions, rate, overlap, sequentiality)
    _out(document)
    return _finish(warnings)


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    if args.dry_run:
        return _dry_run(cfg, ["ingest", "preprocess", "split", "evaluate"])
    data = preprocess(_stage_ingest(cfg), cfg.pipeline_config())
    split = _stage_split(cfg, data)
    model, name = _fit_model(cfg, split)
    sampler = cfg.sampler_spec()
    embeddings = _embeddings_for(cfg, split, [sampler])
    report = evaluate(
        model,
        split,
        cfg.eval_config(),
        sampler,
        embeddings=embeddings,
        workers=args.threads,
        model_name=name,
    )
    warnings = _split_strategy_warnings(cfg)
    if sampler.strategy != SAMPLER_NONE:
        warnings.append(_warning(W_SAMPLED_METRICS))
    payload = report.to_dict()
    payload["warnings"] = warnings
    outdir = cfg.get("output.directory")
    write_json(os.path.join(outdir, "metrics.json"), payload)
    if cfg.get("output.csv"):
        write_text(os.path.join(outdir, "metrics.csv"), metrics_csv_text([report]))
    _out(payload)
    return _finish(warnings)


def cmd_compare(args) -> int:
    cfg = _config_from_args(args)
    model_names = [name.strip() for name in args.models.split(",") if name.strip()]
    if not model_names:
        raise ConfigError("--models needs at least one model name")
    try:
        samplers = [
            SamplerSpec.parse(text.strip())
            for text in args.samplers.split(",")
            if text.strip()
        ]
    except ValueError as exc:
        raise ConfigError(f"--samplers: {exc}") from exc
    if args.dry_run:
        return _dry_run(cfg, ["ingest", "preprocess", "split", "evaluate"])
    data = preprocess(_stage_ingest(cfg), cfg.pipeline_config())
    split = _stage_split(cfg, data)
    eval_cfg = cfg.eval_config()
    embeddings = _embeddings_for(cfg, split, samplers)
    # model.params belong to the configured model.name only
    configured, params = cfg.model_request()
    fitted = []
    for name in model_names:
        model = _build_model(name, params if name == configured else {})
        fitted.append((name, model.fit(split.train)))
    reports = []
    crossings = []
    for sampler in samplers:
        per_sampler = []
        for name, model in fitted:
            report = evaluate(
                model,
                split,
                eval_cfg,
                sampler,
                embeddings=embeddings,
                workers=args.threads,
                model_name=name,
            )
            per_sampler.append(report)
            reports.append(report)
        for i in range(len(per_sampler)):
            for j in range(i + 1, len(per_sampler)):
                crossings.append(
                    crossing_analysis(per_sampler[i], per_sampler[j], args.metric)
                )
    warnings = _split_strategy_warnings(cfg)
    if any(s.strategy != SAMPLER_NONE for s in samplers):
        warnings.append(_warning(W_SAMPLED_METRICS))
    payload = {
        "metric": args.metric,
        "reports": [r.to_dict() for r in reports],
        "crossings": [c.to_dict() for c in crossings],
        "warnings": warnings,
    }
    outdir = cfg.get("output.directory")
    write_json(os.path.join(outdir, "comparison.json"), payload)
    if cfg.get("output.csv"):
        write_text(os.path.join(outdir, "comparison.csv"), metrics_csv_text(reports))
    _out(payload)
    return _finish(warnings)


def cmd_prob(args) -> int:
    if (args.rank is None) == (args.target_probability is None):
        raise _UsageError("prob needs exactly one of --rank or --target-probability")
    try:
        if args.rank is not None:
            payload = {
                "catalog": args.catalog,
                "rank": args.rank,
                "samples": args.samples,
                "cutoff": args.cutoff,
                "probability": sampled_topc_probability(
                    args.catalog, args.rank, args.samples, args.cutoff
                ),
                "probability_log_space": sampled_topc_probability_float(
                    args.catalog, args.rank, args.samples, args.cutoff
                ),
            }
        else:
            rank = max_rank_with_probability(
                args.catalog, args.samples, args.cutoff, args.target_probability
            )
            payload = {
                "catalog": args.catalog,
                "samples": args.samples,
                "cutoff": args.cutoff,
                "target_probability": args.target_probability,
                "max_rank": rank,
            }
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    _out(payload)
    return 0


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    stages = ["ingest", "preprocess", "split", "diagnose", "evaluate"]
    if args.dry_run:
        return _dry_run(cfg, stages)
    outdir = cfg.get("output.directory")
    manifest = RunManifest(tool_version=__version__, resolved_config=cfg.resolved())
    manifest.report_paths["resolved_config"] = write_json(
        os.path.join(outdir, "resolved_config.json"), cfg.resolved()
    )
    stage = "ingest"
    try:
        started = time.perf_counter()
        log = _stage_ingest(cfg)
        manifest.stage_seconds[stage] = time.perf_counter() - started
        input_path = cfg.get("input.path")
        manifest.input_checksums[input_path] = file_checksum(input_path)
        manifest.stage_stats[stage] = {
            "events": log.num_events,
            "entities": log.num_entities,
            "rejected_rows": log.rejected_count,
            "timestamp_resolution": log.timestamp_resolution,
        }

        stage = "preprocess"
        started = time.perf_counter()
        data = preprocess(log, cfg.pipeline_config())
        manifest.stage_seconds[stage] = time.perf_counter() - started
        manifest.stage_stats[stage] = {
            "events": data.num_events,
            "sequences": data.num_sequences,
            "items": data.num_items,
        }
        manifest.report_paths["provenance"] = write_json(
            os.path.join(outdir, "provenance.json"), data.provenance_report()
        )

        stage = "split"
        started = time.perf_counter()
        split = _stage_split(cfg, data)
        manifest.stage_seconds[stage] = time.perf_counter() - started
        manifest.report_paths["split"] = write_json(
            os.path.join(outdir, "split.json"), _split_payload(split)
        )
        for warning in _split_strategy_warnings(cfg):
            manifest.add_warning(warning["code"], warning["message"])

        stage = "diagnose"
        started = time.perf_counter()
        collisions, rate, overlap, sequentiality = _diagnostics_sections(
            cfg, log, data, split, args.threads
        )
        manifest.stage_seconds[stage] = time.perf_counter() - started
        if collision_hazard(
            collisions,
            log.timestamp_resolution,
            cfg.get("diagnostics.collision_threshold"),
        ):
            manifest.add_warning(
                W_COLLISION_HIGH,
                (
                    f"{collisions.colliding_event_fraction:.1%} of events share a "
                    "day-resolution timestamp slot; within-day event order is "
                    "not behavioural"
                ),
            )
        manifest.report_paths["diagnostics"] = write_json(
            os.path.join(outdir, "diagnostics.json"),
            diagnostics_document(collisions, rate, overlap, sequentiality),
        )
        if cfg.get("output.csv"):
            manifest.report_paths.update(
                _write_diagnostics_csv(outdir, collisions, rate, overlap, sequentiality)
            )

        stage = "evaluate"
        started = time.perf_counter()
        model, name = _fit_model(cfg, split)
        sampler = cfg.sampler_spec()
        embeddings = _embeddings_for(cfg, split, [sampler])
        report = evaluate(
            model,
            split,
            cfg.eval_config(),
            sampler,
            embeddings=embeddings,
            workers=args.threads,
            model_name=name,
        )
        elapsed = time.perf_counter() - started
        manifest.stage_seconds[stage] = elapsed
        manifest.stage_stats[stage] = {
            "test_cases": report.total_cases,
            "scored_cases": report.case_count,
            "scored_lists_per_second": (
                round(report.case_count / elapsed, 2) if elapsed > 0 else None
            ),
        }
        manifest.report_paths["metrics"] = write_json(
            os.path.join(outdir, "metrics.json"), report.to_dict()
        )
        if cfg.get("output.csv"):
            manifest.report_paths["metrics_csv"] = write_text(
                os.path.join(outdir, "metrics.csv"), metrics_csv_text([report])
            )
        if sampler.strategy != SAMPLER_NONE:
            manifest.add_warning(W_SAMPLED_METRICS, _WARNING_TEXT[W_SAMPLED_METRICS])
    except RecauditError as exc:
        manifest.error = {"stage": stage, "message": str(exc)}
        write_json(os.path.join(outdir, "manifest.json"), manifest.to_dict())
        print(f"error in stage {stage}: {exc}", file=sys.stderr)
        return 1
    manifest.report_paths["manifest"] = os.path.join(outdir, "manifest.json")
    write_json(manifest.report_paths["manifest"], manifest.to_dict())
    _out(manifest.to_dict())
    return _finish(manifest.warnings)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecauditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
