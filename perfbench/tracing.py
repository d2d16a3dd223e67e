"""Outside-in tracing of one recaudit invocation.

Run as a script, this module wraps the public functions and model methods of
each recaudit layer at every attribute a caller can resolve them by (each
module binding of the function, each model class), runs the command
line in this process, and writes the spans and counters it recorded to a
JSON file:

    python3 perfbench/tracing.py SPANS.json recaudit-args...

The program's own files are not touched: a wrapper records a span (name,
start, end, parent) around the call and passes arguments and result through
unchanged, so the traced run writes the same report bytes as an untraced one.
Spans are kept in memory and written once at the end.

Imported, the module turns such a file into the benchmark's per-layer
metrics (:func:`layer_metrics`).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict

MODELS = ("markov", "cooccurrence", "session_knn")

# span name -> metric name for layers reported as summed self time
SELF_TIME_METRICS = {
    "events.ingest": "events.ingest_s",
    "preprocess.sessionize": "preprocess.sessionize_s",
    "preprocess.collapse": "preprocess.collapse_s",
    "preprocess.support_filter": "preprocess.support_filter_s",
    "splitting.split": "splitting.split_s",
    "diagnostics.collisions": "diagnostics.collisions_s",
    "diagnostics.transition_rate": "diagnostics.transition_rate_s",
    "diagnostics.overlap": "diagnostics.overlap_s",
    "diagnostics.transition_set": "diagnostics.transition_set_s",
    "diagnostics.sequentiality": "diagnostics.sequentiality_s",
    "evaluation.evaluate": "evaluation.evaluate_s",
    "evaluation.enumerate_cases": "evaluation.enumerate_cases_s",
    "evaluation.case_rng": "evaluation.case_rng_s",
    "evaluation.sample_negatives": "evaluation.sample_negatives_s",
    "evaluation.rank": "evaluation.rank_s",
    "reports.write": "reports.write_s",
}
SELF_TIME_METRICS.update({f"models.fit.{m}": f"models.fit_s.{m}" for m in MODELS})
SELF_TIME_METRICS.update({f"models.score.{m}": f"models.score_s.{m}" for m in MODELS})

# span name -> metric name for exact call counts
CALL_METRICS = {
    "preprocess.collapse": "preprocess.collapse_calls",
    "diagnostics.transition_set": "diagnostics.transition_set_calls",
    "evaluation.evaluate": "evaluation.evaluate_calls",
    "evaluation.enumerate_cases": "evaluation.enumerate_cases_calls",
    "evaluation.case_rng": "evaluation.case_rng_calls",
    "evaluation.sample_negatives": "evaluation.sample_negatives_calls",
    "evaluation.rank": "evaluation.rank_calls",
}
CALL_METRICS.update({f"models.fit.{m}": f"models.fit_calls.{m}" for m in MODELS})
CALL_METRICS.update({f"models.score.{m}": f"models.score_calls.{m}" for m in MODELS})


class Tracer:
    """Spans and counters of one process, kept in memory until :meth:`write`."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open = [-1]
        self.counts: Counter[str] = Counter()
        self.cases_scored: dict[str, set[int]] = defaultdict(set)
        self._live_rng = None
        self._live_rng_used = False

    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, *args, **kwargs)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self._open[-1]]
            self.spans.append(record)
            self._open.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return traced

    def inside(self, name: str) -> bool:
        """Whether the innermost open span is called ``name``."""
        parent = self._open[-1]
        return parent >= 0 and self.spans[parent][0] == name

    def new_case_rng(self, rng) -> None:
        """A case generator was built; it counts as used once something draws."""
        self._live_rng = rng
        self._live_rng_used = False

    def mark_rng_used(self, rng) -> None:
        """Count the current case's generator once, when something draws from it."""
        if rng is not None and rng is self._live_rng and not self._live_rng_used:
            self._live_rng_used = True
            self.counts["rng_used"] += 1

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        code = {name: i for i, name in enumerate(names)}
        document = {
            "names": names,
            "spans": [[code[s[0]], s[1], s[2], s[3]] for s in self.spans],
            "counts": dict(self.counts),
            "cases_scored": {m: len(c) for m, c in self.cases_scored.items()},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer at the attribute its callers look up."""
    import recaudit.cli  # noqa: F401  loads every module whose bindings are replaced
    from recaudit import diagnostics, evaluation, events, models, preprocess, reports, splitting

    consuming_samplers = set(evaluation.SAMPLER_STRATEGIES) - set(
        evaluation.DETERMINISTIC_SAMPLERS
    ) - {evaluation.SAMPLER_NONE}
    model_names = {cls: name for name, cls in models.MODEL_BUILDERS.items()}
    counts = tracer.counts

    def after_ingest(log, *args, **kwargs):
        counts["rows"] += log.num_events
        counts["rejected_rows"] += log.rejected_count

    def after_preprocess(data, log, cfg):
        counts["preprocess_events_in"] += log.num_events
        counts["preprocess_events_out"] += data.num_events

    def after_support_filter(data, *args, **kwargs):
        counts["support_filter_passes"] += sum(
            1 for record in data.provenance if record.step == "support_filter"
        )

    def after_split(split, *args, **kwargs):
        counts["train_events"] += split.train.num_events
        counts["test_events"] += split.test.num_events

    def after_evaluate(report, *args, **kwargs):
        counts["cases"] += report.total_cases

    def after_case_rng(rng, *args, **kwargs):
        tracer.new_case_rng(rng)

    def after_sample(result, spec, target, catalog_size, support, embeddings, rng):
        if spec.strategy in consuming_samplers:
            tracer.mark_rng_used(rng)

    def after_rank(
        result, scores, target, tie_policy=evaluation.TIE_OPTIMISTIC, rng=None, candidates=None
    ):
        if tie_policy == evaluation.TIE_RANDOM:
            tracer.mark_rng_used(rng)

    def after_write(path, *args, **kwargs):
        # write_json writes through write_text: count the outer call only.  The
        # manifest carries timings, so its size is not an exact count.
        if not tracer.inside("reports.write") and os.path.basename(path) != "manifest.json":
            counts["report_bytes"] += os.path.getsize(path)

    patches = (
        (events, "ingest_csv", "events.ingest", after_ingest),
        (preprocess, "preprocess", "preprocess.total", after_preprocess),
        (preprocess, "sessionize", "preprocess.sessionize", None),
        (preprocess, "collapse_repeats", "preprocess.collapse", None),
        (preprocess, "iterative_support_filter", "preprocess.support_filter",
         after_support_filter),
        (splitting, "apply_split", "splitting.split", after_split),
        (diagnostics, "collision_stats", "diagnostics.collisions", None),
        (diagnostics, "new_transition_rate", "diagnostics.transition_rate", None),
        (diagnostics, "transition_overlap", "diagnostics.overlap", None),
        (diagnostics, "transition_set", "diagnostics.transition_set", None),
        (diagnostics, "sequentiality_probe", "diagnostics.sequentiality", None),
        (evaluation, "evaluate", "evaluation.evaluate", after_evaluate),
        (evaluation, "enumerate_cases", "evaluation.enumerate_cases", None),
        (evaluation, "case_rng", "evaluation.case_rng", after_case_rng),
        (evaluation, "sample_negatives", "evaluation.sample_negatives", after_sample),
        (evaluation, "rank_of_target", "evaluation.rank", after_rank),
        (reports, "write_json", "reports.write", after_write),
        (reports, "write_text", "reports.write", after_write),
    )
    # Every module of the package is loaded (cli imports them all), so a wrapper
    # that replaces each binding of the original function reaches every caller,
    # including one that imports the function under its own name.
    loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "recaudit"]
    for module, attribute, name, after in patches:
        original = getattr(module, attribute, None)
        if original is None:
            raise RuntimeError(
                f"{module.__name__}.{attribute} not found: update the wrappers in tracing.py"
            )
        wrapper = tracer.span(name, original, after)
        for holder in loaded:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)

    for name in MODELS:
        cls = models.MODEL_BUILDERS.get(name)
        if cls is None:
            raise RuntimeError(f"model {name!r} not found: update the models in tracing.py")
        cls.fit = tracer.span(f"models.fit.{name}", cls.fit)
        cls.score_all = tracer.span(f"models.score.{name}", cls.score_all)

    score_case = models.RecommenderModel.score_case

    @functools.wraps(score_case)
    def counted_score_case(model, case_index, prefix):
        tracer.cases_scored[model_names.get(type(model), type(model).__name__)].add(
            case_index
        )
        return score_case(model, case_index, prefix)

    models.RecommenderModel.score_case = counted_score_case


def _per_name_times(document: dict) -> tuple[Counter, Counter, Counter]:
    """Summed self time, summed inclusive time and call count per span name."""
    names = document["names"]
    spans = document["spans"]
    child_time = [0.0] * len(spans)
    for code, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_time: Counter = Counter()
    total_time: Counter = Counter()
    calls: Counter = Counter()
    for (code, start, end, _), inner in zip(spans, child_time):
        name = names[code]
        self_time[name] += end - start - inner
        total_time[name] += end - start
        calls[name] += 1
    return self_time, total_time, calls


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(document: dict) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of one traced run, split into (times, exact counts).

    Times are summed self time (a span minus its traced children) unless the
    name says otherwise; counts are exact and must repeat between runs.
    """
    self_time, total_time, calls = _per_name_times(document)
    counts = document["counts"]
    cases_scored = document["cases_scored"]

    times = {metric: self_time[span] for span, metric in SELF_TIME_METRICS.items()}
    times["preprocess.total_s"] = total_time["preprocess.total"]
    times["diagnostics.sequentiality_total_s"] = total_time["diagnostics.sequentiality"]
    times["events.rows_per_s"] = _ratio(counts.get("rows", 0), self_time["events.ingest"])
    times["evaluation.cases_per_s"] = _ratio(
        counts.get("cases", 0), total_time["evaluation.evaluate"]
    )
    times["evaluation.sample_us"] = 1e6 * _ratio(
        self_time["evaluation.sample_negatives"], calls["evaluation.sample_negatives"]
    )
    for m in MODELS:
        times[f"models.score_us.{m}"] = 1e6 * _ratio(
            self_time[f"models.score.{m}"], calls[f"models.score.{m}"]
        )

    exact = {metric: calls[span] for span, metric in CALL_METRICS.items()}
    exact["events.rows"] = counts.get("rows", 0)
    exact["events.rejected_rows"] = counts.get("rejected_rows", 0)
    exact["preprocess.support_filter_passes"] = counts.get("support_filter_passes", 0)
    exact["preprocess.events_kept_ratio"] = _ratio(
        counts.get("preprocess_events_out", 0), counts.get("preprocess_events_in", 0)
    )
    exact["splitting.train_events"] = counts.get("train_events", 0)
    exact["splitting.test_events"] = counts.get("test_events", 0)
    exact["evaluation.cases"] = counts.get("cases", 0)
    exact["evaluation.rng_used_ratio"] = _ratio(
        counts.get("rng_used", 0), calls["evaluation.case_rng"]
    )
    exact["reports.bytes"] = counts.get("report_bytes", 0)
    for m in MODELS:
        exact[f"models.rescore_ratio.{m}"] = _ratio(
            calls[f"models.score.{m}"], cases_scored.get(m, 0)
        )
    return times, exact


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from recaudit import cli

    code = cli.main(cli_args)
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
