"""The columnar data path against the per-row loops it replaced.

The reference functions below are the earlier implementations: ingest
builds one event record per row and groups them per entity, and every later
step walks entities or sequence records one at a time.  Hypothesis logs
cover timestamp ties, adjacent and non-adjacent repeats, support-filter
cascades, gap sessions, event-type filtering, non-ASCII ids, ISO timestamps
and rejected rows; the array passes must reproduce the loops' canonical
dumps, provenance ledgers, split statistics and diagnostics exactly.

The last section keeps the hand-written ``to_dict`` methods and CSV writers
that :func:`recaudit.reports.plain` and :func:`recaudit.reports.csv_text`
replaced; generated reports must serialize to the same bytes through both.
"""

import csv
import io
import json
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import recaudit.events
from recaudit.cli import main
from recaudit.config import RunConfig
from recaudit.diagnostics import (
    RATE_DENOMINATORS,
    VERDICT_PRESENT,
    VERDICT_WEAK,
    CollisionReport,
    OverlapReport,
    SequentialityReport,
    TransitionRatePoint,
    collision_stats,
    new_transition_rate,
    transition_overlap,
    transition_set,
)
from recaudit.errors import (
    DiagnosticsError,
    EvaluationError,
    IngestError,
    PreprocessError,
    SplitError,
)
from recaudit.evaluation import CrossingReport, MetricReport, enumerate_cases
from recaudit.events import (
    RESOLUTION_DAYS,
    RESOLUTION_SECONDS,
    SECONDS_PER_DAY,
    ColumnMapping,
    _parse_timestamp,
    ingest_csv,
)
from recaudit.preprocess import PipelineConfig, StepRecord, preprocess
from recaudit.reports import (
    METRICS_CSV_HEADER,
    RunManifest,
    diagnostics_document,
    json_text,
    key_value_csv_text,
    metrics_csv_text,
    plain,
    rate_csv_text,
    sequentiality_csv_text,
)
from recaudit.splitting import (
    SELECT_ALL,
    SELECT_MOST_RECENT,
    LeaveOneOutSelection,
    STRATEGY_LOO,
    STRATEGY_RANDOM,
    STRATEGY_TIME,
    DatasetSplit,
    SideStats,
    SplitSpec,
    SplitStats,
    apply_split,
    leave_one_out_split,
    random_split,
    time_split,
)
from synth import (
    EventRecord,
    SeqRecord,
    browsing_rows,
    canonical_text,
    events_of,
    first_seen_day,
    records,
    sequence_table,
    write_events_csv,
)

MAPPING = ColumnMapping(entity="user", item="item", time="ts", type="kind")

# ---- reference implementations: one object per event or sequence ----------


def ref_ingest(text, schema, max_reject_fraction):
    """Row loop: returns (groups, rejected messages); groups sorted stably by time."""
    stream = io.StringIO(text)
    first_line = stream.readline()
    sep = "\t" if "\t" in first_line else ","
    header = next(csv.reader([first_line], delimiter=sep))
    positions = {name.strip(): i for i, name in enumerate(header)}
    type_pos = positions.get(schema.type) if schema.type else None
    entity_pos, item_pos, time_pos = (
        positions[schema.entity], positions[schema.item], positions[schema.time]
    )
    events, rejects, total = [], [], 0
    for line_no, row in enumerate(csv.reader(stream, delimiter=sep), start=2):
        if not row:
            continue
        total += 1
        try:
            entity = row[entity_pos].strip()
            item = row[item_pos].strip()
            timestamp = _parse_timestamp(row[time_pos])
            if not entity or not item:
                raise ValueError("empty entity or item id")
            event_type = None
            if type_pos is not None and type_pos < len(row):
                event_type = row[type_pos].strip() or None
            events.append(EventRecord(entity, item, timestamp, event_type))
        except (IndexError, ValueError) as exc:
            rejects.append(f"line {line_no}: {exc}")
    if total and len(rejects) > max_reject_fraction * total:
        raise IngestError(f"{len(rejects)}/{total} rows malformed: {'; '.join(rejects[:10])}")
    return ref_group(events), rejects


def ref_group(events):
    groups = {}
    for event in events:
        groups.setdefault(event.entity_id, []).append(event)
    for group in groups.values():
        group.sort(key=lambda e: e.timestamp)
    return groups


def ref_resolution(groups):
    for group in groups.values():
        for event in group:
            if event.timestamp % SECONDS_PER_DAY:
                return RESOLUTION_SECONDS
    return RESOLUTION_DAYS if groups else RESOLUTION_SECONDS


def ref_dump(groups):
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter="\t", lineterminator="\n")
    writer.writerow(["entity", "item", "timestamp", "type"])
    for entity in sorted(groups):
        for e in groups[entity]:
            writer.writerow([e.entity_id, e.item_id, e.timestamp, e.event_type or ""])
    return buffer.getvalue()


def ref_log_counts(groups):
    items = {e.item_id for group in groups.values() for e in group}
    return sum(len(g) for g in groups.values()), len(groups), len(items)


def ref_sessionize(groups, cfg, index):
    if cfg.session_mode == "gap" and cfg.gap_seconds < SECONDS_PER_DAY:
        if groups and ref_resolution(groups) == RESOLUTION_DAYS:
            raise PreprocessError("undetectable gap")
    sequences = []
    code = {item_id: k for k, item_id in enumerate(index)}
    for entity in sorted(groups):
        group = groups[entity]
        codes = np.array([code[e.item_id] for e in group], dtype=np.int64)
        times = np.array([e.timestamp for e in group], dtype=np.int64)
        if cfg.session_mode == "gap" and len(group) > 1:
            breaks = np.flatnonzero(np.diff(times) > cfg.gap_seconds) + 1
            bounds = [0, *breaks.tolist(), len(group)]
        else:
            bounds = [0, len(group)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sequences.append(SeqRecord(len(sequences), entity, codes[lo:hi], times[lo:hi]))
    return sequences


def ref_collapse(seq):
    if len(seq) < 2:
        return seq
    keep = np.ones(len(seq), dtype=bool)
    keep[1:] = seq.items[1:] != seq.items[:-1]
    return SeqRecord(seq.seq_id, seq.entity_id, seq.items[keep], seq.timestamps[keep])


def ref_counts(sequences):
    items = {code for s in sequences for code in s.items.tolist()}
    return sum(len(s) for s in sequences), len(sequences), len(items)


def ref_support_filter(sequences, cfg, index, records):
    current = list(sequences)
    rows = []
    iteration = 0
    while True:
        iteration += 1
        before = ref_counts(current)
        kept = [s for s in current if len(s) >= cfg.min_seq_len]
        support = np.zeros(len(index), dtype=np.int64)
        for seq in kept:
            np.add.at(support, seq.items, 1)
        weak = (support > 0) & (support < cfg.min_item_support)
        removed = int(np.count_nonzero(weak))
        pruned = []
        for seq in kept:
            mask = ~weak[seq.items]
            if mask.all():
                pruned.append(seq)
            elif mask.any():
                pruned.append(ref_collapse(
                    SeqRecord(seq.seq_id, seq.entity_id, seq.items[mask], seq.timestamps[mask])
                ))
        after = ref_counts(pruned)
        changed = removed > 0 or len(kept) != len(current) or len(pruned) != len(kept)
        records.append(StepRecord(
            "support_filter",
            {
                "iteration": iteration,
                "min_seq_len": cfg.min_seq_len,
                "min_item_support": cfg.min_item_support,
                "dropped_short_sequences": len(current) - len(kept),
                "removed_items": removed,
            },
            before[0], after[0], before[1], after[1], before[2], after[2],
        ))
        rows.append(
            f"pass {iteration}: events {before[0]}->{after[0]}, "
            f"sequences {before[1]}->{after[1]}, items {before[2]}->{after[2]}"
        )
        current = pruned
        if not changed or not current:
            break
    if not current:
        raise PreprocessError("Shrinkage per pass: " + "; ".join(rows))
    survivors = sorted({code for seq in current for code in seq.items.tolist()})
    compact = tuple(sorted(index[code] for code in survivors))
    remap = np.full(len(index), -1, dtype=np.int64)
    for code in survivors:
        remap[code] = compact.index(index[code])
    remapped = [
        SeqRecord(s.seq_id, s.entity_id, remap[s.items], s.timestamps) for s in current
    ]
    return remapped, compact


def ref_preprocess(groups, cfg):
    """Returns (sequences, index, ledger); raises PreprocessError like preprocess."""
    records = []
    if cfg.keep_event_type is not None:
        before = ref_log_counts(groups)
        if any(e.event_type is not None for g in groups.values() for e in g):
            kept = [e for g in groups.values() for e in g if e.event_type == cfg.keep_event_type]
            groups = ref_group(kept)
        after = ref_log_counts(groups)
        records.append(StepRecord(
            "filter_event_type", {"keep": cfg.keep_event_type},
            before[0], after[0], before[1], after[1], before[2], after[2],
        ))
    index = tuple(sorted({e.item_id for g in groups.values() for e in g}))
    log_counts = ref_log_counts(groups)
    sequences = ref_sessionize(groups, cfg, index)
    params = {"mode": cfg.session_mode}
    if cfg.session_mode == "gap":
        params["gap_seconds"] = cfg.gap_seconds
    counts = ref_counts(sequences)
    records.append(StepRecord(
        "sessionize", params, log_counts[0], counts[0], log_counts[1], counts[1],
        log_counts[2], counts[2],
    ))
    collapsed = [ref_collapse(s) for s in sequences]
    counts_c = ref_counts(collapsed)
    records.append(StepRecord(
        "collapse_repeats", {}, counts[0], counts_c[0], counts[1], counts_c[1],
        counts[2], counts_c[2],
    ))
    final, compact = ref_support_filter(collapsed, cfg, index, records)
    return final, compact, records


def ref_canonical_text(sequences, index):
    buffer = io.StringIO()
    writer = csv.writer(buffer, delimiter="\t", lineterminator="\n")
    writer.writerow(["seq_id", "entity", "item", "timestamp"])
    for seq in sequences:
        for code, ts in zip(seq.items.tolist(), seq.timestamps.tolist()):
            writer.writerow([seq.seq_id, seq.entity_id, index[code], ts])
    return buffer.getvalue()


def ref_side_stats(sequences):
    if not sequences:
        return SideStats(0, 0, 0)
    first = min(s.start_time for s in sequences)
    last = max(s.end_time for s in sequences)
    days = last // SECONDS_PER_DAY - first // SECONDS_PER_DAY + 1
    return SideStats(sum(len(s) for s in sequences), len(sequences), days)


def ref_split_stats(train, test, catalog):
    support = np.zeros(catalog, dtype=np.int64)
    for seq in train:
        np.add.at(support, seq.items, 1)
    seen = support > 0
    unseen_events, unseen_items = 0, set()
    for seq in test:
        misses = ~seen[seq.items]
        unseen_events += int(misses.sum())
        unseen_items.update(seq.items[misses].tolist())
    return SplitStats(
        ref_side_stats(train), ref_side_stats(test), unseen_events, len(unseen_items)
    ).to_dict()


def ref_time_split(sequences, split_time, min_seq_len=2):
    train, test = [], []
    for seq in sequences:
        if seq.start_time >= split_time:
            test.append(seq)
            continue
        cut = int(np.searchsorted(seq.timestamps, split_time, side="left"))
        if cut == len(seq):
            train.append(seq)
        elif cut >= min_seq_len:
            train.append(
                SeqRecord(seq.seq_id, seq.entity_id, seq.items[:cut], seq.timestamps[:cut])
            )
    if not train or not test:
        raise SplitError("empty side")
    return train, test


def ref_loo_split(sequences, selection):
    eligible = [i for i, s in enumerate(sequences) if len(s) >= 2]
    if selection.kind == SELECT_ALL:
        chosen = eligible
    elif selection.k > len(eligible):
        raise SplitError("k exceeds eligible")
    elif selection.kind == SELECT_MOST_RECENT:
        order = sorted(eligible, key=lambda i: (sequences[i].start_time, i))
        chosen = order[len(eligible) - selection.k:]
    else:
        rng = np.random.default_rng(selection.seed)
        chosen = sorted(
            np.asarray(eligible)[rng.choice(len(eligible), size=selection.k, replace=False)]
            .tolist()
        )
    if not chosen:
        raise SplitError("no eligible sequence")
    chosen = set(chosen)
    train, test = [], []
    for i, s in enumerate(sequences):
        if i in chosen:
            train.append(SeqRecord(s.seq_id, s.entity_id, s.items[:-1], s.timestamps[:-1]))
            test.append(SeqRecord(s.seq_id, s.entity_id, s.items[-1:], s.timestamps[-1:]))
        else:
            train.append(s)
    return train, test


def ref_random_split(sequences, fraction, seed):
    draws = np.random.default_rng(seed).random(len(sequences))
    train = [s for s, d in zip(sequences, draws) if d >= fraction]
    test = [s for s, d in zip(sequences, draws) if d < fraction]
    if not train or not test:
        raise SplitError("empty side")
    return train, test


def ref_collision_stats(groups):
    total_events = total_pairs = colliding_pairs = colliding_events = 0
    histogram = Counter()
    for group in groups.values():
        _, counts = np.unique([e.timestamp for e in group], return_counts=True)
        total_events += len(group)
        total_pairs += len(counts)
        big = counts[counts >= 2]
        colliding_pairs += len(big)
        colliding_events += int(big.sum())
        for size in big:
            histogram[int(size)] += 1
    return plain(CollisionReport(
        colliding_pair_fraction=colliding_pairs / total_pairs if total_pairs else 0.0,
        colliding_event_fraction=colliding_events / total_events if total_events else 0.0,
        collision_size_histogram=dict(histogram),
        total_events=total_events,
        total_pairs=total_pairs,
    ))


def ref_transition_set(sequences):
    first = {}
    for seq in sequences:
        days = seq.timestamps[1:] // SECONDS_PER_DAY
        for left, right, day in zip(seq.items[:-1], seq.items[1:], days):
            pair, day = (int(left), int(right)), int(day)
            if pair not in first or day < first[pair]:
                first[pair] = day
    return first


def ref_new_transition_rate(sequences, denominator):
    active, starting, occurring, event_days = Counter(), Counter(), {}, set()
    for seq in sequences:
        days = seq.timestamps // SECONDS_PER_DAY
        distinct_days = np.unique(days)
        event_days.update(int(d) for d in distinct_days)
        for d in distinct_days:
            active[int(d)] += 1
        starting[int(days[0])] += 1
        for left, right, day in zip(seq.items[:-1], seq.items[1:], days[1:]):
            occurring.setdefault(int(day), set()).add((int(left), int(right)))
    if not event_days:
        raise DiagnosticsError("no events")
    first_day = min(event_days)
    if max(event_days) == first_day:
        raise DiagnosticsError("one day")
    new_per_day = Counter(ref_transition_set(sequences).values())
    series = []
    for day in sorted(event_days):
        denom = {
            "active_sequences": active[day],
            "starting_sequences": starting[day],
            "day_transitions": len(occurring.get(day, ())),
        }[denominator]
        new = new_per_day.get(day, 0)
        series.append(plain(TransitionRatePoint(
            day - first_day, new, denom, new / denom if denom else None
        )))
    return series


def ref_overlap(train, test, loo):
    train_pairs = set(ref_transition_set(train))
    if loo:
        prefixes = {s.seq_id: s for s in train}
        occurrences = [
            (int(prefixes[s.seq_id].items[-1]), int(s.items[0])) for s in test
        ]
    else:
        occurrences = [
            (int(left), int(right))
            for s in test
            for left, right in zip(s.items[:-1], s.items[1:])
        ]
    if not occurrences:
        raise DiagnosticsError("no transitions")
    distinct = set(occurrences)
    return plain(OverlapReport(
        occurrence_overlap=sum(p in train_pairs for p in occurrences) / len(occurrences),
        distinct_overlap=len(distinct & train_pairs) / len(distinct),
        test_transition_count=len(occurrences),
        distinct_test_transitions=len(distinct),
        distinct_train_transitions=len(train_pairs),
    ))


def ref_enumerate_cases(split, prefix_start):
    """(case index, prefix, target) per case: grown prefixes, or a dict of
    training prefixes keyed by sequence id under leave-one-out."""
    cases = []
    if split.spec.strategy == STRATEGY_LOO:
        prefixes = {seq.seq_id: seq for seq in records(split.train)}
        for seq in records(split.test):
            source = prefixes.get(seq.seq_id)
            if source is None:
                raise EvaluationError(
                    f"test sequence {seq.seq_id} has no training prefix to extend"
                )
            cases.append((len(cases), source.items, int(seq.items[0])))
        return cases
    for seq in records(split.test):
        for length in range(prefix_start, len(seq)):
            cases.append((len(cases), seq.items[:length], int(seq.items[length])))
    return cases


# ---- generated logs ----------------------------------------------------------

ENTITIES = ["u1", "u2", "ü3", "日本", "u5"]
# half the events draw one of three common items, half one of six rare ones,
# so support filtering removes items and the removals cascade
COMMON_ITEMS = ["a", "b", "é"]
RARE_ITEMS = ["c", "d", "日", 'q"x', "f", "g"]
KINDS = [None, "view", "buy"]
BAD_ROWS = [
    ["u1", "", "5", ""],  # empty item id
    ["", "a", "5", ""],  # empty entity id
    ["u1", "a", "-7", ""],  # negative epoch
    ["u1", "a", "soon", ""],  # neither epoch nor ISO
    ["u1", "a", "2024-13-45", ""],  # bad ISO date
    ["u2", "b"],  # missing columns
]


def iso(timestamp, style):
    moment = datetime.fromtimestamp(timestamp, tz=timezone.utc)
    if style == 1:
        return moment.strftime("%Y-%m-%dT%H:%M:%SZ")
    if style == 2 and timestamp % SECONDS_PER_DAY == 0:
        return moment.strftime("%Y-%m-%d")
    return moment.replace(tzinfo=None).isoformat()


@st.composite
def logs(draw):
    """CSV text with typed events, ties, repeats, ISO times and some bad rows."""
    day_offsets = draw(st.sampled_from([(0,), (0, 30, 3600, 7200), (0, 60, 5000, 40000)]))
    rows = draw(st.lists(
        st.tuples(
            st.sampled_from(ENTITIES),
            st.one_of(st.sampled_from(COMMON_ITEMS), st.sampled_from(RARE_ITEMS)),
            st.integers(0, 5),
            st.sampled_from(day_offsets),
            st.sampled_from(KINDS),
            st.integers(0, 2),
        ),
        min_size=12,
        max_size=80,
    ))
    bad = draw(st.lists(st.sampled_from(range(len(BAD_ROWS))), max_size=3))
    lines = []
    for entity, item, day, offset, kind, style in rows:
        timestamp = day * SECONDS_PER_DAY + offset
        text_time = str(timestamp) if style == 0 else iso(timestamp, style)
        lines.append([entity, item, text_time, kind or ""])
    for k, which in enumerate(bad):
        lines.insert((k * 7) % (len(lines) + 1), BAD_ROWS[which])
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["user", "item", "ts", "kind"])
    writer.writerows(lines)
    if draw(st.booleans()):
        buffer.write("\n")  # a blank line is skipped, not rejected
    return buffer.getvalue()


configs = st.builds(
    PipelineConfig,
    keep_event_type=st.sampled_from([None, "view"]),
    session_mode=st.sampled_from(["by_entity", "gap"]),
    gap_seconds=st.sampled_from([60, 3600, 86400]),
    min_seq_len=st.integers(2, 3),
    min_item_support=st.integers(1, 4),
)

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def both(reference, actual):
    """Run both sides; they must agree on the error class or return their values."""
    try:
        expected = reference()
    except (IngestError, PreprocessError, SplitError, DiagnosticsError) as exc:
        with pytest.raises(type(exc)):
            actual()
        return None, None
    return expected, actual()


class TestIngestMatchesRowLoop:
    @given(logs(), st.sampled_from([0.01, 1.0]))
    @SETTINGS
    def test_dump_rejects_and_resolution(self, text, fraction):
        expected, log = both(
            lambda: ref_ingest(text, MAPPING, fraction),
            lambda: ingest_csv(text.encode(), MAPPING, max_reject_fraction=fraction),
        )
        if expected is None:
            return
        groups, rejects = expected
        assert canonical_text(log) == ref_dump(groups)
        assert log.rejected_count == len(rejects)
        assert log.rejected_preview == tuple(rejects[:10])
        assert log.timestamp_resolution == ref_resolution(groups)
        assert log.num_entities == len(groups)
        assert [e for g in (groups[k] for k in sorted(groups)) for e in g] == events_of(log)

    def test_ties_keep_input_order_across_interleaved_entities(self):
        text = "user,item,ts,kind\nu2,b,5,\nu1,z,5,\nu2,a,5,\nu1,y,5,\nu1,x,4,\n"
        log = ingest_csv(text.encode(), MAPPING)
        groups, _ = ref_ingest(text, MAPPING, 0.01)
        assert canonical_text(log) == ref_dump(groups)
        assert [e.item_id for e in events_of(log)] == ["x", "z", "y", "b", "a"]

    @pytest.mark.parametrize(
        "text, fraction, events",
        [
            # typed, blank types among them, ties across entities
            ("user,item,ts,kind\nu2,b,5,view\nu1,z,5,\nu2,a,7, buy \nu1,y,5,view\nu1,x,4,\n",
             0.01, 5),
            # every row rejected, allowed at 1.0: an empty table
            ("user,item,ts,kind\nu1,a,soon,view\nu2,,5,\nu3,b\n", 1.0, 0),
            ("user,item,ts,kind\nu1,a,5,view\n", 0.01, 1),
        ],
        ids=["typed-with-blanks", "all-rejected", "one-row"],
    )
    def test_explicit_logs(self, text, fraction, events):
        groups, rejects = ref_ingest(text, MAPPING, fraction)
        log = ingest_csv(text.encode(), MAPPING, max_reject_fraction=fraction)
        assert log.num_events == events
        assert canonical_text(log) == ref_dump(groups)
        assert (log.rejected_count, log.rejected_preview) == (len(rejects), tuple(rejects[:10]))
        assert log.timestamp_resolution == ref_resolution(groups)
        assert events_of(log) == [e for k in sorted(groups) for e in groups[k]]
        types = {e.event_type for g in groups.values() for e in g} - {None}
        assert log.event_type_ids == tuple(sorted(types))


class TestPreprocessMatchesLoops:
    @given(logs(), configs)
    @SETTINGS
    def test_dataset_and_ledger(self, text, cfg):
        log = ingest_csv(text.encode(), MAPPING, max_reject_fraction=1.0)
        groups, _ = ref_ingest(text, MAPPING, 1.0)
        expected, data = both(lambda: ref_preprocess(groups, cfg), lambda: preprocess(log, cfg))
        if expected is None:
            return
        sequences, index, records = expected
        assert canonical_text(data) == ref_canonical_text(sequences, index)
        assert plain(data.provenance) == plain(records)
        assert data.item_ids == index
        support = np.zeros(len(index), dtype=np.int64)
        for seq in sequences:
            np.add.at(support, seq.items, 1)
        assert data.item_support.tolist() == support.tolist()
        assert data.seq_ids.tolist() == [s.seq_id for s in sequences]

    @given(logs())
    @SETTINGS
    def test_support_filter_message_replays_the_cascade(self, text):
        cfg = PipelineConfig(min_seq_len=3, min_item_support=4)
        log = ingest_csv(text.encode(), MAPPING, max_reject_fraction=1.0)
        groups, _ = ref_ingest(text, MAPPING, 1.0)
        try:
            ref_preprocess(groups, cfg)
        except PreprocessError as exc:
            with pytest.raises(PreprocessError) as info:
                preprocess(log, cfg)
            assert str(info.value).endswith(str(exc).split("Shrinkage per pass: ")[-1])
        else:
            preprocess(log, cfg)


def prepared(text, cfg):
    """Both sides' preprocessed data, or None when preprocessing fails."""
    log = ingest_csv(text.encode(), MAPPING, max_reject_fraction=1.0)
    groups, _ = ref_ingest(text, MAPPING, 1.0)
    try:
        sequences, index, _ = ref_preprocess(groups, cfg)
    except PreprocessError:
        return None
    return log, groups, preprocess(log, cfg), sequences, index


SPLIT_CFG = PipelineConfig(min_seq_len=2, min_item_support=1)


def assert_same_split(split, expected, index):
    train, test = expected
    assert canonical_text(split.train) == ref_canonical_text(train, index)
    assert canonical_text(split.test) == ref_canonical_text(test, index)
    assert split.stats.to_dict() == ref_split_stats(train, test, len(index))


class TestSplitsMatchLoops:
    @given(logs(), st.integers(0, 6), st.integers(0, 90000), st.none() | st.integers(0, 99))
    @SETTINGS
    def test_time_split(self, text, day, offset, event):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        _, _, data, sequences, index = prep
        boundary = day * SECONDS_PER_DAY + offset
        if event is not None:  # a boundary at an event's own timestamp
            stamps = np.concatenate([seq.timestamps for seq in sequences])
            boundary = int(stamps[event % len(stamps)])
        expected, split = both(
            lambda: ref_time_split(sequences, boundary), lambda: time_split(data, boundary)
        )
        if expected is not None:
            assert_same_split(split, expected, index)

    @given(
        logs(),
        st.sampled_from(["all", "most_recent", "random"]),
        st.integers(1, 6),
        st.integers(0, 3),
    )
    @SETTINGS
    def test_leave_one_out_split(self, text, kind, k, seed):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        _, _, data, sequences, index = prep
        selection = LeaveOneOutSelection(
            kind=kind, k=None if kind == "all" else k, seed=seed if kind == "random" else None
        )
        expected, split = both(
            lambda: ref_loo_split(sequences, selection),
            lambda: leave_one_out_split(data, selection),
        )
        if expected is not None:
            assert_same_split(split, expected, index)

    @given(logs(), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 5))
    @SETTINGS
    def test_random_split(self, text, fraction, seed):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        _, _, data, sequences, index = prep
        expected, split = both(
            lambda: ref_random_split(sequences, fraction, seed),
            lambda: random_split(data, fraction, seed),
        )
        if expected is not None:
            assert_same_split(split, expected, index)


class TestDiagnosticsMatchLoops:
    @given(logs(), st.sampled_from(RATE_DENOMINATORS))
    @SETTINGS
    def test_collisions_transitions_and_rates(self, text, denominator):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        log, groups, data, sequences, _ = prep
        assert plain(collision_stats(log)) == ref_collision_stats(groups)
        assert first_seen_day(transition_set(data)) == ref_transition_set(sequences)
        expected, series = both(
            lambda: ref_new_transition_rate(sequences, denominator),
            lambda: new_transition_rate(data, denominator),
        )
        if expected is not None:
            assert plain(series) == expected

    @given(logs(), st.booleans(), st.integers(0, 6))
    @SETTINGS
    def test_overlap(self, text, loo, day):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        _, _, data, sequences, _ = prep
        try:
            if loo:
                split = leave_one_out_split(data, LeaveOneOutSelection())
            else:
                split = time_split(data, day * SECONDS_PER_DAY)
        except SplitError:
            return
        train, test = records(split.train), records(split.test)
        expected, report = both(
            lambda: ref_overlap(train, test, loo), lambda: transition_overlap(split)
        )
        if expected is not None:
            assert plain(report) == expected

    def test_overlap_needs_a_training_prefix_for_every_loo_test_sequence(self):
        index = ("a", "b", "c")
        train = sequence_table([([0, 1], [0, 1])], seq_ids=[4], item_ids=index)
        test = sequence_table([([2], [2]), ([1], [3])], seq_ids=[4, 9], item_ids=index)
        split = DatasetSplit(
            train=train,
            test=test,
            spec=SplitSpec(strategy=STRATEGY_LOO, selection=LeaveOneOutSelection()),
            stats=SplitStats(SideStats(2, 1, 1), SideStats(2, 2, 2), 0, 0),
            split_time=None,
        )
        with pytest.raises(KeyError):
            ref_overlap(records(train), records(test), loo=True)
        with pytest.raises(DiagnosticsError, match="test sequence 9 has no training prefix"):
            transition_overlap(split)
        # the case table shares the prefix match and keeps its own error
        with pytest.raises(EvaluationError, match="test sequence 9 has no training prefix"):
            enumerate_cases(split)
        assert_same_cases(split, 1)


CASE_SPECS = {
    STRATEGY_TIME: SplitSpec(strategy=STRATEGY_TIME, split_time=0),
    STRATEGY_RANDOM: SplitSpec(strategy=STRATEGY_RANDOM, fraction=0.5, seed=0),
    STRATEGY_LOO: SplitSpec(strategy=STRATEGY_LOO),
}
CASE_INDEX = tuple("abcdef")
item_rows = st.lists(st.integers(0, 5), min_size=1, max_size=6)


@st.composite
def hand_splits(draw):
    """Splits assembled by hand: one-event test sequences, and under
    leave-one-out repeated training ids and test ids with no prefix."""
    strategy = draw(st.sampled_from(sorted(CASE_SPECS)))
    if strategy == STRATEGY_LOO:
        train_ids = draw(st.lists(st.integers(0, 3), max_size=8))
        known = st.sampled_from(train_ids) if train_ids else st.integers(0, 3)
        test_ids = draw(st.lists(st.one_of(known, st.integers(0, 4)), min_size=1, max_size=6))
        test_rows = [[draw(st.integers(0, 5))] for _ in test_ids]
    else:
        train_ids = range(draw(st.integers(1, 4)))
        test_rows = draw(st.lists(item_rows, min_size=1, max_size=5))
        test_ids = range(len(train_ids), len(train_ids) + len(test_rows))
    train_rows = [draw(item_rows) for _ in train_ids]

    def side(rows, ids):
        return sequence_table(
            [(items, range(len(items))) for items in rows], ids, item_ids=CASE_INDEX
        )

    empty = SideStats(0, 0, 0)
    return DatasetSplit(
        train=side(train_rows, train_ids),
        test=side(test_rows, test_ids),
        spec=CASE_SPECS[strategy],
        stats=SplitStats(empty, empty, 0, 0),
    )


def assert_same_cases(split, prefix_start):
    """The case table lists the reference's cases, or raises its error."""
    try:
        expected = ref_enumerate_cases(split, prefix_start)
    except EvaluationError as exc:
        with pytest.raises(EvaluationError) as info:
            enumerate_cases(split, prefix_start)
        assert str(info.value) == str(exc)
        return
    cases = enumerate_cases(split, prefix_start)
    loo = split.spec.strategy == STRATEGY_LOO
    assert cases.items is (split.train if loo else split.test).items
    columns = (cases.starts, cases.stops, cases.targets)
    assert all(column.dtype == np.int64 for column in columns)
    rows = zip(*(column.tolist() for column in columns))
    actual = [(k, cases.items[lo:hi], target) for k, (lo, hi, target) in enumerate(rows)]
    assert len(cases) == len(expected)
    assert [(k, p.tolist(), t) for k, p, t in actual] == [
        (k, p.tolist(), t) for k, p, t in expected
    ]


class TestCaseTableMatchesCaseLoop:
    @given(hand_splits(), st.integers(1, 4))
    @SETTINGS
    def test_hand_built_splits(self, split, prefix_start):
        assert_same_cases(split, prefix_start)

    @given(logs(), st.sampled_from(["time", "random", "all", "most_recent"]), st.integers(0, 6))
    @SETTINGS
    def test_splits_of_generated_logs(self, text, kind, day):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        data = prep[2]
        try:
            if kind == "time":
                split = time_split(data, day * SECONDS_PER_DAY)
            elif kind == "random":
                split = random_split(data, 0.5, day)
            else:
                k = None if kind == "all" else 1 + day % 3
                split = leave_one_out_split(data, LeaveOneOutSelection(kind=kind, k=k))
        except SplitError:
            return
        for prefix_start in range(1, 5):
            assert_same_cases(split, prefix_start)

    def test_a_repeated_training_id_gives_its_last_prefix(self):
        rows = [([0], [0]), ([1, 2], [1, 2]), ([3], [3])]
        train = sequence_table(rows, seq_ids=[4, 5, 4], item_ids=CASE_INDEX)
        test = sequence_table([([5], [5]), ([2], [6])], seq_ids=[4, 5], item_ids=CASE_INDEX)
        empty = SideStats(0, 0, 0)
        split = DatasetSplit(train, test, CASE_SPECS[STRATEGY_LOO], SplitStats(empty, empty, 0, 0))
        cases = enumerate_cases(split)
        assert [cases.items[lo:hi].tolist() for lo, hi in zip(cases.starts, cases.stops)] == [
            [3],
            [1, 2],
        ]
        assert cases.targets.tolist() == [5, 2]
        assert_same_cases(split, 1)


class TestDumpsStreamToTheirFiles:
    def test_written_dumps_equal_the_whole_text(self, tmp_path, monkeypatch):
        # blocks of 7 rows, so every dump crosses many block boundaries
        monkeypatch.setattr(recaudit.events, "DUMP_BLOCK_ROWS", 7)
        path = write_events_csv(tmp_path / "events.csv", browsing_rows())
        split_flags = ["--strategy", "time", "--test-days", "1"]
        for command, flags in (("ingest", []), ("preprocess", []), ("split", split_flags)):
            argv = [command, "--input", path, "--output-dir", str(tmp_path / command), *flags]
            assert main(argv) in (0, 2), command

        cfg = RunConfig.load(overrides={"split.strategy": "time", "split.test_days": 1})
        with open(path, encoding="utf-8") as handle:
            groups, _ = ref_ingest(handle.read(), cfg.column_mapping(), 0.01)
        data = preprocess(ingest_csv(path, cfg.column_mapping()), cfg.pipeline_config())
        split = apply_split(data, cfg.split_spec())
        expected = {
            "ingest/canonical_events.tsv": ref_dump(groups),
            "preprocess/dataset.tsv": ref_canonical_text(records(data), data.item_ids),
            "split/train.tsv": ref_canonical_text(records(split.train), data.item_ids),
            "split/test.tsv": ref_canonical_text(records(split.test), data.item_ids),
        }
        for name, text in expected.items():
            assert len(text.splitlines()) > 3 * 7, name
            assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name


# ---- the hand-written report serializers that plain() and csv_text() replaced


def ref_collision_dict(r):
    return {
        "colliding_pair_fraction": r.colliding_pair_fraction,
        "colliding_event_fraction": r.colliding_event_fraction,
        "collision_size_histogram": {
            str(size): r.collision_size_histogram[size]
            for size in sorted(r.collision_size_histogram)
        },
        "total_events": r.total_events,
        "total_pairs": r.total_pairs,
    }


def ref_rate_point_dict(p):
    return {
        "day": p.day,
        "new_transitions": p.new_transitions,
        "denominator": p.denominator,
        "rate": p.rate,
    }


def ref_overlap_dict(r):
    return {
        "occurrence_overlap": r.occurrence_overlap,
        "distinct_overlap": r.distinct_overlap,
        "test_transition_count": r.test_transition_count,
        "distinct_test_transitions": r.distinct_test_transitions,
        "distinct_train_transitions": r.distinct_train_transitions,
    }


def ref_metric_dict(r):
    return {
        "model": r.model,
        "sampler": r.sampler,
        "tie_policy": r.tie_policy,
        "master_seed": r.master_seed,
        "cutoffs": list(r.cutoffs),
        "recall": {str(n): r.recall[n] for n in r.cutoffs},
        "mrr": {str(n): r.mrr[n] for n in r.cutoffs},
        "case_count": r.case_count,
        "skipped_unseen_target_count": r.skipped_unseen_target_count,
        "total_cases": r.total_cases,
        "catalog_size": r.catalog_size,
    }


def ref_sequentiality_dict(r):
    return {
        "cutoffs": list(r.cutoffs),
        "sequential": ref_metric_dict(r.sequential),
        "order_agnostic": ref_metric_dict(r.order_agnostic),
        "relative_change_recall": {str(n): r.relative_change_recall[n] for n in r.cutoffs},
        "relative_change_mrr": {str(n): r.relative_change_mrr[n] for n in r.cutoffs},
        "verdict": r.verdict,
        "verdict_cutoff": r.verdict_cutoff,
        "verdict_threshold": r.verdict_threshold,
    }


def ref_crossing_dict(r):
    return {
        "metric": r.metric,
        "model_a": r.model_a,
        "model_b": r.model_b,
        "sampler": r.sampler,
        "cutoffs": list(r.cutoffs),
        "difference": {str(n): r.difference[n] for n in r.cutoffs},
        "relative_difference": {str(n): r.relative_difference[n] for n in r.cutoffs},
        "flips": [list(pair) for pair in r.flips],
    }


def ref_step_dict(r):
    return {
        "step": r.step,
        "params": dict(r.params),
        "events_before": r.events_before,
        "events_after": r.events_after,
        "sequences_before": r.sequences_before,
        "sequences_after": r.sequences_after,
        "items_before": r.items_before,
        "items_after": r.items_after,
    }


def ref_side_dict(s):
    return {"events": s.events, "sequences": s.sequences, "days": s.days}


def ref_split_stats_dict(s):
    out = {"train": ref_side_dict(s.train), "test": ref_side_dict(s.test)}
    out["test"]["unseen_item_events"] = s.unseen_item_events
    out["test"]["unseen_items"] = s.unseen_items
    return out


def ref_manifest_dict(m):
    payload = {
        "tool_version": m.tool_version,
        "resolved_config": m.resolved_config,
        "argv": m.argv,
        "input_checksums": m.input_checksums,
        "stage_seconds": m.stage_seconds,
        "stage_peak_rss_mb": m.stage_peak_rss_mb,
        "peak_rss_mb": m.peak_rss_mb,
        "stage_stats": m.stage_stats,
        "report_paths": m.report_paths,
        "warnings": m.warnings,
        "notes": m.notes,
    }
    if m.error is not None:
        payload["error"] = m.error
    return payload


def ref_metrics_csv_text(reports):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    for report in reports:
        for cutoff in report.cutoffs:
            writer.writerow([
                report.model,
                report.sampler,
                cutoff,
                repr(report.recall[cutoff]),
                repr(report.mrr[cutoff]),
            ])
    return buffer.getvalue()


def ref_rate_csv_text(series):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("day", "new_transitions", "denominator", "rate"))
    for point in series:
        writer.writerow([
            point.day,
            point.new_transitions,
            point.denominator,
            "" if point.rate is None else repr(point.rate),
        ])
    return buffer.getvalue()


def ref_key_value_csv_text(payload):
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


def ref_sequentiality_csv_text(report):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow((
        "cutoff",
        "sequential_recall",
        "order_agnostic_recall",
        "relative_change_recall",
        "sequential_mrr",
        "order_agnostic_mrr",
        "relative_change_mrr",
    ))
    for cutoff in report.cutoffs:
        rel_r = report.relative_change_recall[cutoff]
        rel_m = report.relative_change_mrr[cutoff]
        writer.writerow([
            cutoff,
            repr(report.sequential.recall[cutoff]),
            repr(report.order_agnostic.recall[cutoff]),
            "" if rel_r is None else repr(rel_r),
            repr(report.sequential.mrr[cutoff]),
            repr(report.order_agnostic.mrr[cutoff]),
            "" if rel_m is None else repr(rel_m),
        ])
    return buffer.getvalue()


# cutoffs mix one- and two-digit values, so text order differs from number order
CUTOFF_GRIDS = st.lists(
    st.sampled_from([1, 2, 5, 10, 20, 50, 100]), min_size=1, max_size=5, unique=True
).map(lambda grid: tuple(sorted(grid)))
FLOATS = st.floats()
MAYBE_FLOATS = st.none() | st.floats()
NAMES = st.text(max_size=8)  # commas, quotes and line breaks test CSV quoting
COUNTS = st.integers(0, 10**6)


def per_cutoff(draw, cutoffs, values):
    return {n: draw(values) for n in cutoffs}


@st.composite
def metric_reports(draw, cutoffs=None):
    cutoffs = cutoffs if cutoffs is not None else draw(CUTOFF_GRIDS)
    ranks = draw(st.none() | st.lists(st.integers(-1, 50), max_size=5).map(np.array))
    return MetricReport(
        model=draw(NAMES),
        sampler=draw(NAMES),
        tie_policy=draw(st.sampled_from(["optimistic", "pessimistic", "random"])),
        master_seed=draw(st.none() | st.integers(0, 2**63 - 1)),
        cutoffs=cutoffs,
        recall=per_cutoff(draw, cutoffs, FLOATS),
        mrr=per_cutoff(draw, cutoffs, FLOATS),
        case_count=draw(COUNTS),
        skipped_unseen_target_count=draw(COUNTS),
        total_cases=draw(COUNTS),
        catalog_size=draw(COUNTS),
        ranks=ranks,
    )


@st.composite
def sequentiality_reports(draw):
    cutoffs = draw(CUTOFF_GRIDS)
    return SequentialityReport(
        cutoffs=cutoffs,
        sequential=draw(metric_reports(cutoffs)),
        order_agnostic=draw(metric_reports(cutoffs)),
        relative_change_recall=per_cutoff(draw, cutoffs, MAYBE_FLOATS),
        relative_change_mrr=per_cutoff(draw, cutoffs, MAYBE_FLOATS),
        verdict=draw(st.sampled_from([VERDICT_WEAK, VERDICT_PRESENT])),
        verdict_cutoff=draw(st.sampled_from(cutoffs)),
        verdict_threshold=draw(FLOATS),
    )


@st.composite
def crossing_reports(draw):
    cutoffs = draw(CUTOFF_GRIDS)
    pairs = list(zip(cutoffs, cutoffs[1:]))
    flips = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return CrossingReport(
        metric=draw(st.sampled_from(["recall", "mrr"])),
        model_a=draw(NAMES),
        model_b=draw(NAMES),
        sampler=draw(NAMES),
        cutoffs=cutoffs,
        difference=per_cutoff(draw, cutoffs, FLOATS),
        relative_difference=per_cutoff(draw, cutoffs, MAYBE_FLOATS),
        flips=tuple(sorted(flips)),
    )


collision_reports = st.builds(
    CollisionReport,
    colliding_pair_fraction=FLOATS,
    colliding_event_fraction=FLOATS,
    collision_size_histogram=st.dictionaries(st.integers(2, 120), COUNTS, max_size=6),
    total_events=COUNTS,
    total_pairs=COUNTS,
)
rate_series = st.lists(st.builds(
    TransitionRatePoint, day=COUNTS, new_transitions=COUNTS, denominator=COUNTS, rate=MAYBE_FLOATS
), max_size=5)
overlap_reports = st.builds(
    OverlapReport,
    occurrence_overlap=FLOATS,
    distinct_overlap=FLOATS,
    test_transition_count=COUNTS,
    distinct_test_transitions=COUNTS,
    distinct_train_transitions=COUNTS,
)
step_records = st.builds(
    StepRecord,
    step=NAMES,
    params=st.dictionaries(NAMES, st.integers() | NAMES, max_size=4),
    events_before=COUNTS,
    events_after=COUNTS,
    sequences_before=COUNTS,
    sequences_after=COUNTS,
    items_before=COUNTS,
    items_after=COUNTS,
)
side_stats = st.builds(SideStats, events=COUNTS, sequences=COUNTS, days=COUNTS)
split_stats = st.builds(
    SplitStats, train=side_stats, test=side_stats, unseen_item_events=COUNTS, unseen_items=COUNTS
)
JSON_LEAVES = st.none() | st.booleans() | st.integers() | FLOATS | NAMES
manifests = st.builds(
    RunManifest,
    tool_version=NAMES,
    resolved_config=st.dictionaries(NAMES, st.dictionaries(NAMES, JSON_LEAVES, max_size=3)),
    argv=st.lists(NAMES, max_size=4),
    input_checksums=st.dictionaries(NAMES, NAMES, max_size=2),
    stage_seconds=st.dictionaries(NAMES, FLOATS, max_size=3),
    stage_peak_rss_mb=st.dictionaries(NAMES, MAYBE_FLOATS, max_size=3),
    peak_rss_mb=MAYBE_FLOATS,
    stage_stats=st.dictionaries(NAMES, st.dictionaries(NAMES, JSON_LEAVES, max_size=3)),
    report_paths=st.dictionaries(NAMES, NAMES, max_size=3),
    warnings=st.lists(st.fixed_dictionaries({"code": NAMES, "message": NAMES}), max_size=2),
    notes=st.lists(NAMES, max_size=2),
    error=st.none() | st.fixed_dictionaries({"stage": NAMES, "message": NAMES}),
)


class TestSerializerMatchesHandWrittenForms:
    """``json_text(plain(report))`` and every CSV projection give the bytes
    the per-class ``to_dict`` methods and per-report CSV writers gave."""

    @pytest.mark.parametrize(
        "reports, reference",
        [
            (metric_reports(), ref_metric_dict),
            (sequentiality_reports(), ref_sequentiality_dict),
            (crossing_reports(), ref_crossing_dict),
            (collision_reports, ref_collision_dict),
            (rate_series, lambda series: [ref_rate_point_dict(p) for p in series]),
            (overlap_reports, ref_overlap_dict),
            (step_records, ref_step_dict),
            (split_stats, ref_split_stats_dict),
            (manifests, ref_manifest_dict),
        ],
        ids=["metric", "sequentiality", "crossing", "collisions", "rate", "overlap", "step",
             "split-stats", "manifest"],
    )
    @given(data=st.data())
    @SETTINGS
    def test_json_of_every_report(self, reports, reference, data):
        report = data.draw(reports)
        assert json_text(plain(report)) == json_text(reference(report))

    @given(st.lists(metric_reports(), max_size=4), sequentiality_reports(), rate_series,
           collision_reports, overlap_reports)
    @SETTINGS
    def test_csv_projections(self, reports, sequentiality, series, collisions, overlap):
        assert metrics_csv_text(reports) == ref_metrics_csv_text(reports)
        assert sequentiality_csv_text(sequentiality) == ref_sequentiality_csv_text(sequentiality)
        assert rate_csv_text(series) == ref_rate_csv_text(series)
        for report, reference in ((collisions, ref_collision_dict), (overlap, ref_overlap_dict)):
            assert key_value_csv_text(plain(report)) == ref_key_value_csv_text(reference(report))

    @given(sequentiality_reports(), collision_reports, rate_series, overlap_reports)
    @SETTINGS
    def test_diagnostics_document(self, sequentiality, collisions, series, overlap):
        assert json_text(diagnostics_document(collisions, series, overlap, sequentiality)) == (
            json_text({
                "collisions": ref_collision_dict(collisions),
                "new_transition_rate": [ref_rate_point_dict(p) for p in series],
                "overlap": ref_overlap_dict(overlap),
                "sequentiality": ref_sequentiality_dict(sequentiality),
            })
        )
        assert diagnostics_document(collisions) == {"collisions": ref_collision_dict(collisions)}

    def test_ranks_stay_out_and_cutoff_keys_sort_as_text(self):
        report = MetricReport(
            "m", "none", "optimistic", 0, (1, 5, 10, 20), {1: 0.1, 5: 0.5, 10: 0.7, 20: 0.9},
            {1: 0.1, 5: 0.2, 10: 0.3, 20: 0.4}, 4, 0, 4, 9, ranks=np.array([1, 2, 3, 4]),
        )
        payload = plain(report)
        assert "ranks" not in payload
        assert list(json.loads(json_text(payload))["recall"]) == ["1", "10", "20", "5"]
