"""The columnar data path against the per-row loops it replaced.

The reference functions below are the earlier implementations: ingest
builds one ``RawEvent`` per row and groups them per entity, and every later
step walks entities or ``Sequence`` objects one at a time.  Hypothesis logs
cover timestamp ties, adjacent and non-adjacent repeats, support-filter
cascades, gap sessions, event-type filtering, non-ASCII ids, ISO timestamps
and rejected rows; the array passes must reproduce the loops' canonical
dumps, provenance ledgers, split statistics and diagnostics exactly.
"""

import csv
import io
from collections import Counter
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recaudit.diagnostics import (
    RATE_DENOMINATORS,
    CollisionReport,
    OverlapReport,
    TransitionRatePoint,
    collision_stats,
    new_transition_rate,
    transition_overlap,
    transition_set,
)
from recaudit.errors import DiagnosticsError, IngestError, PreprocessError, SplitError
from recaudit.events import (
    RESOLUTION_DAYS,
    RESOLUTION_SECONDS,
    SECONDS_PER_DAY,
    ColumnMapping,
    ItemIndex,
    RawEvent,
    _parse_timestamp,
    canonical_dump_text,
    ingest_csv,
)
from recaudit.preprocess import Dataset, PipelineConfig, Sequence, StepRecord, preprocess
from recaudit.splitting import (
    SELECT_ALL,
    SELECT_MOST_RECENT,
    LeaveOneOutSelection,
    STRATEGY_LOO,
    DatasetSplit,
    SideStats,
    SplitSpec,
    SplitStats,
    leave_one_out_split,
    random_split,
    time_split,
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
            events.append(RawEvent(entity, item, timestamp, event_type))
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
    for entity in sorted(groups):
        group = groups[entity]
        codes = np.array([index.forward[e.item_id] for e in group], dtype=np.int64)
        times = np.array([e.timestamp for e in group], dtype=np.int64)
        if cfg.session_mode == "gap" and len(group) > 1:
            breaks = np.flatnonzero(np.diff(times) > cfg.gap_seconds) + 1
            bounds = [0, *breaks.tolist(), len(group)]
        else:
            bounds = [0, len(group)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            sequences.append(Sequence(len(sequences), entity, codes[lo:hi], times[lo:hi]))
    return sequences


def ref_collapse(seq):
    if len(seq) < 2:
        return seq
    keep = np.ones(len(seq), dtype=bool)
    keep[1:] = seq.items[1:] != seq.items[:-1]
    return Sequence(seq.seq_id, seq.entity_id, seq.items[keep], seq.timestamps[keep])


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
                    Sequence(seq.seq_id, seq.entity_id, seq.items[mask], seq.timestamps[mask])
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
    compact = ItemIndex.from_items(index.reverse[code] for code in survivors)
    remap = np.full(len(index), -1, dtype=np.int64)
    for code in survivors:
        remap[code] = compact.forward[index.reverse[code]]
    remapped = [
        Sequence(s.seq_id, s.entity_id, remap[s.items], s.timestamps) for s in current
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
    index = ItemIndex.from_items(e.item_id for g in groups.values() for e in g)
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
    lines = ["seq_id\tentity\titem\ttimestamp"]
    for seq in sequences:
        for code, ts in zip(seq.items.tolist(), seq.timestamps.tolist()):
            lines.append(f"{seq.seq_id}\t{seq.entity_id}\t{index.reverse[code]}\t{ts}")
    return "\n".join(lines) + "\n"


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
        if seq.start_time > split_time:
            test.append(seq)
            continue
        cut = int(np.searchsorted(seq.timestamps, split_time, side="right"))
        if cut == len(seq):
            train.append(seq)
        elif cut >= min_seq_len:
            train.append(
                Sequence(seq.seq_id, seq.entity_id, seq.items[:cut], seq.timestamps[:cut])
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
            train.append(Sequence(s.seq_id, s.entity_id, s.items[:-1], s.timestamps[:-1]))
            test.append(Sequence(s.seq_id, s.entity_id, s.items[-1:], s.timestamps[-1:]))
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
    return CollisionReport(
        colliding_pair_fraction=colliding_pairs / total_pairs if total_pairs else 0.0,
        colliding_event_fraction=colliding_events / total_events if total_events else 0.0,
        collision_size_histogram=dict(histogram),
        total_events=total_events,
        total_pairs=total_pairs,
    ).to_dict()


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
        series.append(TransitionRatePoint(
            day - first_day, new, denom, new / denom if denom else None
        ).to_dict())
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
    return OverlapReport(
        occurrence_overlap=sum(p in train_pairs for p in occurrences) / len(occurrences),
        distinct_overlap=len(distinct & train_pairs) / len(distinct),
        test_transition_count=len(occurrences),
        distinct_test_transitions=len(distinct),
        distinct_train_transitions=len(train_pairs),
    ).to_dict()


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
        assert canonical_dump_text(log) == ref_dump(groups)
        assert log.rejected_count == len(rejects)
        assert log.rejected_preview == tuple(rejects[:10])
        assert log.timestamp_resolution == ref_resolution(groups)
        assert log.num_entities == len(groups)
        assert [e for g in (groups[k] for k in sorted(groups)) for e in g] == list(
            log.iter_events()
        )

    def test_ties_keep_input_order_across_interleaved_entities(self):
        text = "user,item,ts,kind\nu2,b,5,\nu1,z,5,\nu2,a,5,\nu1,y,5,\nu1,x,4,\n"
        log = ingest_csv(text.encode(), MAPPING)
        groups, _ = ref_ingest(text, MAPPING, 0.01)
        assert canonical_dump_text(log) == ref_dump(groups)
        assert [e.item_id for e in log.iter_events()] == ["x", "z", "y", "b", "a"]


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
        assert data.canonical_text() == ref_canonical_text(sequences, index)
        assert data.provenance_report() == [r.to_dict() for r in records]
        assert data.item_index == index
        support = np.zeros(len(index), dtype=np.int64)
        for seq in sequences:
            np.add.at(support, seq.items, 1)
        assert data.item_support.tolist() == support.tolist()
        assert [s.seq_id for s in data.sequences] == [s.seq_id for s in sequences]

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
    assert split.train.canonical_text() == ref_canonical_text(train, index)
    assert split.test.canonical_text() == ref_canonical_text(test, index)
    assert split.stats.to_dict() == ref_split_stats(train, test, len(index))


class TestSplitsMatchLoops:
    @given(logs(), st.integers(0, 6), st.integers(0, 90000))
    @SETTINGS
    def test_time_split(self, text, day, offset):
        prep = prepared(text, SPLIT_CFG)
        if prep is None:
            return
        _, _, data, sequences, index = prep
        boundary = day * SECONDS_PER_DAY + offset
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
        assert collision_stats(log).to_dict() == ref_collision_stats(groups)
        assert transition_set(data).first_seen_day == ref_transition_set(sequences)
        expected, series = both(
            lambda: ref_new_transition_rate(sequences, denominator),
            lambda: new_transition_rate(data, denominator),
        )
        if expected is not None:
            assert [point.to_dict() for point in series] == expected

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
        train, test = list(split.train.sequences), list(split.test.sequences)
        expected, report = both(
            lambda: ref_overlap(train, test, loo), lambda: transition_overlap(split)
        )
        if expected is not None:
            assert report.to_dict() == expected

    def test_overlap_needs_a_training_prefix_for_every_loo_test_sequence(self):
        index = ItemIndex.from_items(["a", "b", "c"])
        train = Dataset.from_sequences(
            [Sequence(4, "u4", np.array([0, 1]), np.array([0, 1]))], index
        )
        test = Dataset.from_sequences(
            [
                Sequence(4, "u4", np.array([2]), np.array([2])),
                Sequence(9, "u9", np.array([1]), np.array([3])),
            ],
            index,
        )
        split = DatasetSplit(
            train=train,
            test=test,
            spec=SplitSpec(strategy=STRATEGY_LOO, selection=LeaveOneOutSelection()),
            stats=SplitStats(SideStats(2, 1, 1), SideStats(2, 2, 2), 0, 0),
            split_time=None,
        )
        with pytest.raises(KeyError):
            ref_overlap(list(train.sequences), list(test.sequences), loo=True)
        with pytest.raises(DiagnosticsError, match="test sequence 9 has no training prefix"):
            transition_overlap(split)
