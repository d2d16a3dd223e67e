"""Pipeline tests: sessionization, repeat collapsing, the support-filter fixpoint."""

import io
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.errors import PreprocessError, SplitError
from recaudit.events import ColumnMapping, ingest_csv
from recaudit.preprocess import (
    SESSION_BY_ENTITY,
    SESSION_GAP,
    PipelineConfig,
    collapse_repeats,
    filter_event_type,
    iterative_support_filter,
    preprocess,
    sessionize,
)
from recaudit.reports import plain
from recaudit.splitting import (
    STRATEGY_LOO, STRATEGY_RANDOM, STRATEGY_TIME, SplitSpec, apply_split, truncate_training_window,
)
from synth import (
    DAY,
    canonical_text,
    event_log as log_of,
    events_of,
    groups_of,
    records,
    sequence_table,
    verify,
)

ALPHABET = "abcdef"
INDEX = tuple(ALPHABET)


def seq(seq_id, spelled, timestamps=None, entity="u"):
    """(seq id, entity, (items, timestamps)): one sequence for :func:`table`."""
    codes = [INDEX.index(ch) for ch in spelled]
    if timestamps is None:
        timestamps = list(range(len(codes)))
    return seq_id, entity, (codes, timestamps)


def table(*sequences):
    seq_ids, entities, rows = zip(*sequences)
    return sequence_table(rows, seq_ids, entities, item_ids=INDEX)


def spelled(sequence, index=INDEX):
    return "".join(index[c] for c in sequence.items.tolist())


class TestFilterEventType:
    def test_keeps_only_matching_type(self):
        log = log_of(
            [("u", "a", 1, "view"), ("u", "b", 2, "cart"), ("u", "c", 3, "view")]
        )
        kept = filter_event_type(log, "view")
        assert [e.item_id for e in groups_of(kept)["u"]] == ["a", "c"]

    def test_untyped_log_passes_through(self, caplog):
        log = log_of([("u", "a", 1), ("u", "b", 2)])
        with caplog.at_level("WARNING"):
            kept = filter_event_type(log, "view")
        assert kept is log
        assert "no event types" in caplog.text

    def test_no_match_yields_empty_log_with_warning(self, caplog):
        log = log_of([("u", "a", 1, "view")])
        with caplog.at_level("WARNING"):
            kept = filter_event_type(log, "purchase")
        assert kept.num_events == 0
        assert "matched nothing" in caplog.text


class TestSessionize:
    def test_gap_splits_when_pause_exceeds_threshold(self):
        log = log_of([("u1", "a", 0), ("u1", "b", 100), ("u1", "c", 5000)])
        cfg = PipelineConfig(session_mode="gap", gap_seconds=3600)
        out = sessionize(log, cfg)
        assert [s.timestamps.tolist() for s in records(out)] == [[0, 100], [5000]]

    def test_pause_equal_to_threshold_stays_in_session(self):
        log = log_of([("u1", "a", 0), ("u1", "b", 3600)])
        cfg = PipelineConfig(session_mode="gap", gap_seconds=3600)
        assert len(sessionize(log, cfg)) == 1

    def test_by_entity_one_sequence_per_entity(self):
        log = log_of([("u1", "a", 0), ("u1", "b", 100), ("u2", "c", 5)])
        out = sessionize(log, PipelineConfig(session_mode="by_entity"))
        assert [(s.entity_id, len(s)) for s in records(out)] == [("u1", 2), ("u2", 1)]
        assert [s.seq_id for s in records(out)] == [0, 1]

    def test_by_session_column_groups_by_entity_key(self):
        # Entity column already holds precomputed session ids; huge pauses
        # inside one key must not split it.
        log = log_of([("s1", "a", 0), ("s1", "b", 999_999), ("s2", "c", 5)])
        out = sessionize(log, PipelineConfig(session_mode="by_session_column"))
        assert [len(s) for s in records(out)] == [2, 1]

    def test_singletons_survive_until_filter(self):
        log = log_of([("u1", "a", 0), ("u2", "b", 50)])
        out = sessionize(log, PipelineConfig(session_mode="gap"))
        assert [len(s) for s in records(out)] == [1, 1]

    def test_sub_day_gap_on_day_resolution_data_is_rejected(self):
        log = log_of([("u1", "a", 0), ("u1", "b", 86400)])
        cfg = PipelineConfig(session_mode="gap", gap_seconds=3600)
        with pytest.raises(PreprocessError, match="collision"):
            sessionize(log, cfg)

    def test_day_wide_gap_on_day_resolution_data_is_allowed(self):
        log = log_of([("u1", "a", 0), ("u1", "b", 86400 * 3)])
        cfg = PipelineConfig(session_mode="gap", gap_seconds=86400)
        assert [len(s) for s in records(sessionize(log, cfg))] == [1, 1]

    def test_start_time_is_first_event(self):
        log = log_of([("u1", "a", 7), ("u1", "b", 9)])
        (only,) = records(sessionize(log, PipelineConfig()))
        assert only.start_time == 7 and only.end_time == 9


class TestCollapseRepeats:
    def test_adjacent_duplicates_merge_keeping_first_timestamp(self):
        collapsed = collapse_repeats(table(seq(0, "aab", [10, 20, 30])))
        assert spelled(collapsed) == "ab"
        assert collapsed.timestamps.tolist() == [10, 30]

    def test_non_adjacent_repeat_untouched(self):
        collapsed = collapse_repeats(table(seq(0, "aba")))
        assert spelled(collapsed) == "aba"

    def test_full_run_collapses_to_one(self):
        collapsed = collapse_repeats(table(seq(0, "aaaa")))
        assert spelled(collapsed) == "a"
        assert collapsed.timestamps.tolist() == [0]

    @given(st.text(alphabet=ALPHABET, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_idempotent(self, word):
        once = collapse_repeats(table(seq(0, word)))
        twice = collapse_repeats(once)
        assert spelled(once) == spelled(twice)
        assert once.timestamps.tolist() == twice.timestamps.tolist()

    @given(st.text(alphabet=ALPHABET, min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_no_adjacent_duplicates_remain(self, word):
        out = spelled(collapse_repeats(table(seq(0, word))))
        assert all(x != y for x, y in zip(out, out[1:]))


CFG5 = PipelineConfig(min_seq_len=2, min_item_support=5)


class TestSupportFilterCascade:
    def make_cascade(self):
        return table(*[seq(i, "ab") for i in range(4)], seq(4, "ac"))

    def test_cascade_empties_and_raises_with_shrink_report(self):
        with pytest.raises(PreprocessError) as info:
            iterative_support_filter(self.make_cascade(), CFG5)
        message = str(info.value)
        assert "pass 1: events 10->5, sequences 5->5, items 3->1" in message
        assert "pass 2: events 5->0, sequences 5->0, items 1->0" in message

    def test_cascade_per_pass_ledger_records(self):
        ledger = []
        with pytest.raises(PreprocessError):
            iterative_support_filter(self.make_cascade(), CFG5, provenance=ledger)
        assert [r.params["iteration"] for r in ledger] == [1, 2]
        first, second = ledger
        assert (first.events_before, first.events_after) == (10, 5)
        assert (first.items_before, first.items_after) == (3, 1)
        assert first.params["removed_items"] == 2
        assert first.params["dropped_short_sequences"] == 0
        assert (second.sequences_before, second.sequences_after) == (5, 0)
        assert second.params["dropped_short_sequences"] == 5

    def test_stable_input_is_fixpoint_in_one_pass(self):
        stable = table(*[seq(i, "ab") for i in range(5)])
        dataset = iterative_support_filter(stable, CFG5)
        assert dataset.num_sequences == 5
        assert dataset.num_events == 10
        assert [r.step for r in dataset.provenance] == ["support_filter"]
        assert dataset.provenance[0].params["iteration"] == 1

    def test_output_index_is_compacted_and_sorted(self):
        stable = table(*[seq(i, "bf") for i in range(5)])
        dataset = iterative_support_filter(stable, CFG5)
        assert dataset.item_ids == ("b", "f")
        assert records(dataset)[0].items.tolist() == [0, 1]
        assert dataset.item_support.tolist() == [5, 5]

    def test_item_removal_triggers_recollapse(self):
        # Removing f from a-f-a leaves a,a which must merge again; the merged
        # event keeps the first timestamp.
        cfg = PipelineConfig(min_seq_len=2, min_item_support=4)
        sequences = table(*[seq(i, "afab", [0, 1, 2, 3]) for i in range(3)], seq(3, "ab"))
        dataset = iterative_support_filter(sequences, cfg)
        assert [spelled(s, dataset.item_ids) for s in records(dataset)] == ["ab"] * 4
        assert records(dataset)[0].timestamps.tolist() == [0, 3]
        verify(dataset, cfg)


@st.composite
def random_sequences(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    out = []
    for sid in range(count):
        word = draw(st.text(alphabet=ALPHABET, min_size=1, max_size=10))
        out.append(seq(sid, word))
    return collapse_repeats(table(*out))


class TestSupportFilterProperties:
    @given(random_sequences(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_fixpoint_satisfies_both_constraints(self, sequences, min_support):
        cfg = PipelineConfig(min_seq_len=2, min_item_support=min_support)
        try:
            dataset = iterative_support_filter(sequences, cfg)
        except PreprocessError:
            return
        verify(dataset, cfg)
        assert all(len(s) >= 2 for s in records(dataset))
        assert np.all(dataset.item_support >= min_support)

    @given(random_sequences(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_filter_is_idempotent(self, sequences, min_support):
        cfg = PipelineConfig(min_seq_len=2, min_item_support=min_support)
        try:
            first = iterative_support_filter(sequences, cfg)
        except PreprocessError:
            return
        second = iterative_support_filter(first, cfg)
        assert canonical_text(second) == canonical_text(first)

    @given(random_sequences(), st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_ledger_counts_never_increase(self, sequences, min_support):
        cfg = PipelineConfig(min_seq_len=2, min_item_support=min_support)
        ledger = []
        try:
            iterative_support_filter(sequences, cfg, provenance=ledger)
        except PreprocessError:
            pass
        for record in ledger:
            assert record.events_after <= record.events_before
            assert record.sequences_after <= record.sequences_before
            assert record.items_after <= record.items_before
        for prev, cur in zip(ledger, ledger[1:]):
            assert cur.events_before == prev.events_after


CSV_MAPPING = ColumnMapping(entity="user", item="item", time="ts", type="kind")

PIPELINE_CSV = "\n".join(
    ["user,item,ts,kind"]
    + [f"u{k},alpha,{k * 10},view" for k in range(5)]
    + [f"u{k},beta,{k * 10 + 1},view" for k in range(5)]
    + ["u0,beta,2,cart", "u1,gamma,12,view"]
) + "\n"


class TestFullPipeline:
    def run(self):
        log = ingest_csv(io.StringIO(PIPELINE_CSV), CSV_MAPPING)
        cfg = PipelineConfig(keep_event_type="view", session_mode="by_entity")
        return preprocess(log, cfg)

    def test_end_to_end_counts(self):
        dataset = self.run()
        # cart event dropped, gamma below support, all five alpha-beta pairs kept
        assert dataset.num_sequences == 5
        assert dataset.item_ids == ("alpha", "beta")
        assert dataset.item_support.tolist() == [5, 5]

    def test_provenance_step_order(self):
        dataset = self.run()
        steps = [r.step for r in dataset.provenance]
        assert steps[0] == "filter_event_type"
        assert steps[1] == "sessionize"
        assert steps[2] == "collapse_repeats"
        assert set(steps[3:]) == {"support_filter"}
        report = plain(dataset.provenance)
        assert report[0]["events_before"] == 12
        assert report[0]["events_after"] == 11

    def test_pipeline_is_deterministic(self):
        assert canonical_text(self.run()) == canonical_text(self.run())

    def test_no_type_filter_step_when_unconfigured(self):
        log = ingest_csv(io.StringIO(PIPELINE_CSV), CSV_MAPPING)
        dataset = preprocess(log, PipelineConfig(session_mode="by_entity", min_item_support=1))
        assert dataset.provenance[0].step == "sessionize"


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PipelineConfig(session_mode="weekly")
        with pytest.raises(ValueError):
            PipelineConfig(gap_seconds=0)
        with pytest.raises(ValueError):
            PipelineConfig(min_seq_len=1)
        with pytest.raises(ValueError):
            PipelineConfig(min_item_support=0)


def decoded(table):
    """Each event of a table as (seq id, entity id, item id, timestamp), ids decoded."""
    return [
        (s.seq_id, s.entity_id, table.item_ids[item], timestamp)
        for s in records(table)
        for item, timestamp in zip(s.items.tolist(), s.timestamps.tolist())
    ]


def assert_sub_table(part, whole):
    """``part`` reads, through its own vocabularies, as a sub-multiset of ``whole``'s events."""
    assert not Counter(decoded(part)) - Counter(decoded(whole))


@st.composite
def vocabulary_logs(draw):
    """Logs of short same-day visits over a few entities, items and days.

    Item and entity ids differ in length and script, so a code read through
    the wrong vocabulary shows.
    """
    visits = draw(st.lists(
        st.tuples(
            st.sampled_from(["u1", "u2", "u3", "ü4", "v", "w5", "x", "yy"]),
            st.integers(0, 3),
            st.lists(st.sampled_from(["a", "b", "c", "dd", "é"]), min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=14,
    ))
    return log_of(
        (entity, item, day * DAY + 600 * k)
        for entity, day, items in visits
        for k, item in enumerate(items)
    )


class TestVocabularyTravelsWithCodes:
    """Every step's ``item_ids`` and ``entity_ids`` are what its codes index."""

    @given(
        vocabulary_logs(),
        st.sampled_from([SESSION_BY_ENTITY, SESSION_GAP]),
        st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_each_step_decodes_to_events_of_its_input(self, log, mode, min_support):
        cfg = PipelineConfig(session_mode=mode, gap_seconds=DAY, min_item_support=min_support)
        sessions = sessionize(log, cfg)
        assert sessions.item_ids == log.item_ids and sessions.entity_ids == log.entity_ids
        assert [row[1:] for row in decoded(sessions)] == [
            (e.entity_id, e.item_id, e.timestamp) for e in events_of(log)
        ]
        collapsed = collapse_repeats(sessions)
        assert collapsed.item_ids == log.item_ids
        assert_sub_table(collapsed, sessions)
        try:
            data = iterative_support_filter(collapsed, cfg)
        except PreprocessError:
            return
        assert_sub_table(data, collapsed)
        assert data.item_ids == tuple(sorted({row[2] for row in decoded(data)}))
        assert np.all(data.item_support > 0)

        splits = []
        for spec in (
            SplitSpec(strategy=STRATEGY_TIME, test_days=1),
            SplitSpec(strategy=STRATEGY_LOO),
            SplitSpec(strategy=STRATEGY_RANDOM, fraction=0.5, seed=min_support),
        ):
            try:
                splits.append(apply_split(data, spec))
            except SplitError:
                continue
        if splits and splits[0].split_time is not None:
            try:
                splits.append(truncate_training_window(splits[0], 1))
            except SplitError:
                pass
        for split in splits:
            for side in (split.train, split.test):
                assert side.item_ids is data.item_ids and side.entity_ids is data.entity_ids
                assert side.provenance == data.provenance
                assert_sub_table(side, data)
