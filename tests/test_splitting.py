"""Split strategy tests: boundaries, partitions, leakage-prone comparators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.errors import SplitError
from recaudit.splitting import (
    LeaveOneOutSelection,
    SplitSpec,
    apply_split,
    choose_split_time,
    leave_one_out_split,
    random_split,
    time_split,
    truncate_training_window,
)
from synth import build_dataset, make_validation, matched_loo_k, records

INDEX = tuple("abcdefgh")
DAY = 86400


def day(n, offset=0):
    return n * DAY + offset


def dataset(specs):
    """specs: list of (spelled_items, timestamps)."""
    return build_dataset(
        INDEX, [([INDEX.index(ch) for ch in word], times) for word, times in specs]
    )


def positions(side):
    return {(s.seq_id, ts) for s in records(side.sequences) for ts in s.timestamps.tolist()}


class TestTimeSplit:
    def test_clean_separation(self):
        data = dataset([("ab", [10, 20]), ("cd", [30, 40])])
        split = time_split(data, 25)
        assert [s.seq_id for s in records(split.train.sequences)] == [0]
        assert [s.seq_id for s in records(split.test.sequences)] == [1]

    def test_straddler_cut_and_short_stump_dropped(self):
        data = dataset([("ab", [10, 30]), ("cd", [5, 15]), ("ef", [25, 40])])
        split = time_split(data, 20)
        # seq 0 straddles: stump [a@10] is below min length, gone entirely
        assert [s.seq_id for s in records(split.train.sequences)] == [1]
        assert [s.seq_id for s in records(split.test.sequences)] == [2]

    def test_straddler_with_long_stump_is_truncated(self):
        data = dataset([("abc", [10, 20, 99]), ("de", [30, 40])])
        split = time_split(data, 25)
        (train_seq,) = records(split.train.sequences)
        assert train_seq.items.tolist() == [INDEX.index("a"), INDEX.index("b")]
        assert train_seq.timestamps.tolist() == [10, 20]

    def test_sequence_starting_at_boundary_belongs_to_test(self):
        data = dataset([("abc", [25, 25, 99]), ("def", [10, 20, 25])])
        split = time_split(data, 25)
        assert [s.seq_id for s in records(split.test.sequences)] == [0]
        # the boundary is half-open: an event at it is not train's
        (train_seq,) = records(split.train.sequences)
        assert (train_seq.seq_id, train_seq.timestamps.tolist()) == (1, [10, 20])

    def test_empty_test_is_an_error(self):
        data = dataset([("ab", [10, 20]), ("cd", [30, 40])])
        with pytest.raises(SplitError, match="test side"):
            time_split(data, 100)

    def test_empty_train_is_an_error(self):
        data = dataset([("ab", [10, 20])])
        with pytest.raises(SplitError, match="training side"):
            time_split(data, 5)

    def test_boundary_invariant_holds_exhaustively(self):
        data = dataset(
            [("ab", [10, 30]), ("cd", [5, 15]), ("ef", [25, 40]), ("gh", [26, 27])]
        )
        split = time_split(data, 20)
        max_train = max(s.end_time for s in records(split.train.sequences))
        min_test_start = min(s.start_time for s in records(split.test.sequences))
        assert max_train < 20 <= min_test_start

    def test_sides_share_item_index(self):
        data = dataset([("ab", [10, 20]), ("cd", [30, 40])])
        split = time_split(data, 25)
        assert split.train.item_ids is split.test.item_ids is data.item_ids

    def test_unseen_test_items_counted(self):
        data = dataset([("ab", [10, 20]), ("cf", [30, 40]), ("af", [33, 44])])
        split = time_split(data, 25)
        # c and f never occur in train; four test events carry them
        assert split.stats.unseen_items == 2
        assert split.stats.unseen_item_events == 3
        assert split.stats.train.events == 2
        assert split.stats.test.sequences == 2

    def test_day_stats(self):
        data = dataset([("ab", [10, day(2)]), ("cd", [day(3, 5), day(3, 9)])])
        split = time_split(data, day(3))
        assert split.stats.train.days == 3
        assert split.stats.test.days == 1


class TestChooseSplitTime:
    def test_sixty_day_span_target_one(self):
        data = dataset([("ab", [100, 200]), ("cd", [day(59, 100), day(59, 200)])])
        assert choose_split_time(data, 1) == day(59)

    def test_seventeen_day_span_target_one(self):
        data = dataset([("ab", [0, 50]), ("cd", [day(16, 10), day(16, 20)])])
        assert choose_split_time(data, 1) == day(16)

    def test_target_consuming_whole_span_is_an_error(self):
        data = dataset([("ab", [100, 200]), ("cd", [day(59, 100), day(59, 200)])])
        with pytest.raises(SplitError, match="no training data"):
            choose_split_time(data, 60)
        with pytest.raises(SplitError):
            choose_split_time(data, 0)

    @pytest.mark.parametrize("test_days", (1, 2))
    def test_day_resolution_gets_exactly_the_test_days(self, test_days):
        # every event at a midnight; entities start on staggered days 0-4
        data = dataset([("ab", [day(k % 5), day(min(k % 5 + 1, 4))]) for k in range(40)])
        split = apply_split(data, SplitSpec(strategy="time", test_days=test_days))
        last = max(s.end_time for s in records(data.sequences)) // DAY
        assert split.split_time == day(last + 1 - test_days)
        assert split.stats.test.days == test_days
        starts = {s.start_time // DAY for s in records(split.test.sequences)}
        assert starts == set(range(last + 1 - test_days, last + 1))

    def test_chosen_time_yields_valid_split(self):
        data = dataset(
            [("ab", [100, 200]), ("cd", [day(1, 7), day(1, 8)]), ("ef", [day(2, 5), day(2, 6)])]
        )
        split = time_split(data, choose_split_time(data, 1))
        assert {s.seq_id for s in records(split.test.sequences)} == {2}


class TestLeaveOneOut:
    def test_single_sequence_all(self):
        data = dataset([("abc", [1, 2, 3])])
        split = leave_one_out_split(data, LeaveOneOutSelection())
        (prefix,) = records(split.train.sequences)
        (target,) = records(split.test.sequences)
        assert prefix.items.tolist() == [INDEX.index("a"), INDEX.index("b")]
        assert target.items.tolist() == [INDEX.index("c")]
        assert target.timestamps.tolist() == [3]
        assert prefix.seq_id == target.seq_id == 0

    def test_most_recent_selects_latest_start_times(self):
        data = dataset([("ab", [day(k), day(k, 10)]) for k in range(10)])
        split = leave_one_out_split(data, LeaveOneOutSelection("most_recent", k=3))
        assert sorted(s.seq_id for s in records(split.test.sequences)) == [7, 8, 9]
        assert len(split.test.sequences) == 3

    def test_unselected_sequences_stay_whole(self):
        data = dataset([("ab", [day(k), day(k, 10)]) for k in range(10)])
        split = leave_one_out_split(data, LeaveOneOutSelection("most_recent", k=3))
        whole = [s for s in records(split.train.sequences) if len(s) == 2]
        assert sorted(s.seq_id for s in whole) == list(range(7))

    def test_random_selection_is_seeded(self):
        data = dataset([("ab", [day(k), day(k, 10)]) for k in range(10)])
        select = LeaveOneOutSelection("random", k=4, seed=7)
        one = leave_one_out_split(data, select)
        two = leave_one_out_split(data, select)
        assert one.test.sequences.seq_ids.tolist() == two.test.sequences.seq_ids.tolist()

    def test_k_beyond_eligible_is_an_error(self):
        data = dataset([("ab", [1, 2]), ("cd", [3, 4])])
        with pytest.raises(SplitError, match="exceeds"):
            leave_one_out_split(data, LeaveOneOutSelection("most_recent", k=3))

    def test_reassembly_reproduces_original(self):
        data = dataset([("abc", [1, 2, 3]), ("de", [4, 5]), ("fgh", [6, 7, 8])])
        split = leave_one_out_split(data, LeaveOneOutSelection())
        targets = {s.seq_id: s for s in records(split.test.sequences)}
        for original in records(data.sequences):
            prefix = next(s for s in records(split.train.sequences) if s.seq_id == original.seq_id)
            rebuilt = prefix.items.tolist() + targets[original.seq_id].items.tolist()
            assert rebuilt == original.items.tolist()

    def test_selection_validation(self):
        with pytest.raises(ValueError):
            LeaveOneOutSelection("most_recent")
        with pytest.raises(ValueError):
            LeaveOneOutSelection("random", k=2)
        with pytest.raises(ValueError):
            LeaveOneOutSelection("oldest", k=2)


class TestRandomSplit:
    def make(self, n=1000):
        return dataset([("ab", [day(k % 50), day(k % 50, 10)]) for k in range(n)])

    def test_same_seed_same_split(self):
        data = self.make(100)
        one = random_split(data, 0.3, seed=11)
        two = random_split(data, 0.3, seed=11)
        assert one.test.sequences.seq_ids.tolist() == two.test.sequences.seq_ids.tolist()

    def test_sides_are_disjoint_and_cover(self):
        data = self.make(200)
        split = random_split(data, 0.4, seed=3)
        train_ids = {s.seq_id for s in records(split.train.sequences)}
        test_ids = {s.seq_id for s in records(split.test.sequences)}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == set(range(200))

    def test_test_size_within_binomial_bound(self):
        split = random_split(self.make(1000), 0.5, seed=5)
        # 4 sigma of Binomial(1000, 0.5)
        assert abs(len(split.test.sequences) - 500) <= 4 * (1000 * 0.25) ** 0.5

    def test_degenerate_side_is_an_error(self):
        data = self.make(3)
        with pytest.raises(SplitError, match="empty"):
            random_split(data, 0.0001, seed=0)

    def test_fraction_domain(self):
        with pytest.raises(ValueError):
            SplitSpec(strategy="random", fraction=0.0, seed=1)
        with pytest.raises(ValueError):
            SplitSpec(strategy="random", fraction=1.0, seed=1)
        with pytest.raises(ValueError):
            SplitSpec(strategy="random", fraction=0.5)


class TestTruncateWindow:
    def make_split(self):
        specs = [("ab", [day(k), day(k, 50)]) for k in range(30)]
        specs.append(("cd", [day(30, 10), day(30, 20)]))
        return time_split(dataset(specs), day(30))

    def test_window_covering_span_changes_nothing(self):
        split = self.make_split()
        narrowed = truncate_training_window(split, 90)
        assert [s.seq_id for s in records(narrowed.train.sequences)] == [
            s.seq_id for s in records(split.train.sequences)
        ]
        assert narrowed.window_days == 90

    def test_window_keeps_only_recent_days(self):
        split = self.make_split()
        narrowed = truncate_training_window(split, 14)
        starts = [s.start_time for s in records(narrowed.train.sequences)]
        assert min(starts) >= day(30) - 14 * DAY
        assert len(narrowed.train.sequences) == 14
        assert [s.seq_id for s in records(narrowed.test.sequences)] == [
            s.seq_id for s in records(split.test.sequences)
        ]

    def test_straddling_sequence_cut_at_window_start(self):
        specs = [("abc", [day(1), day(3), day(3, 60)]), ("de", [day(2), day(2, 5)]),
                 ("fg", [day(4, 10), day(4, 20)])]
        split = time_split(dataset(specs), day(4))
        narrowed = truncate_training_window(split, 2)
        cut = next(s for s in records(narrowed.train.sequences) if s.seq_id == 0)
        assert cut.timestamps.tolist() == [day(3), day(3, 60)]

    def test_empty_window_is_an_error(self):
        specs = [("ab", [day(0), day(0, 9)]), ("cd", [day(10, 3), day(10, 4)])]
        split = time_split(dataset(specs), day(10))
        with pytest.raises(SplitError, match="empty training"):
            truncate_training_window(split, 2)

    def test_requires_a_time_split(self):
        data = dataset([("ab", [1, 2]), ("cd", [3, 4])])
        split = leave_one_out_split(data, LeaveOneOutSelection())
        with pytest.raises(SplitError, match="time split"):
            truncate_training_window(split, 5)


class TestValidationAndSpecs:
    def test_time_validation_rederives_inside_train(self):
        specs = [("ab", [day(k, 10), day(k, 40)]) for k in range(5)]
        data = dataset(specs)
        spec = SplitSpec(strategy="time", test_days=1)
        outer = apply_split(data, spec)
        inner = make_validation(outer.train, spec)
        max_val_train = max(s.end_time for s in records(inner.train.sequences))
        min_val_test = min(s.start_time for s in records(inner.test.sequences))
        assert max_val_train < min_val_test < outer.split_time

    def test_time_validation_without_test_days_is_an_error(self):
        data = dataset([("ab", [10, 20]), ("cd", [30, 40])])
        split = time_split(data, 25)
        with pytest.raises(SplitError, match="test_days"):
            make_validation(split.train, split.spec)

    def test_loo_validation_skips_one_event_prefixes(self):
        data = dataset([("ab", [1, 2]), ("cde", [3, 4, 5])])
        outer = leave_one_out_split(data, LeaveOneOutSelection())
        inner = make_validation(outer.train, outer.spec)
        # the ab prefix shrank to one event and cannot donate again
        assert [s.seq_id for s in records(inner.test.sequences)] == [1]

    def test_apply_split_dispatches(self):
        data = dataset([("ab", [10, 20]), ("cd", [day(1, 10), day(1, 20)])])
        assert apply_split(data, SplitSpec(strategy="time", test_days=1)).split_time == day(1)
        loo = apply_split(data, SplitSpec(strategy="leave_one_out"))
        assert len(loo.test.sequences) == 2
        rnd = apply_split(data, SplitSpec(strategy="random", fraction=0.5, seed=0))
        assert len(rnd.train.sequences) + len(rnd.test.sequences) == 2

    def test_matched_loo_k_counts_prefix_cases(self):
        data = dataset([("ab", [10, 20]), ("cde", [30, 40, 50]), ("fgh", [60, 70, 80])])
        split = time_split(data, 25)
        assert matched_loo_k(split) == 4
        assert matched_loo_k(split, prefix_start=2) == 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(strategy="time")
        with pytest.raises(ValueError):
            SplitSpec(strategy="time", test_days=0)
        with pytest.raises(ValueError):
            SplitSpec(strategy="weekly")


@st.composite
def random_dataset(draw):
    count = draw(st.integers(min_value=2, max_value=12))
    specs = []
    for _ in range(count):
        length = draw(st.integers(min_value=2, max_value=6))
        start = draw(st.integers(min_value=0, max_value=day(5)))
        gaps = draw(
            st.lists(
                st.integers(min_value=1, max_value=DAY),
                min_size=length - 1,
                max_size=length - 1,
            )
        )
        times = [start]
        for g in gaps:
            times.append(times[-1] + g)
        word = "".join(
            draw(st.sampled_from("abcdefgh")) for _ in range(length)
        )
        specs.append((word, times))
    return dataset(specs)


class TestSplitProperties:
    @given(random_dataset(), st.integers(min_value=0, max_value=day(6)))
    @settings(max_examples=60, deadline=None)
    def test_time_split_sides_disjoint_and_ordered(self, data, split_time):
        try:
            split = time_split(data, split_time)
        except SplitError:
            return
        assert positions(split.train).isdisjoint(positions(split.test))
        max_train = max(s.end_time for s in records(split.train.sequences))
        assert max_train < split_time
        for seq in records(split.test.sequences):
            assert seq.start_time >= split_time

    @given(random_dataset())
    @settings(max_examples=60, deadline=None)
    def test_loo_partitions_events_exactly(self, data):
        split = leave_one_out_split(data, LeaveOneOutSelection())
        train_pos = positions(split.train)
        test_pos = positions(split.test)
        assert train_pos.isdisjoint(test_pos)
        assert len(test_pos | train_pos) == sum(len(s) for s in records(data.sequences))

    @given(random_dataset(), st.floats(min_value=0.1, max_value=0.9), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_random_split_partitions_sequences(self, data, fraction, seed):
        try:
            split = random_split(data, fraction, seed)
        except SplitError:
            return
        train_ids = {s.seq_id for s in records(split.train.sequences)}
        test_ids = {s.seq_id for s in records(split.test.sequences)}
        assert train_ids.isdisjoint(test_ids)
        assert len(train_ids) + len(test_ids) == len(data.sequences)
