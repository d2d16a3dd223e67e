"""Diagnostics tests: collisions, drift rate, overlap, sequentiality probe."""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.diagnostics import (
    DENOMINATOR_DAY_TRANSITIONS,
    DENOMINATOR_STARTING_SEQUENCES,
    VERDICT_PRESENT,
    VERDICT_WEAK,
    CollisionReport,
    collision_hazard,
    collision_stats,
    new_transition_rate,
    transition_overlap,
    transition_set,
)
from recaudit.errors import DiagnosticsError
from recaudit.events import RESOLUTION_DAYS, RESOLUTION_SECONDS
from recaudit.reports import plain
from recaudit.splitting import LeaveOneOutSelection, leave_one_out_split

from synth import (
    build_dataset,
    build_split,
    chain_split,
    day,
    fit_and_probe,
    log_of,
    make_index,
)


class TestCollisionStats:
    def test_textbook_mixed_slot(self):
        report = collision_stats(log_of(("u1", 1), ("u1", 1), ("u1", 2)))
        assert report.colliding_pair_fraction == pytest.approx(1 / 2)
        assert report.colliding_event_fraction == pytest.approx(2 / 3)
        assert report.collision_size_histogram == {2: 1}

    def test_all_distinct_timestamps(self):
        report = collision_stats(log_of(("u1", 1), ("u1", 2), ("u2", 3)))
        assert report.colliding_pair_fraction == 0.0
        assert report.colliding_event_fraction == 0.0
        assert report.collision_size_histogram == {}

    def test_everything_in_one_slot(self):
        report = collision_stats(log_of(*[("u1", 7)] * 4))
        assert report.colliding_pair_fraction == 1.0
        assert report.colliding_event_fraction == 1.0
        assert report.collision_size_histogram == {4: 1}

    def test_collisions_are_per_entity(self):
        report = collision_stats(log_of(("u1", 5), ("u2", 5)))
        assert report.colliding_pair_fraction == 0.0

    def test_empty_log_reports_zero(self):
        report = collision_stats(log_of())
        assert report.colliding_pair_fraction == 0.0
        assert report.total_events == 0

    @given(
        st.lists(
            st.tuples(st.sampled_from(["u1", "u2", "u3"]), st.integers(0, 5)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_counter(self, slots):
        report = collision_stats(log_of(*slots))
        groups = Counter(slots)
        colliding = [count for count in groups.values() if count >= 2]
        assert report.total_pairs == len(groups)
        assert report.colliding_pair_fraction == pytest.approx(
            len(colliding) / len(groups)
        )
        assert report.colliding_event_fraction == pytest.approx(
            sum(colliding) / len(slots)
        )
        assert report.collision_size_histogram == dict(Counter(colliding))

    def test_invariant_under_input_order(self):
        slots = [("u1", 3), ("u2", 3), ("u1", 1), ("u1", 3), ("u2", 9)]
        assert collision_stats(log_of(*slots)) == collision_stats(
            log_of(*reversed(slots))
        )


class TestCollisionHazard:
    def report(self, fraction):
        return CollisionReport(
            colliding_pair_fraction=fraction,
            colliding_event_fraction=fraction,
            collision_size_histogram={},
            total_events=100,
            total_pairs=100,
        )

    def test_day_resolution_with_heavy_collisions_flags(self):
        assert collision_hazard(self.report(0.135), RESOLUTION_DAYS)

    def test_second_resolution_never_flags(self):
        assert not collision_hazard(self.report(0.135), RESOLUTION_SECONDS)

    def test_light_collisions_stay_quiet(self):
        assert not collision_hazard(self.report(0.0006), RESOLUTION_DAYS)

    def test_threshold_is_configurable(self):
        assert collision_hazard(self.report(0.0006), RESOLUTION_DAYS, threshold=1e-4)


class TestTransitionSet:
    def test_first_seen_keeps_earliest_day(self):
        data = build_dataset(
            make_index(3),
            [
                ([0, 1], [day(0), day(0, 10)]),
                ([0, 1], [day(1), day(1, 10)]),
                ([1, 2], [day(1, 20), day(1, 30)]),
            ],
        )
        ts = transition_set(data)
        assert ts.first_seen_day == {(0, 1): 0, (1, 2): 1}
        assert ts.pairs == {(0, 1), (1, 2)}

    def test_transition_day_is_the_second_events_day(self):
        data = build_dataset(
            make_index(2), [([0, 1], [day(1) - 60, day(1) + 60])]
        )
        assert transition_set(data).first_seen_day == {(0, 1): 1}

    def test_single_event_sequences_add_nothing(self):
        data = build_dataset(make_index(2), [([0], [day(0)]), ([1], [day(1)])])
        assert len(transition_set(data)) == 0


class TestNewTransitionRate:
    def two_day_fixture(self):
        return build_dataset(
            make_index(3),
            [
                ([0, 1], [day(0), day(0, 10)]),
                ([0, 1], [day(1), day(1, 10)]),
                ([1, 2], [day(1, 20), day(1, 30)]),
            ],
        )

    def test_textbook_two_day_rate(self):
        series = new_transition_rate(self.two_day_fixture())
        assert [point.day for point in series] == [0, 1]
        assert series[0].rate == pytest.approx(1.0)  # everything is new on day 0
        assert series[1].new_transitions == 1
        assert series[1].denominator == 2  # two sequences active on day 1
        assert series[1].rate == pytest.approx(0.5)

    def test_numerators_sum_to_distinct_transitions(self):
        data = self.two_day_fixture()
        series = new_transition_rate(data)
        assert sum(point.new_transitions for point in series) == len(
            transition_set(data)
        )

    def test_stationary_data_rates_vanish_after_day_zero(self):
        rows = [([0, 1], [day(d), day(d, 10)]) for d in range(5)]
        series = new_transition_rate(build_dataset(make_index(2), rows))
        assert [point.rate for point in series[1:]] == [0.0] * 4

    def test_fully_drifting_data_rates_stay_one(self):
        rows = [([2 * d, 2 * d + 1], [day(d), day(d, 10)]) for d in range(4)]
        series = new_transition_rate(build_dataset(make_index(8), rows))
        assert [point.rate for point in series] == [1.0] * 4

    def test_alternative_denominators(self):
        data = build_dataset(
            make_index(3),
            [
                ([0, 1], [day(0), day(0, 10)]),
                ([0, 1, 2], [day(1), day(1, 10), day(1, 20)]),
            ],
        )
        by_transitions = new_transition_rate(data, DENOMINATOR_DAY_TRANSITIONS)
        assert by_transitions[1].denominator == 2  # (0,1) recurs, (1,2) is new
        assert by_transitions[1].rate == pytest.approx(0.5)
        by_starts = new_transition_rate(data, DENOMINATOR_STARTING_SEQUENCES)
        assert by_starts[1].denominator == 1
        assert by_starts[1].rate == pytest.approx(1.0)

    def test_undefined_rate_when_no_sequence_starts_that_day(self):
        data = build_dataset(
            make_index(3),
            [([0, 1, 2], [day(0), day(1), day(1, 10)])],
        )
        by_starts = new_transition_rate(data, DENOMINATOR_STARTING_SEQUENCES)
        assert by_starts[1].new_transitions == 2
        assert by_starts[1].denominator == 0
        assert by_starts[1].rate is None

    def test_single_day_data_rejected(self):
        data = build_dataset(make_index(2), [([0, 1], [day(0), day(0, 10)])])
        with pytest.raises(DiagnosticsError, match="two days"):
            new_transition_rate(data)

    def test_unknown_denominator_rejected(self):
        with pytest.raises(DiagnosticsError, match="denominator"):
            new_transition_rate(self.two_day_fixture(), "per_capita")

    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=2, max_size=6
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_numerator_sum_property(self, raw):
        rows = []
        distinct = set()
        for raw_seq in raw:
            items = [item for item, _ in raw_seq]
            days = sorted(d for _, d in raw_seq)
            rows.append((items, [day(d, k) for k, d in enumerate(days)]))
            distinct.update(zip(items[:-1], items[1:]))
        data = build_dataset(make_index(6), rows)
        all_days = {int(t) // day(1) for _, times in rows for t in times}
        if len(all_days) < 2:
            with pytest.raises(DiagnosticsError):
                new_transition_rate(data)
            return
        series = new_transition_rate(data)
        assert sum(point.new_transitions for point in series) == len(distinct)


class TestTransitionOverlap:
    def test_textbook_half_overlap(self):
        index = make_index(3)
        split = build_split(
            index,
            [([0, 1], [0, 10])],
            [([0, 1, 2], [100, 110, 120])],
        )
        report = transition_overlap(split)
        assert report.occurrence_overlap == pytest.approx(0.5)
        assert report.distinct_overlap == pytest.approx(0.5)

    def test_occurrence_and_distinct_variants_differ(self):
        index = make_index(3)
        split = build_split(
            index,
            [([0, 1], [0, 10])],
            [([0, 1], [100, 110]), ([0, 1, 2], [200, 210, 220])],
        )
        report = transition_overlap(split)
        assert report.occurrence_overlap == pytest.approx(2 / 3)
        assert report.distinct_overlap == pytest.approx(1 / 2)
        assert report.test_transition_count == 3
        assert report.distinct_test_transitions == 2

    def test_subset_and_disjoint_extremes(self):
        index = make_index(4)
        contained = build_split(
            index,
            [([0, 1, 2], [0, 10, 20])],
            [([0, 1, 2], [100, 110, 120])],
        )
        assert transition_overlap(contained).occurrence_overlap == 1.0
        disjoint = build_split(
            index,
            [([0, 1], [0, 10])],
            [([2, 3], [100, 110])],
        )
        assert transition_overlap(disjoint).occurrence_overlap == 0.0
        assert transition_overlap(disjoint).distinct_overlap == 0.0

    def test_growing_train_cannot_shrink_distinct_overlap(self):
        index = make_index(3)
        test_rows = [([0, 1, 2], [100, 110, 120])]
        small = build_split(index, [([0, 1], [0, 10])], test_rows)
        large = build_split(
            index, [([0, 1], [0, 10]), ([1, 2], [20, 30])], test_rows
        )
        assert (
            transition_overlap(large).distinct_overlap
            >= transition_overlap(small).distinct_overlap
        )

    def test_leave_one_out_uses_prefix_to_target_pairs(self):
        data = build_dataset(
            make_index(4),
            [([0, 1, 2], [0, 10, 20]), ([1, 2, 3], [30, 40, 50])],
        )
        split = leave_one_out_split(data, LeaveOneOutSelection())
        report = transition_overlap(split)
        # held-out pairs: (1,2) which survives in seq 1's prefix, and (2,3) which does not
        assert report.occurrence_overlap == pytest.approx(0.5)

    def test_transitionless_test_side_rejected(self):
        split = build_split(
            make_index(2), [([0, 1], [0, 10])], [([1], [100])]
        )
        with pytest.raises(DiagnosticsError, match="no transitions"):
            transition_overlap(split)

    def test_drifted_data_separates_loo_from_time_split(self):
        rng = np.random.default_rng(11)
        index = make_index(70)
        window = 5

        def period_rows(base, count, start_time):
            rows = []
            t = start_time
            for _ in range(count):
                s = int(rng.integers(0, 30 - window + 1))
                items = base + s + np.arange(window)
                rows.append((items, t + np.arange(window) * 3))
                t += window * 3 + 3
            return rows

        early = period_rows(0, 40, 0)
        late = period_rows(35, 40, 100_000)
        time_report = transition_overlap(
            build_split(index, early, late, split_time=99_999)
        )
        combined = build_dataset(index, early + late)
        loo_report = transition_overlap(
            leave_one_out_split(combined, LeaveOneOutSelection())
        )
        assert time_report.occurrence_overlap == 0.0  # periods share no items
        assert loo_report.occurrence_overlap > time_report.occurrence_overlap + 0.1


class TestSequentialityProbe:
    def test_planted_chains_expose_order_signal(self):
        split = chain_split(7, 8, train_copies=30, test_copies=10)
        report = fit_and_probe(
            split,
            cutoffs=(1, 20),
            tie_policy="random",
            master_seed=3,
            verdict_cutoff=1,
        )
        assert report.sequential.recall[1] == 1.0
        assert report.relative_change_recall[1] < -0.5
        assert report.verdict == VERDICT_PRESENT
        # ties among the forward remainder make the expected order-agnostic
        # recall@1 the mean of 1/(8 - prefix_len); check within 4 sigma
        expected = sum(1 / (8 - length) for length in range(1, 8)) / 7
        cases = report.order_agnostic.case_count
        sigma = (0.25 / cases) ** 0.5
        assert abs(report.order_agnostic.recall[1] - expected) <= 4 * sigma

    def test_shuffled_chains_erase_the_gap(self):
        split = chain_split(7, 8, train_copies=60, test_copies=10, shuffle_seed=5)
        report = fit_and_probe(
            split, cutoffs=(1, 20), tie_policy="random", master_seed=3
        )
        change = report.relative_change_recall[20]
        assert change is not None
        assert abs(change) < 0.02
        assert report.verdict == VERDICT_WEAK

    def test_identical_predictions_mean_no_signal(self):
        index = make_index(2)
        split = build_split(
            index,
            [([0, 1], [t, t + 5]) for t in (0, 20, 40)],
            [([0, 1], [100, 105]), ([0, 1], [120, 125])],
        )
        report = fit_and_probe(split, cutoffs=(1, 2))
        assert report.relative_change_recall[1] == 0.0
        assert report.relative_change_recall[2] == 0.0
        assert report.verdict == VERDICT_WEAK

    def test_session_knn_accepted_as_sequential_baseline(self):
        split = chain_split(3, 4, train_copies=5, test_copies=2)
        report = fit_and_probe(
            split, cutoffs=(1,), sequential_model="session_knn"
        )
        assert report.sequential.model == "session_knn"

    def test_unknown_baseline_rejected(self):
        split = chain_split(2, 3, train_copies=2, test_copies=1)
        with pytest.raises(DiagnosticsError, match="baseline"):
            fit_and_probe(split, sequential_model="transformer")

    def test_verdict_cutoff_must_be_evaluated(self):
        split = chain_split(2, 3, train_copies=2, test_copies=1)
        with pytest.raises(DiagnosticsError, match="cutoff"):
            fit_and_probe(split, cutoffs=(1, 5), verdict_cutoff=7)

    def test_report_serializes_to_json(self):
        split = chain_split(2, 3, train_copies=3, test_copies=1)
        report = fit_and_probe(split, cutoffs=(1, 2))
        payload = json.loads(json.dumps(plain(report)))
        assert payload["verdict"] in (VERDICT_WEAK, VERDICT_PRESENT)
        assert set(payload["relative_change_recall"]) == {"1", "2"}
