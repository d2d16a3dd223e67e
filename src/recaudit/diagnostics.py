"""Dataset health checks that probe whether an evaluation setup makes sense.

Four independent statistics, each a pure reduction over immutable data:

* timestamp collisions: do many events share an (entity, timestamp) slot?
  When they do at day resolution, within-day order is an artifact of data
  export, not behaviour, and next-item evaluation on it measures noise.
* new-transition rate: how many adjacent item pairs appear for the first
  time on each day?  Sustained high rates mean test-period transitions were
  largely never trainable.
* train/test transition overlap: what share of evaluated transitions also
  occurs in training data?  High overlap under a leave-one-out split is the
  signature of answers leaking backward in time.
* sequentiality probe: does a model that uses event order actually beat an
  order-agnostic one on this dataset?  The probe compares two full-ranking
  reports; fitting and evaluating the models is the caller's business.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DiagnosticsError
from .evaluation import MetricReport
from .events import RESOLUTION_DAYS, SECONDS_PER_DAY, EventLog
from .preprocess import Dataset
from .splitting import STRATEGY_LOO, DatasetSplit, loo_prefix_rows

# day-resolution data above this colliding-event share is flagged as hazardous
COLLISION_EVENT_FRACTION_THRESHOLD = 0.10

DENOMINATOR_ACTIVE_SEQUENCES = "active_sequences"
DENOMINATOR_STARTING_SEQUENCES = "starting_sequences"
DENOMINATOR_DAY_TRANSITIONS = "day_transitions"
RATE_DENOMINATORS = (
    DENOMINATOR_ACTIVE_SEQUENCES,
    DENOMINATOR_STARTING_SEQUENCES,
    DENOMINATOR_DAY_TRANSITIONS,
)

VERDICT_WEAK = "weak_sequential_signal"
VERDICT_PRESENT = "sequential_signal"

SEQUENTIAL_BASELINES = ("markov", "session_knn")
ORDER_AGNOSTIC_BASELINE = "cooccurrence"


@dataclass(frozen=True)
class CollisionReport:
    """How much of the log shares (entity, timestamp) slots."""

    colliding_pair_fraction: float  # slots with >= 2 events / all slots
    colliding_event_fraction: float  # events inside such slots / all events
    collision_size_histogram: dict[int, int]  # slot size -> number of slots
    total_events: int
    total_pairs: int


def collision_stats(log: EventLog) -> CollisionReport:
    """Count events sharing an (entity, timestamp) slot.

    Collisions are per entity: two different entities acting at the same
    second collide with nobody.  The log is sorted by (entity, timestamp), so
    every slot is one run of rows.
    """
    entities, times = log.entity_codes, log.timestamps
    new_slot = np.ones(len(times), dtype=bool)
    new_slot[1:] = (entities[1:] != entities[:-1]) | (times[1:] != times[:-1])
    counts = np.diff(np.append(np.flatnonzero(new_slot), len(times)))
    big = counts[counts >= 2]
    sizes, slots = np.unique(big, return_counts=True)
    total_events, total_pairs = len(times), len(counts)
    return CollisionReport(
        colliding_pair_fraction=len(big) / total_pairs if total_pairs else 0.0,
        colliding_event_fraction=(
            int(big.sum()) / total_events if total_events else 0.0
        ),
        collision_size_histogram=dict(zip(sizes.tolist(), slots.tolist())),
        total_events=total_events,
        total_pairs=total_pairs,
    )


def collision_hazard(
    report: CollisionReport,
    timestamp_resolution: str,
    threshold: float = COLLISION_EVENT_FRACTION_THRESHOLD,
) -> bool:
    """True when day-resolution data collides enough to poison within-day order."""
    return (
        timestamp_resolution == RESOLUTION_DAYS
        and report.colliding_event_fraction > threshold
    )


@dataclass(frozen=True, eq=False)
class TransitionSet:
    """Distinct adjacent item pairs with the day each was first completed.

    A transition (i, j) happens when j directly follows i inside one
    sequence; its day is the day of the second event.  Days are absolute
    (timestamp // 86400).  Pairs are held as sorted keys ``i * width + j``.
    """

    keys: np.ndarray
    first_day: np.ndarray
    width: int

    @property
    def first_seen_day(self) -> dict[tuple[int, int], int]:
        left, right = np.divmod(self.keys, self.width)
        return dict(zip(zip(left.tolist(), right.tolist()), self.first_day.tolist()))

    @property
    def pairs(self) -> set[tuple[int, int]]:
        return set(self.first_seen_day)

    def __len__(self) -> int:
        return len(self.keys)


def _transitions(data: Dataset) -> tuple[np.ndarray, np.ndarray, int]:
    """Pair key and day of every adjacent pair inside a sequence, and the key width."""
    table = data.sequences
    follows = np.ones(table.num_events, dtype=bool)
    follows[table.offsets[:-1]] = False
    second = np.flatnonzero(follows)
    width = max(data.num_items, 1)
    keys = table.items[second - 1] * width + table.items[second]
    return keys, table.timestamps[second] // SECONDS_PER_DAY, width


def transition_set(data: Dataset) -> TransitionSet:
    keys, days, width = _transitions(data)
    order = np.lexsort((days, keys))
    keys, days = keys[order], days[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return TransitionSet(keys=keys[first], first_day=days[first], width=width)


@dataclass(frozen=True)
class TransitionRatePoint:
    """One day of the first-seen-transition series; day 0 is the first data day."""

    day: int
    new_transitions: int
    denominator: int
    rate: float | None  # None when the denominator is empty


def new_transition_rate(
    data: Dataset, denominator: str = DENOMINATOR_ACTIVE_SEQUENCES
) -> list[TransitionRatePoint]:
    """Per-day share of transitions never observed before that day.

    The default denominator is the number of distinct sequences with at
    least one event that day; alternatives normalise by sequences starting
    that day or by distinct transitions occurring that day.  Every day with
    at least one event gets a point; day numbers are offsets from the first
    day in the data.  Summed over all points, ``new_transitions`` equals the
    number of distinct transitions in the dataset.
    """
    if denominator not in RATE_DENOMINATORS:
        raise DiagnosticsError(
            f"unknown denominator {denominator!r}, expected one of {RATE_DENOMINATORS}"
        )
    table = data.sequences
    days = table.timestamps // SECONDS_PER_DAY
    if not len(days):
        raise DiagnosticsError("cannot compute transition rates without events")
    first_day = int(days.min())
    if int(days.max()) == first_day:
        raise DiagnosticsError(
            "transition rates need data spanning at least two days"
        )
    day = days - first_day
    span = int(day.max()) + 1
    starts = table.offsets[:-1]
    if denominator == DENOMINATOR_ACTIVE_SEQUENCES:
        # days never decrease inside a sequence: each (sequence, day) is one run
        new_run = np.ones(len(day), dtype=bool)
        new_run[1:] = day[1:] != day[:-1]
        new_run[starts] = True
        denominators = np.bincount(day[new_run], minlength=span)
    elif denominator == DENOMINATOR_STARTING_SEQUENCES:
        denominators = np.bincount(day[starts], minlength=span)
    else:
        keys, pair_days, _ = _transitions(data)
        order = np.lexsort((keys, pair_days))
        keys, pair_days = keys[order], pair_days[order]
        distinct = np.ones(len(keys), dtype=bool)
        distinct[1:] = (keys[1:] != keys[:-1]) | (pair_days[1:] != pair_days[:-1])
        denominators = np.bincount(pair_days[distinct] - first_day, minlength=span)
    new_per_day = np.bincount(transition_set(data).first_day - first_day, minlength=span)
    event_days = np.flatnonzero(np.bincount(day, minlength=span)).tolist()
    return [
        TransitionRatePoint(
            day=offset,
            new_transitions=new,
            denominator=denom,
            rate=new / denom if denom else None,
        )
        for offset, new, denom in zip(
            event_days, new_per_day[event_days].tolist(), denominators[event_days].tolist()
        )
    ]


@dataclass(frozen=True)
class OverlapReport:
    """Share of evaluated test transitions already present in training data."""

    occurrence_overlap: float  # over transition occurrences
    distinct_overlap: float  # over distinct pairs
    test_transition_count: int
    distinct_test_transitions: int
    distinct_train_transitions: int


def transition_overlap(split: DatasetSplit) -> OverlapReport:
    """Compare the split's evaluated transitions against training transitions.

    Test transitions are the (last prefix item, target) pairs of the split's
    evaluation cases: for prefix-growing splits the adjacent pairs inside test
    sequences, for leave-one-out the last item of each test sequence's
    training prefix (matched by sequence id) followed by its one test item.
    Both an occurrence-weighted and a distinct-pair fraction are reported;
    they answer different questions and neither dominates the other.
    """
    train = transition_set(split.train)
    if split.spec.strategy == STRATEGY_LOO:
        prefixes, tests = split.train.sequences, split.test.sequences
        rows = loo_prefix_rows(split)
        missing = tests.seq_ids[rows < 0]
        if len(missing):
            raise DiagnosticsError(
                f"test sequence {missing[0]} has no training prefix to extend"
            )
        left = prefixes.items[prefixes.offsets[rows + 1] - 1]
        occurrences = left * train.width + tests.items[tests.offsets[:-1]]
    else:
        # both sides share the catalog, so the pair keys share a width
        occurrences = _transitions(split.test)[0]
    if not len(occurrences):
        raise DiagnosticsError("the test side contains no transitions to compare")
    distinct_test = np.unique(occurrences)
    return OverlapReport(
        occurrence_overlap=int(np.isin(occurrences, train.keys).sum()) / len(occurrences),
        distinct_overlap=(
            int(np.isin(distinct_test, train.keys).sum()) / len(distinct_test)
        ),
        test_transition_count=len(occurrences),
        distinct_test_transitions=len(distinct_test),
        distinct_train_transitions=len(train),
    )


@dataclass(frozen=True)
class SequentialityReport:
    """Order-aware vs order-agnostic baseline on identical data.

    ``relative_change_*`` maps each cutoff to (agnostic - aware) / aware;
    negative values mean discarding order hurt.  The verdict threshold is a
    knob, not a constant of nature.
    """

    cutoffs: tuple[int, ...]
    sequential: MetricReport
    order_agnostic: MetricReport
    relative_change_recall: dict[int, float | None]
    relative_change_mrr: dict[int, float | None]
    verdict: str
    verdict_cutoff: int
    verdict_threshold: float


def probe_models(sequential_model: str = "markov") -> tuple[str, str]:
    """Names of the order-aware and the order-agnostic model the probe compares."""
    if sequential_model not in SEQUENTIAL_BASELINES:
        raise DiagnosticsError(
            f"sequential baseline must be one of {SEQUENTIAL_BASELINES}"
        )
    return sequential_model, ORDER_AGNOSTIC_BASELINE


def sequentiality_probe(
    sequential: MetricReport,
    order_agnostic: MetricReport,
    verdict_cutoff: int | None = None,
    verdict_threshold: float = 0.05,
) -> SequentialityReport:
    """Compare an order-aware and an order-agnostic model's full-ranking reports.

    If shuffling away the order would cost nothing, next-item evaluation on
    this dataset is measuring popularity and co-occurrence, not sequence
    behaviour.  Both reports must come from the same split and evaluation
    config, with models trained on the same data ranking the full catalog
    (see :func:`probe_models`).
    """
    cutoffs = sequential.cutoffs
    if order_agnostic.cutoffs != cutoffs:
        raise DiagnosticsError(
            f"cutoff grids differ: {cutoffs} vs {order_agnostic.cutoffs}"
        )

    def relative(a: dict[int, float], b: dict[int, float]) -> dict[int, float | None]:
        return {n: ((b[n] - a[n]) / a[n]) if a[n] else None for n in cutoffs}

    rel_recall = relative(sequential.recall, order_agnostic.recall)
    rel_mrr = relative(sequential.mrr, order_agnostic.mrr)
    chosen = verdict_cutoff if verdict_cutoff is not None else cutoffs[-1]
    if chosen not in cutoffs:
        raise DiagnosticsError(f"verdict cutoff {chosen} is not in {cutoffs}")
    probe = rel_recall[chosen]
    verdict = (
        VERDICT_WEAK
        if probe is None or abs(probe) < verdict_threshold
        else VERDICT_PRESENT
    )
    return SequentialityReport(
        cutoffs=cutoffs,
        sequential=sequential,
        order_agnostic=order_agnostic,
        relative_change_recall=rel_recall,
        relative_change_mrr=rel_mrr,
        verdict=verdict,
        verdict_cutoff=chosen,
        verdict_threshold=verdict_threshold,
    )
