"""Train/test splitting strategies and training-window truncation.

The time-based split is the reference protocol: the model may only see events
up to a boundary, and is tested on sequences that start after it.  The other
two strategies (leave-one-out, random) are implemented faithfully as the
comparison points whose leakage the diagnostics quantify, not because they are
recommended.

All strategies share one item index across sides; test events whose item never
occurs in train are counted so reports can say how many cases the evaluator
will skip.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import SplitError
from .events import SECONDS_PER_DAY
from .preprocess import Dataset, SequenceTable

STRATEGY_TIME = "time"
STRATEGY_LOO = "leave_one_out"
STRATEGY_RANDOM = "random"

SELECT_ALL = "all"
SELECT_MOST_RECENT = "most_recent"
SELECT_RANDOM = "random"


@dataclass(frozen=True)
class LeaveOneOutSelection:
    """Which sequences donate their final event as a test case."""

    kind: str = SELECT_ALL
    k: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in (SELECT_ALL, SELECT_MOST_RECENT, SELECT_RANDOM):
            raise ValueError(f"unknown selection kind {self.kind!r}")
        if self.kind != SELECT_ALL:
            if self.k is None or self.k < 1:
                raise ValueError(f"selection {self.kind!r} needs k >= 1")
        if self.kind == SELECT_RANDOM and self.seed is None:
            raise ValueError("random selection needs an explicit seed")


@dataclass(frozen=True)
class SplitSpec:
    """Declarative description of a split strategy and its parameters."""

    strategy: str
    split_time: int | None = None
    test_days: int | None = None
    selection: LeaveOneOutSelection | None = None
    fraction: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy == STRATEGY_TIME:
            if self.split_time is None and self.test_days is None:
                raise ValueError("time strategy needs split_time or test_days")
            if self.test_days is not None and self.test_days < 1:
                raise ValueError("test_days must be at least 1")
        elif self.strategy == STRATEGY_LOO:
            if self.selection is None:
                object.__setattr__(self, "selection", LeaveOneOutSelection())
        elif self.strategy == STRATEGY_RANDOM:
            if self.fraction is None or not 0 < self.fraction < 1:
                raise ValueError("random strategy needs 0 < fraction < 1")
            if self.seed is None:
                raise ValueError("random strategy needs an explicit seed")
        else:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass(frozen=True)
class SideStats:
    events: int
    sequences: int
    days: int


@dataclass(frozen=True)
class SplitStats:
    train: SideStats
    test: SideStats
    unseen_item_events: int
    unseen_items: int

    def to_dict(self) -> dict:
        """The unseen-item counts describe the test side and nest under it."""
        unseen = {"unseen_item_events": self.unseen_item_events, "unseen_items": self.unseen_items}
        return {"train": asdict(self.train), "test": {**asdict(self.test), **unseen}}


@dataclass(frozen=True)
class DatasetSplit:
    train: Dataset
    test: Dataset
    spec: SplitSpec
    stats: SplitStats
    split_time: int | None = None
    window_days: int | None = None


def _side_stats(table: SequenceTable) -> SideStats:
    if not len(table):
        return SideStats(events=0, sequences=0, days=0)
    # timestamps never decrease inside a sequence: the extremes are its ends
    first = int(table.timestamps.min())
    last = int(table.timestamps.max())
    days = last // SECONDS_PER_DAY - first // SECONDS_PER_DAY + 1
    return SideStats(events=table.num_events, sequences=len(table), days=days)


def _make_split(
    data: Dataset,
    train_seqs: SequenceTable,
    test_seqs: SequenceTable,
    spec: SplitSpec,
    split_time: int | None = None,
    window_days: int | None = None,
) -> DatasetSplit:
    train = Dataset(train_seqs, data.item_ids, list(data.provenance))
    test = Dataset(test_seqs, data.item_ids, list(data.provenance))
    missing = test_seqs.items[train.item_support[test_seqs.items] == 0]
    stats = SplitStats(
        train=_side_stats(train_seqs),
        test=_side_stats(test_seqs),
        unseen_item_events=len(missing),
        unseen_items=len(np.unique(missing)),
    )
    return DatasetSplit(
        train=train,
        test=test,
        spec=spec,
        stats=stats,
        split_time=split_time,
        window_days=window_days,
    )


def _cut(table: SequenceTable, events: np.ndarray, min_seq_len: int) -> SequenceTable:
    """A boundary's side of each sequence: whole ones stay, stumps below ``min_seq_len`` go."""
    kept = table.count(events)
    whole_or_long = (kept == table.lengths) | (kept >= min_seq_len)
    return table.take(events & np.repeat(whole_or_long, table.lengths))


def choose_split_time(data: Dataset, target_test_days: int) -> int:
    """Day boundary leaving the final ``target_test_days`` days as test.

    Days are UTC.  The boundary is ``(D + 1 - target_test_days)`` days in epoch
    seconds, where D is the last event's day index: the midnight that starts
    the first test day.  A target of one keeps every sequence starting on the
    last (possibly partial) day for testing, a sequence starting at its
    midnight included, as on a log of day resolution.
    """
    if target_test_days < 1:
        raise SplitError("target_test_days must be at least 1")
    if not data.sequences:
        raise SplitError("cannot split an empty dataset")
    timestamps = data.sequences.timestamps
    first, last = int(timestamps.min()), int(timestamps.max())
    boundary = (last // SECONDS_PER_DAY + 1 - target_test_days) * SECONDS_PER_DAY
    if boundary <= first:
        raise SplitError(
            f"data spans days {first // SECONDS_PER_DAY}..{last // SECONDS_PER_DAY}; "
            f"a {target_test_days}-day test window leaves no training data"
        )
    return boundary


def time_split(data: Dataset, split_time: int, min_seq_len: int = 2) -> DatasetSplit:
    """Split at a timestamp: model sees the past, is tested on the future.

    The boundary is half-open: test takes every sequence whose first event is
    at or after ``split_time``, whole, and train takes all events before it.
    Sequences straddling the boundary are cut there, and cut stumps shorter
    than ``min_seq_len`` are dropped (their count shows up in the stats as
    missing sequences).

    A boundary outside the data's range surfaces as one of the empty-side
    errors below; :func:`choose_split_time` always returns a usable one.
    """
    table = data.sequences
    if not table:
        raise SplitError("cannot split an empty dataset")
    # events before the boundary form a prefix of each sequence; a test
    # sequence has none of them, so no test event reaches train
    train_seqs = _cut(table, table.timestamps < split_time, min_seq_len)
    test_seqs = table.select(table.start_times >= split_time)
    if not train_seqs:
        raise SplitError(f"split_time {split_time} leaves an empty training side")
    if not test_seqs:
        raise SplitError(f"split_time {split_time} leaves an empty test side")
    spec = SplitSpec(strategy=STRATEGY_TIME, split_time=split_time)
    return _make_split(data, train_seqs, test_seqs, spec, split_time=split_time)


def leave_one_out_split(data: Dataset, selection: LeaveOneOutSelection) -> DatasetSplit:
    """Move each selected sequence's final event into test, prefix stays in train.

    The prefix keeps its sequence id, so a test case can be matched back to its
    training prefix.  Note what this protocol does NOT guarantee: test targets
    may predate other training events, which is exactly the leakage the
    transition-overlap audit measures.

    Only sequences of length >= 2 are eligible (a shorter one has no prefix to
    leave behind); ineligible ones go to train whole.
    """
    table = data.sequences
    if not table:
        raise SplitError("cannot split an empty dataset")
    eligible = np.flatnonzero(table.lengths >= 2)
    if selection.kind == SELECT_ALL:
        chosen = eligible
    elif selection.k is not None and selection.k > len(eligible):
        raise SplitError(
            f"selection k={selection.k} exceeds {len(eligible)} eligible sequences"
        )
    elif selection.kind == SELECT_MOST_RECENT:
        order = eligible[np.lexsort((eligible, table.start_times[eligible]))]
        chosen = order[len(eligible) - selection.k :]
    else:
        rng = np.random.default_rng(selection.seed)
        chosen = eligible[rng.choice(len(eligible), size=selection.k, replace=False)]
    if not len(chosen):
        raise SplitError("no sequence is long enough to donate a test event")
    held_out = np.zeros(table.num_events, dtype=bool)
    held_out[table.offsets[1:][chosen] - 1] = True
    train_seqs = table.take(~held_out)
    test_seqs = table.take(held_out)
    spec = SplitSpec(strategy=STRATEGY_LOO, selection=selection)
    return _make_split(data, train_seqs, test_seqs, spec)


def loo_prefix_rows(split: DatasetSplit) -> np.ndarray:
    """Row in train of each test sequence's leave-one-out prefix, -1 where none.

    The prefix is the training sequence with the test sequence's id; for an
    id repeated in train the last such row is taken.
    """
    train_ids, test_ids = split.train.sequences.seq_ids, split.test.sequences.seq_ids
    order = np.argsort(train_ids, kind="stable")
    at = np.searchsorted(train_ids[order], test_ids, side="right") - 1
    found = at >= 0
    found[found] = train_ids[order[at[found]]] == test_ids[found]
    rows = np.full(len(test_ids), -1, dtype=np.int64)
    rows[found] = order[at[found]]
    return rows


def random_split(data: Dataset, fraction: float, seed: int) -> DatasetSplit:
    """Assign whole sequences to test independently with the given probability."""
    spec = SplitSpec(strategy=STRATEGY_RANDOM, fraction=fraction, seed=seed)
    rng = np.random.default_rng(seed)
    draws = rng.random(len(data.sequences))
    train_seqs = data.sequences.select(draws >= fraction)
    test_seqs = data.sequences.select(draws < fraction)
    if not train_seqs or not test_seqs:
        raise SplitError(
            f"random split with fraction {fraction} left a side empty "
            f"({len(train_seqs)} train / {len(test_seqs)} test sequences)"
        )
    return _make_split(data, train_seqs, test_seqs, spec)


def truncate_training_window(
    split: DatasetSplit, window_days: int, min_seq_len: int = 2
) -> DatasetSplit:
    """Shrink train to its last ``window_days`` days before the split boundary.

    The window is half-open like the boundary: it keeps the training events
    at or after ``split_time - window_days`` days, all of them before
    ``split_time``, so a window on day boundaries spans exactly
    ``window_days`` days.  Sequences straddling the window start are cut
    there; stumps shorter than ``min_seq_len`` are dropped.  Test is
    untouched, so metric changes across windows isolate how much the model
    leans on older history.
    """
    if window_days < 1:
        raise SplitError("window_days must be at least 1")
    if split.split_time is None:
        raise SplitError("window truncation needs a time split (no split boundary present)")
    window_start = split.split_time - window_days * SECONDS_PER_DAY
    table = split.train.sequences
    # events inside the window form a suffix of each sequence
    train_seqs = _cut(table, table.timestamps >= window_start, min_seq_len)
    if not train_seqs:
        raise SplitError(f"a {window_days}-day window leaves an empty training side")
    return _make_split(
        split.train,
        train_seqs,
        split.test.sequences,
        split.spec,
        split_time=split.split_time,
        window_days=window_days,
    )


def apply_split(data: Dataset, spec: SplitSpec, min_seq_len: int = 2) -> DatasetSplit:
    """Run the strategy a spec describes; see :func:`time_split` for ``min_seq_len``."""
    if spec.strategy == STRATEGY_TIME:
        split_time = spec.split_time
        if split_time is None:
            split_time = choose_split_time(data, spec.test_days)
        result = time_split(data, split_time, min_seq_len)
        return replace(result, spec=spec)
    if spec.strategy == STRATEGY_LOO:
        return leave_one_out_split(data, spec.selection)
    return random_split(data, spec.fraction, spec.seed)

