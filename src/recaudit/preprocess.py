"""Pipeline turning raw event logs into filtered, densely indexed datasets.

Four steps, applied in order: keep one event type, cut entity histories into
sequences, merge adjacent repeats, and iteratively drop short sequences and
rare items until both constraints hold at once.  Every step appends a ledger
record with before/after counts, because aggressive preprocessing quietly
reshapes a dataset and the numbers are the only honest way to show how much.

Every step is an array pass over one :class:`SequenceTable`: flat int64
``items`` and ``timestamps`` columns in the event log's order (entity, then
time, ties in input order) with CSR ``offsets`` marking where each sequence
starts.  Items are dense integer codes throughout; the mapping back to raw
ids travels in an :class:`~recaudit.events.ItemIndex` and is rebuilt
(compacted) by the support filter once the catalog has settled.  There is no
per-sequence object: sequence ``k`` is the slice ``offsets[k]:offsets[k + 1]``
of the columns, and every consumer reads the columns directly.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TextIO

import numpy as np

from .errors import PreprocessError
from .events import DUMP_BLOCK_ROWS, RESOLUTION_DAYS, SECONDS_PER_DAY, EventLog, ItemIndex

logger = logging.getLogger(__name__)

SESSION_BY_ENTITY = "by_entity"
SESSION_BY_COLUMN = "by_session_column"
SESSION_GAP = "gap"
_SESSION_MODES = (SESSION_BY_ENTITY, SESSION_BY_COLUMN, SESSION_GAP)


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for the preprocessing pipeline."""

    keep_event_type: str | None = None
    session_mode: str = SESSION_BY_ENTITY
    gap_seconds: int = 3600
    min_seq_len: int = 2
    min_item_support: int = 5

    def __post_init__(self) -> None:
        if self.session_mode not in _SESSION_MODES:
            raise ValueError(f"session_mode must be one of {_SESSION_MODES}")
        if self.gap_seconds <= 0:
            raise ValueError("gap_seconds must be positive")
        if self.min_seq_len < 2:
            raise ValueError("min_seq_len must be at least 2")
        if self.min_item_support < 1:
            raise ValueError("min_item_support must be at least 1")


@dataclass(frozen=True, eq=False)
class SequenceTable:
    """Sequences as flat columns with CSR offsets.

    Sequence ``k`` holds events ``offsets[k]:offsets[k + 1]`` of the int64
    ``items`` and ``timestamps`` columns; it is never empty and its timestamps
    never decrease.  ``seq_ids`` and ``entity_codes`` (indices into
    ``entity_ids``) hold one int64 per sequence; ``len`` counts sequences.
    """

    items: np.ndarray
    timestamps: np.ndarray
    offsets: np.ndarray
    seq_ids: np.ndarray
    entity_codes: np.ndarray
    entity_ids: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_events(self) -> int:
        return len(self.items)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def start_times(self) -> np.ndarray:
        return self.timestamps[self.offsets[:-1]]

    def count(self, events: np.ndarray) -> np.ndarray:
        """How many events of each sequence a boolean mask selects."""
        before = np.zeros(len(events) + 1, dtype=np.int64)
        np.cumsum(events, out=before[1:])
        return np.diff(before[self.offsets])

    def take(self, events: np.ndarray) -> "SequenceTable":
        """Keep the events a boolean mask selects; sequences left empty vanish."""
        if events.all():
            return self
        kept = self.count(events)
        nonempty = kept > 0
        return SequenceTable(
            items=self.items[events],
            timestamps=self.timestamps[events],
            offsets=np.append(0, np.cumsum(kept[nonempty])),
            seq_ids=self.seq_ids[nonempty],
            entity_codes=self.entity_codes[nonempty],
            entity_ids=self.entity_ids,
        )

    def select(self, sequences: np.ndarray) -> "SequenceTable":
        """Keep the whole sequences a boolean mask selects."""
        return self.take(np.repeat(sequences, self.lengths))


@dataclass(frozen=True)
class StepRecord:
    """Before/after counts for one applied pipeline step."""

    step: str
    params: dict
    events_before: int
    events_after: int
    sequences_before: int
    sequences_after: int
    items_before: int
    items_after: int

    @classmethod
    def counted(
        cls, step: str, params: dict, before: tuple[int, int, int], after: tuple[int, int, int]
    ) -> StepRecord:
        """A record from (events, sequences, items) counts before and after the step."""
        events, sequences, items = zip(before, after)
        return cls(step, params, *events, *sequences, *items)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Preprocessed sequences plus the item index and the step ledger."""

    sequences: SequenceTable
    item_index: ItemIndex
    provenance: list[StepRecord] = field(default_factory=list)

    @cached_property
    def item_support(self) -> np.ndarray:
        """Occurrences of each catalog item."""
        return np.bincount(self.sequences.items, minlength=len(self.item_index))

    @property
    def num_events(self) -> int:
        return self.sequences.num_events

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)

    @property
    def num_items(self) -> int:
        return len(self.item_index)

    def verify(self, cfg: PipelineConfig | None = None) -> None:
        """Check structural invariants; raises on violation."""
        if len(self.item_support) > len(self.item_index):
            raise AssertionError("item code out of catalog range")
        if cfg is not None:
            if np.any(self.sequences.lengths < cfg.min_seq_len):
                raise AssertionError("sequence below minimum length survived")
            present = self.item_support > 0
            if np.any(self.item_support[present] < cfg.min_item_support):
                raise AssertionError("item below minimum support survived")

    def dump_canonical(self, stream: TextIO) -> None:
        """Write the deterministic dump to ``stream``, a block of rows at a time."""
        table = self.sequences
        entity_codes = np.repeat(table.entity_codes, table.lengths)
        seq_ids = np.repeat(table.seq_ids, table.lengths)
        stream.write("seq_id\tentity\titem\ttimestamp\n")
        for lo in range(0, table.num_events, DUMP_BLOCK_ROWS):
            block = slice(lo, lo + DUMP_BLOCK_ROWS)
            rows = zip(
                seq_ids[block].tolist(),
                map(table.entity_ids.__getitem__, entity_codes[block].tolist()),
                map(self.item_index.reverse.__getitem__, table.items[block].tolist()),
                table.timestamps[block].tolist(),
            )
            stream.writelines(
                f"{seq_id}\t{entity}\t{item}\t{ts}\n" for seq_id, entity, item, ts in rows
            )

    def canonical_text(self) -> str:
        """Deterministic dump used to compare pipeline outputs byte for byte."""
        buffer = io.StringIO()
        self.dump_canonical(buffer)
        return buffer.getvalue()


def _table_counts(table: SequenceTable) -> tuple[int, int, int]:
    """Events, sequences and distinct items of a table."""
    return table.num_events, len(table), int(np.count_nonzero(np.bincount(table.items)))


def _log_counts(log: EventLog) -> tuple[int, int, int]:
    return log.num_events, log.num_entities, len(log.item_ids)


def filter_event_type(log: EventLog, keep: str) -> EventLog:
    """Keep only events whose type equals ``keep``, preserving order.

    A log with no typed events at all is returned unchanged (there is nothing
    to filter on); a type that matches nothing yields an empty log.  Both edge
    paths emit a warning instead of failing.
    """
    if not np.any(log.type_codes >= 0):
        logger.warning("event-type filter skipped: log carries no event types")
        return log
    # one flag per type code; the trailing False is read by untyped rows (code -1)
    matches = np.array([kind == keep for kind in log.event_type_ids] + [False])
    kept = log.take(matches[log.type_codes])
    if not kept.num_events:
        logger.warning("event-type filter matched nothing: keep=%r", keep)
    return kept


def sessionize(
    log: EventLog,
    cfg: PipelineConfig,
    index: ItemIndex | None = None,
) -> SequenceTable:
    """Cut each entity's history into sequences with dense item codes.

    Modes: ``by_entity`` and ``by_session_column`` map every entity group to
    one sequence (in the latter the entity column already holds session keys);
    ``gap`` starts a new sequence whenever the pause since the previous event
    of the same entity exceeds ``cfg.gap_seconds``.  Sequence ids number the
    sequences in table order: by entity, then time.

    ``index`` defaults to a lexicographic index over the log's items, so two
    calls on the same log agree on codes.
    """
    if cfg.session_mode == SESSION_GAP and cfg.gap_seconds < SECONDS_PER_DAY:
        if log.num_events and log.timestamp_resolution == RESOLUTION_DAYS:
            raise PreprocessError(
                f"gap sessionization with gap_seconds={cfg.gap_seconds} is undetectable "
                "on day-resolution timestamps: every within-day pause is recorded as 0. "
                "Run the timestamp-collision audit (diagnostics.collision_stats) and "
                "use by_entity sessions or a gap of at least 86400."
            )
    if index is None:
        index = ItemIndex.from_items(log.item_ids)
    codes = np.fromiter(map(index.forward.__getitem__, log.item_ids), np.int64, len(log.item_ids))

    starts = np.ones(log.num_events, dtype=bool)
    np.not_equal(log.entity_codes[1:], log.entity_codes[:-1], out=starts[1:])
    if cfg.session_mode == SESSION_GAP:
        starts[1:] |= np.diff(log.timestamps) > cfg.gap_seconds
    firsts = np.flatnonzero(starts)
    return SequenceTable(
        items=codes[log.item_codes],
        timestamps=log.timestamps,
        offsets=np.append(firsts, log.num_events),
        seq_ids=np.arange(len(firsts), dtype=np.int64),
        entity_codes=log.entity_codes[firsts],
        entity_ids=log.entity_ids,
    )


def collapse_repeats(sequences: SequenceTable) -> SequenceTable:
    """Merge runs of the same item into one event keeping the first timestamp.

    Non-adjacent repeats stay: (i,j,i) is untouched, (i,i,j) becomes (i,j).
    One mask over the flat item column; runs never cross a sequence start.
    """
    items = sequences.items
    keep = np.ones(len(items), dtype=bool)
    np.not_equal(items[1:], items[:-1], out=keep[1:])
    keep[sequences.offsets[:-1]] = True
    return sequences.take(keep)


def iterative_support_filter(
    sequences: SequenceTable,
    cfg: PipelineConfig,
    index: ItemIndex,
    provenance: list[StepRecord] | None = None,
) -> Dataset:
    """Drop short sequences and rare items until both constraints hold.

    ``sequences`` hold codes of ``index`` and no adjacent repeats (the output
    of :func:`collapse_repeats`).  Each pass first drops sequences shorter
    than ``min_seq_len``, then recounts item support over the survivors and
    removes every item below ``min_item_support`` at once, re-collapsing any
    adjacent repeats the removals exposed.  Passes repeat until one changes
    nothing.  One ledger record is appended per pass, so cascades are visible
    pass by pass.

    Raises:
        PreprocessError: the filter emptied the dataset; the message replays
            the per-pass shrinkage so the cascade can be audited.
    """
    records: list[StepRecord] = provenance if provenance is not None else []
    current = sequences
    shrink_rows: list[str] = []
    iteration = 0
    while True:
        iteration += 1
        before = _table_counts(current)
        kept = current.select(current.lengths >= cfg.min_seq_len)
        support = np.bincount(kept.items, minlength=len(index))
        weak = (support > 0) & (support < cfg.min_item_support)
        removed_items = int(np.count_nonzero(weak))
        # fully emptied sequences vanish in take()
        pruned = collapse_repeats(kept.take(~weak[kept.items])) if removed_items else kept
        after = _table_counts(pruned)
        changed = removed_items > 0 or len(kept) != len(current) or len(pruned) != len(kept)
        params = {
            "iteration": iteration,
            "min_seq_len": cfg.min_seq_len,
            "min_item_support": cfg.min_item_support,
            "dropped_short_sequences": len(current) - len(kept),
            "removed_items": removed_items,
        }
        records.append(StepRecord.counted("support_filter", params, before, after))
        shrink = zip(("events", "sequences", "items"), before, after)
        shrink_rows.append(
            f"pass {iteration}: " + ", ".join(f"{what} {b}->{a}" for what, b, a in shrink)
        )
        current = pruned
        if not changed or not current:
            break
    if not current:
        raise PreprocessError(
            "support filtering removed everything; loosen min_seq_len/min_item_support. "
            "Shrinkage per pass: " + "; ".join(shrink_rows)
        )

    survivors = np.flatnonzero(np.bincount(current.items, minlength=len(index))).tolist()
    compact = ItemIndex.from_items(index.reverse[code] for code in survivors)
    remap = np.full(len(index), -1, dtype=np.int64)
    remap[survivors] = [compact.forward[index.reverse[code]] for code in survivors]
    return Dataset(replace(current, items=remap[current.items]), compact, records)


def preprocess(log: EventLog, cfg: PipelineConfig) -> Dataset:
    """Run the full pipeline and return the dataset with its step ledger."""
    provenance: list[StepRecord] = []

    if cfg.keep_event_type is not None:
        before = _log_counts(log)
        log = filter_event_type(log, cfg.keep_event_type)
        provenance.append(StepRecord.counted(
            "filter_event_type", {"keep": cfg.keep_event_type}, before, _log_counts(log)
        ))

    index = ItemIndex.from_items(log.item_ids)
    sequences = sessionize(log, cfg, index)
    params: dict = {"mode": cfg.session_mode}
    if cfg.session_mode == SESSION_GAP:
        params["gap_seconds"] = cfg.gap_seconds
    counts = _table_counts(sequences)
    provenance.append(StepRecord.counted("sessionize", params, _log_counts(log), counts))

    collapsed = collapse_repeats(sequences)
    provenance.append(
        StepRecord.counted("collapse_repeats", {}, counts, _table_counts(collapsed))
    )

    return iterative_support_filter(collapsed, cfg, index, provenance)
