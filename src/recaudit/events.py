"""Ingestion of raw interaction logs into one validated columnar event table.

An :class:`EventLog` holds parallel int64 columns, one row per event:
``entity_codes`` and ``item_codes`` index the sorted string vocabularies
``entity_ids`` and ``item_ids``, ``timestamps`` are epoch seconds, and
``type_codes`` index ``event_type_ids`` (-1 for an untyped event).  Vocabularies
are sorted by Python ``str`` order and hold only ids that occur in the table.

Rows are ordered by a stable ``lexsort((timestamps, entity_codes))``: by
entity, then timestamp, with ties kept in input-file order.  Tie order
matters: re-sorting equal-timestamp events by item id is exactly the kind of
silent mangling that manufactures artificial sequential patterns, so ordering
provenance is made explicit here and checked by fixtures.

Item ids stay raw strings at this stage; the dense item index of a dataset is
built only after preprocessing, once support filters have settled the catalog.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import IngestError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400

RESOLUTION_DAYS = "days"
RESOLUTION_SECONDS = "seconds"

_MAX_TIMESTAMP = np.iinfo(np.int64).max


@dataclass(frozen=True)
class RawEvent:
    """A single interaction: entity did something with an item at a time."""

    entity_id: str
    item_id: str
    timestamp: int
    event_type: str | None = None

    def __post_init__(self) -> None:
        if not self.entity_id:
            raise ValueError("entity_id must be non-empty")
        if not self.item_id:
            raise ValueError("item_id must be non-empty")
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be >= 0, got {self.timestamp}")


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the input columns holding each event field."""

    entity: str
    item: str
    time: str
    type: str | None = None


@dataclass(frozen=True)
class ItemIndex:
    """Bijection between raw item ids and dense indices in [0, catalog size)."""

    forward: dict[str, int]
    reverse: tuple[str, ...]

    @classmethod
    def from_items(cls, items: Iterable[str]) -> "ItemIndex":
        """Build an index over the given items, sorted for reproducibility."""
        ordered = sorted(set(items))
        return cls(forward={item: i for i, item in enumerate(ordered)}, reverse=tuple(ordered))

    def __len__(self) -> int:
        return len(self.reverse)

    def __contains__(self, item_id: str) -> bool:
        return item_id in self.forward


def _factorize(values: list) -> tuple[tuple[str, ...], np.ndarray]:
    """Sorted vocabulary of the non-None values and each value's int64 code (None -> -1)."""
    vocabulary = sorted(set(values) - {None})
    forward = dict(zip(vocabulary, range(len(vocabulary))))
    forward[None] = -1
    codes = np.fromiter(map(forward.__getitem__, values), np.int64, len(values))
    return tuple(vocabulary), codes


def _compact(codes: np.ndarray, vocabulary: tuple[str, ...]) -> tuple[np.ndarray, tuple[str, ...]]:
    """Drop vocabulary entries no code refers to; codes keep their order, -1 stays -1."""
    present = np.bincount(codes[codes >= 0], minlength=len(vocabulary)) > 0
    if present.all():
        return codes, vocabulary
    remap = np.append(np.cumsum(present) - 1, -1)
    return remap[codes], tuple(compress(vocabulary, present.tolist()))


def _resolution(timestamps: np.ndarray) -> str:
    """``days`` iff there are timestamps and all sit on a day boundary."""
    if len(timestamps) and not np.any(timestamps % SECONDS_PER_DAY):
        return RESOLUTION_DAYS
    return RESOLUTION_SECONDS


@dataclass(frozen=True, eq=False)
class EventLog:
    """The event table: int64 columns sorted by (entity, timestamp, input order).

    Treated as immutable; pipeline steps return new logs.
    """

    entity_codes: np.ndarray
    item_codes: np.ndarray
    timestamps: np.ndarray
    type_codes: np.ndarray
    entity_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    event_type_ids: tuple[str, ...] = ()
    timestamp_resolution: str = RESOLUTION_SECONDS
    rejected_count: int = 0
    rejected_preview: tuple[str, ...] = ()

    @classmethod
    def from_columns(
        cls,
        entities: list[str],
        items: list[str],
        timestamps: list[int],
        event_types: list[str | None] | None = None,
        rejected_count: int = 0,
        rejected_preview: tuple[str, ...] = (),
    ) -> "EventLog":
        """Factorise string columns and stable-sort; equal timestamps keep input order."""
        entity_ids, entity_codes = _factorize(entities)
        item_ids, item_codes = _factorize(items)
        if event_types is None:
            type_ids, type_codes = (), np.full(len(entities), -1, dtype=np.int64)
        else:
            type_ids, type_codes = _factorize(event_types)
        times = np.array(timestamps, dtype=np.int64)
        order = np.lexsort((times, entity_codes))
        return cls(
            entity_codes=entity_codes[order],
            item_codes=item_codes[order],
            timestamps=times[order],
            type_codes=type_codes[order],
            entity_ids=entity_ids,
            item_ids=item_ids,
            event_type_ids=type_ids,
            timestamp_resolution=_resolution(times),
            rejected_count=rejected_count,
            rejected_preview=tuple(rejected_preview),
        )

    @classmethod
    def from_events(
        cls,
        events: Iterable[RawEvent],
        rejected_count: int = 0,
        rejected_preview: tuple[str, ...] = (),
    ) -> "EventLog":
        """Table of in-memory events; equal timestamps keep iteration order."""
        events = list(events)
        return cls.from_columns(
            [e.entity_id for e in events],
            [e.item_id for e in events],
            [e.timestamp for e in events],
            [e.event_type for e in events],
            rejected_count,
            rejected_preview,
        )

    def take(self, rows: np.ndarray) -> "EventLog":
        """The rows a boolean mask keeps, vocabularies compacted, resolution re-detected.

        Reject accounting belongs to ingest and is not carried over.
        """
        entity_codes, entity_ids = _compact(self.entity_codes[rows], self.entity_ids)
        item_codes, item_ids = _compact(self.item_codes[rows], self.item_ids)
        type_codes, type_ids = _compact(self.type_codes[rows], self.event_type_ids)
        timestamps = self.timestamps[rows]
        return EventLog(
            entity_codes=entity_codes,
            item_codes=item_codes,
            timestamps=timestamps,
            type_codes=type_codes,
            entity_ids=entity_ids,
            item_ids=item_ids,
            event_type_ids=type_ids,
            timestamp_resolution=_resolution(timestamps),
        )

    @property
    def num_events(self) -> int:
        return len(self.timestamps)

    @property
    def num_entities(self) -> int:
        return len(self.entity_ids)

    def iter_events(self) -> Iterator[RawEvent]:
        """The rows as :class:`RawEvent` objects, in table order."""
        types = self.event_type_ids
        for entity, item, timestamp, kind in zip(
            self.entity_codes.tolist(),
            self.item_codes.tolist(),
            self.timestamps.tolist(),
            self.type_codes.tolist(),
        ):
            yield RawEvent(
                self.entity_ids[entity],
                self.item_ids[item],
                timestamp,
                types[kind] if kind >= 0 else None,
            )

    def event_types(self) -> set[str]:
        return set(self.event_type_ids)


def detect_timestamp_resolution(log: EventLog) -> str:
    """Return ``days`` iff every timestamp sits on a day boundary, else ``seconds``."""
    if not log.num_events:
        raise IngestError("cannot detect timestamp resolution of an empty log")
    return _resolution(log.timestamps)


def _parse_timestamp(raw: str) -> int:
    raw = raw.strip()
    try:
        value = int(raw)
    except ValueError:
        pass
    else:
        if value < 0:
            raise ValueError(f"negative timestamp {value}")
        if value > _MAX_TIMESTAMP:
            raise ValueError(f"timestamp {value} does not fit in 64 bits")
        return value
    # ISO-8601; date-only values land on midnight UTC.
    try:
        parsed = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ValueError(f"timestamp {raw!r} is neither epoch seconds nor ISO-8601")
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    value = int(parsed.timestamp())
    if value < 0:
        raise ValueError(f"timestamp {raw!r} is before the epoch")
    return value


def _open_source(source) -> TextIO:
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            if path.suffix == ".gz":
                return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
            return open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise IngestError(f"cannot read {path}: {exc}") from exc
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8"))
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            return io.StringIO(data.decode("utf-8"))
        return io.StringIO(data)
    raise IngestError(f"unsupported input source: {type(source).__name__}")


def _detect_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def _read_rows(stream: TextIO, schema: ColumnMapping, delimiter: str | None):
    """Parse the header and the rows into columns plus the reject messages."""
    first_line = stream.readline()
    if not first_line:
        raise IngestError("input is empty: a header row is required")
    sep = delimiter if delimiter is not None else _detect_delimiter(first_line)
    header = next(csv.reader([first_line], delimiter=sep))
    positions = {name.strip(): i for i, name in enumerate(header)}
    for column in (schema.entity, schema.item, schema.time):
        if column not in positions:
            raise IngestError(
                f"mapped column {column!r} not found in header {sorted(positions)}"
            )
    type_pos = positions.get(schema.type) if schema.type else None
    entity_pos = positions[schema.entity]
    item_pos = positions[schema.item]
    time_pos = positions[schema.time]

    entities: list[str] = []
    items: list[str] = []
    timestamps: list[int] = []
    types: list[str | None] | None = [] if type_pos is not None else None
    rejects: list[str] = []
    total = 0
    reader = csv.reader(stream, delimiter=sep)
    try:
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            total += 1
            try:
                entity = row[entity_pos].strip()
                item = row[item_pos].strip()
                timestamp = _parse_timestamp(row[time_pos])
                if not entity or not item:
                    raise ValueError("empty entity or item id")
            except (IndexError, ValueError) as exc:
                rejects.append(f"line {line_no}: {exc}")
                continue
            entities.append(entity)
            items.append(item)
            timestamps.append(timestamp)
            if types is not None:
                kind = row[type_pos].strip() if type_pos < len(row) else ""
                types.append(kind or None)
    except csv.Error as exc:
        raise IngestError(f"cannot parse input near line {reader.line_num + 1}: {exc}") from None
    return (entities, items, timestamps, types), rejects, total


def ingest_csv(
    source,
    schema: ColumnMapping,
    delimiter: str | None = None,
    max_reject_fraction: float = 0.01,
) -> EventLog:
    """Parse delimited text into an :class:`EventLog`.

    Rows are parsed straight into columns; no per-row object is built.

    Args:
        source: File path (plain or ``.gz``), byte string, or open stream.
            A header row is required.
        schema: Column names for entity, item, time and (optionally) type.
        delimiter: Force ``","`` or ``"\\t"``; auto-detected from the header
            when omitted.
        max_reject_fraction: Hard-failure threshold on the fraction of
            malformed rows.  Rejections below it are counted, never silent.

    Raises:
        IngestError: unreadable or undecodable source, text the CSV parser
            gives up on, missing mapped column, or too many malformed rows
            (the message lists the first ten offenders).
    """
    try:
        with _open_source(source) as stream:
            columns, rejects, total = _read_rows(stream, schema, delimiter)
    except (OSError, EOFError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read input: {exc}") from None
    if total and len(rejects) > max_reject_fraction * total:
        preview = "; ".join(rejects[:10])
        raise IngestError(
            f"{len(rejects)}/{total} rows malformed, above the allowed fraction "
            f"{max_reject_fraction}: {preview}"
        )
    if rejects:
        logger.warning("ingest rejected %d/%d rows; first: %s", len(rejects), total, rejects[0])
    return EventLog.from_columns(
        *columns, rejected_count=len(rejects), rejected_preview=tuple(rejects[:10])
    )


def dump_canonical(log: EventLog, destination) -> None:
    """Write the canonical tab-separated dump used for reproducible fixtures.

    Rows are in table order, (entity, timestamp, input order); re-ingesting
    the dump reproduces the log byte-for-byte.
    """
    own = isinstance(destination, (str, Path))
    stream = open(destination, "w", encoding="utf-8", newline="") if own else destination
    try:
        writer = csv.writer(stream, delimiter="\t", lineterminator="\n")
        writer.writerow(["entity", "item", "timestamp", "type"])
        types = ("",) + log.event_type_ids  # code -1 (untyped) reads index 0
        writer.writerows(
            zip(
                map(log.entity_ids.__getitem__, log.entity_codes.tolist()),
                map(log.item_ids.__getitem__, log.item_codes.tolist()),
                log.timestamps.tolist(),
                map(types.__getitem__, (log.type_codes + 1).tolist()),
            )
        )
    finally:
        if own:
            stream.close()


def canonical_dump_text(log: EventLog) -> str:
    """The canonical dump as a string (handy for determinism checks)."""
    buffer = io.StringIO()
    dump_canonical(log, buffer)
    return buffer.getvalue()


CANONICAL_MAPPING = ColumnMapping(entity="entity", item="item", time="timestamp", type="type")
