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

A dataset's ``item_ids`` are what the support filters leave of the log's;
:func:`write_tsv` writes every canonical dump, the log's and the datasets'.
"""

from __future__ import annotations

import csv
import gzip
import io
import logging
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .errors import IngestError

logger = logging.getLogger(__name__)

SECONDS_PER_DAY = 86400

RESOLUTION_DAYS = "days"
RESOLUTION_SECONDS = "seconds"

_MAX_TIMESTAMP = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ColumnMapping:
    """Names of the input columns holding each event field."""

    entity: str
    item: str
    time: str
    type: str | None = None


# a string column as first-seen codes: each distinct string's code, and the
# int64 code of every row (-1 for no value)
_Coded = tuple[dict[str, int], array]


def _code(values: Iterable[str | None]) -> _Coded:
    """Each value's code in first-seen order (None -> -1), and the codes given out."""
    seen: dict[str, int] = {}
    codes = array("q", [-1 if v is None else seen.setdefault(v, len(seen)) for v in values])
    return seen, codes


def _sorted_codes(column: _Coded) -> tuple[tuple[str, ...], np.ndarray]:
    """The column's sorted vocabulary and its codes renumbered into it (-1 stays -1)."""
    seen, codes = column
    vocabulary = sorted(seen)
    renumber = np.empty(len(vocabulary) + 1, dtype=np.int64)
    renumber[np.fromiter(map(seen.__getitem__, vocabulary), np.int64, len(vocabulary))] = (
        np.arange(len(vocabulary))
    )
    renumber[-1] = -1  # code -1 reads the last entry
    return tuple(vocabulary), renumber[np.asarray(codes, dtype=np.int64)]


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
    ) -> "EventLog":
        """Code string columns and stable-sort; equal timestamps keep input order."""
        types = None if event_types is None else _code(event_types)
        return cls._from_codes(_code(entities), _code(items), timestamps, types, 0, ())

    @classmethod
    def _from_codes(
        cls,
        entities: _Coded,
        items: _Coded,
        timestamps,
        event_types: _Coded | None,
        rejected_count: int,
        rejected_preview: tuple[str, ...],
    ) -> "EventLog":
        """The table of first-seen coded columns, stable-sorted."""
        entity_ids, entity_codes = _sorted_codes(entities)
        item_ids, item_codes = _sorted_codes(items)
        times = np.asarray(timestamps, dtype=np.int64)
        if event_types is None:
            type_ids, type_codes = (), np.full(len(times), -1, dtype=np.int64)
        else:
            type_ids, type_codes = _sorted_codes(event_types)
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


def _parse_timestamp(raw: str) -> int:
    raw = raw.strip()
    try:
        value = int(raw)
    except ValueError:
        pass
    else:
        # epoch seconds are an optional sign and ASCII digits; int() also
        # reads "1_000" and non-ASCII digits such as "١٢٣", which go on to
        # ISO-8601 and its reject
        if raw.isascii() and "_" not in raw:
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
            # newline="" as the csv module asks: a quoted CR stays in its field
            if path.suffix == ".gz":
                return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
            return open(path, "r", encoding="utf-8", newline="")
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


def _read_rows(stream: TextIO, schema: ColumnMapping, delimiter: str | None):
    """Parse the header and the rows into columns plus the reject messages."""
    first_line = stream.readline()
    if not first_line:
        raise IngestError("input is empty: a header row is required")
    sep = delimiter if delimiter is not None else ("\t" if "\t" in first_line else ",")
    header = next(csv.reader([first_line], delimiter=sep))
    positions = {name.strip(): i for i, name in enumerate(header)}
    mapped = (schema.entity, schema.item, schema.time) + ((schema.type,) if schema.type else ())
    for column in mapped:
        if column not in positions:
            raise IngestError(
                f"mapped column {column!r} not found in header {sorted(positions)}"
            )
    type_pos = positions[schema.type] if schema.type else None
    entity_pos = positions[schema.entity]
    item_pos = positions[schema.item]
    time_pos = positions[schema.time]

    # each string gets an int code the first time it is seen, so one str per
    # distinct id is kept, not one per row; _sorted_codes renumbers them
    entities: dict[str, int] = {}
    items: dict[str, int] = {}
    kinds: dict[str, int] = {}
    entity_codes, item_codes, timestamps, type_codes = (array("q") for _ in range(4))
    entity_code, item_code = entities.setdefault, items.setdefault
    add_entity, add_item, add_time = entity_codes.append, item_codes.append, timestamps.append
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
            add_entity(entity_code(entity, len(entities)))
            add_item(item_code(item, len(items)))
            add_time(timestamp)
            if type_pos is not None:
                kind = row[type_pos].strip() if type_pos < len(row) else ""
                type_codes.append(kinds.setdefault(kind, len(kinds)) if kind else -1)
    except csv.Error as exc:
        raise IngestError(f"cannot parse input near line {reader.line_num + 1}: {exc}") from None
    types = (kinds, type_codes) if type_pos is not None else None
    return ((entities, entity_codes), (items, item_codes), timestamps, types), rejects, total


def ingest_csv(
    source,
    schema: ColumnMapping,
    delimiter: str | None = None,
    max_reject_fraction: float = 0.01,
) -> EventLog:
    """Parse delimited text into an :class:`EventLog`.

    Rows are parsed straight into int64 columns of first-seen codes: one
    ``str`` is kept per distinct id, none per row.

    Args:
        source: File path (plain or ``.gz``), byte string, or open stream.
            A header row is required.
        schema: Column names for entity, item, time and (optionally) type.
        delimiter: Force ``","`` or ``"\\t"``; auto-detected from the header
            when omitted.
        max_reject_fraction: Hard-failure threshold on the fraction of
            malformed rows.  Rejections below it are counted, never silent.

    Raises:
        ValueError: ``max_reject_fraction`` is NaN or negative.
        IngestError: unreadable or undecodable source, text the CSV parser
            gives up on, missing mapped column, or too many malformed rows
            (the message lists the first ten offenders).
    """
    if not max_reject_fraction >= 0:  # NaN fails every comparison
        raise ValueError(f"max_reject_fraction must be non-negative, got {max_reject_fraction}")
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
    return EventLog._from_codes(*columns, len(rejects), tuple(rejects[:10]))


# rows per block a dump turns into Python objects, so its memory stays flat
DUMP_BLOCK_ROWS = 1 << 14


def _tsv_field(value: str) -> str:
    """``value`` as a tab-separated field: quoted, inner quotes doubled, if it
    holds a tab, a quote, a newline or a carriage return, as
    ``csv.writer(delimiter="\\t")`` quotes it under its default ``"\\r\\n"``
    line terminator."""
    if "\t" in value or '"' in value or "\n" in value or "\r" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def write_tsv(stream: TextIO, header: tuple[str, ...], columns: tuple) -> None:
    """Write a header and tab-separated rows, a block of rows at a time.

    A column is an int64 array of numbers, or a pair of an int64 array of
    codes and the vocabulary they index (code -1 writes an empty field).  Each
    vocabulary entry is quoted once, by :func:`_tsv_field`.
    """
    decoded = [
        (column, str) if isinstance(column, np.ndarray)
        else (column[0], (tuple(map(_tsv_field, column[1])) + ("",)).__getitem__)
        for column in columns
    ]
    stream.write("\t".join(header) + "\n")
    for lo in range(0, len(decoded[0][0]), DUMP_BLOCK_ROWS):
        fields = [map(decode, values[lo : lo + DUMP_BLOCK_ROWS].tolist())
                  for values, decode in decoded]
        stream.write("\n".join(map("\t".join, zip(*fields))) + "\n")


def dump_canonical(log: EventLog, stream: TextIO) -> None:
    """Write the canonical tab-separated dump used for reproducible fixtures.

    Rows are in table order, (entity, timestamp, input order); re-ingesting
    the dump reproduces the log byte-for-byte.  Rows are written a block at
    a time, never held as one string.
    """
    write_tsv(stream, ("entity", "item", "timestamp", "type"), (
        (log.entity_codes, log.entity_ids), (log.item_codes, log.item_ids),
        log.timestamps, (log.type_codes, log.event_type_ids),
    ))
