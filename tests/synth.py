"""Synthetic fixtures shared across test modules.

Builders here construct datasets and splits directly (bypassing ingest and
preprocessing) so tests can pin exact sequences, timestamps, and catalogs.
"""

import csv
import io
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from recaudit.diagnostics import probe_models, sequentiality_probe
from recaudit.errors import SplitError
from recaudit.evaluation import EvalConfig, SamplerSpec, evaluate
from recaudit.events import SECONDS_PER_DAY, ColumnMapping, EventLog, dump_canonical
from recaudit.models import build_model
from recaudit.preprocess import Dataset, SequenceTable
from recaudit.splitting import (
    STRATEGY_TIME, DatasetSplit, SideStats, SplitSpec, SplitStats, apply_split,
)

DAY = SECONDS_PER_DAY

# the columns of the canonical event dump, for re-ingesting it
CANONICAL_MAPPING = ColumnMapping(entity="entity", item="item", time="timestamp", type="type")


def day(d, offset=0):
    return d * DAY + offset


def make_index(n):
    """A sorted vocabulary of ``n`` item ids."""
    return tuple(f"i{k:03d}" for k in range(n))


class EventRecord(NamedTuple):
    """One row of an event log, for assertions."""

    entity_id: str
    item_id: str
    timestamp: int
    event_type: str | None = None


def event_log(rows):
    """EventLog of (entity, item, timestamp[, event type]) rows; ties keep row order."""
    records = [EventRecord(*row) for row in rows]
    return EventLog.from_columns(
        [r.entity_id for r in records],
        [r.item_id for r in records],
        [r.timestamp for r in records],
        [r.event_type for r in records],
    )


def log_of(*slots):
    """EventLog from (entity, timestamp) pairs; item ids are placeholders."""
    return event_log((entity, f"x{k}", ts) for k, (entity, ts) in enumerate(slots))


def events_of(log):
    """The log's rows as :class:`EventRecord` tuples, in table order."""
    types = (None,) + log.event_type_ids  # code -1 (untyped) reads index 0
    return [
        EventRecord(log.entity_ids[entity], log.item_ids[item], timestamp, types[kind + 1])
        for entity, item, timestamp, kind in zip(
            log.entity_codes.tolist(),
            log.item_codes.tolist(),
            log.timestamps.tolist(),
            log.type_codes.tolist(),
        )
    ]


def groups_of(log):
    """Per-entity lists of the log's rows as :class:`EventRecord` tuples, in time order."""
    groups = {}
    for event in events_of(log):
        groups.setdefault(event.entity_id, []).append(event)
    return groups


def sequence_table(rows, seq_ids=None, entities=None):
    """SequenceTable columns from (items, timestamps) rows, one sequence per row.

    Row ``k`` gets sequence id ``seq_ids[k]`` (default ``k``) and entity
    ``entities[k]`` (default ``"u<seq id>"``).
    """
    seq_ids = list(range(len(rows))) if seq_ids is None else list(seq_ids)
    entities = [f"u{sid}" for sid in seq_ids] if entities is None else list(entities)
    entity_ids = tuple(sorted(set(entities)))
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(items) for items, _ in rows], out=offsets[1:])

    def column(k):
        return np.concatenate(
            [np.asarray(row[k], dtype=np.int64) for row in rows] or [np.empty(0, np.int64)]
        )

    return SequenceTable(
        items=column(0),
        timestamps=column(1),
        offsets=offsets,
        seq_ids=np.asarray(seq_ids, dtype=np.int64),
        entity_codes=np.array([entity_ids.index(e) for e in entities], dtype=np.int64),
        entity_ids=entity_ids,
    )


@dataclass(frozen=True, eq=False)
class SeqRecord:
    """One sequence of a table, read-only, for assertions."""

    seq_id: int
    entity_id: str
    items: np.ndarray
    timestamps: np.ndarray

    def __len__(self):
        return len(self.items)

    @property
    def start_time(self):
        return int(self.timestamps[0])

    @property
    def end_time(self):
        return int(self.timestamps[-1])


def records(table):
    """The table's sequences as :class:`SeqRecord` objects over read-only views."""
    bounds = table.offsets.tolist()
    out = []
    for seq_id, entity, lo, hi in zip(
        table.seq_ids.tolist(), table.entity_codes.tolist(), bounds[:-1], bounds[1:]
    ):
        items, times = table.items[lo:hi], table.timestamps[lo:hi]
        items.flags.writeable = times.flags.writeable = False
        out.append(SeqRecord(seq_id, table.entity_ids[entity], items, times))
    return out


def build_dataset(index, rows, seq_id_base=0):
    """rows: list of (items, timestamps) parallel lists."""
    seq_ids = range(seq_id_base, seq_id_base + len(rows))
    return Dataset(sequence_table(rows, seq_ids), index)


def build_split(index, train_rows, test_rows, split_time=None):
    """Hand-assembled time split; stats are filled but not load-bearing."""
    train = build_dataset(index, train_rows)
    test = build_dataset(index, test_rows, seq_id_base=len(train_rows))
    if split_time is None:
        split_time = max(int(times[-1]) for _, times in train_rows)
    stats = SplitStats(
        train=SideStats(train.num_events, train.num_sequences, 1),
        test=SideStats(test.num_events, test.num_sequences, 1),
        unseen_item_events=0,
        unseen_items=0,
    )
    spec = SplitSpec(strategy="time", split_time=split_time)
    return DatasetSplit(
        train=train, test=test, spec=spec, stats=stats, split_time=split_time
    )


def chain_rows(num_chains, length, copies, start_time=0, shuffle_seed=None, step=7):
    """Rows walking disjoint item chains: chain c covers items [c*length, (c+1)*length).

    With ``shuffle_seed`` set, each copy's within-sequence order is permuted,
    which destroys the direction signal while keeping co-occurrence intact.
    """
    rng = np.random.default_rng(shuffle_seed) if shuffle_seed is not None else None
    rows = []
    t = start_time
    for _ in range(copies):
        for chain in range(num_chains):
            items = np.arange(chain * length, (chain + 1) * length)
            if rng is not None:
                items = rng.permutation(items)
            rows.append((items, t + np.arange(length) * step))
            t += length * step + step
    return rows


def write_events_csv(path, rows, header=("entity", "item", "timestamp")):
    """Write (entity, item, timestamp) triples as a comma-separated file."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


def browsing_rows(num_users=80, num_items=40, days=6, events_per_user=(4, 9), seed=7):
    """Per-user single-day sessions spread evenly across ``days`` days.

    Every day gets roughly num_users/days sessions, so a one-day time split
    always has a populated test side.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for user in range(num_users):
        day_index = user % days
        t = day_index * DAY + int(rng.integers(0, DAY // 2))
        for _ in range(int(rng.integers(*events_per_user))):
            rows.append((f"u{user:03d}", f"i{int(rng.integers(num_items)):03d}", t))
            t += int(rng.integers(60, 1800))
    return rows


def chain_split(num_chains, length, train_copies, test_copies, shuffle_seed=None):
    index = make_index(num_chains * length)
    train_rows = chain_rows(
        num_chains, length, train_copies, start_time=0, shuffle_seed=shuffle_seed
    )
    boundary = max(int(times[-1]) for _, times in train_rows) + 1
    test_rows = chain_rows(
        num_chains,
        length,
        test_copies,
        start_time=boundary + 1,
        shuffle_seed=None if shuffle_seed is None else shuffle_seed + 1,
    )
    return build_split(index, train_rows, test_rows, split_time=boundary)


def fit_and_probe(
    split,
    cutoffs=(1, 5, 10, 20),
    sequential_model="markov",
    tie_policy="optimistic",
    master_seed=0,
    verdict_cutoff=None,
    verdict_threshold=0.05,
):
    """Fit and fully evaluate the probe's two models on a split, then compare them."""
    cfg = EvalConfig(cutoffs=tuple(cutoffs), tie_policy=tie_policy, master_seed=master_seed)
    names = probe_models(sequential_model)
    grid = evaluate({name: build_model(name).fit(split.train) for name in names}, split, cfg)
    return sequentiality_probe(
        *(grid[name, "none"] for name in names),
        verdict_cutoff=verdict_cutoff,
        verdict_threshold=verdict_threshold,
    )


def evaluate_cell(
    model, split, cfg, sampler=SamplerSpec(), embeddings=None, workers=1, model_name=None
):
    """The report of one (model, sampler) cell, from a one-cell evaluation grid."""
    name = model_name or type(model).__name__
    grid = evaluate({name: model}, split, cfg, (sampler,), embeddings, workers)
    return grid[name, sampler]


def canonical_text(source):
    """The canonical dump of an EventLog or a Dataset, as a string."""
    buffer = io.StringIO()
    if isinstance(source, EventLog):
        dump_canonical(source, buffer)
    else:
        source.dump_canonical(buffer)
    return buffer.getvalue()


def verify(dataset, cfg=None):
    """Check a dataset's structural invariants; raises AssertionError on violation."""
    if len(dataset.item_support) > dataset.num_items:
        raise AssertionError("item code out of catalog range")
    if cfg is not None:
        if np.any(dataset.sequences.lengths < cfg.min_seq_len):
            raise AssertionError("sequence below minimum length survived")
        present = dataset.item_support > 0
        if np.any(dataset.item_support[present] < cfg.min_item_support):
            raise AssertionError("item below minimum support survived")


def toarray(counts):
    """A CountMatrix as a dense float64 array."""
    n = len(counts.indptr) - 1
    dense = np.zeros((n, n), dtype=np.float64)
    dense[np.repeat(np.arange(n), np.diff(counts.indptr)), counts.indices] = counts.data
    return dense


def dump_embeddings(matrix, item_ids, destination):
    """Write embeddings in the format ``load_embeddings`` reads, losslessly."""
    matrix.check_catalog(len(item_ids))
    with open(destination, "w", encoding="utf-8") as fh:
        for code, item_id in enumerate(item_ids):
            values = "\t".join(repr(float(v)) for v in matrix.vectors[code])
            fh.write(f"{item_id}\t{values}\n")


def make_validation(train, spec):
    """Carve a validation split out of train with the same strategy.

    A time spec must carry ``test_days`` so the boundary can be re-derived
    inside the training range; reusing the outer ``split_time`` verbatim would
    leave an empty validation test side by construction.
    """
    if spec.strategy == STRATEGY_TIME:
        if spec.test_days is None:
            raise SplitError(
                "validation from a time split needs test_days to re-derive the boundary"
            )
        return apply_split(train, replace(spec, split_time=None))
    return apply_split(train, spec)


def matched_loo_k(split, prefix_start=1):
    """Test-case count of a split under prefix enumeration.

    A sequence of length L yields one case per prefix length in
    [``prefix_start``, L-1]: the leave-one-out k that matches a time split's
    case count, so strategy comparisons are size-controlled.
    """
    return int(np.maximum(split.test.sequences.lengths - prefix_start, 0).sum())


def first_flip(crossing):
    """The first cutoff interval where a CrossingReport's ordering flips, or None."""
    return crossing.flips[0] if crossing.flips else None


def first_seen_day(transitions):
    """A TransitionSet as {(i, j): day the pair was first completed}."""
    left, right = np.divmod(transitions.keys, transitions.width)
    return dict(zip(zip(left.tolist(), right.tolist()), transitions.first_day.tolist()))
