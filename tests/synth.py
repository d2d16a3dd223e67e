"""Synthetic fixtures shared across test modules.

Builders here construct datasets and splits directly (bypassing ingest and
preprocessing) so tests can pin exact sequences, timestamps, and catalogs.
"""

import csv

import numpy as np

from recaudit.diagnostics import probe_models, sequentiality_probe
from recaudit.evaluation import EvalConfig, evaluate
from recaudit.events import SECONDS_PER_DAY, EventLog, ItemIndex, RawEvent
from recaudit.models import build_model
from recaudit.preprocess import Dataset, Sequence
from recaudit.splitting import DatasetSplit, SideStats, SplitSpec, SplitStats

DAY = SECONDS_PER_DAY


def day(d, offset=0):
    return d * DAY + offset


def make_index(n):
    return ItemIndex.from_items([f"i{k:03d}" for k in range(n)])


def log_of(*slots):
    """EventLog from (entity, timestamp) pairs; item ids are placeholders."""
    events = [RawEvent(entity, f"x{k}", ts) for k, (entity, ts) in enumerate(slots)]
    return EventLog.from_events(events)


def groups_of(log):
    """Per-entity lists of the log's events as RawEvent objects, in time order."""
    groups = {}
    for event in log.iter_events():
        groups.setdefault(event.entity_id, []).append(event)
    return groups


def build_dataset(index, rows, seq_id_base=0):
    """rows: list of (items, timestamps) parallel lists."""
    sequences = []
    for offset, (items, times) in enumerate(rows):
        sid = seq_id_base + offset
        sequences.append(
            Sequence(sid, f"u{sid}", np.asarray(items), np.asarray(times))
        )
    return Dataset.from_sequences(sequences, index)


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
    reports = [
        evaluate(build_model(name).fit(split.train), split, cfg, model_name=name)
        for name in probe_models(sequential_model)
    ]
    return sequentiality_probe(
        *reports, verdict_cutoff=verdict_cutoff, verdict_threshold=verdict_threshold
    )
