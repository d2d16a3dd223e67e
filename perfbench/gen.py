"""Seeded synthetic event logs for the benchmark workloads.

An event log is an ``entity,item,timestamp`` CSV.  Items follow a Zipf
popularity law, and every item has one planted successor that the next
event picks with probability ``FOLLOW``; otherwise the next item is a fresh
Zipf draw.  That gives an order-aware model something real to learn, which
uniformly random items would not: with them markov's optimistic recall@20
approaches 1.0 through score ties and the audit stops looking like one run
on real data.

Timestamps have second resolution: each entity's events are spread over
minutes-long gaps from a start day that cycles through the span.

The bytes written depend only on the spec and the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

DAY = 86400
# Unix time of 2023-01-01 00:00:00 UTC, so every log starts on a day boundary
EPOCH = 1672531200
# probability that the next item is the planted successor
FOLLOW = 0.5


@dataclass(frozen=True)
class LogSpec:
    """Shape of one synthetic event log."""

    entities: int
    events_per_entity: int
    items: int
    days: int
    zipf_exponent: float = 0.7


def _zipf_draws(rng: np.random.Generator, spec: LogSpec, size: int) -> np.ndarray:
    ranks = np.arange(1, spec.items + 1, dtype=np.float64)
    weights = ranks ** -spec.zipf_exponent
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return np.searchsorted(cdf, rng.random(size), side="right")


def _item_matrix(rng: np.random.Generator, spec: LogSpec) -> np.ndarray:
    """Item codes, one row per entity, walking planted successors or Zipf draws."""
    n, length = spec.entities, spec.events_per_entity
    successor = rng.permutation(spec.items)
    fresh = _zipf_draws(rng, spec, n * length).reshape(n, length)
    follows = rng.random((n, length)) < FOLLOW
    items = np.empty((n, length), dtype=np.int64)
    items[:, 0] = fresh[:, 0]
    for col in range(1, length):
        items[:, col] = np.where(follows[:, col], successor[items[:, col - 1]], fresh[:, col])
    return items


def _time_matrix(rng: np.random.Generator, spec: LogSpec) -> np.ndarray:
    """Timestamps, one row per entity; entity starts cycle through the days.

    Cycling rather than drawing start days keeps the number of entities per
    day, and so a time split's test size, the same for every seed.
    """
    n, length = spec.entities, spec.events_per_entity
    gaps = rng.integers(30, 1800, size=(n, length))
    gaps[:, 0] = 0
    offsets = np.cumsum(gaps, axis=1)
    start = (np.arange(n) % spec.days) * DAY + rng.integers(0, DAY // 2, size=n)
    return EPOCH + start[:, None] + offsets


def generate(spec: LogSpec, seed: int) -> bytes:
    """The CSV bytes of one log; rows are shuffled so ingest has to sort."""
    rng = np.random.default_rng(seed)
    items = _item_matrix(rng, spec)
    times = _time_matrix(rng, spec)
    entities = np.repeat(np.arange(spec.entities), spec.events_per_entity)
    order = rng.permutation(len(entities))
    rows = [
        f"u{e:06d},i{i:06d},{t}"
        for e, i, t in zip(
            entities[order].tolist(),
            items.ravel()[order].tolist(),
            times.ravel()[order].tolist(),
        )
    ]
    return ("entity,item,timestamp\n" + "\n".join(rows) + "\n").encode("ascii")


def write_log(spec: LogSpec, seed: int, path: str) -> dict:
    """Write the log and return its provenance: sha256 and row count."""
    data = generate(spec, seed)
    with open(path, "wb") as handle:
        handle.write(data)
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "rows": spec.entities * spec.events_per_entity,
        "bytes": len(data),
    }
