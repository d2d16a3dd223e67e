"""Baseline next-item recommenders sharing one full-catalog scoring contract.

Every model here answers the same question: given a prefix of dense item
codes, produce one finite score per catalog item.  That uniform contract is
what the evaluator ranks against, whether the scores come from a popularity
count, a first-order transition table, an order-agnostic co-occurrence sum, or
a session-similarity vote.  The lineup intentionally spans both memorization
styles probed by the diagnostics: the transition model cares about order, the
co-occurrence model provably does not.

Models trained elsewhere plug in through :class:`ExternalScoresModel`, which
replays precomputed per-case score rows instead of computing them.
"""

from __future__ import annotations

import operator
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import EmbeddingError, ModelError
from .preprocess import Dataset

if TYPE_CHECKING:
    from .evaluation import CaseTable


class RecommenderModel(ABC):
    """Contract every evaluated model satisfies.

    ``fit`` must be deterministic given its inputs, and fitted models must be
    safe to call from several evaluation workers at once.
    """

    @abstractmethod
    def fit(self, train: Dataset) -> "RecommenderModel":
        """Train on the given dataset and return self."""

    @abstractmethod
    def score_all(self, prefix: np.ndarray) -> np.ndarray:
        """Score every catalog item for the given prefix of dense item codes."""

    def score_case(self, case_index: int, prefix: np.ndarray) -> np.ndarray:
        """Scores for one enumerated test case; defaults to ``score_all``.

        Adapters replaying externally computed scores key on the case index.
        """
        return self.score_all(prefix)

    def score_cases(self, cases: "CaseTable", rows: np.ndarray) -> Iterator[np.ndarray]:
        """One score vector per case row of ``rows``, an ascending integer array.

        The evaluator pulls one such stream per model and block of cases.  A
        vector is read-only to the consumer and valid only until the next one
        is pulled, so a model may keep updating one array in place.  The
        default asks :meth:`score_case` for each row.
        """
        rows = np.asarray(rows, dtype=np.int64)
        bounds = zip(rows.tolist(), cases.starts[rows].tolist(), cases.stops[rows].tolist())
        for row, lo, hi in bounds:
            yield self.score_case(row, cases.items[lo:hi])


def _require_fitted(attr) -> None:
    if attr is None:
        raise ModelError("model is not fitted")


def _popularity_vector(train: Dataset) -> np.ndarray:
    if not train.sequences:
        raise ModelError("cannot fit on an empty training set")
    return train.item_support.astype(np.float64)


def _flatten(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """All training items in sequence order (int32), and each sequence's CSR offsets."""
    return train.sequences.items.astype(np.int32), train.sequences.offsets


def _pair_keys(
    items: np.ndarray, offsets: np.ndarray, n: int, reach: int, symmetric: bool
) -> np.ndarray:
    """``a * n + b`` for each item a followed within one sequence by b at distance 1..reach.

    With ``symmetric`` every pair also yields ``b * n + a``.  The keys fill one
    array allocated up front, int32 when every key fits: at most ``reach``
    (two ways: ``2 * reach``) keys an event.  At each distance only the left
    positions that still have a partner in their sequence are kept, so the
    work is the number of pairs, not ``reach`` times the number of events.
    """
    lengths = np.diff(offsets)
    spans = np.minimum(lengths - 1, reach)  # the distances each sequence holds
    pairs = int(np.sum(spans * lengths - spans * (spans + 1) // 2))
    dtype = np.int32 if n * n <= np.iinfo(np.int32).max else np.int64
    keys = np.empty(2 * pairs if symmetric else pairs, dtype=dtype)
    left = np.arange(len(items))
    ends = np.repeat(offsets[1:], lengths)
    at = 0
    for d in range(1, reach + 1):
        keep = left + d < ends
        left, ends = left[keep], ends[keep]
        sources, targets = items[left], items[left + d]
        for a, b in ((sources, targets), (targets, sources))[: 1 + symmetric]:
            block = keys[at : at + len(left)]
            np.multiply(a, n, out=block, dtype=dtype)
            block += b
            at += len(left)
    return keys


def _runs(keys: np.ndarray, dtype=np.float64) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the sorted ``keys`` and how often each occurs.

    The counts are of ``dtype``, which must hold ``len(keys)``.
    """
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    # run lengths, written straight into the counts
    counts = np.empty(len(starts), dtype=dtype)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1], casting="unsafe")
    counts[-1:] = len(keys) - starts[-1:]
    del starts
    return keys[first], counts


def _index_dtype(n: int) -> type:
    """The narrowest column index type of an n-column matrix: uint16 up to 2¹⁶ columns."""
    return np.uint16 if n <= 1 << 16 else np.int32


def _count_dtype(bound: int) -> type:
    """The narrowest type of counts no larger than ``bound``: uint32 below 2³²."""
    return np.uint32 if bound < 1 << 32 else np.float64


@dataclass(frozen=True)
class CountMatrix:
    """Square matrix of pair counts in canonical CSR form.

    Row r holds the columns ``indices[indptr[r]:indptr[r + 1]]``, ascending
    and distinct, with their counts in ``data``; no stored count is zero.

    Each array is as narrow as its values allow, which the build knows
    before it counts: ``indices`` are uint16 when the matrix has at most
    2¹⁶ columns and int32 otherwise, and ``data`` is uint32 when a bound on
    every count is below 2³² and float64 otherwise.  A fit over a catalog
    of at most 65,536 items thus stores 6 bytes a count, not 12.  Readers
    do their arithmetic in float64: every integer below 2³² converts to
    float64 exactly, so the scores are those of float64 counts.
    """

    indptr: np.ndarray  # int64, one more than the rows
    indices: np.ndarray  # uint16 or int32, see _index_dtype
    data: np.ndarray  # uint32 or float64, see _count_dtype

    @classmethod
    def from_keys(cls, keys: np.ndarray, n: int) -> "CountMatrix":
        """Count each ``row * n + col`` key of an n × n matrix; sorts ``keys`` in place.

        No count exceeds the number of keys, which bounds the count type.
        Each temporary is dropped once used: the build's temporaries, not the
        result, set a model fit's peak memory.
        """
        keys.sort()
        distinct, data = _runs(keys, _count_dtype(len(keys)))
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[:-1] = np.searchsorted(distinct, np.arange(n, dtype=keys.dtype) * n)
        indptr[-1] = len(distinct)
        distinct %= n
        return cls(indptr, distinct.astype(_index_dtype(n), copy=False), data)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.indptr) - 1,) * 2


class PopularityModel(RecommenderModel):
    """Scores every item by its training support, prefix ignored."""

    def __init__(self) -> None:
        self.scores_: np.ndarray | None = None

    def fit(self, train: Dataset) -> "PopularityModel":
        self.scores_ = _popularity_vector(train)
        return self

    def score_all(self, prefix: np.ndarray) -> np.ndarray:
        _require_fitted(self.scores_)
        return self.scores_.copy()


class MarkovModel(RecommenderModel):
    """First-order transition counts with additive smoothing.

    score(j) = count(last prefix item -> j) + smoothing.  A last item with no
    outgoing observations (or an empty prefix) falls back to popularity so the
    ranking is always defined.  ``transitions_`` is a :class:`CountMatrix` of
    the adjacent pairs.
    """

    def __init__(self, smoothing: float = 0.0) -> None:
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.smoothing = smoothing
        self.transitions_: CountMatrix | None = None
        self.fallback_: np.ndarray | None = None

    def fit(self, train: Dataset) -> "MarkovModel":
        self.fallback_ = _popularity_vector(train)
        n = train.num_items
        items, offsets = _flatten(train)
        self.transitions_ = CountMatrix.from_keys(
            _pair_keys(items, offsets, n, reach=1, symmetric=False), n
        )
        return self

    def score_all(self, prefix: np.ndarray) -> np.ndarray:
        _require_fitted(self.transitions_)
        if len(prefix) == 0:
            return self.fallback_.copy()
        last = int(prefix[-1])
        matrix = self.transitions_
        start, end = matrix.indptr[last], matrix.indptr[last + 1]
        if start == end:
            return self.fallback_.copy()
        scores = np.full(matrix.shape[0], self.smoothing, dtype=np.float64)
        scores[matrix.indices[start:end]] += matrix.data[start:end]
        return scores


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the given CSR rows' entries, row after row, and the row lengths."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    positions = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    return positions, lengths


# pairs the whole-sequence co-occurrence build makes at once; its temporaries
# take about 30 bytes a pair (a dense block up to 64), so about 1-2 MB
_PAIR_BUDGET = 1 << 15


def _whole_sequence_counts(
    items: np.ndarray, offsets: np.ndarray, n: int, budget: int = _PAIR_BUDGET
) -> CountMatrix:
    """Co-occurrence counts of every two positions of a sequence.

    Entry (a, b) sums c_a · c_b over the sequences and the diagonal sums
    c_a · (c_a − 1), c_a being a's occurrences in the sequence: the counts
    of ``XᵀX − diag(colsum X)`` for the sequence × item occurrence matrix X.
    Pairs are made between a sequence's distinct items, so the work grows
    with the sum over sequences of U², U a sequence's distinct items, and
    not with L², L its length: one entity with 20,000 events over a
    3,000-item catalog makes at most 9M pairs, not 4 × 10⁸.

    The rows are built in blocks of consecutive items, each making at most
    ``budget`` pairs unless it is a single item's row that makes more.  A
    block with at least a quarter as many pairs as cells counts them into
    one dense array of its cells, ``budget`` pairs at a time (one
    sequence's pairs at a time where those alone are more); a sparser one
    makes its pairs in one call and sorts their keys.  So a single row of
    more than ``budget`` pairs is taken in parts only while it makes at
    least n / 4 pairs, which always holds while the catalog has at most
    4 × ``budget`` items; a sparser row, of fewer than n / 4 pairs, is made
    whole.  The blocks fill the result in row order, so the memory is the
    result plus a fixed amount, whatever the sequence lengths.

    A sequence of length L adds at most L² to any count (c_a · c_b and
    c_a · (c_a − 1) are both at most L²), so the sum of L² over the
    sequences bounds every count and picks the count type up front; the
    blocks write into the result's own narrow arrays.
    """
    count = len(offsets) - 1
    lengths = np.diff(offsets)
    bound = int(np.square(lengths, dtype=np.int64).sum())
    # each sequence's distinct items, ascending, and their occurrences
    keys = np.repeat(np.arange(count, dtype=np.int64) * n, lengths)
    keys += items
    keys.sort()
    keys, occurrences = _runs(keys)
    sequence, item = np.divmod(keys, n)
    del keys
    item = item.astype(np.int32)
    sequence_ptr = np.searchsorted(sequence, np.arange(count + 1))
    # the same (sequence, item) entries item by item, and the pairs made
    # before each entry and before each row; sorting item * entries + entry
    # is a stable argsort of item, several times faster than numpy's
    total = len(item)
    by_item = np.sort(item.astype(np.int64) * total + np.arange(total)) % total
    row_ptr = np.searchsorted(item[by_item], np.arange(n + 1))
    made = np.zeros(len(by_item) + 1, dtype=np.int64)
    np.cumsum(np.diff(sequence_ptr)[sequence[by_item]], out=made[1:])
    row_made = made[row_ptr]

    def pairs(lo: int, hi: int, first_row: int) -> tuple[np.ndarray, np.ndarray]:
        """Block keys ``(row - first_row) * n + col`` and weights of entries lo..hi's pairs."""
        entries = by_item[lo:hi]
        partners, widths = _row_positions(sequence_ptr, sequence[entries])
        keys = np.repeat(((item[entries] - first_row) * n).astype(np.int32), widths)
        keys += item[partners]
        weights = np.repeat(occurrences[entries], widths)
        weights *= occurrences[partners]
        # an occurrence never pairs with itself
        own = np.cumsum(widths) - widths + (entries - sequence_ptr[sequence[entries]])
        weights[own] -= occurrences[entries]
        return keys, weights

    # a row holds at most n entries; pages past the last one written are
    # never touched, and resize gives them back
    capacity = int(np.minimum(np.diff(row_made), n).sum())
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(capacity, dtype=_index_dtype(n))
    data = np.empty(capacity, dtype=_count_dtype(bound))
    span = np.iinfo(np.int32).max // n  # rows whose block keys fit int32
    filled = r0 = 0
    while r0 < n:
        r1 = int(np.searchsorted(row_made, row_made[r0] + budget, side="right")) - 1
        r1 = min(max(r1, r0 + 1), r0 + span, n)
        lo, hi = row_ptr[r0], row_ptr[r1]
        cells = (r1 - r0) * n
        if lo == hi:  # items absent from training
            keys, counts = np.empty(0, dtype=np.int64), np.empty(0)
        elif cells <= 4 * (made[hi] - made[lo]):
            sums = np.zeros(cells)
            while lo < hi:
                mid = int(np.searchsorted(made, made[lo] + budget, side="right")) - 1
                mid = min(max(mid, lo + 1), hi)
                sums += np.bincount(*pairs(lo, mid, r0), minlength=cells)
                lo = mid
            keys = np.flatnonzero(sums)
            counts = sums[keys]
        else:
            keys, weights = pairs(lo, hi, r0)
            single = keys[weights > 0]
            single.sort()
            distinct, counts = _runs(single)
            del single
            # each key counted once so far; add what its pairs weigh beyond that
            heavy = np.flatnonzero(weights > 1)
            at = np.searchsorted(distinct, keys[heavy])
            counts += np.bincount(at, weights[heavy] - 1, minlength=len(counts))
            keys = distinct
        indptr[r0 + 1 : r1 + 1] = filled + np.searchsorted(keys, np.arange(1, r1 - r0 + 1) * n)
        indices[filled : filled + len(keys)] = keys % n
        data[filled : filled + len(keys)] = counts
        filled += len(keys)
        r0 = r1
    indices.resize(filled, refcheck=False)
    data.resize(filled, refcheck=False)
    return CountMatrix(indptr, indices, data)


class CooccurrenceModel(RecommenderModel):
    """Symmetric within-window co-occurrence counts, order ignored.

    ``window=None`` counts every pair in a sequence; ``window=w`` only pairs
    at distance <= w.  score(j) sums j's co-occurrence with each prefix item,
    so reversing every training sequence provably changes nothing.

    ``counts_`` is a :class:`CountMatrix`.  Without a window it is built by
    :func:`_whole_sequence_counts`, over each sequence's distinct items; with
    one, from the keys of every pair at distance 1..w in both directions.
    Scoring gathers the prefix items' rows and sums them with one
    ``bincount``.

    :meth:`score_cases` walks nested prefixes.  Under time and random splits
    the cases of a test sequence share a ``start`` and each ``stop`` is one
    larger (or more, past a skipped case), so a case's scores are the
    previous case's plus the rows of the items in between.  A chain starts
    with :meth:`score_all` at a block's first row and at every case that
    does not extend the previous prefix (a new sequence, or any
    leave-one-out case); each later row adds the new items' rows into the
    chain's one accumulator, which is yielded read-only.  While nothing has
    been added the popularity fallback is yielded instead, as
    :meth:`score_all` would return it.

    The counts are stored as narrowly as they are known to fit: column
    indices as uint16 for a catalog of at most 65,536 items (int32 above),
    counts as uint32 when a bound on every count is below 2³² (float64
    otherwise).  The whole-sequence bound is the sum of L² over the training
    sequences, as no sequence of length L adds more than L² to one count;
    a window's bound is its number of pair keys.  Scoring sums them in
    float64, and every integer below 2³² is exact there, so the scores are
    those of float64 counts.

    Every stored count is a positive integer, and the counts of any log
    that fits in memory total far less than 2⁵³, so every partial sum is
    exact: adding rows one at a time gives the bytes one ``bincount`` over
    all of them gives.
    """

    def __init__(self, window: int | None = None) -> None:
        # operator.index refuses a fractional window before a fit trips on it
        if window is not None and operator.index(window) < 1:
            raise ValueError("window must be >= 1 (or None for whole-sequence)")
        self.window = window
        self.counts_: CountMatrix | None = None
        self.fallback_: np.ndarray | None = None

    def fit(self, train: Dataset) -> "CooccurrenceModel":
        self.fallback_ = _popularity_vector(train)
        n = train.num_items
        items, offsets = _flatten(train)
        if self.window is None:
            self.counts_ = _whole_sequence_counts(items, offsets, n)
            return self
        reach = min(self.window, int(np.diff(offsets).max()) - 1)
        self.counts_ = CountMatrix.from_keys(
            _pair_keys(items, offsets, n, reach, symmetric=True), n
        )
        return self

    def score_all(self, prefix: np.ndarray) -> np.ndarray:
        _require_fitted(self.counts_)
        if len(prefix) == 0:
            return self.fallback_.copy()
        counts = self.counts_
        # a prefix holds few items: slicing each row gathers faster than the
        # computed positions of _row_positions
        rows = [slice(counts.indptr[code], counts.indptr[code + 1]) for code in prefix.tolist()]
        scores = np.bincount(
            np.concatenate([counts.indices[row] for row in rows]),
            weights=np.concatenate([counts.data[row] for row in rows]),
            minlength=counts.shape[0],
        )
        if not scores.any():
            return self.fallback_.copy()
        return scores

    def score_cases(self, cases: "CaseTable", rows: np.ndarray) -> Iterator[np.ndarray]:
        _require_fitted(self.counts_)
        indptr, indices, data = self.counts_.indptr, self.counts_.indices, self.counts_.data
        items = cases.items
        rows = np.asarray(rows, dtype=np.int64)
        fallback = self.fallback_.view()
        fallback.flags.writeable = False
        start = stop = -1
        for lo, hi in zip(cases.starts[rows].tolist(), cases.stops[rows].tolist()):
            if lo != start or hi < stop:
                prefix = items[lo:hi]
                sums = self.score_all(prefix)
                # stored counts are positive: score_all fell back exactly when
                # every row is empty, and then the chain's sums start at zero
                live = bool(np.any(indptr[prefix + 1] > indptr[prefix]))
                if not live:
                    sums = np.zeros(len(indptr) - 1)
                view = sums.view()
                view.flags.writeable = False
            else:
                for code in items[stop:hi].tolist():
                    a, b = indptr[code], indptr[code + 1]
                    # a row's columns are distinct, so one fancy add is exact
                    sums[indices[a:b]] += data[a:b]
                    live = live or a < b
            start, stop = lo, hi
            yield view if live else fallback


class SessionKNNModel(RecommenderModel):
    """Vote of the most similar training sessions.

    Similarity is cosine over binary item incidence: |A ∩ P| / sqrt(|A||P|).
    Candidates must share at least one item with the prefix; of those, only
    the ``sample_size`` most recently ended sessions are compared, and the top
    ``k`` vote.  Each neighbor adds similarity x position weight for every item
    it contains, where ``decay="linear"`` weights position p of L as (p+1)/L
    (later events count more) and ``decay="none"`` weights all items equally.

    ``fit`` builds flat arrays: an item → session CSR incidence with one entry
    per distinct (item, session) pair, each session's distinct-item count, a
    recency rank (0 = latest end time; equal end times rank the later
    session first), and each session's items and position weights in CSR
    form.  ``score_all`` finds candidates and overlaps by counting the
    sessions gathered from the prefix items' incidence rows, keeps the
    ``sample_size`` lowest recency ranks, orders by (similarity descending,
    recency rank) and casts the vote with one ``bincount`` over the
    neighbors' items in neighbor order.  That multiplies the same floats and
    accumulates them in the same order as adding one neighbor at a time, so
    the scores are bit-identical to that loop.

    :meth:`score_cases` walks nested prefixes as cooccurrence's does.  A
    chain starts with :meth:`score_all`; only when a later row extends the
    prefix does the chain count its prefix into one dense per-session
    overlap array and list the sessions hit.  Each new distinct item then
    adds its incidence row, its newly hit sessions join the candidates, and
    the same vote as :meth:`score_all`'s runs on them.  A row that adds no
    new distinct item yields the previous vector again.
    """

    def __init__(self, k: int = 100, sample_size: int = 1000, decay: str = "linear") -> None:
        if operator.index(k) < 1:
            raise ValueError("k must be >= 1")
        if operator.index(sample_size) < 1:
            raise ValueError("sample_size must be >= 1")
        if decay not in ("linear", "none"):
            raise ValueError("decay must be 'linear' or 'none'")
        self.k = k
        self.sample_size = sample_size
        self.decay = decay
        self.items_: np.ndarray | None = None
        self.offsets_: np.ndarray | None = None
        self.weights_: np.ndarray | None = None
        self.recency_: np.ndarray | None = None
        self.distinct_counts_: np.ndarray | None = None
        self.incidence_indptr_: np.ndarray | None = None
        self.incidence_sessions_: np.ndarray | None = None
        self.fallback_: np.ndarray | None = None

    def fit(self, train: Dataset) -> "SessionKNNModel":
        self.fallback_ = _popularity_vector(train)
        n = train.num_items
        items, offsets = _flatten(train)
        lengths = np.diff(offsets)
        count = len(lengths)
        # built in place and from int32 arrays: the temporaries set peak memory
        if self.decay == "linear":
            weights = np.arange(len(items), dtype=np.float64)
            weights -= np.repeat(offsets[:-1], lengths)
            weights += 1.0
            weights /= np.repeat(lengths.astype(np.int32), lengths)
        else:
            weights = np.ones(len(items), dtype=np.float64)
        end_times = train.sequences.timestamps[offsets[1:] - 1]
        order = np.lexsort((np.arange(count), end_times))[::-1]
        self.recency_ = np.empty(count, dtype=np.int64)
        self.recency_[order] = np.arange(count)
        # sessions grouped by item, ascending within each item (a stable sort
        # of the flat items); a repeat of an item within a session is dropped
        by_item = np.argsort(items, kind="stable")
        sorted_items = items[by_item]
        sessions = np.repeat(np.arange(count, dtype=np.int32), lengths)[by_item]
        del by_item
        first = np.ones(len(items), dtype=bool)
        first[1:] = (sorted_items[1:] != sorted_items[:-1]) | (sessions[1:] != sessions[:-1])
        self.incidence_sessions_ = sessions[first]
        self.incidence_indptr_ = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sorted_items[first], minlength=n), out=self.incidence_indptr_[1:])
        self.distinct_counts_ = np.bincount(self.incidence_sessions_, minlength=count)
        self.items_ = items
        self.offsets_ = offsets
        self.weights_ = weights
        return self

    def score_all(self, prefix: np.ndarray) -> np.ndarray:
        _require_fitted(self.items_)
        if len(prefix) == 0:
            return self.fallback_.copy()
        distinct = np.unique(prefix)
        indptr, incidence = self.incidence_indptr_, self.incidence_sessions_
        sessions = np.concatenate(
            [incidence[indptr[code] : indptr[code + 1]] for code in distinct.tolist()]
        )
        if len(sessions) == 0:
            return self.fallback_.copy()
        candidates, overlap = np.unique(sessions, return_counts=True)
        return self._vote(candidates, overlap, len(distinct))

    def _vote(self, candidates: np.ndarray, overlap: np.ndarray, distinct: int) -> np.ndarray:
        """Scores from the sessions sharing an item with a prefix of ``distinct`` distinct items.

        ``overlap`` holds each candidate's shared items.  The candidates may
        come in any order: recency ranks are distinct, so the sample and the
        neighbor order depend only on the set.
        """
        recency = self.recency_[candidates]
        if len(candidates) > self.sample_size:
            recent = np.argpartition(recency, self.sample_size - 1)[: self.sample_size]
            candidates, overlap, recency = candidates[recent], overlap[recent], recency[recent]
        similarity = overlap / np.sqrt(self.distinct_counts_[candidates] * distinct)
        best = np.lexsort((recency, -similarity))[: self.k]
        at, lengths = _row_positions(self.offsets_, candidates[best])
        votes = np.repeat(similarity[best], lengths) * self.weights_[at]
        # every vote is positive, so the scores are never all zero
        return np.bincount(self.items_[at], weights=votes, minlength=len(self.fallback_))

    def score_cases(self, cases: "CaseTable", rows: np.ndarray) -> Iterator[np.ndarray]:
        _require_fitted(self.items_)
        indptr, incidence = self.incidence_indptr_, self.incidence_sessions_
        items = cases.items
        rows = np.asarray(rows, dtype=np.int64)
        fallback = self.fallback_.view()
        fallback.flags.writeable = False
        overlap = np.zeros(len(self.recency_), dtype=np.int32)
        candidates = np.empty(0, dtype=incidence.dtype)
        seen: set[int] | None = None  # the chain's distinct items, once it has state
        start = stop = -1
        for lo, hi in zip(cases.starts[rows].tolist(), cases.stops[rows].tolist()):
            if lo != start or hi < stop:
                scores = self.score_all(items[lo:hi])
                scores.flags.writeable = False
                seen = None
            else:
                if seen is None:  # the chain's first extension: count its whole prefix
                    overlap[candidates] = 0
                    candidates = candidates[:0]
                    seen = set()
                    fresh = items[lo:hi]
                else:
                    fresh = items[stop:hi]
                added = [code for code in dict.fromkeys(fresh.tolist()) if code not in seen]
                # a prefix's scores depend on its distinct items only
                if added:
                    seen.update(added)
                    joined = [candidates]
                    for code in added:
                        row = incidence[indptr[code] : indptr[code + 1]]
                        joined.append(row[overlap[row] == 0])
                        # a row's sessions are distinct, so one fancy add is exact
                        overlap[row] += 1
                    candidates = np.concatenate(joined)
                    if len(candidates):
                        scores = self._vote(candidates, overlap[candidates], len(seen))
                        scores.flags.writeable = False
                    else:
                        scores = fallback
            start, stop = lo, hi
            yield scores


MODEL_BUILDERS = {
    "popularity": PopularityModel,
    "markov": MarkovModel,
    "cooccurrence": CooccurrenceModel,
    "session_knn": SessionKNNModel,
}


def build_model(name: str, **hyperparams) -> RecommenderModel:
    """Instantiate a registered model by name with hyperparameters."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ModelError(
            f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(**hyperparams)


@dataclass(frozen=True)
class EmbeddingMatrix:
    """One d-dimensional vector per catalog item."""

    vectors: np.ndarray

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise EmbeddingError("embedding matrix must be 2-d")
        if not np.isfinite(self.vectors).all():
            raise EmbeddingError("embedding matrix contains non-finite entries")

    def check_catalog(self, catalog_size: int) -> None:
        if self.vectors.shape[0] != catalog_size:
            raise EmbeddingError(
                f"embedding rows ({self.vectors.shape[0]}) do not match "
                f"catalog size ({catalog_size})"
            )


def derive_embeddings(train: Dataset, d: int, seed: int) -> EmbeddingMatrix:
    """Compress co-occurrence rows into d dimensions by seeded random projection.

    Items with identical co-occurrence rows get identical embeddings; rows
    with no co-occurrence signal stay at the origin.  Rows are L2-normalized.
    """
    n = train.num_items
    if not 1 <= d <= n:
        raise EmbeddingError(f"embedding dimension must be in [1, {n}], got {d}")
    counts = CooccurrenceModel(window=None).fit(train).counts_
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((n, d))
    # counts @ projection, each row's products added in entry order as a CSR
    # matrix-vector product adds them.  With the rows longest first, those
    # holding a k-th entry are a prefix, and pass k adds to that slice.
    lengths = np.diff(counts.indptr)
    order = np.argsort(-lengths, kind="stable")
    starts = counts.indptr[:-1][order]
    holding = np.cumsum(np.bincount(lengths)[::-1])[::-1]  # rows with >= L entries
    by_length = np.zeros((n, d), dtype=np.float64)
    for k in range(len(holding) - 1):
        at = starts[: holding[k + 1]] + k
        by_length[: len(at)] += counts.data[at, None] * projection[counts.indices[at]]
    vectors = np.empty_like(by_length)
    vectors[order] = by_length
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    np.divide(vectors, norms, out=vectors, where=norms > 0)
    return EmbeddingMatrix(vectors=vectors)


def _text_lines(path: Path, error: type[Exception], what: str):
    """(line number, line) for each non-blank line of a UTF-8 text file.

    A file that cannot be opened, read or decoded raises ``error``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if line:
                    yield line_no, line
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from None


def load_embeddings(source, item_ids: tuple[str, ...]) -> EmbeddingMatrix:
    """Parse tab-separated ``item_id<TAB>v1..vd`` rows covering the catalog ``item_ids``.

    Rows for unknown items are ignored; a catalog item without a row is an
    error (the message lists the first few missing ids).
    """
    path = Path(source)
    codes = {item_id: code for code, item_id in enumerate(item_ids)}
    seen: dict[int, np.ndarray] = {}
    dimension: int | None = None
    for line_no, line in _text_lines(path, EmbeddingError, "embeddings"):
        parts = line.split("\t")
        if len(parts) < 2:
            raise EmbeddingError(f"{path}:{line_no}: expected item_id and values")
        code = codes.get(parts[0])
        if code is None:
            continue
        try:
            values = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingError(f"{path}:{line_no}: {exc}") from None
        if dimension is None:
            dimension = len(values)
        elif len(values) != dimension:
            raise EmbeddingError(
                f"{path}:{line_no}: dimension {len(values)} != {dimension}"
            )
        seen[code] = values
    missing = [item for code, item in enumerate(item_ids) if code not in seen]
    if missing:
        sample = ", ".join(missing[:5])
        raise EmbeddingError(
            f"{path} lacks embeddings for {len(missing)} catalog items (e.g. {sample})"
        )
    if dimension is None:
        raise EmbeddingError(f"{path} holds no usable embedding rows")
    vectors = np.zeros((len(item_ids), dimension), dtype=np.float64)
    for code, values in seen.items():
        vectors[code] = values
    return EmbeddingMatrix(vectors=vectors)


class ExternalScoresModel(RecommenderModel):
    """Replays precomputed score rows keyed by test-case index.

    The score source is a ``.npy`` matrix (cases x catalog) or tab-separated
    rows ``case_index<TAB>v1..v|catalog|``.  ``fit`` is a no-op; asking for a
    prefix-based score is refused because rows are bound to cases, not
    prefixes.
    """

    def __init__(self, source, catalog_size: int) -> None:
        path = Path(source)
        if path.suffix == ".npy":
            try:
                matrix = np.load(path)
            except OSError as exc:
                raise ModelError(f"cannot read scores {path}: {exc}") from None
            except (ValueError, EOFError) as exc:
                raise ModelError(f"{path}: {exc}") from None
            if matrix.ndim != 2 or matrix.shape[1] != catalog_size:
                raise ModelError(
                    f"{path}: expected a 2-d matrix with {catalog_size} columns"
                )
            if matrix.dtype.kind not in "biuf":
                raise ModelError(f"{path}: expected real-valued scores, got {matrix.dtype}")
            self.rows_ = {i: matrix[i].astype(np.float64) for i in range(matrix.shape[0])}
        else:
            rows: dict[int, np.ndarray] = {}
            for line_no, line in _text_lines(path, ModelError, "scores"):
                parts = line.split("\t")
                try:
                    case_index = int(parts[0])
                    values = np.array([float(v) for v in parts[1:]], dtype=np.float64)
                except ValueError as exc:
                    raise ModelError(f"{path}:{line_no}: {exc}") from None
                if len(values) != catalog_size:
                    raise ModelError(
                        f"{path}:{line_no}: {len(values)} scores for a "
                        f"{catalog_size}-item catalog"
                    )
                rows[case_index] = values
            self.rows_ = rows
        for row in self.rows_.values():
            if not np.isfinite(row).all():
                raise ModelError("external scores contain non-finite values")

    def fit(self, train: Dataset) -> "ExternalScoresModel":
        return self

    def score_all(self, prefix: np.ndarray) -> np.ndarray:
        raise ModelError("external scores are bound to case indices, not prefixes")

    def score_case(self, case_index: int, prefix: np.ndarray) -> np.ndarray:
        try:
            return self.rows_[case_index]
        except KeyError:
            raise ModelError(f"no external scores for case {case_index}") from None
