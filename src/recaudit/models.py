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

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import EmbeddingError, ModelError
from .events import ItemIndex
from .preprocess import Dataset


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


def _require_fitted(attr) -> None:
    if attr is None:
        raise ModelError("model is not fitted")


def _popularity_vector(train: Dataset) -> np.ndarray:
    if not train.sequences:
        raise ModelError("cannot fit on an empty training set")
    return train.item_support.astype(np.float64)


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
    ranking is always defined.
    """

    def __init__(self, smoothing: float = 0.0) -> None:
        if smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        self.smoothing = smoothing
        self.transitions_: sparse.csr_matrix | None = None
        self.fallback_: np.ndarray | None = None

    def fit(self, train: Dataset) -> "MarkovModel":
        self.fallback_ = _popularity_vector(train)
        n = len(train.item_index)
        sources: list[np.ndarray] = []
        targets: list[np.ndarray] = []
        for seq in train.sequences:
            if len(seq) > 1:
                sources.append(seq.items[:-1])
                targets.append(seq.items[1:])
        if sources:
            rows = np.concatenate(sources)
            cols = np.concatenate(targets)
            matrix = sparse.coo_matrix(
                (np.ones(len(rows), dtype=np.float64), (rows, cols)), shape=(n, n)
            )
        else:
            matrix = sparse.coo_matrix((n, n), dtype=np.float64)
        self.transitions_ = matrix.tocsr()
        self.transitions_.sum_duplicates()
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


def _flatten(train: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """All training items in sequence order (int32), and each sequence's CSR offsets."""
    return train.sequences.items.astype(np.int32), train.sequences.offsets


def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the given CSR rows' entries, row after row, and the row lengths."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ends = np.cumsum(lengths)
    positions = np.arange(ends[-1]) + np.repeat(starts - ends + lengths, lengths)
    return positions, lengths


class CooccurrenceModel(RecommenderModel):
    """Symmetric within-window co-occurrence counts, order ignored.

    ``window=None`` counts every pair in a sequence; ``window=w`` only pairs
    at distance <= w.  score(j) sums j's co-occurrence with each prefix item,
    so reversing every training sequence provably changes nothing.

    ``counts_`` is a canonical CSR matrix.  Without a window it is
    ``XᵀX − diag(colsum X)`` over the sequence × item occurrence-count matrix
    X; with one, it is built from one masked pass per distance d = 1..w over
    the flat item array.  Scoring gathers the prefix items' rows and sums them
    with one ``bincount``.  Every sum adds integer-valued counts, so the
    result is exact whatever the order of accumulation.
    """

    def __init__(self, window: int | None = None) -> None:
        if window is not None and window < 1:
            raise ValueError("window must be >= 1 (or None for whole-sequence)")
        self.window = window
        self.counts_: sparse.csr_matrix | None = None
        self.fallback_: np.ndarray | None = None

    def fit(self, train: Dataset) -> "CooccurrenceModel":
        self.fallback_ = _popularity_vector(train)
        n = len(train.item_index)
        items, offsets = _flatten(train)
        if self.window is None:
            occurrences = sparse.csr_matrix(
                (np.ones(len(items)), items, offsets), shape=(len(offsets) - 1, n)
            )
            gram = (occurrences.T @ occurrences).tocsr()
            # an item pairs with its other occurrences, never with itself
            matrix = gram - sparse.diags(np.bincount(items, minlength=n).astype(np.float64))
        else:
            lengths = np.diff(offsets)
            sequence_of = np.repeat(np.arange(len(lengths)), lengths)
            sources: list[np.ndarray] = []
            targets: list[np.ndarray] = []
            for d in range(1, min(self.window, int(lengths.max()) - 1) + 1):
                same = sequence_of[:-d] == sequence_of[d:]
                sources.append(items[:-d][same])
                targets.append(items[d:][same])
            if sources:
                rows, cols = np.concatenate(sources), np.concatenate(targets)
                upper = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
                matrix = (upper + upper.T).tocsr()
            else:
                matrix = sparse.csr_matrix((n, n), dtype=np.float64)
        matrix.sum_duplicates()
        self.counts_ = matrix
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
    """

    def __init__(self, k: int = 100, sample_size: int = 1000, decay: str = "linear") -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if sample_size < 1:
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
        self.catalog_size_: int = 0

    def fit(self, train: Dataset) -> "SessionKNNModel":
        self.fallback_ = _popularity_vector(train)
        n = len(train.item_index)
        self.catalog_size_ = n
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
        recency = self.recency_[candidates]
        if len(candidates) > self.sample_size:
            recent = np.argpartition(recency, self.sample_size - 1)[: self.sample_size]
            candidates, overlap, recency = candidates[recent], overlap[recent], recency[recent]
        similarity = overlap / np.sqrt(self.distinct_counts_[candidates] * len(distinct))
        best = np.lexsort((recency, -similarity))[: self.k]
        at, lengths = _row_positions(self.offsets_, candidates[best])
        votes = np.repeat(similarity[best], lengths) * self.weights_[at]
        # every vote is positive, so the scores are never all zero
        return np.bincount(self.items_[at], weights=votes, minlength=self.catalog_size_)


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
    """One d-dimensional vector per catalog item, with its origin recorded."""

    vectors: np.ndarray
    provenance: str  # "derived" | "loaded"

    def __post_init__(self) -> None:
        if self.vectors.ndim != 2:
            raise EmbeddingError("embedding matrix must be 2-d")
        if not np.isfinite(self.vectors).all():
            raise EmbeddingError("embedding matrix contains non-finite entries")

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

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
    n = len(train.item_index)
    if not 1 <= d <= n:
        raise EmbeddingError(f"embedding dimension must be in [1, {n}], got {d}")
    counts = CooccurrenceModel(window=None).fit(train).counts_
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((n, d))
    vectors = np.asarray(counts @ projection, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    np.divide(vectors, norms, out=vectors, where=norms > 0)
    return EmbeddingMatrix(vectors=vectors, provenance="derived")


def load_embeddings(source, item_index: ItemIndex) -> EmbeddingMatrix:
    """Parse tab-separated ``item_id<TAB>v1..vd`` rows covering the catalog.

    Rows for unknown items are ignored; a catalog item without a row is an
    error (the message lists the first few missing ids).
    """
    path = Path(source)
    seen: dict[int, np.ndarray] = {}
    dimension: int | None = None
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise EmbeddingError(f"cannot read embeddings {path}: {exc}") from None
    with fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) < 2:
                raise EmbeddingError(f"{path}:{line_no}: expected item_id and values")
            item_id = parts[0]
            if item_id not in item_index:
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
            seen[item_index.forward[item_id]] = values
    missing = [item for item in item_index.reverse if item_index.forward[item] not in seen]
    if missing:
        sample = ", ".join(missing[:5])
        raise EmbeddingError(
            f"{path} lacks embeddings for {len(missing)} catalog items (e.g. {sample})"
        )
    if dimension is None:
        raise EmbeddingError(f"{path} holds no usable embedding rows")
    vectors = np.zeros((len(item_index), dimension), dtype=np.float64)
    for code, values in seen.items():
        vectors[code] = values
    return EmbeddingMatrix(vectors=vectors, provenance="loaded")


def dump_embeddings(matrix: EmbeddingMatrix, item_index: ItemIndex, destination) -> None:
    """Write embeddings in the format ``load_embeddings`` reads, losslessly."""
    matrix.check_catalog(len(item_index))
    with open(destination, "w", encoding="utf-8") as fh:
        for code, item_id in enumerate(item_index.reverse):
            values = "\t".join(repr(float(v)) for v in matrix.vectors[code])
            fh.write(f"{item_id}\t{values}\n")


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
            self.rows_ = {i: matrix[i].astype(np.float64) for i in range(matrix.shape[0])}
        else:
            rows: dict[int, np.ndarray] = {}
            try:
                fh = open(path, "r", encoding="utf-8")
            except OSError as exc:
                raise ModelError(f"cannot read scores {path}: {exc}") from None
            with fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.rstrip("\n")
                    if not line:
                        continue
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
