"""Exact-equality oracles for the array implementations of the co-occurrence
and session-kNN models.

The reference functions below are the straightforward loop implementations
(Python sets, ``sorted`` and one ``np.add.at`` per neighbor).  The models must
reproduce their scores bit for bit and, for co-occurrence, the same canonical
CSR matrix.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from recaudit.events import ItemIndex
from recaudit.models import CooccurrenceModel, SessionKNNModel, derive_embeddings
from recaudit.preprocess import Dataset, Sequence


def reference_cooccurrence_counts(train, window):
    n = len(train.item_index)
    rows, cols = [], []
    for seq in train.sequences:
        items = seq.items.tolist()
        length = len(items)
        for p in range(length):
            limit = length if window is None else min(length, p + window + 1)
            for q in range(p + 1, limit):
                rows.append(items[p])
                cols.append(items[q])
    if rows:
        data = np.ones(len(rows), dtype=np.float64)
        upper = sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
        matrix = (upper + upper.T).tocsr()
    else:
        matrix = sparse.csr_matrix((n, n), dtype=np.float64)
    matrix.sum_duplicates()
    return matrix


def reference_cooccurrence_scores(train, counts, prefix):
    if len(prefix) == 0:
        return train.item_support.astype(np.float64)
    scores = np.zeros(counts.shape[0], dtype=np.float64)
    for code in prefix:
        code = int(code)
        start, end = counts.indptr[code], counts.indptr[code + 1]
        scores[counts.indices[start:end]] += counts.data[start:end]
    if not scores.any():
        return train.item_support.astype(np.float64)
    return scores


def reference_session_knn_scores(train, prefix, k, sample_size, decay):
    fallback = train.item_support.astype(np.float64)
    sessions = [seq.items for seq in train.sequences]
    session_sets = [set(seq.items.tolist()) for seq in train.sequences]
    order = sorted(
        range(len(train.sequences)),
        key=lambda i: (train.sequences[i].end_time, i),
        reverse=True,
    )
    rank_of = {sid: pos for pos, sid in enumerate(order)}
    recency = [rank_of[i] for i in range(len(train.sequences))]
    inverted = {}
    for sid, items in enumerate(session_sets):
        for code in items:
            inverted.setdefault(code, []).append(sid)

    prefix_set = set(int(c) for c in prefix)
    if not prefix_set:
        return fallback
    candidates = set()
    for code in prefix_set:
        candidates.update(inverted.get(code, ()))
    if not candidates:
        return fallback
    recent = sorted(candidates, key=lambda sid: recency[sid])[:sample_size]
    scored = []
    for sid in recent:
        session = session_sets[sid]
        overlap = len(session & prefix_set)
        similarity = overlap / math.sqrt(len(session) * len(prefix_set))
        scored.append((similarity, sid))
    scored.sort(key=lambda pair: (-pair[0], recency[pair[1]]))
    scores = np.zeros(len(train.item_index), dtype=np.float64)
    for similarity, sid in scored[:k]:
        items = sessions[sid]
        length = len(items)
        if decay == "linear":
            weights = (np.arange(length, dtype=np.float64) + 1.0) / length
        else:
            weights = np.ones(length, dtype=np.float64)
        np.add.at(scores, items, similarity * weights)
    if not scores.any():
        return fallback
    return scores


# Training items come from codes 0..5 of an 8-item catalog, so codes 6 and 7
# occur in no training session; prefixes may use all 8.
CATALOG = 8
INDEX = ItemIndex.from_items([f"i{c}" for c in range(CATALOG)])


def make_dataset(sessions):
    """``sessions`` holds (items, end_time) pairs; equal end times are allowed."""
    sequences = []
    for sid, (items, end_time) in enumerate(sessions):
        times = np.full(len(items), end_time)
        sequences.append(Sequence(sid, f"u{sid}", np.array(items), times))
    return Dataset.from_sequences(sequences, INDEX)


# short sessions over few items and few end times: repeated items (also
# non-consecutive ones) and equal end times are common
sessions_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 5), min_size=1, max_size=7),
        st.integers(0, 3),
    ),
    min_size=1,
    max_size=9,
)
prefixes_strategy = st.lists(
    st.lists(st.integers(0, CATALOG - 1), max_size=6), min_size=1, max_size=5
)


class TestCooccurrenceMatchesReference:
    @given(
        sessions=sessions_strategy,
        prefixes=prefixes_strategy,
        window=st.sampled_from([None, 1, 2, 5]),
    )
    @settings(max_examples=200, deadline=None)
    def test_counts_and_scores_are_identical(self, sessions, prefixes, window):
        train = make_dataset(sessions)
        model = CooccurrenceModel(window=window).fit(train)
        expected = reference_cooccurrence_counts(train, window)
        assert model.counts_.shape == expected.shape
        assert model.counts_.indptr.tolist() == expected.indptr.tolist()
        assert model.counts_.indices.tolist() == expected.indices.tolist()
        assert model.counts_.data.tolist() == expected.data.tolist()
        for prefix in prefixes:
            prefix = np.array(prefix, dtype=np.int64)
            assert model.score_all(prefix).tolist() == reference_cooccurrence_scores(
                train, expected, prefix
            ).tolist()

    def test_embeddings_follow_the_reference_counts(self):
        train = make_dataset([([0, 1, 2, 0], 1), ([2, 3], 2), ([1, 4, 5, 1, 3], 2)])
        counts = reference_cooccurrence_counts(train, None)
        projection = np.random.default_rng(3).standard_normal((CATALOG, 4))
        vectors = np.asarray(counts @ projection, dtype=np.float64)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        np.divide(vectors, norms, out=vectors, where=norms > 0)
        derived = derive_embeddings(train, d=4, seed=3)
        assert derived.vectors.tolist() == vectors.tolist()


class TestSessionKNNMatchesReference:
    @given(
        sessions=sessions_strategy,
        prefixes=prefixes_strategy,
        k=st.integers(1, 10),
        sample_size=st.integers(1, 10),
        decay=st.sampled_from(["linear", "none"]),
    )
    @settings(max_examples=300, deadline=None)
    def test_scores_are_identical(self, sessions, prefixes, k, sample_size, decay):
        train = make_dataset(sessions)
        model = SessionKNNModel(k=k, sample_size=sample_size, decay=decay).fit(train)
        for prefix in prefixes:
            prefix = np.array(prefix, dtype=np.int64)
            expected = reference_session_knn_scores(train, prefix, k, sample_size, decay)
            assert model.score_all(prefix).tolist() == expected.tolist()

    def test_equal_end_times_keep_the_later_session(self):
        # all sessions end together: the highest position counts as most recent
        train = make_dataset([([0, 1], 5), ([0, 2], 5), ([0, 3], 5)])
        model = SessionKNNModel(k=1, sample_size=1).fit(train)
        scores = model.score_all(np.array([0]))
        assert scores.tolist() == reference_session_knn_scores(
            train, np.array([0]), k=1, sample_size=1, decay="linear"
        ).tolist()
        assert scores[3] > 0 and scores[1] == scores[2] == 0

    def test_sample_below_candidates_and_k_above_sample(self):
        train = make_dataset(
            [([0, 1, 0, 2], 1), ([0, 3], 2), ([4, 0], 0), ([0, 5, 1], 3), ([2, 0], 3)]
        )
        prefix = np.array([0, 1, 6])
        model = SessionKNNModel(k=8, sample_size=3).fit(train)
        assert model.score_all(prefix).tolist() == reference_session_knn_scores(
            train, prefix, k=8, sample_size=3, decay="linear"
        ).tolist()

    def test_prefix_of_unseen_items_falls_back(self):
        train = make_dataset([([0, 1], 1), ([1, 2], 2)])
        model = SessionKNNModel().fit(train)
        for prefix in ([], [6], [7, 6, 7]):
            prefix = np.array(prefix, dtype=np.int64)
            assert model.score_all(prefix).tolist() == train.item_support.tolist()
