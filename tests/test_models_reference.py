"""Exact-equality oracles for the array implementations of the markov,
co-occurrence and session-kNN models and of derived embeddings.

The reference functions below are the straightforward loop implementations
(Python sets, ``sorted`` and one ``np.add.at`` per neighbor), with count
matrices built by scipy.sparse, which only the tests use.  The models must
reproduce their scores bit for bit and the same canonical CSR matrices.
The nested-prefix walks of markov, co-occurrence and session-kNN have
``score_all`` as their oracle.
"""

import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from recaudit.evaluation import CaseTable
from recaudit.models import (
    CooccurrenceModel,
    CountMatrix,
    ExternalScoresModel,
    MarkovModel,
    SessionKNNModel,
    _count_dtype,
    _flatten,
    _whole_sequence_counts,
    derive_embeddings,
)
from synth import build_dataset, records, toarray


def reference_cooccurrence_counts(train, window):
    n = train.num_items
    rows, cols = [], []
    for seq in records(train):
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


def reference_transitions(train):
    n = train.num_items
    rows, cols = [], []
    for seq in records(train):
        items = seq.items.tolist()
        rows.extend(items[:-1])
        cols.extend(items[1:])
    data = np.ones(len(rows), dtype=np.float64)
    matrix = sparse.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return matrix


def reference_embeddings(train, d, seed):
    """Whole-sequence counts times a seeded projection, rows L2-normalized."""
    counts = reference_cooccurrence_counts(train, None)
    projection = np.random.default_rng(seed).standard_normal((CATALOG, d))
    vectors = np.asarray(counts @ projection, dtype=np.float64)
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    np.divide(vectors, norms, out=vectors, where=norms > 0)
    return vectors


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
    sequences = records(train)
    sessions = [seq.items for seq in sequences]
    session_sets = [set(seq.items.tolist()) for seq in sequences]
    order = sorted(
        range(len(sequences)),
        key=lambda i: (sequences[i].end_time, i),
        reverse=True,
    )
    rank_of = {sid: pos for pos, sid in enumerate(order)}
    recency = [rank_of[i] for i in range(len(train))]
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
    scores = np.zeros(train.num_items, dtype=np.float64)
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
INDEX = tuple(f"i{c}" for c in range(CATALOG))


def make_dataset(sessions):
    """``sessions`` holds (items, end_time) pairs; equal end times are allowed."""
    return build_dataset(
        INDEX, [(items, np.full(len(items), end_time)) for items, end_time in sessions]
    )


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


class TestMarkovMatchesReference:
    @given(sessions=sessions_strategy)
    @example(sessions=[([3], 0), ([1], 2)])  # one-event sequences only: no pairs
    @example(sessions=[([0, 1, 0, 1], 0), ([0, 1], 1), ([2], 1)])  # repeated pairs
    @settings(max_examples=200, deadline=None)
    def test_transitions_are_identical(self, sessions):
        train = make_dataset(sessions)
        transitions = MarkovModel().fit(train).transitions_
        expected = reference_transitions(train)
        assert transitions.shape == expected.shape
        assert transitions.indptr.tolist() == expected.indptr.tolist()
        assert transitions.indices.tolist() == expected.indices.tolist()
        assert transitions.data.tolist() == expected.data.tolist()


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

    # small budgets split the rows into many blocks, take one item's row a few
    # pairs at a time, and reach both the dense and the sorted block counts
    @given(sessions=sessions_strategy, budget=st.sampled_from([1, 2, 3, 5, 8, 13, 64]))
    @example(sessions=[([0, 0, 0, 0, 0, 0, 0], 0), ([0, 1, 0, 1, 0, 1], 1)], budget=2)
    @example(sessions=[([5, 4], 0), ([4], 1)], budget=1)  # rows 0-3 hold nothing
    @settings(max_examples=300, deadline=None)
    def test_whole_sequence_blocks_are_identical(self, sessions, budget):
        train = make_dataset(sessions)
        items, offsets = _flatten(train)
        counts = _whole_sequence_counts(items, offsets, CATALOG, budget)
        expected = reference_cooccurrence_counts(train, None)
        assert counts.indptr.tolist() == expected.indptr.tolist()
        assert counts.indices.tolist() == expected.indices.tolist()
        assert counts.data.tolist() == expected.data.tolist()
        # a catalog of at most 2¹⁶ items, and counts bounded below 2³²
        assert (counts.indptr.dtype, counts.indices.dtype, counts.data.dtype) == (
            np.int64, np.uint16, np.uint32
        )

    def test_one_long_sequence_is_counted_over_its_distinct_items(self):
        # 6000 events over 6 items: 36 item pairs, where counting every two
        # positions would hold 36M keys (144 MB) at once
        codes = np.arange(6000) % 6
        train = make_dataset([(codes.tolist(), 0), ([0, 1], 1)])
        tracemalloc.start()
        try:
            counts = CooccurrenceModel().fit(train).counts_
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        dense = toarray(counts)
        # 1000 occurrences of each item: 1000 * 1000 pairs between two items,
        # 1000 * 999 of an item with itself; the short sequence adds one 0-1 pair
        expected = np.zeros((CATALOG, CATALOG))
        expected[:6, :6] = 1000 * 1000
        expected[range(6), range(6)] = 1000 * 999
        expected[0, 1] += 1
        expected[1, 0] += 1
        assert dense.tolist() == expected.tolist()

    def test_block_temporaries_stay_within_the_pair_budget(self):
        # one sequence of 512 distinct items makes 512² pairs, eight blocks'
        # worth; above the result, the blocks' temporaries (about 53 bytes a
        # pair on this dense path) must stay under 64 bytes × 2¹⁵ pairs
        n = 512
        items = np.random.default_rng(0).permutation(n)
        tracemalloc.start()
        try:
            counts = _whole_sequence_counts(items, np.array([0, n]), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(counts.data) == n * n - n  # no item pairs with itself
        result = counts.indptr.nbytes + counts.indices.nbytes + counts.data.nbytes
        assert peak - result < 64 * 2**15

    def test_embeddings_follow_the_reference_counts(self):
        train = make_dataset([([0, 1, 2, 0], 1), ([2, 3], 2), ([1, 4, 5, 1, 3], 2)])
        counts = reference_cooccurrence_counts(train, None)
        projection = np.random.default_rng(3).standard_normal((CATALOG, 4))
        vectors = np.asarray(counts @ projection, dtype=np.float64)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        np.divide(vectors, norms, out=vectors, where=norms > 0)
        derived = derive_embeddings(train, d=4, seed=3)
        assert derived.vectors.tolist() == vectors.tolist()

    # items 6 and 7 never occur in training and an item seen only in
    # one-event sequences co-occurs with nothing: their rows stay at zero
    @given(
        sessions=sessions_strategy,
        d=st.integers(1, CATALOG),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(sessions=[([4], 0), ([0, 1, 0], 1)], d=3, seed=0)
    @settings(max_examples=200, deadline=None)
    def test_derived_embeddings_are_identical(self, sessions, d, seed):
        train = make_dataset(sessions)
        derived = derive_embeddings(train, d=d, seed=seed)
        assert derived.vectors.tolist() == reference_embeddings(train, d, seed).tolist()


def cyclic_counts(length):
    """The whole-sequence counts of one sequence cycling through items 0..5, dense."""
    occurrences = np.bincount(np.arange(length) % 6, minlength=CATALOG).astype(np.float64)
    dense = np.outer(occurrences, occurrences)
    dense[range(CATALOG), range(CATALOG)] -= occurrences
    return dense


class TestCountWidths:
    """Counts are stored at the narrowest width that holds them exactly."""

    @pytest.mark.parametrize("n, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int32)])
    def test_column_width_follows_the_catalog(self, n, dtype):
        # the last column of the first and of the last row: the widest index
        keys = np.array([(n - 1) * n + n - 1, n - 1, (n - 1) * n, n - 1], dtype=np.int64)
        counts = CountMatrix.from_keys(keys, n)
        assert counts.indices.dtype == dtype
        assert counts.indices.tolist() == [n - 1, 0, n - 1]
        assert counts.data.tolist() == [2, 1, 1]
        assert counts.indptr[[0, 1, n - 1, n]].tolist() == [0, 1, 1, 3]

    @pytest.mark.parametrize(
        "bound, dtype", [(0, np.uint32), (2**32 - 1, np.uint32), (2**32, np.float64)]
    )
    def test_count_width_follows_the_bound(self, bound, dtype):
        assert _count_dtype(bound) is dtype

    # one sequence of L events: the bound L² is 2³² − 131,071 at L = 65,535
    # and 2³² at L = 65,536, one side of the uint32 limit each
    @pytest.mark.parametrize("length, dtype", [(65535, np.uint32), (65536, np.float64)])
    def test_whole_sequence_width_and_scores_at_the_bound(self, length, dtype):
        train = make_dataset([((np.arange(length) % 6).tolist(), 0)])
        model = CooccurrenceModel().fit(train)
        assert model.counts_.data.dtype == dtype
        dense = cyclic_counts(length)
        assert toarray(model.counts_).tolist() == dense.tolist()
        expected = sparse.csr_matrix(dense)
        for prefix in ([0], [5, 1], [6], [2, 7, 2, 4]):
            prefix = np.array(prefix)
            assert model.score_all(prefix).tolist() == reference_cooccurrence_scores(
                train, expected, prefix
            ).tolist()
        projection = np.random.default_rng(length).standard_normal((CATALOG, 3))
        vectors = np.asarray(expected @ projection)
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        np.divide(vectors, norms, out=vectors, where=norms > 0)
        derived = derive_embeddings(train, d=3, seed=length)
        assert derived.vectors.tolist() == vectors.tolist()

    @pytest.mark.parametrize("dtype", [np.uint32, np.float64])
    def test_counts_up_to_the_uint32_limit_score_as_float64(self, dtype):
        # rows 0 and 1 hold the largest counts a uint32 holds; row 2 is empty
        top = 2**32 - 1
        indptr = np.array([0, 3, 5] + [5] * (CATALOG - 2), dtype=np.int64)
        indices = np.array([1, 2, 7, 0, 7], dtype=np.uint16)
        data = np.array([top, 1, top - 1, top, top], dtype=dtype)
        counts = CountMatrix(indptr, indices, data)
        dense = toarray(counts)
        train = make_dataset([([0, 1, 2, 7], 0)])
        cooccurrence = CooccurrenceModel().fit(train)
        markov = MarkovModel(smoothing=0.5).fit(train)
        cooccurrence.counts_ = markov.transitions_ = counts
        for prefix in ([0], [1, 0], [0, 1, 1], [2, 0]):
            expected = dense[prefix].sum(axis=0)
            assert cooccurrence.score_all(np.array(prefix)).tolist() == expected.tolist()
        cases = CaseTable(
            items=np.array([0, 1, 1, 2], dtype=np.int32),
            starts=np.zeros(4, dtype=np.int64),
            stops=np.arange(1, 5, dtype=np.int64),
            targets=np.zeros(4, dtype=np.int64),
        )
        streamed = [scores.tolist() for scores in cooccurrence.score_cases(cases, np.arange(4))]
        assert streamed == [dense[[0, 1, 1, 2][:k]].sum(axis=0).tolist() for k in range(1, 5)]
        for last in (0, 1):
            expected = dense[last] + 0.5
            assert markov.score_all(np.array([last])).tolist() == expected.tolist()

    def test_whole_sequence_matrix_takes_six_bytes_a_count(self):
        # a catalog of exactly 2¹⁶ items, its last item in training
        n = 1 << 16
        items = np.array([0, n - 1, 3, n - 1, 0, 3, 5], dtype=np.int32)
        counts = _whole_sequence_counts(items, np.array([0, 4, 7]), n)
        # the first sequence pairs 0, 3 and n - 1 and n - 1 with itself; the
        # second adds 0-5 and 3-5
        assert len(counts.data) == 11
        assert counts.indices[counts.indptr[n - 1] :].tolist() == [0, 3, n - 1]
        assert counts.indptr.nbytes == 8 * (n + 1)
        assert counts.indices.nbytes + counts.data.nbytes == 6 * len(counts.data)
        fitted = CooccurrenceModel().fit(make_dataset([([0, 1, 2, 0, 3], 0), ([4, 5, 1], 1)]))
        stored = len(fitted.counts_.data)
        assert fitted.counts_.indices.nbytes + fitted.counts_.data.nbytes == 6 * stored


@st.composite
def case_rows(draw):
    """A case table over one random item column, and ascending rows to score.

    The table mixes nested chains (one start, stops ascending, with gaps and
    repeats) and unrelated prefixes as leave-one-out gives them.  The rows
    are any ascending subset, so a stream may start mid-chain and skip cases
    whose targets are unscoreable.
    """
    items = draw(st.lists(st.integers(0, CATALOG - 1), min_size=1, max_size=16))
    n = len(items)
    starts, stops = [], []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            lo = draw(st.integers(0, n - 1))
            chain = sorted(draw(st.lists(st.integers(lo + 1, n), min_size=1, max_size=6)))
            starts += [lo] * len(chain)
            stops += chain
        else:
            for _ in range(draw(st.integers(1, 3))):
                lo = draw(st.integers(0, n - 1))
                starts.append(lo)
                stops.append(draw(st.integers(lo + 1, n)))
    cases = CaseTable(
        items=np.array(items, dtype=np.int32),
        starts=np.array(starts, dtype=np.int64),
        stops=np.array(stops, dtype=np.int64),
        targets=np.zeros(len(starts), dtype=np.int64),
    )
    rows = draw(st.sets(st.integers(0, len(starts) - 1), min_size=1))
    return cases, np.array(sorted(rows), dtype=np.int64)


class TestScoreCasesHook:
    # items 6 and 7 never train, so prefixes of them only fall back
    @given(
        sessions=sessions_strategy,
        table=case_rows(),
        window=st.sampled_from([None, 1, 2]),
    )
    @example(  # one chain whose first two prefixes have only empty rows
        sessions=[([0, 1, 2], 0)],
        table=(
            CaseTable(
                items=np.array([6, 7, 0, 1], dtype=np.int32),
                starts=np.zeros(4, dtype=np.int64),
                stops=np.arange(1, 5, dtype=np.int64),
                targets=np.zeros(4, dtype=np.int64),
            ),
            np.arange(4),
        ),
        window=None,
    )
    @settings(max_examples=300, deadline=None)
    def test_cooccurrence_walk_equals_score_all(self, sessions, table, window):
        cases, rows = table
        model = CooccurrenceModel(window=window).fit(make_dataset(sessions))
        fallback = model.fallback_.tolist()
        yielded = 0
        # a vector is valid until the next one: compare each before pulling on
        for row, scores in zip(rows.tolist(), model.score_cases(cases, rows)):
            prefix = cases.items[cases.starts[row] : cases.stops[row]]
            assert scores.tolist() == model.score_all(prefix).tolist(), row
            assert not scores.flags.writeable
            yielded += 1
        assert yielded == len(rows)
        assert model.fallback_.tolist() == fallback

    @given(
        sessions=sessions_strategy,
        table=case_rows(),
        k=st.sampled_from([1, 3, 100]),
        sample_size=st.sampled_from([1, 2, 1000]),
        decay=st.sampled_from(["linear", "none"]),
    )
    @example(  # a chain of untrained items, then repeats; a second chain reuses the counts
        sessions=[([0, 1, 2], 0), ([1, 3], 1), ([2, 0, 4], 2)],
        table=(
            CaseTable(
                items=np.array([6, 7, 6, 0, 0, 1, 2, 6, 4, 3], dtype=np.int32),
                starts=np.array([0, 0, 0, 0, 0, 0, 5, 5, 5], dtype=np.int64),
                stops=np.array([1, 2, 3, 4, 5, 7, 6, 8, 10], dtype=np.int64),
                targets=np.zeros(9, dtype=np.int64),
            ),
            np.arange(9),
        ),
        k=3,
        sample_size=2,
        decay="linear",
    )
    @settings(max_examples=300, deadline=None)
    def test_session_knn_walk_equals_score_all(self, sessions, table, k, sample_size, decay):
        cases, rows = table
        model = SessionKNNModel(k=k, sample_size=sample_size, decay=decay)
        model.fit(make_dataset(sessions))
        fallback = model.fallback_.tolist()
        yielded = 0
        for row, scores in zip(rows.tolist(), model.score_cases(cases, rows)):
            prefix = cases.items[cases.starts[row] : cases.stops[row]]
            assert scores.tolist() == model.score_all(prefix).tolist(), row
            assert not scores.flags.writeable
            yielded += 1
        assert yielded == len(rows)
        assert model.fallback_.tolist() == fallback

    # trained on 0 → 1, 1 → 2 and 1 → 0 only: 2 and 3 have no transitions
    # and 6 never trains, so prefixes ending in them fall back
    @given(
        sessions=sessions_strategy,
        table=case_rows(),
        smoothing=st.sampled_from([0, 0.5, 3.0]),
    )
    @example(  # one chain: rows, a repeated last item, fallbacks between rows
        sessions=[([0, 1, 2], 0), ([1, 0], 1), ([3], 1)],
        table=(
            CaseTable(
                items=np.array([0, 1, 1, 6, 2, 0, 3, 1], dtype=np.int32),
                starts=np.zeros(8, dtype=np.int64),
                stops=np.arange(1, 9, dtype=np.int64),
                targets=np.zeros(8, dtype=np.int64),
            ),
            np.arange(8),
        ),
        smoothing=0.5,
    )
    @example(  # a block that starts inside a chain, then leave-one-out prefixes
        sessions=[([0, 1, 2], 0), ([1, 0], 1), ([3], 1)],
        table=(
            CaseTable(
                items=np.array([6, 1, 1, 0, 2, 1, 0], dtype=np.int32),
                starts=np.array([0, 0, 0, 0, 4, 2, 5, 3, 4], dtype=np.int64),
                stops=np.array([1, 2, 3, 4, 5, 3, 7, 4, 4], dtype=np.int64),
                targets=np.zeros(9, dtype=np.int64),
            ),
            np.array([2, 3, 4, 5, 6, 7, 8]),
        ),
        smoothing=0,
    )
    @example(  # only empty prefixes, over an empty item column
        sessions=[([0, 1, 2], 0)],
        table=(
            CaseTable(
                items=np.empty(0, dtype=np.int32),
                starts=np.zeros(2, dtype=np.int64),
                stops=np.zeros(2, dtype=np.int64),
                targets=np.zeros(2, dtype=np.int64),
            ),
            np.arange(2),
        ),
        smoothing=1.0,
    )
    @settings(max_examples=300, deadline=None)
    def test_markov_stream_equals_score_all(self, sessions, table, smoothing):
        cases, rows = table
        model = MarkovModel(smoothing=smoothing).fit(make_dataset(sessions))
        fallback = model.fallback_.tolist()
        yielded = 0
        for row, scores in zip(rows.tolist(), model.score_cases(cases, rows)):
            prefix = cases.items[cases.starts[row] : cases.stops[row]]
            assert scores.tolist() == model.score_all(prefix).tolist(), row
            assert not scores.flags.writeable
            yielded += 1
        assert yielded == len(rows)
        assert model.fallback_.tolist() == fallback

    @given(table=case_rows(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_default_hook_replays_external_rows_by_case(self, table, seed):
        cases, rows = table
        matrix = np.random.default_rng(seed).standard_normal((len(cases), CATALOG))
        with tempfile.TemporaryDirectory() as root:
            path = os.path.join(root, "scores.npy")
            np.save(path, matrix)
            model = ExternalScoresModel(path, catalog_size=CATALOG)
        streamed = [scores.tolist() for scores in model.score_cases(cases, rows)]
        expected = [
            model.score_case(row, cases.items[cases.starts[row] : cases.stops[row]]).tolist()
            for row in rows.tolist()
        ]
        assert streamed == expected == matrix[rows].tolist()


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
