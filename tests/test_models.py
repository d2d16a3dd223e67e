"""Model tests: scoring contracts, order sensitivity, fallbacks, embeddings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recaudit.errors import EmbeddingError, ModelError
from recaudit.models import (
    CooccurrenceModel,
    EmbeddingMatrix,
    ExternalScoresModel,
    MarkovModel,
    PopularityModel,
    SessionKNNModel,
    build_model,
    derive_embeddings,
    MODEL_BUILDERS,
    load_embeddings,
)
from synth import build_dataset, dump_embeddings, toarray

INDEX = tuple("abcdef")
A, B, C, D, E, F = range(6)


def make_dataset(words, start=0):
    rows = []
    t = start
    for word in words:
        codes = [INDEX.index(ch) for ch in word]
        rows.append((codes, np.arange(t, t + len(codes))))
        t += 1000
    return build_dataset(INDEX, rows)


EMPTY = build_dataset(INDEX, [])


class TestPopularity:
    def test_ranks_by_support_for_any_prefix(self):
        model = PopularityModel().fit(make_dataset(["ab", "ab", "ab", "ab", "ab", "b"]))
        for prefix in ([], [C], [B, A]):
            scores = model.score_all(np.array(prefix, dtype=np.int64))
            assert scores[B] > scores[A] > scores[C]

    def test_scores_are_supports(self):
        model = PopularityModel().fit(make_dataset(["ab", "ac"]))
        scores = model.score_all(np.array([], dtype=np.int64))
        assert scores.tolist() == [2, 1, 1, 0, 0, 0]

    def test_returned_vector_is_a_copy(self):
        model = PopularityModel().fit(make_dataset(["ab"]))
        model.score_all(np.array([]))[A] = 99
        assert model.score_all(np.array([]))[A] == 1

    def test_empty_train_is_an_error(self):
        with pytest.raises(ModelError, match="empty"):
            PopularityModel().fit(EMPTY)


class TestMarkov:
    def test_transition_counts_rank_successors(self):
        model = MarkovModel().fit(make_dataset(["ab", "ab", "ab", "ac"]))
        scores = model.score_all(np.array([A]))
        assert scores[B] == 3.0 and scores[C] == 1.0
        assert scores[D] == 0.0

    def test_last_item_drives_the_row(self):
        model = MarkovModel().fit(make_dataset(["ab", "bc"]))
        scores = model.score_all(np.array([C, D, A]))
        assert scores[B] == 1.0 and scores[C] == 0.0

    def test_unseen_last_item_falls_back_to_popularity(self):
        data = make_dataset(["ab", "ab", "ac"])
        model = MarkovModel().fit(data)
        fallback = model.score_all(np.array([F]))
        assert fallback.tolist() == data.item_support.astype(float).tolist()

    def test_empty_prefix_falls_back(self):
        model = MarkovModel().fit(make_dataset(["ab"]))
        assert model.score_all(np.array([], dtype=np.int64)).tolist()[A] == 1.0

    def test_add_one_smoothing_floors_scores(self):
        model = MarkovModel(smoothing=1.0).fit(make_dataset(["ab", "ac"]))
        scores = model.score_all(np.array([A]))
        assert scores.min() >= 1.0
        assert scores[B] == scores[C] == 2.0

    def test_deterministic_chain_is_memorized(self):
        model = MarkovModel().fit(make_dataset(["abcd"] * 3))
        for prev, nxt in [(A, B), (B, C), (C, D)]:
            assert int(np.argmax(model.score_all(np.array([prev])))) == nxt

    def test_order_sensitivity_witness(self):
        forward = make_dataset(["abc", "abc"])
        backward = make_dataset(["cba", "cba"])
        one = MarkovModel().fit(forward).score_all(np.array([A]))
        other = MarkovModel().fit(backward).score_all(np.array([A]))
        assert one.tolist() != other.tolist()

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ValueError):
            MarkovModel(smoothing=-0.1)

    @pytest.mark.parametrize("smoothing", (float("nan"), float("inf"), float("-inf")))
    def test_non_finite_smoothing_rejected(self, smoothing):
        with pytest.raises(ValueError, match="finite"):
            MarkovModel(smoothing=smoothing)

    def test_boolean_smoothing_rejected(self):
        with pytest.raises(TypeError, match="boolean"):
            MarkovModel(smoothing=True)


class TestCooccurrence:
    def test_whole_sequence_pairs(self):
        model = CooccurrenceModel().fit(make_dataset(["abc"]))
        matrix = toarray(model.counts_)
        assert matrix[A][B] == matrix[B][A] == 1
        assert matrix[A][C] == matrix[C][A] == 1
        assert matrix[B][C] == matrix[C][B] == 1
        assert matrix.diagonal().tolist() == [0] * 6

    def test_window_limits_pair_distance(self):
        model = CooccurrenceModel(window=1).fit(make_dataset(["abc"]))
        matrix = toarray(model.counts_)
        assert matrix[A][B] == 1 and matrix[B][C] == 1
        assert matrix[A][C] == 0

    def test_reversing_training_sequences_changes_nothing(self):
        forward = CooccurrenceModel().fit(make_dataset(["abc", "bdc"]))
        backward = CooccurrenceModel().fit(make_dataset(["cba", "cdb"]))
        probe = np.array([A, B])
        assert forward.score_all(probe).tolist() == backward.score_all(probe).tolist()

    def test_scores_sum_over_prefix_items(self):
        model = CooccurrenceModel().fit(make_dataset(["abc", "abd"]))
        scores = model.score_all(np.array([A, B]))
        # c co-occurs once with a and once with b; d likewise
        assert scores[C] == 2 and scores[D] == 2
        # a scores through b's row and vice versa
        assert scores[A] == 2 and scores[B] == 2

    def test_silent_prefix_falls_back_to_popularity(self):
        data = make_dataset(["ab", "ab"])
        model = CooccurrenceModel().fit(data)
        scores = model.score_all(np.array([F]))
        assert scores.tolist() == data.item_support.astype(float).tolist()

    def test_window_domain(self):
        with pytest.raises(ValueError):
            CooccurrenceModel(window=0)
        with pytest.raises(TypeError):
            CooccurrenceModel(window=1.5)
        with pytest.raises(TypeError, match="boolean"):
            CooccurrenceModel(window=True)


class TestSessionKNN:
    def test_hand_computed_cosine_vote(self):
        model = SessionKNNModel().fit(make_dataset(["abc"]))
        scores = model.score_all(np.array([A, B]))
        similarity = 2 / math.sqrt(6)
        assert np.isclose(scores[C], similarity * 3 / 3)
        assert np.isclose(scores[B], similarity * 2 / 3)
        assert np.isclose(scores[A], similarity * 1 / 3)
        assert scores[D] == scores[E] == scores[F] == 0

    def test_decay_none_weights_equally(self):
        model = SessionKNNModel(decay="none").fit(make_dataset(["abc"]))
        scores = model.score_all(np.array([A, B]))
        assert np.isclose(scores[A], scores[C])

    def test_disjoint_prefix_falls_back(self):
        data = make_dataset(["ab", "ab"])
        model = SessionKNNModel().fit(data)
        scores = model.score_all(np.array([F]))
        assert scores.tolist() == data.item_support.astype(float).tolist()

    def test_k_clamps_to_candidate_count(self):
        model = SessionKNNModel(k=50).fit(make_dataset(["ab", "ac"]))
        assert model.score_all(np.array([A])).max() > 0

    def test_sample_size_keeps_most_recent_sessions(self):
        # three sessions contain a; only the two most recent may vote
        data = make_dataset(["ab", "ac", "ad"])
        model = SessionKNNModel(sample_size=2).fit(data)
        scores = model.score_all(np.array([A]))
        assert scores[B] == 0
        assert scores[C] > 0 and scores[D] > 0

    def test_more_similar_sessions_dominate(self):
        data = make_dataset(["abc", "adef", "abc"])
        model = SessionKNNModel(k=1).fit(data)
        scores = model.score_all(np.array([A, B]))
        assert scores[C] > 0
        assert scores[E] == 0

    def test_parameter_domains(self):
        with pytest.raises(ValueError):
            SessionKNNModel(k=0)
        with pytest.raises(ValueError):
            SessionKNNModel(sample_size=0)
        with pytest.raises(ValueError):
            SessionKNNModel(decay="exponential")
        with pytest.raises(TypeError):
            SessionKNNModel(k=2.5)
        with pytest.raises(TypeError):
            SessionKNNModel(sample_size=float("inf"))
        with pytest.raises(TypeError, match="boolean"):
            SessionKNNModel(k=True)
        with pytest.raises(TypeError, match="boolean"):
            SessionKNNModel(sample_size=True)


# each model fitted with default hyperparameters, under its historical test id
ALL_FITS = [
    pytest.param(lambda train, model=model: model().fit(train), id=f"fit_{name}")
    for name, model in MODEL_BUILDERS.items()
]


class TestSharedContract:
    @pytest.mark.parametrize("fit", ALL_FITS)
    def test_empty_train_rejected(self, fit):
        with pytest.raises(ModelError):
            fit(EMPTY)

    @pytest.mark.parametrize("fit", ALL_FITS)
    @given(prefix=st.lists(st.integers(min_value=0, max_value=5), max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_scores_are_finite_catalog_sized(self, fit, prefix):
        model = fit(make_dataset(["abc", "abd", "ce", "ab"]))
        scores = model.score_all(np.array(prefix, dtype=np.int64))
        assert scores.shape == (len(INDEX),)
        assert np.isfinite(scores).all()

    @pytest.mark.parametrize("fit", ALL_FITS)
    def test_fit_is_deterministic(self, fit):
        data = make_dataset(["abc", "abd", "ce", "ab"])
        probes = [np.array([], dtype=np.int64), np.array([A]), np.array([C, B])]
        one, two = fit(data), fit(data)
        for probe in probes:
            assert one.score_all(probe).tolist() == two.score_all(probe).tolist()

    def test_score_case_defaults_to_score_all(self):
        model = PopularityModel().fit(make_dataset(["ab"]))
        probe = np.array([A])
        assert model.score_case(7, probe).tolist() == model.score_all(probe).tolist()

    def test_registry_builds_and_rejects(self):
        model = build_model("markov", smoothing=0.5)
        assert isinstance(model, MarkovModel) and model.smoothing == 0.5
        with pytest.raises(ModelError, match="unknown model"):
            build_model("transformer")


class TestEmbeddings:
    def test_identical_cooccurrence_rows_share_embeddings(self):
        data = make_dataset(["af", "bf", "af", "bf"])
        matrix = derive_embeddings(data, d=3, seed=0)
        assert np.allclose(matrix.vectors[A], matrix.vectors[B])

    def test_rows_are_unit_or_zero(self):
        data = make_dataset(["ab", "cd"])
        matrix = derive_embeddings(data, d=2, seed=1)
        norms = np.linalg.norm(matrix.vectors, axis=1)
        for norm in norms:
            assert np.isclose(norm, 1.0) or norm == 0.0

    def test_unused_items_stay_at_origin(self):
        data = make_dataset(["ab", "ab"])
        matrix = derive_embeddings(data, d=2, seed=1)
        assert np.all(matrix.vectors[F] == 0)

    def test_same_seed_same_embeddings(self):
        data = make_dataset(["abc", "bcd"])
        one = derive_embeddings(data, d=4, seed=9)
        two = derive_embeddings(data, d=4, seed=9)
        assert np.array_equal(one.vectors, two.vectors)

    def test_dimension_domain(self):
        data = make_dataset(["ab"])
        with pytest.raises(EmbeddingError):
            derive_embeddings(data, d=0, seed=0)
        with pytest.raises(EmbeddingError):
            derive_embeddings(data, d=7, seed=0)

    def test_dump_load_roundtrip_exact(self, tmp_path):
        data = make_dataset(["abc", "bcd"])
        derived = derive_embeddings(data, d=3, seed=2)
        path = tmp_path / "vectors.tsv"
        dump_embeddings(derived, INDEX, path)
        loaded = load_embeddings(path, INDEX)
        assert np.array_equal(loaded.vectors, derived.vectors)

    def test_load_rejects_missing_items(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("a\t1.0\t0.0\nb\t0.0\t1.0\n")
        with pytest.raises(EmbeddingError, match="lacks embeddings"):
            load_embeddings(path, INDEX)

    def test_load_ignores_unknown_items(self, tmp_path):
        lines = [f"{ch}\t1.0\t0.0" for ch in "abcdef"] + ["zzz\t9.0\t9.0"]
        path = tmp_path / "vectors.tsv"
        path.write_text("\n".join(lines) + "\n")
        matrix = load_embeddings(path, INDEX)
        assert matrix.vectors.shape == (6, 2)

    def test_load_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "vectors.tsv"
        path.write_text("a\t1.0\t0.0\nb\t0.5\n")
        with pytest.raises(EmbeddingError, match="dimension"):
            load_embeddings(path, INDEX)

    def test_non_finite_matrix_rejected(self):
        with pytest.raises(EmbeddingError, match="non-finite"):
            EmbeddingMatrix(np.array([[1.0, np.nan]]))


class TestExternalScores:
    def test_npy_rows_replay_by_case(self, tmp_path):
        matrix = np.arange(12, dtype=np.float64).reshape(2, 6)
        path = tmp_path / "scores.npy"
        np.save(path, matrix)
        model = ExternalScoresModel(path, catalog_size=6)
        assert model.score_case(1, np.array([A])).tolist() == matrix[1].tolist()

    def test_tsv_rows_keyed_by_case_index(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("0\t1\t0\t0\t0\t0\t0\n5\t0\t0\t0\t0\t0\t2\n")
        model = ExternalScoresModel(path, catalog_size=6)
        assert model.score_case(5, np.array([]))[F] == 2.0

    def test_missing_case_and_prefix_scoring_refused(self, tmp_path):
        path = tmp_path / "scores.tsv"
        path.write_text("0\t1\t0\t0\t0\t0\t0\n")
        model = ExternalScoresModel(path, catalog_size=6)
        with pytest.raises(ModelError, match="case 3"):
            model.score_case(3, np.array([]))
        with pytest.raises(ModelError, match="prefixes"):
            model.score_all(np.array([A]))

    @pytest.mark.parametrize("line", ["0\tabc\t0\t0\t0\t0\t0", "x\t1\t0\t0\t0\t0\t0"])
    def test_malformed_tsv_row_names_its_line(self, tmp_path, line):
        path = tmp_path / "scores.tsv"
        path.write_text("0\t1\t0\t0\t0\t0\t0\n" + line + "\n")
        with pytest.raises(ModelError, match="scores.tsv:2: "):
            ExternalScoresModel(path, catalog_size=6)

    @pytest.mark.parametrize("content", [b"", b"not an npy file\n"])
    def test_malformed_npy_is_a_model_error(self, tmp_path, content):
        path = tmp_path / "scores.npy"
        path.write_bytes(content)
        with pytest.raises(ModelError, match="scores.npy: "):
            ExternalScoresModel(path, catalog_size=6)

    def test_wrong_width_rejected(self, tmp_path):
        path = tmp_path / "scores.npy"
        np.save(path, np.zeros((2, 4)))
        with pytest.raises(ModelError, match="columns"):
            ExternalScoresModel(path, catalog_size=6)
