"""Evaluator tests: ranking semantics, samplers, determinism, crossings."""

import numpy as np
import pytest

from recaudit import evaluation
from recaudit.errors import EvaluationError
from recaudit.evaluation import (
    EvalConfig,
    MetricReport,
    SamplerSpec,
    case_rng,
    compute_case_ranks,
    crossing_analysis,
    enumerate_cases,
    evaluate,
    metrics_from_ranks,
    rank_of_target,
    sample_negatives,
)
from recaudit.events import ItemIndex
from recaudit.models import EmbeddingMatrix, MarkovModel, PopularityModel, RecommenderModel
from recaudit.preprocess import Dataset, Sequence
from recaudit.probability import sampled_topc_probability
from recaudit.splitting import (
    LeaveOneOutSelection,
    SideStats,
    SplitSpec,
    SplitStats,
    DatasetSplit,
    leave_one_out_split,
)

INDEX = ItemIndex.from_items("abcdefgh")
A, B, C, D, E, F, G, H = range(8)


def dataset_from(words, index=INDEX, t0=0, seq_id_base=0):
    sequences = []
    t = t0
    for sid, word in enumerate(words, start=seq_id_base):
        codes = np.array([index.forward[ch] for ch in word])
        sequences.append(Sequence(sid, f"u{sid}", codes, np.arange(t, t + len(codes))))
        t += 100
    return Dataset.from_sequences(sequences, index)


def split_from(train_words, test_words, index=INDEX):
    train = dataset_from(train_words, index, t0=0)
    test = dataset_from(test_words, index, t0=100_000, seq_id_base=len(train_words))
    stats = SplitStats(
        train=SideStats(train.num_events, train.num_sequences, 1),
        test=SideStats(test.num_events, test.num_sequences, 1),
        unseen_item_events=0,
        unseen_items=0,
    )
    spec = SplitSpec(strategy="time", split_time=50_000)
    return DatasetSplit(
        train=train, test=test, spec=spec, stats=stats, split_time=50_000
    )


class FixedScores(RecommenderModel):
    """Returns one constant score vector; rank structure fully controlled."""

    def __init__(self, vector):
        self.vector = np.asarray(vector, dtype=np.float64)

    def fit(self, train):
        return self

    def score_all(self, prefix):
        return self.vector.copy()


class TestRankOfTarget:
    def test_plain_ordering(self):
        scores = np.array([5.0, 7.0, 3.0])
        assert rank_of_target(scores, 0, "optimistic") == 2
        assert rank_of_target(scores, 0, "pessimistic") == 2

    def test_pure_tie_case(self):
        scores = np.array([5.0, 5.0, 5.0])
        assert rank_of_target(scores, 0, "optimistic") == 1
        assert rank_of_target(scores, 0, "pessimistic") == 3

    def test_random_ties_lie_between_and_are_seeded(self):
        scores = np.array([5.0, 5.0, 5.0])
        draws = {rank_of_target(scores, 0, "random", case_rng(9, i)) for i in range(60)}
        assert draws == {1, 2, 3}
        again = [rank_of_target(scores, 0, "random", case_rng(4, 7)) for _ in range(5)]
        assert len(set(again)) == 1

    def test_candidate_subset_shrinks_rank(self):
        scores = np.concatenate([[1.0], np.arange(2.0, 11.0)])  # target 0 at full rank 10
        assert rank_of_target(scores, 0, "optimistic") == 10
        sampled = rank_of_target(scores, 0, "optimistic", candidates=np.array([1, 2]))
        assert sampled == 3

    def test_non_finite_scores_rejected(self):
        with pytest.raises(EvaluationError, match="non-finite"):
            rank_of_target(np.array([1.0, np.nan]), 0, "optimistic")
        with pytest.raises(EvaluationError):
            rank_of_target(np.array([np.inf, 2.0]), 0, "optimistic")


class TestEnumerateCases:
    def test_time_split_grows_prefixes(self):
        split = split_from(["abc"], ["abcd"])
        cases = enumerate_cases(split)
        assert [(len(c.prefix), c.target) for c in cases] == [(1, B), (2, C), (3, D)]
        assert [c.case_index for c in cases] == [0, 1, 2]

    def test_prefix_start_skips_short_prefixes(self):
        split = split_from(["abc"], ["abcd"])
        cases = enumerate_cases(split, prefix_start=2)
        assert [(len(c.prefix), c.target) for c in cases] == [(2, C), (3, D)]

    def test_loo_pairs_training_prefix_with_target(self):
        data = dataset_from(["abc", "bcd"])
        split = leave_one_out_split(data, LeaveOneOutSelection())
        cases = enumerate_cases(split)
        assert len(cases) == 2
        assert cases[0].prefix.tolist() == [A, B] and cases[0].target == C
        assert cases[1].prefix.tolist() == [B, C] and cases[1].target == D


class TestSamplerSpec:
    def test_parse_forms(self):
        assert SamplerSpec.parse("none").strategy == "none"
        spec = SamplerSpec.parse("uniform:250")
        assert (spec.strategy, spec.sample_count) == ("uniform", 250)
        pct = SamplerSpec.parse("popularity:0.1%")
        assert pct.sample_fraction == pytest.approx(0.001)
        assert SamplerSpec.parse("top_popular").sample_count == 100

    def test_describe_roundtrip(self):
        for text in ("none", "uniform:250", "popularity:0.1%"):
            assert SamplerSpec.parse(text).describe() == text

    def test_resolve_count(self):
        assert SamplerSpec.parse("uniform:10%").resolve_count(500) == 50
        assert SamplerSpec.parse("uniform:100").resolve_count(500) == 100
        with pytest.raises(EvaluationError, match="cannot sample"):
            SamplerSpec.parse("uniform:500").resolve_count(500)

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerSpec(strategy="hard_negatives")
        with pytest.raises(ValueError):
            SamplerSpec(strategy="uniform", sample_count=0)
        with pytest.raises(ValueError):
            SamplerSpec(strategy="uniform", sample_fraction=1.5)


class TestSampleNegatives:
    SUPPORT = np.array([9, 5, 1, 3, 7, 2, 4, 6], dtype=np.int64)

    def draw(self, text, target=B, rng=None, embeddings=None, support=None):
        spec = SamplerSpec.parse(text)
        rng = rng or case_rng(0, 0)
        sup = self.SUPPORT if support is None else support
        return sample_negatives(spec, target, len(sup), sup, embeddings, rng)

    def test_uniform_distinct_and_target_free(self):
        negatives = self.draw("uniform:5")
        assert len(negatives) == 5
        assert len(set(negatives.tolist())) == 5
        assert B not in negatives

    def test_uniform_full_catalog_degenerates_to_everything_else(self):
        negatives = self.draw("uniform:7")
        assert sorted(negatives.tolist()) == [A, C, D, E, F, G, H]

    def test_same_rng_state_same_draw(self):
        one = self.draw("uniform:4", rng=case_rng(3, 11))
        two = self.draw("uniform:4", rng=case_rng(3, 11))
        assert sorted(one.tolist()) == sorted(two.tolist())

    def test_top_popular_is_deterministic_rank_order(self):
        support = np.array([9, 5, 1], dtype=np.int64)
        spec = SamplerSpec(strategy="top_popular", sample_count=2)
        out = sample_negatives(spec, 1, 3, support, None, case_rng(0, 0))
        assert out.tolist() == [0, 2]

    def test_popularity_frequencies_track_support(self):
        support = np.array([6, 3, 1], dtype=np.int64)
        target = 3  # sample among the first three only
        sup = np.append(support, 5)
        counts = np.zeros(3)
        trials = 20_000
        rng = case_rng(1, 1)
        spec = SamplerSpec(strategy="popularity", sample_count=1)
        for _ in range(trials):
            counts[sample_negatives(spec, target, 4, sup, None, rng)[0]] += 1
        probs = support / support.sum()
        for i in range(3):
            sigma = (trials * probs[i] * (1 - probs[i])) ** 0.5
            assert abs(counts[i] - trials * probs[i]) <= 4 * sigma

    def test_inverse_popularity_prefers_rare_items(self):
        support = np.array([1000, 1, 0, 1000], dtype=np.int64)
        counts = np.zeros(4)
        rng = case_rng(2, 2)
        spec = SamplerSpec(strategy="inverse_popularity", sample_count=1)
        for _ in range(2000):
            counts[sample_negatives(spec, 3, 4, support, None, rng)[0]] += 1
        assert counts[2] == 0  # zero support, never drawn
        assert counts[1] > counts[0]

    def test_weighted_pool_too_small_is_an_error(self):
        support = np.array([4, 0, 0, 0], dtype=np.int64)
        spec = SamplerSpec(strategy="popularity", sample_count=2)
        with pytest.raises(EvaluationError, match="positive sampling weight"):
            sample_negatives(spec, 3, 4, support, None, case_rng(0, 0))

    def geometry(self):
        # target at (1,0); cosine order: 1,2,4,3 ; distance order: 2,1,3,4
        vectors = np.array(
            [
                [1.0, 0.0],  # 0 target
                [5.0, 0.0],  # 1 same direction, far away
                [0.9, 0.2],  # 2 close by, slight angle
                [0.0, 1.2],  # 3 orthogonal-ish, near
                [-4.0, 0.5],  # 4 opposite side, far
            ]
        )
        return EmbeddingMatrix(vectors, provenance="loaded")

    def test_similarity_versus_distance_orders(self):
        emb = self.geometry()
        support = np.ones(5, dtype=np.int64)
        pick = lambda strat: sample_negatives(
            SamplerSpec(strategy=strat, sample_count=1), 0, 5, support, emb, case_rng(0, 0)
        )[0]
        assert pick("similar_embedding") == 1
        assert pick("close_embedding") == 2
        assert pick("farthest_embedding") == 4
        cos = emb.vectors @ emb.vectors[0]
        cos = cos / np.linalg.norm(emb.vectors, axis=1)
        assert pick("least_similar_embedding") == int(np.argmin(cos[1:]) + 1)

    def test_embedding_samplers_require_embeddings(self):
        with pytest.raises(EvaluationError, match="embeddings"):
            self.draw("similar_embedding:2")


class TestEvaluate:
    def test_textbook_single_case_metrics(self):
        split = split_from(["ab"], ["ca"])  # one case: prefix [c] -> target a
        scores = np.zeros(8)
        scores[[D, E]] = 5.0  # two items outrank the target
        scores[A] = 1.0
        report = evaluate(FixedScores(scores), split, EvalConfig(cutoffs=(1, 5)))
        assert report.recall == {1: 0.0, 5: 1.0}
        assert report.mrr == {1: 0.0, 5: pytest.approx(1 / 3)}
        assert report.case_count == 1 and report.total_cases == 1

    def test_planted_chain_full_recall_at_one(self):
        split = split_from(["abcd"] * 4, ["abcd", "abcd"])
        model = MarkovModel().fit(split.train)
        report = evaluate(model, split, EvalConfig(cutoffs=(1, 5)))
        assert report.recall[1] == 1.0
        assert report.mrr[1] == 1.0

    def test_unseen_targets_skipped_and_counted(self):
        split = split_from(["abc", "abc"], ["abh"])  # h never trains
        model = PopularityModel().fit(split.train)
        report = evaluate(model, split, EvalConfig(cutoffs=(1, 8)))
        assert report.total_cases == 2
        assert report.skipped_unseen_target_count == 1
        assert report.case_count == 1

    def test_all_targets_unseen_is_an_error(self):
        split = split_from(["abc"], ["ah"])
        with pytest.raises(EvaluationError, match="no scoreable"):
            evaluate(PopularityModel().fit(split.train), split, EvalConfig())

    def test_metric_monotonicity_and_bounds(self):
        split = split_from(["abcd", "bcda", "cdab"], ["abcd", "dcba", "badc"])
        report = evaluate(MarkovModel().fit(split.train), split, EvalConfig(cutoffs=(1, 2, 4, 8)))
        values = [report.recall[n] for n in report.cutoffs]
        assert values == sorted(values)
        mrrs = [report.mrr[n] for n in report.cutoffs]
        assert mrrs == sorted(mrrs)
        for n in report.cutoffs:
            assert 0.0 <= report.mrr[n] <= report.recall[n] <= 1.0
        assert report.recall[8] == 1.0  # catalog-wide cutoff catches everything

    def test_sampled_ranks_dominate_full_ranks_per_case(self):
        split = split_from(["abcd", "bcda", "cdab", "abce"], ["abcd", "dcba", "badc"])
        model = MarkovModel().fit(split.train)
        cfg = EvalConfig(cutoffs=(1, 2))
        full = evaluate(model, split, cfg)
        for text in ("uniform:3", "popularity:3", "top_popular:3"):
            sampled = evaluate(model, split, cfg, SamplerSpec.parse(text))
            mask = full.ranks > 0
            assert np.all(sampled.ranks[mask] <= full.ranks[mask])
            for n in cfg.cutoffs:
                assert sampled.recall[n] >= full.recall[n]
                assert sampled.mrr[n] >= full.mrr[n]

    def test_worker_count_cannot_change_results(self):
        split = split_from(["abcd", "bcda", "cdab"], ["abcd", "dcba", "badc", "cabd"])
        model = MarkovModel().fit(split.train)
        cfg = EvalConfig(cutoffs=(1, 5), tie_policy="random", master_seed=17)
        sampler = SamplerSpec.parse("uniform:4")
        reports = [
            evaluate(model, split, cfg, sampler, workers=w) for w in (1, 2, 4)
        ]
        for other in reports[1:]:
            assert other.to_dict() == reports[0].to_dict()
            assert np.array_equal(other.ranks, reports[0].ranks)

    def test_sampled_recall_matches_closed_form_probability(self):
        catalog = 50
        index = ItemIndex.from_items([f"i{k:02d}" for k in range(catalog)])
        train = Dataset.from_sequences(
            [
                Sequence(0, "u0", np.arange(catalog), np.arange(catalog)),
                Sequence(1, "u1", np.arange(catalog), np.arange(catalog) + 100),
            ],
            index,
        )
        rank_r = 10
        target = rank_r - 1  # scores strictly descending by index
        test_seqs = [
            Sequence(2 + k, f"t{k}", np.array([0, target]), np.array([1000 + k, 1001 + k]))
            for k in range(4000)
        ]
        test = Dataset.from_sequences(test_seqs, index)
        split = DatasetSplit(
            train=train,
            test=test,
            spec=SplitSpec(strategy="time", split_time=500),
            stats=SplitStats(SideStats(0, 0, 0), SideStats(0, 0, 0), 0, 0),
            split_time=500,
        )
        model = FixedScores(np.arange(catalog, 0, -1, dtype=np.float64))
        cutoff, samples = 3, 10
        report = evaluate(
            model,
            split,
            EvalConfig(cutoffs=(cutoff,), master_seed=5),
            SamplerSpec(strategy="uniform", sample_count=samples),
        )
        expected = sampled_topc_probability(catalog, rank_r, samples, cutoff)
        sigma = (expected * (1 - expected) / report.case_count) ** 0.5
        assert abs(report.recall[cutoff] - expected) <= 4 * sigma


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, expected", [(3, 3), (64, 6)])
    def test_pool_never_outgrows_cpus_or_blocks(self, monkeypatch, cpus, expected):
        created = []

        class InlinePool:
            """Runs the blocks in this process and records the pool size asked for."""

            def __init__(self, max_workers, mp_context=None):
                created.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(
            evaluation.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        split = split_from(["abcd", "bcda", "cdab"], ["abcd", "dcba"])  # 6 cases
        model = MarkovModel().fit(split.train)
        cfg = EvalConfig(cutoffs=(1, 5))
        wide = evaluate(model, split, cfg, workers=5000)
        assert created == [expected]
        assert wide.ranks.tolist() == evaluate(model, split, cfg).ranks.tolist()


def make_report(recall, cutoffs=(5, 20), model="A", sampler="none"):
    return MetricReport(
        model=model,
        sampler=sampler,
        tie_policy="optimistic",
        master_seed=0,
        cutoffs=tuple(cutoffs),
        recall=dict(zip(cutoffs, recall)),
        mrr={n: r / 2 for n, r in zip(cutoffs, recall)},
        case_count=100,
        skipped_unseen_target_count=0,
        total_cases=100,
        catalog_size=1000,
    )


class TestCrossingAnalysis:
    def test_single_flip_detected(self):
        report = crossing_analysis(
            make_report([0.1, 0.3]), make_report([0.2, 0.25], model="B")
        )
        assert report.flips == ((5, 20),)
        assert report.first_flip == (5, 20)
        assert report.difference[5] == pytest.approx(-0.1)
        assert report.relative_difference[5] == pytest.approx(-0.5)

    def test_identical_reports_have_no_flips(self):
        report = crossing_analysis(make_report([0.2, 0.4]), make_report([0.2, 0.4]))
        assert report.flips == ()
        assert report.first_flip is None

    def test_zero_baseline_relative_difference_is_none(self):
        report = crossing_analysis(make_report([0.1, 0.3]), make_report([0.0, 0.3]))
        assert report.relative_difference[5] is None

    def test_mismatched_grids_rejected(self):
        with pytest.raises(EvaluationError, match="grids differ"):
            crossing_analysis(make_report([0.1, 0.3]), make_report([0.1], cutoffs=(5,)))

    def test_flip_count_bounded(self):
        a = make_report([0.1, 0.3, 0.1, 0.3], cutoffs=(1, 2, 3, 4))
        b = make_report([0.2, 0.2, 0.2, 0.2], cutoffs=(1, 2, 3, 4))
        report = crossing_analysis(a, b)
        assert len(report.flips) <= 3
        assert list(report.flips) == sorted(report.flips)


class TestConfigValidation:
    def test_cutoffs_must_increase(self):
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=(5, 5))
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=())
        with pytest.raises(ValueError):
            EvalConfig(cutoffs=(0, 5))

    def test_tie_policy_and_prefix_start(self):
        with pytest.raises(ValueError):
            EvalConfig(tie_policy="coin_flip")
        with pytest.raises(ValueError):
            EvalConfig(prefix_start=0)

    def test_metrics_require_counted_cases(self):
        with pytest.raises(EvaluationError):
            metrics_from_ranks(np.array([-1, -1]), (1,))
