"""Evaluator tests: ranking semantics, samplers, determinism, crossings."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from recaudit import evaluation
from recaudit.errors import EvaluationError
from recaudit.evaluation import (
    CaseTable,
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
from recaudit.models import (
    EmbeddingMatrix,
    MarkovModel,
    PopularityModel,
    RecommenderModel,
    build_model,
    derive_embeddings,
)
from recaudit.probability import sampled_topc_probability
from recaudit.reports import plain
from recaudit.splitting import (
    LeaveOneOutSelection,
    SideStats,
    SplitSpec,
    SplitStats,
    DatasetSplit,
    leave_one_out_split,
)
from synth import build_dataset, build_split, evaluate_cell, first_flip, make_index

INDEX = tuple("abcdefgh")
A, B, C, D, E, F, G, H = range(8)


def dataset_from(words, index=INDEX, t0=0, seq_id_base=0):
    rows = []
    t = t0
    for word in words:
        codes = [index.index(ch) for ch in word]
        rows.append((codes, np.arange(t, t + len(codes))))
        t += 100
    return build_dataset(index, rows, seq_id_base)


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
        draws = {rank_of_target(scores, 0, "random", case_rng(9, i).random()) for i in range(60)}
        assert draws == {1, 2, 3}
        again = [rank_of_target(scores, 0, "random", case_rng(4, 7).random()) for _ in range(5)]
        assert len(set(again)) == 1

    def test_random_ties_need_a_draw(self):
        with pytest.raises(EvaluationError, match="tie draw"):
            rank_of_target(np.array([5.0, 5.0]), 0, "random")

    @given(
        ties=st.integers(0, 2**20),
        draw=st.one_of(
            st.just(0.0), st.just(float(np.nextafter(1.0, 0.0))),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
    )
    @settings(max_examples=500, deadline=None)
    def test_a_draw_places_the_target_among_its_ties(self, ties, draw):
        # the target scores 1; ties others equal it, two score more, one less
        scores = np.concatenate([[1.0], np.ones(ties), [2.0, 3.0, 0.0]])
        rank = rank_of_target(scores, 0, "random", draw)
        assert 3 <= rank <= 3 + ties
        assert rank == 3 + int(draw * (ties + 1))

    @pytest.mark.parametrize("ties", (0, 1, 2, 6))
    def test_each_tied_position_is_equally_likely(self, ties):
        draws = np.random.default_rng(ties).random(60_000)
        scores = np.ones(ties + 1)
        positions = Counter(rank_of_target(scores, 0, "random", u) - 1 for u in draws.tolist())
        assert set(positions) == set(range(ties + 1))
        share = 1 / (ties + 1)
        sigma = (share * (1 - share) / len(draws)) ** 0.5
        for count in positions.values():
            assert abs(count / len(draws) - share) <= 5 * sigma

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


def prefixes(cases):
    """Each case's prefix, in case-index order."""
    return [cases.items[lo:hi] for lo, hi in zip(cases.starts, cases.stops)]


def seed_sequence_rng(master_seed, case_index):
    """The reference per-case generator the block seed table reproduces."""
    return np.random.default_rng(np.random.SeedSequence([master_seed, case_index]))


class TestCaseRng:
    # master seeds of one to five uint32 words; case indices at block and
    # word boundaries (4,096 divides 2**32, so no block straddles one)
    @given(
        master_seed=st.one_of(
            st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**96, 2**130]),
            st.integers(0, 2**130),
        ),
        case_index=st.one_of(
            st.sampled_from([0, 4095, 4096, 2**32 - 1, 2**32, 2**32 + 1]),
            st.integers(0, 2**70),
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_seed_sequence_generator(self, master_seed, case_index):
        rng = case_rng(master_seed, case_index)
        reference = seed_sequence_rng(master_seed, case_index)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(4).tolist() == reference.random(4).tolist()
        assert rng.integers(0, 2**63, 4).tolist() == reference.integers(0, 2**63, 4).tolist()

    def test_a_walk_across_blocks_equals_the_reference(self):
        # ascending, then back into the block before: each block is rebuilt as needed
        for case_index in [*range(4090, 4102), 4095, 8191, 8192, 0]:
            assert (
                case_rng(7, case_index).bit_generator.state
                == seed_sequence_rng(7, case_index).bit_generator.state
            ), case_index

    @pytest.mark.parametrize("master_seed, case_index", [(-1, 0), (0, -1), (-(2**40), 3)])
    def test_a_negative_seed_or_index_is_refused(self, master_seed, case_index):
        with pytest.raises(ValueError):
            seed_sequence_rng(master_seed, case_index)
        with pytest.raises(ValueError):
            case_rng(master_seed, case_index)


class TestEnumerateCases:
    def test_time_split_grows_prefixes(self):
        split = split_from(["abc"], ["abcd"])
        cases = enumerate_cases(split)
        lengths = (cases.stops - cases.starts).tolist()
        assert list(zip(lengths, cases.targets.tolist())) == [(1, B), (2, C), (3, D)]
        assert len(cases) == 3  # case indices 0, 1, 2 are the rows

    def test_prefix_start_skips_short_prefixes(self):
        split = split_from(["abc"], ["abcd"])
        cases = enumerate_cases(split, prefix_start=2)
        lengths = (cases.stops - cases.starts).tolist()
        assert list(zip(lengths, cases.targets.tolist())) == [(2, C), (3, D)]

    @pytest.mark.parametrize("prefix_start", [4, 100_000, 2**63, 2**70])
    def test_prefix_start_past_every_sequence_lists_no_case(self, prefix_start):
        # beyond int64 as well: no test sequence is that long
        cases = enumerate_cases(split_from(["abc"], ["abcd", "ab"]), prefix_start)
        assert len(cases) == 0 and len(cases.starts) == len(cases.stops) == 0

    def test_loo_pairs_training_prefix_with_target(self):
        data = dataset_from(["abc", "bcd"])
        split = leave_one_out_split(data, LeaveOneOutSelection())
        cases = enumerate_cases(split)
        assert len(cases) == 2
        first, second = prefixes(cases)
        assert first.tolist() == [A, B] and cases.targets[0] == C
        assert second.tolist() == [B, C] and cases.targets[1] == D


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

    @pytest.mark.parametrize("text", ["none:5", "none:5%", "none:"])
    def test_full_ranking_takes_no_sample_size(self, text):
        with pytest.raises(ValueError, match="takes no sample size"):
            SamplerSpec.parse(text)

    @pytest.mark.parametrize("size", [{"sample_count": 5}, {"sample_fraction": 0.1}])
    def test_full_ranking_built_directly_takes_no_sample_size(self, size):
        # else two full-ranking cells of one grid would share the label "none"
        with pytest.raises(ValueError, match="takes no sample size"):
            SamplerSpec("none", **size)

    def test_sample_count_defaults_to_100_for_sampled_strategies(self):
        assert SamplerSpec().sample_count is None
        assert SamplerSpec("uniform") == SamplerSpec("uniform", sample_count=100)
        assert hash(SamplerSpec("uniform")) == hash(SamplerSpec.parse("uniform:100"))
        fraction = SamplerSpec("popularity", sample_fraction=0.1)
        assert fraction.sample_count == 100 and fraction.describe() == "popularity:10%"


def reference_weighted_sample(strategy, support, target, count, rng):
    """A weighted draw as the rule states it: with replacement from the whole
    catalog's weights, the target dropped as repeats are, keys for the rest."""
    if strategy == "popularity":
        weights = support.astype(np.float64)
    else:
        weights = np.array([1.0 / s if s else 0.0 for s in support.tolist()])
    cumulative = np.cumsum(weights)
    chosen = []
    for _ in range(evaluation._SUCCESSIVE_ROUNDS):
        need = count - len(chosen)
        points = rng.random(need + need // 8 + 1) * cumulative[-1]
        for item in np.searchsorted(cumulative, points, side="right").tolist():
            if item != target and item not in chosen and len(chosen) < count:
                chosen.append(item)
        if len(chosen) == count:
            return np.array(chosen, dtype=np.intp)
    weights[chosen] = 0.0
    weights[target] = 0.0
    rest = evaluation._weighted_without_replacement(weights, count - len(chosen), rng)
    return np.concatenate((np.array(chosen, dtype=np.intp), rest))


def assert_weighted_draws_agree(strategy, support, target, count, rng):
    """The pass table's draw, the reference and an out-of-pass call agree in bytes."""
    state = rng.bit_generator.state
    rngs = [np.random.default_rng() for _ in range(3)]
    for generator in rngs:
        generator.bit_generator.state = state
    table = evaluation._WeightTable.of(strategy, support)
    spec = SamplerSpec(strategy=strategy, sample_count=count)
    drawn = [
        evaluation._successive_sample(table, target, count, rngs[0]),
        reference_weighted_sample(strategy, support, target, count, rngs[1]),
        sample_negatives(spec, target, len(support), support, None, rngs[2]),
    ]
    assert drawn[0].tolist() == drawn[1].tolist() == drawn[2].tolist()
    assert drawn[0].dtype == drawn[1].dtype == drawn[2].dtype
    states = [generator.bit_generator.state for generator in rngs]
    assert states[0] == states[1] == states[2]


class TestWeightTable:
    """One weight table per pass draws what the rule draws, target rejected."""

    @pytest.mark.parametrize("strategy", ("popularity", "inverse_popularity"))
    @given(
        support=st.lists(st.integers(0, 9), min_size=2, max_size=40),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_table_draw_equals_reference_draw(self, strategy, support, data, seed):
        support = np.array(support, dtype=np.int64)
        last = len(support) - 1
        target = data.draw(
            st.one_of(st.just(0), st.just(last), st.integers(0, last)), label="target"
        )
        if support[target] and data.draw(st.booleans(), label="zero target"):
            support[target] = 0
        positive = int(np.count_nonzero(support)) - (support[target] > 0)
        assume(positive >= 1)
        count = data.draw(st.integers(1, positive), label="count")
        assert_weighted_draws_agree(strategy, support, target, count, case_rng(seed, target))

    @pytest.mark.parametrize("workers", (1, 2))
    def test_one_table_per_weighted_strategy_per_pass(
        self, grid_inputs, inline_pool, monkeypatch, workers
    ):
        split, models, _ = grid_inputs
        fitted = list(models.values())
        built = []
        build = evaluation._WeightTable.of
        monkeypatch.setattr(
            evaluation._WeightTable, "of",
            lambda strategy, support: built.append(strategy) or build(strategy, support),
        )
        monkeypatch.setattr(
            evaluation.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
        )
        cfg = EvalConfig(tie_policy="random", master_seed=3)
        samplers = [
            SamplerSpec.parse(text)
            for text in ("popularity:5", "uniform:5", "inverse_popularity:5", "popularity:3")
        ]
        cases = enumerate_cases(split)
        whole = compute_case_ranks(fitted, cases, split, cfg, samplers, workers=workers)
        assert built == ["popularity", "inverse_popularity"] and not evaluation._PASS
        assert (len(inline_pool[1]) > 1) == (workers > 1)  # blocks ran in the pool
        # outside a pass every draw builds its own table, and ranks the same
        run = evaluation._Pass.of(fitted, cases, split, cfg, samplers)
        built.clear()
        alone = evaluation._rank_case_range(run, 0, len(cases))
        assert alone.tolist() == whole.tolist()
        scoreable = int(np.count_nonzero(split.train.item_support[cases.targets] > 0))
        assert Counter(built) == {"popularity": 2 * scoreable, "inverse_popularity": scoreable}

    def test_out_of_pass_draw_equals_the_draw_in_a_pass(self, grid_inputs, monkeypatch):
        split, models, _ = grid_inputs
        draws = []
        draw = evaluation.sample_negatives

        def recorded(spec, target, catalog_size, support, embeddings, rng):
            # the draw reads the pass's table
            assert spec.strategy in evaluation._PASS[-1].tables
            assert evaluation._PASS[-1].support is support
            before = rng.bit_generator.state
            drawn = draw(spec, target, catalog_size, support, embeddings, rng)
            draws.append((spec, target, support, before, drawn, rng.bit_generator.state))
            return drawn

        monkeypatch.setattr(evaluation, "sample_negatives", recorded)
        cfg = EvalConfig(tie_policy="random", master_seed=6)
        samplers = [SamplerSpec.parse("popularity:5"), SamplerSpec.parse("inverse_popularity:7")]
        evaluate(models, split, cfg, samplers)
        assert draws and not evaluation._PASS
        for spec, target, support, before, drawn, after in draws:
            rng = np.random.default_rng()
            rng.bit_generator.state = before
            alone = draw(spec, target, len(support), support, None, rng)
            assert alone.tolist() == drawn.tolist() and alone.dtype == drawn.dtype
            assert rng.bit_generator.state == after


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

    @pytest.mark.parametrize("strategy", ("popularity", "inverse_popularity"))
    @pytest.mark.parametrize("heavy", (0, 1), ids=("target-heavy", "neighbour-heavy"))
    @pytest.mark.parametrize("target", [0, 2, 5])
    def test_keyed_finish_draws_as_the_reference(self, strategy, heavy, target, monkeypatch):
        # one item, the target or the next one, holds nearly all the weight:
        # four rounds rarely find the light ones, so keys finish
        light, weighty = (1, 5000) if strategy == "popularity" else (5000, 1)
        support = np.array([0, light, light, light, 0, light], dtype=np.int64)
        support[(target + heavy) % 6] = weighty
        keyed = []
        keys = evaluation._weighted_without_replacement
        monkeypatch.setattr(
            evaluation, "_weighted_without_replacement",
            lambda *args: keyed.append(1) or keys(*args),
        )
        count = int(np.count_nonzero(support)) - (support[target] > 0)
        for case in range(20):
            assert_weighted_draws_agree(strategy, support, target, count, case_rng(4, case))
        assert len(keyed) > 20

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
        return EmbeddingMatrix(vectors)

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


def successive_law(weights, count):
    """Exact probability of every ``count``-subset under successive sampling."""
    items = [i for i, w in enumerate(weights) if w > 0]
    total = sum(weights[i] for i in items)
    law = {}
    for order in itertools.permutations(items, count):
        p, left = 1.0, total
        for item in order:
            p *= weights[item] / left
            left -= weights[item]
        key = tuple(sorted(order))
        law[key] = law.get(key, 0.0) + p
    return law


def lexsort_top(values, count, target):
    """The full-catalog sort that ``_top_by_value`` must agree with, in order."""
    order = np.lexsort((np.arange(len(values)), -values))
    return order[order != target][:count]


@st.composite
def top_inputs(draw):
    """(values, count, target): normal values, few-level ties, one-decimal
    ties or signed zeros; the target often sits on the boundary."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "levels", "decimals", "zeros"]))
    if kind == "normal":
        values = rng.normal(size=n)
    elif kind == "levels":
        values = rng.integers(0, 5, size=n).astype(np.float64)
    elif kind == "decimals":
        values = np.round(rng.normal(size=n), 1)
    else:
        values = rng.choice([0.0, -0.0, 1.0], size=n)
    count = draw(st.one_of(st.integers(1, n - 1), st.just(n - 1)))
    boundary = int(np.lexsort((np.arange(n), -values))[count])
    target = draw(st.one_of(st.integers(0, n - 1), st.just(boundary)))
    return values, count, target


class TestTopByValue:
    @given(top_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_full_sort(self, inputs):
        values, count, target = inputs
        top = evaluation._top_by_value(values, count, target)
        assert top.tolist() == lexsort_top(values, count, target).tolist()

    @pytest.mark.parametrize(
        "values, count, target",
        [
            ([5.0, 4.0, 4.0, 4.0, 1.0], 2, 2),  # ties at the boundary, target among them
            ([5.0, 4.0, 4.0, 4.0, 1.0], 1, 0),  # target above the boundary
            ([2.0, 2.0, 2.0, 2.0], 3, 1),  # all tied, count = N - 1
            ([1.0, 3.0, 2.0], 2, 1),  # count = N - 1, target the largest
        ],
    )
    def test_boundary_cases(self, values, count, target):
        values = np.array(values)
        top = evaluation._top_by_value(values, count, target)
        assert top.tolist() == lexsort_top(values, count, target).tolist()
        assert target not in top.tolist() and len(top) == count


class TestWeightedSamplerLaw:
    """Every subset a weighted sampler can draw, at its exact frequency."""

    TRIALS = 20_000
    TARGET = 2

    @pytest.mark.parametrize(
        "strategy, support, keyed",
        [
            ("popularity", [5, 1, 9, 3, 0, 8, 2, 4], False),
            ("inverse_popularity", [5, 1, 9, 3, 0, 8, 2, 4], False),
            # one item holds nearly all the weight: the draws rarely find three
            # distinct items, and the exponential keys finish the sample
            ("popularity", [1, 2, 9, 100_000, 3, 0, 1], True),
            ("inverse_popularity", [3000, 1, 9, 4000, 0, 2000, 5000], True),
            # the target holds nearly all the weight: the draws rarely miss it,
            # and each one that lands on it is dropped like a repeat
            ("popularity", [1, 2, 100_000, 3, 0, 4, 1], True),
            ("inverse_popularity", [3000, 2000, 1, 4000, 0, 5000, 2500], True),
        ],
    )
    def test_subset_frequencies_match_successive_sampling(
        self, strategy, support, keyed, monkeypatch
    ):
        support = np.array(support, dtype=np.int64)
        weights = [0.0 if s == 0 else (s if strategy == "popularity" else 1.0 / s)
                   for s in support.tolist()]
        weights[self.TARGET] = 0.0
        law = successive_law(weights, 3)
        keyed_calls = []
        keys = evaluation._weighted_without_replacement
        monkeypatch.setattr(
            evaluation,
            "_weighted_without_replacement",
            lambda *args: keyed_calls.append(1) or keys(*args),
        )
        spec = SamplerSpec(strategy=strategy, sample_count=3)
        rng = case_rng(17, len(support))
        counts = dict.fromkeys(law, 0)
        for _ in range(self.TRIALS):
            drawn = sample_negatives(spec, self.TARGET, len(support), support, None, rng)
            key = tuple(sorted(drawn.tolist()))
            assert len(set(key)) == 3
            assert key in counts, key  # never the target, never a zero weight
            counts[key] += 1
        for key, p in law.items():
            sigma = (self.TRIALS * p * (1 - p)) ** 0.5
            assert abs(counts[key] - self.TRIALS * p) <= 4 * sigma, (key, counts[key], p)
        if keyed:
            assert len(keyed_calls) > self.TRIALS // 2
        else:
            assert len(keyed_calls) < self.TRIALS // 10


class TestEvaluate:
    def test_textbook_single_case_metrics(self):
        split = split_from(["ab"], ["ca"])  # one case: prefix [c] -> target a
        scores = np.zeros(8)
        scores[[D, E]] = 5.0  # two items outrank the target
        scores[A] = 1.0
        report = evaluate_cell(FixedScores(scores), split, EvalConfig(cutoffs=(1, 5)))
        assert report.recall == {1: 0.0, 5: 1.0}
        assert report.mrr == {1: 0.0, 5: pytest.approx(1 / 3)}
        assert report.case_count == 1 and report.total_cases == 1

    def test_planted_chain_full_recall_at_one(self):
        split = split_from(["abcd"] * 4, ["abcd", "abcd"])
        model = MarkovModel().fit(split.train)
        report = evaluate_cell(model, split, EvalConfig(cutoffs=(1, 5)))
        assert report.recall[1] == 1.0
        assert report.mrr[1] == 1.0

    def test_unseen_targets_skipped_and_counted(self):
        split = split_from(["abc", "abc"], ["abh"])  # h never trains
        model = PopularityModel().fit(split.train)
        report = evaluate_cell(model, split, EvalConfig(cutoffs=(1, 8)))
        assert report.total_cases == 2
        assert report.skipped_unseen_target_count == 1
        assert report.case_count == 1

    def test_all_targets_unseen_is_an_error(self):
        split = split_from(["abc"], ["ah"])
        with pytest.raises(EvaluationError, match="no scoreable"):
            evaluate_cell(PopularityModel().fit(split.train), split, EvalConfig())

    def test_metric_monotonicity_and_bounds(self):
        split = split_from(["abcd", "bcda", "cdab"], ["abcd", "dcba", "badc"])
        model = MarkovModel().fit(split.train)
        report = evaluate_cell(model, split, EvalConfig(cutoffs=(1, 2, 4, 8)))
        values = [report.recall[n] for n in report.cutoffs]
        assert values == sorted(values)
        mrrs = [report.mrr[n] for n in report.cutoffs]
        assert mrrs == sorted(mrrs)
        for n in report.cutoffs:
            assert 0.0 <= report.mrr[n] <= report.recall[n] <= 1.0
        assert report.recall[8] == 1.0  # catalog-wide cutoff catches everything

    @pytest.mark.parametrize("tie_policy", ("optimistic", "pessimistic", "random"))
    def test_sampled_ranks_dominate_full_ranks_per_case(self, tie_policy):
        orders = ["".join(order) for order in itertools.permutations("abcd")]
        split = split_from(["abcd", "bcda", "cdab", "abce"], orders)
        model = MarkovModel().fit(split.train)
        embeddings = derive_embeddings(split.train, 3, 1)
        cfg = EvalConfig(cutoffs=(1, 2), tie_policy=tie_policy)
        full = evaluate_cell(model, split, cfg)
        for strategy in evaluation.SAMPLER_STRATEGIES[1:]:
            sampler = SamplerSpec(strategy, sample_count=3)
            sampled = evaluate_cell(model, split, cfg, sampler, embeddings)
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
            evaluate_cell(model, split, cfg, sampler, workers=w) for w in (1, 2, 4)
        ]
        for other in reports[1:]:
            assert plain(other) == plain(reports[0])
            assert np.array_equal(other.ranks, reports[0].ranks)

    def test_sampled_recall_matches_closed_form_probability(self):
        catalog = 50
        index = tuple(f"i{k:02d}" for k in range(catalog))
        train = build_dataset(
            index,
            [
                (np.arange(catalog), np.arange(catalog)),
                (np.arange(catalog), np.arange(catalog) + 100),
            ],
        )
        rank_r = 10
        target = rank_r - 1  # scores strictly descending by index
        test_rows = [([0, target], [1000 + k, 1001 + k]) for k in range(4000)]
        test = build_dataset(index, test_rows, seq_id_base=2)
        split = DatasetSplit(
            train=train,
            test=test,
            spec=SplitSpec(strategy="time", split_time=500),
            stats=SplitStats(SideStats(0, 0, 0), SideStats(0, 0, 0), 0, 0),
            split_time=500,
        )
        model = FixedScores(np.arange(catalog, 0, -1, dtype=np.float64))
        cutoff, samples = 3, 10
        report = evaluate_cell(
            model,
            split,
            EvalConfig(cutoffs=(cutoff,), master_seed=5),
            SamplerSpec(strategy="uniform", sample_count=samples),
        )
        expected = sampled_topc_probability(catalog, rank_r, samples, cutoff)
        sigma = (expected * (1 - expected) / report.case_count) ** 0.5
        assert abs(report.recall[cutoff] - expected) <= 4 * sigma


GRID_MODELS = ("markov", "cooccurrence", "popularity")
GRID_SAMPLERS = tuple(
    SamplerSpec.parse(text)
    for text in (
        "none", "uniform:5", "popularity:5", "inverse_popularity:5", "top_popular:5",
        "close_embedding:5",
    )
)


@pytest.fixture(scope="module")
def grid_inputs():
    """A split with many score ties and some unseen targets, its models and embeddings."""
    rng = np.random.default_rng(5)
    index = make_index(31)  # item 30 never trains: cases predicting it are unscoreable
    train = [(rng.integers(0, 30, size=8), np.arange(8) + 100 * k) for k in range(40)]
    test = [(rng.integers(0, 31, size=6), 10_000 + np.arange(6) + 100 * k) for k in range(12)]
    split = build_split(index, train, test)
    models = {name: build_model(name).fit(split.train) for name in GRID_MODELS}
    return split, models, derive_embeddings(split.train, 4, 3)


class Counted(RecommenderModel):
    """Delegates scoring to a fitted model and counts the cases it scores."""

    def __init__(self, inner, counts):
        self.inner, self.counts = inner, counts

    def fit(self, train):
        return self

    def score_all(self, prefix):
        return self.inner.score_all(prefix)

    def score_case(self, case_index, prefix):
        self.counts[case_index] += 1
        return self.inner.score_case(case_index, prefix)


class TestGridEvaluation:
    @pytest.mark.parametrize("workers", (1, 2))
    @pytest.mark.parametrize("tie_policy", ("optimistic", "pessimistic", "random"))
    def test_one_pass_equals_one_cell_evaluations(self, grid_inputs, tie_policy, workers):
        split, models, embeddings = grid_inputs
        cfg = EvalConfig(cutoffs=(1, 3, 10), tie_policy=tie_policy, master_seed=13)
        grid = evaluate(models, split, cfg, GRID_SAMPLERS, embeddings, workers=workers)
        cases = enumerate_cases(split)
        assert grid.total_cases == len(cases)
        assert len(grid.reports) == len(GRID_MODELS) * len(GRID_SAMPLERS)
        for sampler in GRID_SAMPLERS:
            for name, model in models.items():
                alone = evaluate_cell(model, split, cfg, sampler, embeddings, model_name=name)
                report = grid[name, sampler.describe()]
                assert plain(report) == plain(alone), (name, sampler)
                assert report.ranks.tolist() == alone.ranks.tolist(), (name, sampler)
        assert np.count_nonzero(report.ranks < 0) > 0  # unscoreable cases are covered

    def test_each_case_is_scored_once_and_each_generator_built_once(
        self, grid_inputs, monkeypatch
    ):
        split, models, embeddings = grid_inputs
        scored = {name: Counter() for name in models}
        counted = {name: Counted(model, scored[name]) for name, model in models.items()}
        rngs, draws = Counter(), Counter()
        build_rng, draw = evaluation.case_rng, evaluation.sample_negatives

        def counting_rng(master_seed, case_index):
            rngs[case_index] += 1
            return build_rng(master_seed, case_index)

        def counting_draw(spec, *args):
            draws[spec.strategy] += 1
            return draw(spec, *args)

        monkeypatch.setattr(evaluation, "case_rng", counting_rng)
        monkeypatch.setattr(evaluation, "sample_negatives", counting_draw)
        cfg = EvalConfig(tie_policy="random", master_seed=2)
        evaluate(counted, split, cfg, GRID_SAMPLERS, embeddings)

        support = split.train.item_support
        cases = enumerate_cases(split)
        indices = np.flatnonzero(support[cases.targets] > 0).tolist()
        targets = set(cases.targets[indices].tolist())
        assert len(indices) < len(cases)
        for name in models:
            assert scored[name] == Counter(indices), name
        # one generator per case, its state after the tie draw restored for each later sampler
        assert rngs == Counter({i: 1 for i in indices})
        # random samplers draw per case, deterministic ones once per distinct target
        assert draws == {
            "uniform": len(indices),
            "popularity": len(indices),
            "inverse_popularity": len(indices),
            "top_popular": len(targets),
            "close_embedding": len(targets),
        }

    def test_cells_with_equal_ties_share_the_case_draw(self, grid_inputs):
        split, _, _ = grid_inputs
        catalog = split.train.num_items
        # every item ties the target: a cell's rank is its tie position plus one
        models = {"zeros": FixedScores(np.zeros(catalog)), "ones": FixedScores(np.ones(catalog))}
        samplers = [
            SamplerSpec.parse(text)
            for text in ("none", "uniform:5", "popularity:5", "inverse_popularity:5",
                         "top_popular:5")
        ]
        cfg = EvalConfig(tie_policy="random", master_seed=11)
        grid = evaluate(models, split, cfg, samplers)
        cases = enumerate_cases(split)
        scoreable = np.flatnonzero(split.train.item_support[cases.targets] > 0)
        draws = np.array([case_rng(11, i).random() for i in scoreable.tolist()])
        for sampler in samplers:
            ties = catalog - 1 if sampler.strategy == "none" else sampler.sample_count
            for name in models:
                ranks = grid[name, sampler].ranks[scoreable]
                assert ranks.tolist() == (1 + (draws * (ties + 1)).astype(int)).tolist()

    def test_repeated_samplers_are_evaluated_once(self, grid_inputs):
        split, models, _ = grid_inputs
        cfg = EvalConfig(master_seed=4)
        uniform = SamplerSpec.parse("uniform:5")
        grid = evaluate(models, split, cfg, [uniform, SamplerSpec(), uniform])
        assert list(grid.reports) == [
            (name, sampler) for sampler in (uniform, SamplerSpec()) for name in models
        ]

    def test_deterministic_negatives_do_not_keep_the_catalog_sort(self):
        # one top_popular negative set per distinct target: each must hold its
        # few items, not a view of a catalog-size sort order
        catalog, targets = 4000, 400
        index = make_index(catalog)
        train = [(np.arange(catalog), np.arange(catalog))]
        test = [
            (np.array([0, t]), 10_000 + np.arange(2) + 10 * t)
            for t in range(1, targets + 1)
        ]
        split = build_split(index, train, test)
        model = FixedScores(np.zeros(catalog))
        cfg = EvalConfig(cutoffs=(1,))
        tracemalloc.start()
        try:
            evaluate({"fixed": model}, split, cfg, [SamplerSpec.parse("top_popular:5")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # views would keep targets × catalog × 8 bytes (12.8 MB) alive
        assert peak < 4 << 20


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for the fork pool: blocks run in this process, recorded.

    Returns the pool sizes asked for and the block bounds run, in order.
    """
    sizes, blocks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            for bounds in items:
                blocks.append(bounds)
                yield fn(bounds)

    monkeypatch.setattr(evaluation, "_fork_pool", InlinePool)
    return sizes, blocks


class TestBlockBoundaries:
    """Blocks of cases, as fork-pool chunks cut them, rank as the whole range does."""

    @pytest.mark.parametrize("sampler", ("none", "uniform:5"))
    def test_every_cut_ranks_as_one_range(self, grid_inputs, sampler):
        split, models, _ = grid_inputs
        fitted = [models["markov"], models["cooccurrence"]]
        cfg = EvalConfig(tie_policy="random", master_seed=7)
        samplers = [SamplerSpec.parse(sampler)]
        cases = enumerate_cases(split)
        whole = compute_case_ranks(fitted, cases, split, cfg, samplers)
        run = evaluation._Pass.of(fitted, cases, split, cfg, samplers)
        for cut in range(len(cases) + 1):
            blocks = [
                evaluation._rank_case_range(run, lo, hi)
                for lo, hi in ((0, cut), (cut, len(cases)))
            ]
            assert np.concatenate(blocks, axis=2).tolist() == whole.tolist(), cut

    def test_one_case_chunks_rank_as_one_process(self, grid_inputs, inline_pool, monkeypatch):
        split, models, _ = grid_inputs
        fitted = [models["markov"], models["cooccurrence"]]
        cfg = EvalConfig(tie_policy="random", master_seed=7)
        samplers = [SamplerSpec(), SamplerSpec.parse("uniform:5")]
        cases = enumerate_cases(split)
        whole = compute_case_ranks(fitted, cases, split, cfg, samplers)
        _, chunks = inline_pool
        monkeypatch.setattr(
            evaluation.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
        )
        chunked = compute_case_ranks(fitted, cases, split, cfg, samplers, workers=64)
        assert chunks == [(k, k + 1) for k in range(len(cases))]
        assert chunked.tolist() == whole.tolist()

    def test_streamed_vectors_are_read_only(self, grid_inputs):
        split, models, _ = grid_inputs
        model = models["cooccurrence"]
        fallback = model.fallback_.copy()
        cases = enumerate_cases(split)
        for scores in model.score_cases(cases, np.arange(len(cases))):
            with pytest.raises(ValueError):
                scores[0] = -1.0
        # a prefix of an item that never trains scores by the fallback
        unseen = CaseTable(
            items=np.array([30]), starts=np.array([0]), stops=np.array([1]),
            targets=np.array([0]),
        )
        (scores,) = model.score_cases(unseen, np.array([0]))
        assert scores.tolist() == fallback.tolist()
        with pytest.raises(ValueError):
            scores[0] = -1.0
        assert model.fallback_.tolist() == fallback.tolist()


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, expected", [(3, 3), (64, 6)])
    def test_pool_never_outgrows_cpus_or_blocks(self, inline_pool, monkeypatch, cpus, expected):
        created, _ = inline_pool
        monkeypatch.setattr(
            evaluation.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
        )
        split = split_from(["abcd", "bcda", "cdab"], ["abcd", "dcba"])  # 6 cases
        model = MarkovModel().fit(split.train)
        cfg = EvalConfig(cutoffs=(1, 5))
        wide = evaluate_cell(model, split, cfg, workers=5000)
        assert created == [expected]
        assert wide.ranks.tolist() == evaluate_cell(model, split, cfg).ranks.tolist()


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
        assert first_flip(report) == (5, 20)
        assert report.difference[5] == pytest.approx(-0.1)
        assert report.relative_difference[5] == pytest.approx(-0.5)

    def test_identical_reports_have_no_flips(self):
        report = crossing_analysis(make_report([0.2, 0.4]), make_report([0.2, 0.4]))
        assert report.flips == ()
        assert first_flip(report) is None

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
