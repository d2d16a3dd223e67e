"""Ten end-to-end gates the finished harness must clear.

Each test pins one numbered requirement with its tolerance stated inline:
closed-form fidelity and oracles, sampling-bias dominance and the uniform
sampler against the closed form, metric-ordering flips under shrinking
candidate sets, leakage and sequentiality audits, collision warnings,
preprocessing fixpoints, cross-thread determinism, and full-catalog
throughput.  Gap sizes and rates are printed alongside the
asserts so a verbose run doubles as a measurement report.
"""

import contextlib
import io
import itertools
import json
import os
import time
from fractions import Fraction

import numpy as np
import pytest

from recaudit.cli import main as cli_main
from recaudit.diagnostics import (
    VERDICT_PRESENT,
    VERDICT_WEAK,
    collision_stats,
    transition_overlap,
)
from recaudit.evaluation import (
    EvalConfig,
    SAMPLER_STRATEGIES,
    SamplerSpec,
    crossing_analysis,
    enumerate_cases,
)
from recaudit.errors import PreprocessError
from recaudit.models import MarkovModel, RecommenderModel, derive_embeddings
from recaudit.preprocess import PipelineConfig, iterative_support_filter, preprocess
from recaudit.probability import (
    _sampled_topc_fraction,
    sampled_topc_probability,
    sampled_topc_probability_float,
)
from recaudit.splitting import (
    STRATEGY_LOO,
    STRATEGY_TIME,
    LeaveOneOutSelection,
    SplitSpec,
    apply_split,
)
from synth import (
    DAY,
    build_dataset,
    build_split,
    canonical_text,
    chain_split,
    evaluate_cell,
    event_log,
    first_flip,
    fit_and_probe,
    log_of,
    make_index,
    matched_loo_k,
    records,
    write_events_csv,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# ---- 1. closed-form fidelity at the reference points ------------------------


class TestFormulaFidelity:
    REFERENCE = (
        (10000, 1490, 100, 20),
        (100000, 14878, 100, 20),
    )

    def test_reference_points_exceed_ninety_percent(self):
        for catalog, rank, samples, cutoff in self.REFERENCE:
            started = time.perf_counter()
            exact = sampled_topc_probability(catalog, rank, samples, cutoff)
            exact_seconds = time.perf_counter() - started

            started = time.perf_counter()
            log_space = sampled_topc_probability_float(catalog, rank, samples, cutoff)
            float_seconds = time.perf_counter() - started

            assert 0.90 < exact < 1.0, (catalog, rank, exact)
            assert abs(exact - log_space) <= 1e-9 * exact
            assert exact_seconds < 1.0 and float_seconds < 1.0
            print(
                f"PASS 1: P({catalog},{rank},{samples},{cutoff}) = {exact:.16f} "
                f"(log-space {log_space:.16f}, {exact_seconds * 1e3:.1f} ms)"
            )


# ---- 2. closed form against independent oracles ------------------------------


class TestFormulaOracles:
    TRIALS = 100_000

    def _mc_agrees(self, rng, catalog, rank, samples, cutoff):
        p = sampled_topc_probability(catalog, rank, samples, cutoff)
        draws = rng.hypergeometric(rank - 1, catalog - rank, samples, size=self.TRIALS)
        estimate = float(np.mean(draws <= cutoff - 1))
        sigma = (p * (1.0 - p) / self.TRIALS) ** 0.5
        assert abs(estimate - p) <= 4.0 * sigma + 1e-12, (
            catalog, rank, samples, cutoff, p, estimate,
        )

    def test_monte_carlo_grid_within_four_sigma(self):
        started = time.perf_counter()
        rng = np.random.default_rng(20260822)
        tuples = [
            (1000, 1, 100, 20),      # guaranteed hit
            (1000, 1000, 100, 20),   # near-certain miss
            (500, 250, 499, 100),    # sample is the whole complement
            (50, 25, 49, 10),
            (1000, 901, 200, 199),
        ]
        while len(tuples) < 55:
            catalog = int(rng.integers(20, 1001))
            rank = int(rng.integers(1, catalog + 1))
            samples = int(rng.integers(1, min(catalog - 1, 200) + 1))
            cutoff = int(rng.integers(1, samples + 1))
            tuples.append((catalog, rank, samples, cutoff))
        for spec in tuples:
            self._mc_agrees(rng, *spec)
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        print(f"PASS 2a: {len(tuples)} tuples vs {self.TRIALS}-trial MC in {elapsed:.1f} s")

    def test_explicit_subset_simulation_within_four_sigma(self):
        # draws real candidate subsets instead of hypergeometric counts, so the
        # combinatorial model itself is exercised, not just numpy's sampler
        rng = np.random.default_rng(7)
        started = time.perf_counter()
        for catalog, rank, samples, cutoff in (
            (30, 10, 5, 3),
            (60, 40, 20, 5),
            (40, 3, 10, 2),
            (25, 25, 10, 4),
            (50, 17, 30, 12),
        ):
            p = sampled_topc_probability(catalog, rank, samples, cutoff)
            keys = rng.random((self.TRIALS, catalog - 1))
            subset = np.argpartition(keys, samples - 1, axis=1)[:, :samples]
            better_in_sample = np.sum(subset < rank - 1, axis=1)
            estimate = float(np.mean(better_in_sample <= cutoff - 1))
            sigma = (p * (1.0 - p) / self.TRIALS) ** 0.5
            assert abs(estimate - p) <= 4.0 * sigma + 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 120.0
        print(f"PASS 2b: subset-draw simulation agrees in {elapsed:.1f} s")

    def test_exhaustive_enumeration_matches_exactly(self):
        checked = 0
        for catalog in range(4, 13):
            ranks = sorted({1, 2, catalog // 2, catalog})
            sizes = sorted({1, 2, catalog // 2, catalog - 1})
            for rank, samples in itertools.product(ranks, sizes):
                if not 1 <= samples <= catalog - 1:
                    continue
                for cutoff in sorted({1, 2, samples}):
                    total = 0
                    hits = 0
                    for subset in itertools.combinations(range(catalog - 1), samples):
                        total += 1
                        better = sum(1 for x in subset if x < rank - 1)
                        if better <= cutoff - 1:
                            hits += 1
                    expected = Fraction(hits, total)
                    assert _sampled_topc_fraction(catalog, rank, samples, cutoff) == expected
                    checked += 1
        assert checked >= 200
        print(f"PASS 2c: {checked} exhaustive enumerations match exactly")


# ---- 3. sampled metrics dominate full-catalog metrics ------------------------


CATALOG_10K = 10000


def _skewed_walk_rows(count, length, seed, start_time, catalog=CATALOG_10K):
    """Popularity-skewed walks with a planted successor function."""
    rng = np.random.default_rng(seed)
    weights = 1.0 / (np.arange(catalog) + 20.0)
    popular = rng.choice(catalog, size=count * length, p=weights / weights.sum())
    coins = rng.random((count, length))
    rows = []
    cursor = 0
    t = start_time
    for s in range(count):
        items = [int(popular[cursor])]
        cursor += 1
        for step in range(1, length):
            if coins[s, step] < 0.6:
                items.append((items[-1] * 7 + 13) % catalog)
            else:
                items.append(int(popular[cursor]))
                cursor += 1
        rows.append((np.array(items), t + np.arange(length) * 30))
        t += length * 30 + 30
    return rows


class TestSamplingBiasDominance:
    def test_sampled_rank_never_exceeds_full_rank(self):
        index = make_index(CATALOG_10K)
        split = build_split(
            index,
            _skewed_walk_rows(3000, 5, seed=10, start_time=0),
            _skewed_walk_rows(400, 5, seed=11, start_time=2 * DAY),
            split_time=DAY,
        )
        model = MarkovModel().fit(split.train)
        embeddings = derive_embeddings(split.train, 16, seed=3)
        cfg = EvalConfig(cutoffs=(1, 5, 10, 20), master_seed=7)

        full = evaluate_cell(model, split, cfg)
        scoreable = full.ranks > 0
        assert int(np.count_nonzero(scoreable)) >= 1000

        strategies = [s for s in SAMPLER_STRATEGIES if s != "none"]
        assert len(strategies) == 8
        uniform_report = None
        for strategy in strategies:
            report = evaluate_cell(
                model,
                split,
                cfg,
                SamplerSpec(strategy=strategy, sample_count=100),
                embeddings=embeddings,
            )
            assert np.array_equal(report.ranks > 0, scoreable), strategy
            violating = int(
                np.count_nonzero(report.ranks[scoreable] > full.ranks[scoreable])
            )
            assert violating == 0, (strategy, violating)
            if strategy == "uniform":
                uniform_report = report

        gap = uniform_report.recall[20] - full.recall[20]
        assert uniform_report.recall[20] >= full.recall[20]
        print(
            f"PASS 3: sampled rank <= full rank on {int(np.count_nonzero(scoreable))} "
            f"cases x 8 strategies; uniform:100 recall@20 {uniform_report.recall[20]:.4f} "
            f"vs full {full.recall[20]:.4f} (gap +{gap:.4f})"
        )


class TestClosedFormOracle:
    """Uniform sampled recall matches the closed form the full ranks predict.

    A case whose target has full rank r among N items (ties resolved by the
    same policy) stays in the sampled top-C with probability P(N, r, S, C);
    cases draw independently, so sampled recall@C has mean mean(p) and
    variance sum(p(1 - p)) / n^2.  The small catalog makes each sample a
    large share of it, where drawing with replacement or drawing the target
    as its own negative moves recall by many sigma.
    """

    @pytest.mark.parametrize(
        "catalog, tie_policy",
        [(CATALOG_10K, "optimistic"), (150, "optimistic"), (150, "pessimistic")],
    )
    def test_uniform_recall_within_four_sigma_of_the_closed_form(self, catalog, tie_policy):
        split = build_split(
            make_index(catalog),
            _skewed_walk_rows(3000, 5, seed=20, start_time=0, catalog=catalog),
            _skewed_walk_rows(400, 5, seed=21, start_time=2 * DAY, catalog=catalog),
            split_time=DAY,
        )
        model = MarkovModel().fit(split.train)
        cutoffs = (1, 5, 10, 20)
        full = evaluate_cell(model, split, EvalConfig(cutoffs=cutoffs, tie_policy=tie_policy))
        ranks = full.ranks[full.ranks > 0]
        distinct, inverse = np.unique(ranks, return_inverse=True)
        for samples in (20, 100):
            for seed in (7, 8):
                cfg = EvalConfig(cutoffs=cutoffs, tie_policy=tie_policy, master_seed=seed)
                report = evaluate_cell(
                    model, split, cfg, SamplerSpec(strategy="uniform", sample_count=samples)
                )
                zs = []
                for cutoff in cutoffs:
                    p = np.clip([
                        sampled_topc_probability_float(catalog, int(r), samples, cutoff)
                        for r in distinct
                    ], 0.0, 1.0)[inverse]  # log-space rounding can pass 1
                    expected = float(p.mean())
                    sigma = float(np.sqrt(np.sum(p * (1 - p)))) / len(p)
                    observed = report.recall[cutoff]
                    if sigma == 0:
                        assert observed == pytest.approx(expected, abs=1e-12)
                        zs.append(0.0)
                        continue
                    zs.append((observed - expected) / sigma)
                assert max(abs(z) for z in zs) <= 4, (samples, seed, zs)
                print(
                    f"PASS 3b: {catalog} items, {tie_policy} ties, uniform:{samples} "
                    f"seed {seed} on {len(ranks)} cases, z "
                    + " ".join(f"@{c} {z:+.2f}" for c, z in zip(cutoffs, zs))
                )


# ---- 4. ordering flips move forward as the candidate set shrinks -------------


class FixedRankModel(RecommenderModel):
    """Per-case scores that put the shared target at a prescribed full rank."""

    TARGET = 7777
    BLOCK = 10000  # ids reserved for the "better than target" block

    def __init__(self, ranks, catalog):
        self.ranks = np.asarray(ranks)
        self.base = -1000.0 - np.arange(catalog, dtype=np.float64)

    def fit(self, train):
        return self

    def score_all(self, prefix):
        raise NotImplementedError("scores are bound to cases")

    def score_case(self, case_index, prefix):
        rank = int(self.ranks[case_index])
        scores = self.base.copy()
        if rank > 1:
            scores[self.BLOCK : self.BLOCK + rank - 1] = 1000.0 + np.arange(rank - 1)
        scores[self.TARGET] = 0.0
        return scores


class TestOrderingFlip:
    def test_crossing_position_shrinks_with_sample_size(self):
        started = time.perf_counter()
        catalog = 20000
        cases = 600
        index = make_index(catalog)
        target = FixedRankModel.TARGET
        train_rows = [(np.array([target, target + 1]), np.array([0, 60]))]
        test_rows = [
            (np.array([1, target]), np.array([DAY + 120 * i, DAY + 120 * i + 30]))
            for i in range(cases)
        ]
        split = build_split(index, train_rows, test_rows, split_time=DAY // 2)

        # top-heavy: 70% of cases hit rank 1, the rest drown at rank 5000;
        # tail-heavy: every case sits at rank 150
        pattern = np.where(np.arange(cases) % 10 < 7, 1, 5000)
        top_heavy = FixedRankModel(pattern, catalog)
        tail_heavy = FixedRankModel(np.full(cases, 150), catalog)

        cutoffs = (1, 2, 3, 4, 5, 7, 10, 14, 20, 30, 50, 80, 150, 300, 800, 2000)
        cfg = EvalConfig(cutoffs=cutoffs, master_seed=0)
        positions = []
        for sampler_text in ("none", "uniform:10%", "uniform:1%", "uniform:100"):
            sampler = SamplerSpec.parse(sampler_text)
            report_a = evaluate_cell(top_heavy, split, cfg, sampler, model_name="top_heavy")
            report_b = evaluate_cell(tail_heavy, split, cfg, sampler, model_name="tail_heavy")
            crossing = crossing_analysis(report_a, report_b, metric="recall")
            assert crossing.flips, sampler_text
            positions.append(first_flip(crossing)[1])

        full_position, sampled = positions[0], positions[1:]
        assert full_position == 150
        chain = [full_position] + sampled
        assert all(a > b for a, b in zip(chain, chain[1:])), chain
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(
            f"PASS 4: crossing cutoff {chain[0]} (full) -> {chain[1]} (10%) -> "
            f"{chain[2]} (1%) -> {chain[3]} (100 items) in {elapsed:.1f} s"
        )


# ---- 5. leave-one-out hides drift that a time split exposes ------------------


def _drifted_corpus(seed, windows_per_period=40, window_len=3, period_items=30):
    """Two item-disjoint behaviour periods; sequences are windows onto chains."""
    rng = np.random.default_rng(seed)
    index = make_index(2 * period_items)
    rows = []
    for period in (0, 1):
        base = period * period_items
        for w in range(windows_per_period):
            start = int(rng.integers(0, period_items - window_len + 1))
            items = base + start + np.arange(window_len)
            day_index = period * 5 + (w % 5)
            t0 = day_index * DAY + (w // 5) * 3600 + 60
            rows.append((items, t0 + np.arange(window_len) * 60))
    return build_dataset(index, rows)


class TestLeakageDiagnostic:
    def test_loo_overlap_beats_time_overlap_over_ten_seeds(self):
        gaps = []
        for seed in range(10):
            data = _drifted_corpus(seed)
            time_split = apply_split(
                data, SplitSpec(strategy=STRATEGY_TIME, split_time=5 * DAY)
            )
            loo_split = apply_split(
                data,
                SplitSpec(
                    strategy=STRATEGY_LOO, selection=LeaveOneOutSelection(kind="all")
                ),
            )
            # matched sizes: every window donates exactly one leave-one-out case
            assert matched_loo_k(time_split) == len(enumerate_cases(loo_split, 1).targets)

            time_overlap = transition_overlap(time_split).occurrence_overlap
            loo_overlap = transition_overlap(loo_split).occurrence_overlap
            assert time_overlap == 0.0
            gap = loo_overlap - time_overlap
            assert gap > 0.1, (seed, gap)
            gaps.append(gap)
        print(
            f"PASS 5: overlap(LOO) - overlap(time) in "
            f"[{min(gaps):.3f}, {max(gaps):.3f}] over 10 seeds (all > 0.1)"
        )


# ---- 6. sequentiality probe separates planted order from shuffled noise ------


class TestSequentialityProbe:
    def test_planted_chains_show_a_sequential_signal(self):
        split = chain_split(7, 8, train_copies=30, test_copies=10)
        report = fit_and_probe(
            split, cutoffs=(1, 20), tie_policy="random", master_seed=3, verdict_cutoff=1
        )
        sequential = report.sequential.recall[1]
        agnostic = report.order_agnostic.recall[1]
        relative_beat = sequential / agnostic - 1.0
        assert sequential == 1.0
        assert relative_beat > 0.5
        assert report.verdict == VERDICT_PRESENT
        print(
            f"PASS 6a: planted chains, sequential recall@1 {sequential:.3f} vs "
            f"order-agnostic {agnostic:.3f} (+{relative_beat:.0%} relative)"
        )

    def test_shuffled_chains_show_no_signal(self):
        split = chain_split(7, 8, train_copies=60, test_copies=10, shuffle_seed=5)
        report = fit_and_probe(
            split, cutoffs=(1, 20), tie_policy="random", master_seed=3
        )
        change = report.relative_change_recall[20]
        assert change is not None and abs(change) < 0.02
        assert report.verdict == VERDICT_WEAK
        print(f"PASS 6b: shuffled chains, |relative recall@20 change| = {abs(change):.4f}")


# ---- 7. collision statistics and the high-collision warning ------------------


class TestCollisionWarning:
    def test_textbook_fractions_are_exact(self):
        report = collision_stats(log_of(("u1", 100), ("u1", 100), ("u1", 200)))
        assert report.colliding_pair_fraction == 1 / 2
        assert report.colliding_event_fraction == 2 / 3
        print("PASS 7a: 1/2 pair and 2/3 event fractions exact")

    def test_warning_fires_at_a_third_and_not_at_a_sliver(self, tmp_path):
        heavy = []
        for user in range(30):
            heavy.append((f"u{user}", f"i{user % 20:03d}", (user % 5) * DAY))
            heavy.append((f"u{user}", f"i{(user + 7) % 20:03d}", (user % 5) * DAY))
            for extra in range(4):
                heavy.append(
                    (f"u{user}", f"i{(user + extra) % 20:03d}", (5 + extra) * DAY)
                )
        heavy_csv = write_events_csv(tmp_path / "heavy.csv", heavy)
        code, out, err = run_cli(
            ["diagnose", "--input", heavy_csv, "--output-dir", str(tmp_path / "h")]
        )
        payload = json.loads(out)
        assert code == 2
        assert [w["code"] for w in payload["warnings"]] == ["W-COLLISION-HIGH"]
        assert payload["collisions"]["colliding_event_fraction"] == pytest.approx(1 / 3)

        sliver = [("u000", "i049", 0)]
        for user in range(100):
            for d in range(40):
                sliver.append((f"u{user:03d}", f"i{(user + d) % 50:03d}", d * DAY))
        sliver_csv = write_events_csv(tmp_path / "sliver.csv", sliver)
        code, out, err = run_cli(
            ["diagnose", "--input", sliver_csv, "--output-dir", str(tmp_path / "s")]
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["warnings"] == []
        fraction = payload["collisions"]["colliding_event_fraction"]
        assert fraction == pytest.approx(2 / 4001)
        print(
            f"PASS 7b: W-COLLISION-HIGH at 33.3% colliding events, "
            f"silent at {fraction:.4%}"
        )


# ---- 8. preprocessing reaches a fixpoint and stays there ---------------------


class TestPreprocessingFixpoint:
    def test_cascade_fixture_matches_hand_trace(self):
        # a=0 b=1 c=2 d=3; min support 2, min length 2.
        # pass 1: d too rare -> [c,d] shrinks to a short stump   (8 -> 7 events)
        # pass 2: stump drops, c now too rare -> [b,c] shrinks   (7 -> 5)
        # pass 3: that stump drops too, survivors all qualify    (5 -> 4)
        # pass 4: nothing changes, fixpoint confirmed            (4 -> 4)
        index = make_index(4)
        data = build_dataset(
            index,
            [
                ([0, 1], [10, 20]),
                ([0, 1], [30, 40]),
                ([1, 2], [50, 60]),
                ([2, 3], [70, 80]),
            ],
        )
        cfg = PipelineConfig(min_seq_len=2, min_item_support=2)
        records = []
        result = iterative_support_filter(data, cfg, records)

        deltas = [
            (r.events_before, r.events_after, r.sequences_before, r.sequences_after,
             r.items_before, r.items_after)
            for r in records
        ]
        assert deltas == [
            (8, 7, 4, 4, 4, 3),
            (7, 5, 4, 3, 3, 2),
            (5, 4, 3, 2, 2, 2),
            (4, 4, 2, 2, 2, 2),
        ]
        assert [r.params["removed_items"] for r in records] == [1, 1, 0, 0]
        assert result.num_sequences == 2 and result.num_items == 2
        print("PASS 8a: cascade fixture converges in 3 shrinking passes + 1 no-op")

    @staticmethod
    def _random_log(seed, mode):
        rng = np.random.default_rng(seed)
        events = []
        for user in range(25):
            if mode == "by_entity":
                t = int(rng.integers(0, 3 * DAY))
                for _ in range(int(rng.integers(6, 13))):
                    events.append((f"u{user:02d}", f"i{int(rng.integers(10)):02d}", t))
                    t += int(rng.integers(30, 900))
            else:
                t = int(rng.integers(0, DAY))
                for _ in range(3):
                    for _ in range(int(rng.integers(3, 7))):
                        events.append((f"u{user:02d}", f"i{int(rng.integers(10)):02d}", t))
                        t += int(rng.integers(30, 600))
                    t += 7200
        return event_log(events)

    @staticmethod
    def _replay_log(data):
        return event_log(
            (seq.entity_id, data.item_ids[code], ts)
            for seq in records(data)
            for code, ts in zip(seq.items.tolist(), seq.timestamps.tolist())
        )

    @staticmethod
    def _event_rows(data):
        return sorted(
            line.split("\t", 1)[1] for line in canonical_text(data).splitlines()[1:]
        )

    def test_pipeline_is_idempotent_on_100_random_datasets(self):
        successes = 0
        attempts = 0
        for seed in range(120):
            if successes >= 100:
                break
            mode = "by_entity" if seed % 2 == 0 else "gap"
            cfg = PipelineConfig(session_mode=mode, min_seq_len=2, min_item_support=3)
            attempts += 1
            try:
                first = preprocess(self._random_log(seed, mode), cfg)
            except PreprocessError:
                continue
            second = preprocess(self._replay_log(first), cfg)
            third = preprocess(self._replay_log(second), cfg)
            # a second application changes no event; ids may renumber once
            # (dropped sessions leave gaps) but after that the dump is stable
            assert self._event_rows(first) == self._event_rows(second), seed
            assert canonical_text(second) == canonical_text(third), seed
            assert second.num_sequences == first.num_sequences
            successes += 1
        assert successes == 100, (successes, attempts)
        print(f"PASS 8b: idempotent on {successes} random datasets ({attempts} attempts)")


# ---- 9. byte-identical reports across worker counts --------------------------


class TestDeterminism:
    REPORTS = (
        "resolved_config.json",
        "provenance.json",
        "split.json",
        "diagnostics.json",
        "metrics.json",
        "metrics.csv",
    )

    def test_hundred_k_run_is_thread_invariant(self, tmp_path):
        rng = np.random.default_rng(99)
        items = rng.integers(0, 1200, size=(5000, 20))
        rows = []
        for user in range(5000):
            t = (user % 14) * DAY + (user * 37) % 40000
            for step in range(20):
                rows.append((f"u{user:04d}", f"i{items[user, step]:04d}", t))
                t += 120
        assert len(rows) == 100_000
        source = write_events_csv(tmp_path / "events.csv", rows)

        checksums = []
        home = os.getcwd()
        for threads in (1, 4, 8):
            workdir = tmp_path / f"threads_{threads}"
            workdir.mkdir()
            os.chdir(workdir)
            try:
                code, _, _ = run_cli(
                    ["run", "--input", source, "--output-dir", "out",
                     "--strategy", "time", "--test-days", "1",
                     "--model", "markov", "--sampler", "uniform:100",
                     "--tie-policy", "random", "--seed", "42", "--csv",
                     "--threads", str(threads)]
                )
            finally:
                os.chdir(home)
            assert code == 2
            checksums.append(
                {name: (workdir / "out" / name).read_bytes() for name in self.REPORTS}
            )
        assert checksums[0] == checksums[1] == checksums[2]
        cases = json.loads(checksums[0]["metrics.json"])["case_count"]
        print(
            f"PASS 9: {len(self.REPORTS)} reports byte-identical across 1/4/8 "
            f"threads ({cases} scored cases from 100k events)"
        )


# ---- 10. full-catalog throughput at scale ------------------------------------


class TestThroughput:
    def test_markov_full_ranking_100k_by_100k(self):
        catalog = 100_000
        index = make_index(catalog)
        train_rows = []
        for k in range(100):
            items = np.arange(1000 * k, min(1000 * (k + 1) + 1, catalog))
            train_rows.append((items, np.arange(len(items)) + 1000 * k))
        targets = np.random.default_rng(5).integers(0, catalog, size=(10_000, 11))
        test_rows = [
            (targets[i], DAY + i * 20 + np.arange(11)) for i in range(len(targets))
        ]
        split = build_split(index, train_rows, test_rows, split_time=DAY // 2)

        model = MarkovModel().fit(split.train)
        cfg = EvalConfig(cutoffs=(1, 5, 10, 20))
        started = time.perf_counter()
        report = evaluate_cell(model, split, cfg)
        elapsed = time.perf_counter() - started

        assert report.total_cases == 100_000
        assert report.case_count == 100_000  # every item is supported in train
        assert report.catalog_size == catalog
        assert elapsed < 600.0
        rate = report.case_count / elapsed
        print(
            f"PASS 10: 100k cases x 100k catalog in {elapsed:.1f} s "
            f"({rate:,.0f} scored lists/second)"
        )
