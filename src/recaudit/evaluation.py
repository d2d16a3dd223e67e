"""Next-item evaluation: case enumeration, ranking, sampling, metrics.

The evaluator turns a split into a columnar table of test cases (prefix
bounds into one item column, next item), asks each model once per case for
full-catalog scores, and ranks the true next item, once per candidate
sampler, either against the whole catalog or against a set of sampled
negatives.  Metrics are recall@N and MRR@N averaged over scoreable cases,
one report per (model, sampler).

Determinism is load-bearing: every case draws randomness from a generator
seeded by (master seed, case index) alone, and parallel workers write ranks
into a shared-order array, so worker count cannot change a single digit of
the output.  Reports carry no timestamps or timing for the same reason.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import EvaluationError
from .models import EmbeddingMatrix, RecommenderModel
from .splitting import STRATEGY_LOO, DatasetSplit, loo_prefix_rows

TIE_OPTIMISTIC = "optimistic"
TIE_PESSIMISTIC = "pessimistic"
TIE_RANDOM = "random"
_TIE_POLICIES = (TIE_OPTIMISTIC, TIE_PESSIMISTIC, TIE_RANDOM)

SAMPLER_NONE = "none"
SAMPLER_UNIFORM = "uniform"
SAMPLER_POPULARITY = "popularity"
SAMPLER_TOP_POPULAR = "top_popular"
SAMPLER_INVERSE_POPULARITY = "inverse_popularity"
SAMPLER_SIMILAR = "similar_embedding"
SAMPLER_CLOSE = "close_embedding"
SAMPLER_LEAST_SIMILAR = "least_similar_embedding"
SAMPLER_FARTHEST = "farthest_embedding"

SAMPLER_STRATEGIES = (
    SAMPLER_NONE,
    SAMPLER_UNIFORM,
    SAMPLER_POPULARITY,
    SAMPLER_TOP_POPULAR,
    SAMPLER_INVERSE_POPULARITY,
    SAMPLER_SIMILAR,
    SAMPLER_CLOSE,
    SAMPLER_LEAST_SIMILAR,
    SAMPLER_FARTHEST,
)

EMBEDDING_SAMPLERS = (
    SAMPLER_SIMILAR,
    SAMPLER_CLOSE,
    SAMPLER_LEAST_SIMILAR,
    SAMPLER_FARTHEST,
)

# strategies whose candidate set depends only on the target, not the rng
DETERMINISTIC_SAMPLERS = (SAMPLER_TOP_POPULAR,) + EMBEDDING_SAMPLERS

# strategies that draw in proportion to a weight per item
WEIGHTED_SAMPLERS = (SAMPLER_POPULARITY, SAMPLER_INVERSE_POPULARITY)

# strategies that draw their candidates from the case's generator
RANDOM_SAMPLERS = (SAMPLER_UNIFORM,) + WEIGHTED_SAMPLERS


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation knobs shared by every model/sampler combination."""

    cutoffs: tuple[int, ...] = (1, 5, 10, 20)
    tie_policy: str = TIE_OPTIMISTIC
    master_seed: int = 0
    prefix_start: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoffs", tuple(self.cutoffs))
        if not self.cutoffs:
            raise ValueError("at least one cutoff is required")
        if any(c < 1 for c in self.cutoffs):
            raise ValueError("cutoffs must be positive")
        if any(b <= a for a, b in zip(self.cutoffs, self.cutoffs[1:])):
            raise ValueError("cutoffs must be strictly increasing")
        if self.tie_policy not in _TIE_POLICIES:
            raise ValueError(f"tie_policy must be one of {_TIE_POLICIES}")
        if self.prefix_start < 1:
            raise ValueError("prefix_start must be at least 1")


@dataclass(frozen=True)
class SamplerSpec:
    """Which negatives to rank the target against, and how many.

    ``sample_count`` is an absolute size, 100 unless given; ``sample_fraction``
    expresses it as a share of the catalog instead and is resolved per
    dataset.  Full ranking (``none``) takes neither.
    """

    strategy: str = SAMPLER_NONE
    sample_count: int | None = None
    sample_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.strategy not in SAMPLER_STRATEGIES:
            raise ValueError(f"unknown sampler strategy {self.strategy!r}")
        if self.strategy == SAMPLER_NONE:
            if self.sample_count is not None or self.sample_fraction is not None:
                raise ValueError(f"sampler {SAMPLER_NONE!r} takes no sample size")
            return
        if self.sample_count is None:
            object.__setattr__(self, "sample_count", 100)
        if self.sample_fraction is not None:
            if not 0 < self.sample_fraction < 1:
                raise ValueError("sample_fraction must be in (0, 1)")
        elif self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")

    @classmethod
    def parse(cls, text: str) -> "SamplerSpec":
        """Parse CLI forms: ``none``, ``uniform:100``, ``uniform:0.1%``."""
        text = text.strip()
        strategy, sep, amount = text.partition(":")
        if not sep:
            return cls(strategy=strategy)
        if strategy == SAMPLER_NONE:
            raise ValueError(f"sampler {SAMPLER_NONE!r} takes no sample size, got {text!r}")
        if amount.endswith("%"):
            return cls(strategy=strategy, sample_fraction=float(amount[:-1]) / 100.0)
        return cls(strategy=strategy, sample_count=int(amount))

    def describe(self) -> str:
        if self.strategy == SAMPLER_NONE:
            return SAMPLER_NONE
        if self.sample_fraction is not None:
            return f"{self.strategy}:{self.sample_fraction * 100:g}%"
        return f"{self.strategy}:{self.sample_count}"

    def resolve_count(self, catalog_size: int) -> int:
        """Concrete negative-set size for this catalog; validates feasibility."""
        if self.strategy == SAMPLER_NONE:
            raise EvaluationError("full ranking has no sample size to resolve")
        if self.sample_fraction is not None:
            count = max(1, round(self.sample_fraction * catalog_size))
        else:
            count = self.sample_count
        if count > catalog_size - 1:
            raise EvaluationError(
                f"cannot sample {count} negatives from a {catalog_size}-item catalog"
            )
        return count


@dataclass(frozen=True, eq=False)
class CaseTable:
    """The (prefix, next item) decisions of a split, one row per case.

    Case ``i`` ranks ``targets[i]`` after the prefix
    ``items[starts[i]:stops[i]]``; the row number is the case index.
    ``items`` is the column the prefixes slice: the test items, or the
    training items under leave-one-out.
    """

    items: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.targets)


def enumerate_cases(split: DatasetSplit, prefix_start: int = 1) -> CaseTable:
    """Deterministically list the (prefix, next item) decisions a split implies.

    Time and random splits grow a prefix inside each test sequence: lengths
    ``prefix_start`` .. len-1, each predicting the following event.  A
    leave-one-out split pairs each one-event test sequence with its training
    prefix (matched by sequence id).

    Case indices from this enumeration are the seeding unit for everything
    stochastic downstream, so the order is part of the contract.
    """
    test = split.test
    if split.spec.strategy == STRATEGY_LOO:
        train = split.train
        rows = loo_prefix_rows(split)
        missing = test.seq_ids[rows < 0]
        if len(missing):
            raise EvaluationError(
                f"test sequence {missing[0]} has no training prefix to extend"
            )
        return CaseTable(
            items=train.items,
            starts=train.offsets[rows],
            stops=train.offsets[rows + 1],
            targets=test.items[test.offsets[:-1]],
        )
    # no sequence is longer than the column, so a longer prefix start (even one
    # beyond int64) yields the same empty table
    prefix_start = min(prefix_start, test.num_events)
    counts = np.maximum(test.lengths - prefix_start, 0)
    # the k-th case of a sequence (case index first + k) predicts its event prefix_start + k
    firsts = np.cumsum(counts) - counts
    stops = np.arange(counts.sum()) + np.repeat(test.offsets[:-1] + prefix_start - firsts, counts)
    return CaseTable(
        items=test.items,
        starts=np.repeat(test.offsets[:-1], counts),
        stops=stops,
        targets=test.items[stops],
    )


# numpy's SeedSequence constants: its pool of four uint32 words, the two
# hash multipliers and their starting values, and the mixing multipliers
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# case indices per seed block; a power of two that divides 2**32, so a block's
# indices all take the same number of uint32 words
_BLOCK_BITS = 12
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1


def _uint32_words(value: int) -> list[int]:
    """``value`` as SeedSequence reads an integer: uint32 words, least significant first."""
    words = []
    while True:
        words.append(value & _MASK32)
        value >>= 32
        if not value:
            return words


def _hashmix(words: np.ndarray, const: int) -> tuple[np.ndarray, int]:
    """SeedSequence's ``hashmix`` of each word, and the hash constant after it."""
    words = words ^ np.uint32(const)
    const = const * _MULT_A & _MASK32
    words *= np.uint32(const)
    words ^= words >> np.uint32(16)
    return words, const


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    mixed = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    mixed ^= mixed >> np.uint32(16)
    return mixed


@functools.lru_cache(maxsize=1)
def _seed_block(master_seed: int, block: int) -> np.ndarray:
    """The four PCG64 seed words of each case of an aligned block of case indices.

    Row ``r`` holds what ``SeedSequence([master_seed, index]).generate_state(4,
    np.uint64)`` gives for ``index = block * 4096 + r``: SeedSequence's mixing
    run once over uint32 columns, one element a case.  Only the low word of
    the index varies inside a block; the hash constants do not depend on the
    data, so every column follows the same schedule.
    """
    first = operator.index(block) << _BLOCK_BITS
    size = 1 << _BLOCK_BITS
    low = first & _MASK32
    # SeedSequence's entropy: the master seed's words, then the index's
    words = _uint32_words(operator.index(master_seed))
    entropy = [np.full(size, word, dtype=np.uint32) for word in words]
    entropy.append(np.arange(low, low + size, dtype=np.uint32))
    entropy += [np.full(size, word, dtype=np.uint32) for word in _uint32_words(first)[1:]]
    const = _INIT_A
    pool = []
    for i in range(_POOL_WORDS):
        word = entropy[i] if i < len(entropy) else np.zeros(size, dtype=np.uint32)
        word, const = _hashmix(word, const)
        pool.append(word)
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                hashed, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], hashed)
    for source in entropy[_POOL_WORDS:]:
        for dst in range(_POOL_WORDS):
            hashed, const = _hashmix(source, const)
            pool[dst] = _mix(pool[dst], hashed)
    state = np.empty((size, 2 * _POOL_WORDS), dtype=np.uint32)
    const = _INIT_B
    for k in range(2 * _POOL_WORDS):
        word = pool[k % _POOL_WORDS] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        word *= np.uint32(const)
        word ^= word >> np.uint32(16)
        state[:, k] = word
    # pairs of uint32 words, low word first, are the uint64 words
    table = state.astype("<u4").view("<u8").astype(np.uint64)
    table.flags.writeable = False  # the cache hands the same table to every case
    return table


@functools.cache
def _case_seed_type() -> type:
    """The seed sequence type PCG64 reads a case's seed words from.

    Built on first use, so that only a command that draws loads
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class CaseSeed(ISeedSequence):
        """Four precomputed uint64 seed words, handed out as PCG64 asks for them."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
                raise ValueError("a case seed holds exactly PCG64's four uint64 words")
            return self.words

    return CaseSeed


def case_rng(master_seed: int, case_index: int) -> np.random.Generator:
    """The one true per-case generator: depends on seed and case index only.

    It is ``np.random.default_rng(np.random.SeedSequence([master_seed,
    case_index]))``, state for state, with the seed words read from the
    case's block of :func:`_seed_block`.
    """
    if master_seed < 0 or case_index < 0:
        raise ValueError("master seed and case index must be non-negative")
    words = _seed_block(master_seed, case_index >> _BLOCK_BITS)[case_index & _BLOCK_MASK]
    return np.random.Generator(np.random.PCG64(_case_seed_type()(words)))


def rank_of_target(
    scores: np.ndarray,
    target: int,
    tie_policy: str = TIE_OPTIMISTIC,
    tie_draw: float | None = None,
    candidates: np.ndarray | None = None,
) -> int:
    """Position of the target when scores are sorted descending.

    ``candidates`` restricts the comparison to a negative set (the target
    itself must not be in it); None means the full catalog.  Ties resolve per
    policy: optimistic puts the target first, pessimistic last, random at
    ``int(tie_draw * (ties + 1))`` of its ties for ``tie_draw`` uniform in
    [0, 1): each position equally likely to within 2**-52, never later for
    fewer ties, so a case's rankings, which share its draw, keep a sampled
    rank no worse than the full one.
    """
    target_score = scores[target]
    if candidates is None:
        field_scores = scores
        self_tie = 1  # the target's own equality hit
    else:
        field_scores = scores[candidates]
        self_tie = 0
    if not np.isfinite(target_score) or not np.isfinite(field_scores).all():
        raise EvaluationError("non-finite score encountered while ranking")
    greater = int(np.count_nonzero(field_scores > target_score))
    if tie_policy == TIE_OPTIMISTIC:
        return 1 + greater
    ties = int(np.count_nonzero(field_scores == target_score)) - self_tie
    if tie_policy == TIE_PESSIMISTIC:
        return 1 + greater + ties
    if tie_draw is None:
        raise EvaluationError("random tie policy needs a tie draw")
    return 1 + greater + int(tie_draw * (ties + 1))


def _weighted_without_replacement(
    weights: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Exponential-keys draw: smallest exp(1)/w keys win, zero weight never."""
    mask = weights > 0
    keys = np.full(len(weights), np.inf)
    keys[mask] = rng.exponential(size=int(np.count_nonzero(mask))) / weights[mask]
    return np.argpartition(keys, count - 1)[:count]


@dataclass(frozen=True, eq=False)
class _WeightTable:
    """The weights a weighted strategy draws by, over the whole catalog.

    ``popularity`` weighs an item by its training support, ``inverse_popularity``
    by the inverse of it; an item of zero support weighs nothing either way.
    """

    weights: np.ndarray
    cumulative: np.ndarray
    positive: int  # items of positive weight

    @classmethod
    def of(cls, strategy: str, support: np.ndarray) -> "_WeightTable":
        if strategy == SAMPLER_POPULARITY:
            weights = support.astype(np.float64)
        else:
            weights = np.zeros(len(support))
            np.divide(1.0, support, out=weights, where=support > 0)
        return cls(weights, np.cumsum(weights), int(np.count_nonzero(weights)))


# rounds of with-replacement draws before the rest of a weighted sample is
# keyed; enough that only weight piled on a few items reaches the keys
_SUCCESSIVE_ROUNDS = 4


def _successive_sample(
    table: _WeightTable, target: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` distinct items other than ``target``, drawn one after another
    in proportion to weight.

    Draws with replacement from the whole table and keeps first occurrences
    in draw order, dropping the target as it drops repeats: that is
    successive sampling without replacement over the catalog minus the
    target.  Whatever a few rounds leave short is finished with exponential
    keys over the items not yet chosen, the exact conditional law of the
    rest of a successive sample.
    """
    positive = table.positive - bool(table.weights[target] > 0)
    if positive < count:
        raise EvaluationError(
            f"only {positive} items have positive sampling weight, need {count}"
        )
    cumulative = table.cumulative
    chosen = np.empty(0, dtype=np.intp)
    for _ in range(_SUCCESSIVE_ROUNDS):
        need = count - len(chosen)
        # u * total < total for u in [0, 1), so no draw lands past the last
        # positive weight, and side="right" skips every zero-width interval;
        # an eighth more than needed, so that repeats rarely force another round
        points = rng.random(need + need // 8 + 1) * cumulative[-1]
        draws = np.searchsorted(cumulative, points, side="right")
        pool = np.concatenate((chosen, draws[draws != target]))
        _, first = np.unique(pool, return_index=True)
        chosen = pool[np.sort(first)[:count]]
        if len(chosen) == count:
            return chosen
    rest_weights = table.weights.copy()
    rest_weights[chosen] = 0.0
    rest_weights[target] = 0.0
    rest = _weighted_without_replacement(rest_weights, count - len(chosen), rng)
    return np.concatenate((chosen, rest))


def _top_by_value(values: np.ndarray, count: int, target: int) -> np.ndarray:
    """Indices of the ``count`` largest values, target excluded, ties by index.

    ``count`` is below ``len(values)``.  Only the pool of values at least the
    ``count + 1``-th largest is sorted: with one target left out, it holds the
    answer.
    """
    keys = -values
    pool = np.flatnonzero(keys <= np.partition(keys, count)[count])
    pool = pool[pool != target]
    return pool[np.lexsort((pool, keys[pool]))[:count]]


def sample_negatives(
    spec: SamplerSpec,
    target: int,
    catalog_size: int,
    support: np.ndarray,
    embeddings: EmbeddingMatrix | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw the negative candidate set for one test case.

    The target is never a candidate.  The ``top_popular`` and embedding
    strategies are deterministic (rank by support / similarity / distance with
    index tie-breaks); the others draw through ``rng``: ``uniform`` without
    replacement over the catalog minus the target, ``popularity`` and
    ``inverse_popularity`` successively in proportion to support or its
    inverse, the target excluded.  Inside :func:`compute_case_ranks`, these
    two read the pass's one table of their weights when handed the pass's
    own ``support`` array; any other call builds that table itself and draws
    the same items.
    """
    count = spec.resolve_count(catalog_size)
    strategy = spec.strategy
    if strategy == SAMPLER_UNIFORM:
        # Floyd's algorithm over the catalog minus the target, shifted past it
        negatives = rng.choice(catalog_size - 1, size=count, replace=False, shuffle=False)
        negatives += negatives >= target
        return negatives
    if strategy in WEIGHTED_SAMPLERS:
        table = _PASS[-1].tables.get(strategy) if _PASS and _PASS[-1].support is support else None
        return _successive_sample(table or _WeightTable.of(strategy, support), target, count, rng)
    if strategy == SAMPLER_TOP_POPULAR:
        return _top_by_value(support.astype(np.float64), count, target)
    if strategy in EMBEDDING_SAMPLERS:
        if embeddings is None:
            raise EvaluationError(
                f"sampler {strategy!r} needs item embeddings, none were provided"
            )
        embeddings.check_catalog(catalog_size)
        vectors = embeddings.vectors
        anchor = vectors[target]
        if strategy in (SAMPLER_SIMILAR, SAMPLER_LEAST_SIMILAR):
            norms = np.linalg.norm(vectors, axis=1) * (np.linalg.norm(anchor) or 1.0)
            raw = vectors @ anchor
            values = np.divide(raw, norms, out=np.zeros_like(raw), where=norms > 0)
            if strategy == SAMPLER_LEAST_SIMILAR:
                values = -values
        else:
            distances = np.linalg.norm(vectors - anchor, axis=1)
            values = -distances if strategy == SAMPLER_CLOSE else distances
        return _top_by_value(values, count, target)
    raise EvaluationError(f"sampler {strategy!r} draws no negatives")


@dataclass
class MetricReport:
    """Recall@N / MRR@N for one (model, sampler) evaluation."""

    model: str
    sampler: str
    tie_policy: str
    master_seed: int
    cutoffs: tuple[int, ...]
    recall: dict[int, float]
    mrr: dict[int, float]
    case_count: int
    skipped_unseen_target_count: int
    total_cases: int
    catalog_size: int
    ranks: np.ndarray | None = field(
        default=None, repr=False, compare=False, metadata={"report": False}
    )


@dataclass
class GridReport:
    """The (model, sampler) reports of one evaluation pass over the cases.

    Index it by model name and sampler (a :class:`SamplerSpec` or its CLI
    text): ``grid["markov", "uniform:100"]``.
    """

    reports: dict[tuple[str, SamplerSpec], MetricReport]
    total_cases: int

    def __getitem__(self, key: tuple[str, SamplerSpec | str]) -> MetricReport:
        name, sampler = key
        if isinstance(sampler, str):
            sampler = SamplerSpec.parse(sampler)
        return self.reports[name, sampler]


def _fixed_candidates(
    sampler: SamplerSpec,
    cases: CaseTable,
    support: np.ndarray,
    embeddings: EmbeddingMatrix | None,
) -> dict[int, np.ndarray] | None:
    """One negative set per distinct scoreable target for a deterministic sampler."""
    if sampler.strategy not in DETERMINISTIC_SAMPLERS:
        return None
    throwaway = np.random.default_rng(0)
    present = np.bincount(cases.targets, minlength=len(support)) > 0
    return {
        target: sample_negatives(sampler, target, len(support), support, embeddings, throwaway)
        for target in np.flatnonzero(present & (support > 0)).tolist()
    }


@dataclass(frozen=True, eq=False)
class _Pass:
    """What every block of one evaluation pass reads.

    ``fixed`` holds, per sampler, the negative set of each scoreable target
    when the sampler is deterministic, and None otherwise; ``tables`` holds
    the one weight table of each weighted strategy in the pass.  Fork-pool
    workers inherit the pass through the fork instead of unpickling it.
    """

    models: list[RecommenderModel]
    cases: CaseTable
    cfg: EvalConfig
    samplers: list[SamplerSpec]
    support: np.ndarray
    embeddings: EmbeddingMatrix | None
    fixed: list[dict[int, np.ndarray] | None]
    tables: dict[str, _WeightTable]

    @classmethod
    def of(
        cls,
        models: list[RecommenderModel],
        cases: CaseTable,
        split: DatasetSplit,
        cfg: EvalConfig,
        samplers: list[SamplerSpec],
        embeddings: EmbeddingMatrix | None = None,
    ) -> "_Pass":
        support = split.train.item_support
        strategies = {sampler.strategy for sampler in samplers}
        fixed = [_fixed_candidates(sampler, cases, support, embeddings) for sampler in samplers]
        tables = {s: _WeightTable.of(s, support) for s in WEIGHTED_SAMPLERS if s in strategies}
        return cls(models, cases, cfg, samplers, support, embeddings, fixed, tables)


# the pass compute_case_ranks is running, while it runs
_PASS: list[_Pass] = []


def _rank_case_range(run: _Pass, start: int, stop: int) -> np.ndarray:
    """Ranks of cases ``start:stop`` as a (models, samplers, cases) block.

    Each model scores the block's scoreable cases as one stream from its
    :meth:`~RecommenderModel.score_cases` hook.  Each case builds one
    generator.  With random ties its first draw is the case's tie draw, which
    every (model, sampler) cell of the case ranks with.  Every sampler then
    starts from the generator's state after that: it is kept and restored
    before each sampler after the first, so each cell sees the draws a
    generator built for it alone would give it.
    """
    cases, cfg, support = run.cases, run.cfg, run.support
    ranks = np.full((len(run.models), len(run.samplers), stop - start), -1, dtype=np.int64)
    rows = start + np.flatnonzero(support[cases.targets[start:stop]] > 0)
    streams = [model.score_cases(cases, rows) for model in run.models]
    for case_index, target, *scores in zip(
        rows.tolist(), cases.targets[rows].tolist(), *streams
    ):
        offset = case_index - start
        rng = case_rng(cfg.master_seed, case_index)
        tie_draw = rng.random() if cfg.tie_policy == TIE_RANDOM else None
        fresh = rng.bit_generator.state if len(run.samplers) > 1 else None
        for s, (sampler, fixed) in enumerate(zip(run.samplers, run.fixed)):
            if s:
                rng.bit_generator.state = fresh
            if sampler.strategy == SAMPLER_NONE:
                candidates = None
            elif fixed is not None:
                candidates = fixed[target]
            else:
                candidates = sample_negatives(
                    sampler, target, len(support), support, run.embeddings, rng
                )
            for m, model_scores in enumerate(scores):
                ranks[m, s, offset] = rank_of_target(
                    model_scores, target, cfg.tie_policy, tie_draw, candidates
                )
    return ranks


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _fork_pool(workers: int):
    """A pool of ``workers`` forked processes.

    The pool modules load here, when a pool is built: an invocation that
    ranks in one process does not pay for their import.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"))


def _forked_rank_range(bounds: tuple[int, int]) -> tuple[int, np.ndarray]:
    start, stop = bounds
    return start, _rank_case_range(_PASS[-1], start, stop)


def compute_case_ranks(
    models: list[RecommenderModel],
    cases: CaseTable,
    split: DatasetSplit,
    cfg: EvalConfig,
    samplers: list[SamplerSpec],
    embeddings: EmbeddingMatrix | None = None,
    workers: int = 1,
) -> np.ndarray:
    """Rank the target of every case for every (model, sampler).

    The result has shape (models, samplers, cases); -1 marks targets absent
    from train.  It depends only on inputs and ``cfg.master_seed``;
    ``workers`` changes wall time, never values.  Workers receive contiguous
    case blocks and the parent reassembles them by position.  The pool never
    holds more processes than there are blocks or CPUs this process may run
    on: a fork pool starts all of its processes at once, whatever the work.
    While it runs, the pass is in the ``_PASS`` slot: the fork hands it to
    the workers, and weighted draws read its tables.
    """
    run = _Pass.of(models, cases, split, cfg, samplers, embeddings)
    workers = min(workers, _usable_cpus())
    _PASS.append(run)
    try:
        if workers <= 1 or len(cases) < 2:
            return _rank_case_range(run, 0, len(cases))
        ranks = np.empty((len(models), len(samplers), len(cases)), dtype=np.int64)
        chunk = max(1, math.ceil(len(cases) / (workers * 4)))
        bounds = [(lo, min(lo + chunk, len(cases))) for lo in range(0, len(cases), chunk)]
        with _fork_pool(min(workers, len(bounds))) as pool:
            for start, block in pool.map(_forked_rank_range, bounds):
                ranks[:, :, start : start + block.shape[2]] = block
        return ranks
    finally:
        _PASS.pop()


def metrics_from_ranks(ranks: np.ndarray, cutoffs: tuple[int, ...]):
    """Aggregate recall@N and MRR@N over counted (non-negative) ranks."""
    counted = ranks[ranks > 0]
    if len(counted) == 0:
        raise EvaluationError("no scoreable test cases (all targets unseen in train)")
    recall = {}
    mrr = {}
    for n in cutoffs:
        hits = counted <= n
        recall[n] = float(np.mean(hits))
        mrr[n] = float(np.mean(np.where(hits, 1.0 / counted, 0.0)))
    return recall, mrr


def evaluate(
    models: Mapping[str, RecommenderModel],
    split: DatasetSplit,
    cfg: EvalConfig,
    samplers: Iterable[SamplerSpec] = (SamplerSpec(),),
    embeddings: EmbeddingMatrix | None = None,
    workers: int = 1,
) -> GridReport:
    """Evaluate fitted models, by name, on a split under each candidate policy.

    One pass over the cases gives every (model, sampler) report, each equal
    to what evaluating that pair alone gives.  Cases whose target never
    occurs in train are excluded from the averages and reported in
    ``skipped_unseen_target_count`` (a collaborative model cannot score them;
    silently including zeros would fake a penalty that depends on split luck).
    """
    names = list(models)
    samplers = list(dict.fromkeys(samplers))
    if not names or not samplers:
        raise EvaluationError("evaluation needs at least one model and one sampler")
    cases = enumerate_cases(split, cfg.prefix_start)
    if not cases:
        raise EvaluationError("the split yields no test cases")
    ranks = compute_case_ranks(
        [models[name] for name in names], cases, split, cfg, samplers, embeddings, workers
    )
    reports = {}
    for s, sampler in enumerate(samplers):
        for m, name in enumerate(names):
            cell = ranks[m, s]
            recall, mrr = metrics_from_ranks(cell, cfg.cutoffs)
            skipped = int(np.count_nonzero(cell < 0))
            reports[name, sampler] = MetricReport(
                model=name,
                sampler=sampler.describe(),
                tie_policy=cfg.tie_policy,
                master_seed=cfg.master_seed,
                cutoffs=cfg.cutoffs,
                recall=recall,
                mrr=mrr,
                case_count=len(cases) - skipped,
                skipped_unseen_target_count=skipped,
                total_cases=len(cases),
                catalog_size=split.train.num_items,
                ranks=cell,
            )
    return GridReport(reports=reports, total_cases=len(cases))


@dataclass(frozen=True)
class CrossingReport:
    """Where the ordering of two models flips along the cutoff axis."""

    metric: str
    model_a: str
    model_b: str
    sampler: str
    cutoffs: tuple[int, ...]
    difference: dict[int, float]
    relative_difference: dict[int, float | None]
    flips: tuple[tuple[int, int], ...]


def crossing_analysis(
    report_a: MetricReport, report_b: MetricReport, metric: str = "recall"
) -> CrossingReport:
    """Find cutoff intervals where the sign of (A - B) changes.

    Both reports must come from the same cutoff grid and evaluation data.
    The relative difference is (A - B) / B, None where B is zero.
    """
    if metric not in ("recall", "mrr"):
        raise EvaluationError(f"unknown metric {metric!r}")
    if report_a.cutoffs != report_b.cutoffs:
        raise EvaluationError(
            f"cutoff grids differ: {report_a.cutoffs} vs {report_b.cutoffs}"
        )
    values_a = getattr(report_a, metric)
    values_b = getattr(report_b, metric)
    cutoffs = report_a.cutoffs
    difference = {n: values_a[n] - values_b[n] for n in cutoffs}
    relative: dict[int, float | None] = {}
    for n in cutoffs:
        relative[n] = (difference[n] / values_b[n]) if values_b[n] else None
    flips = []
    for lo, hi in zip(cutoffs, cutoffs[1:]):
        if difference[lo] * difference[hi] < 0:
            flips.append((lo, hi))
    return CrossingReport(
        metric=metric,
        model_a=report_a.model,
        model_b=report_b.model,
        sampler=report_a.sampler,
        cutoffs=cutoffs,
        difference=difference,
        relative_difference=relative,
        flips=tuple(flips),
    )
