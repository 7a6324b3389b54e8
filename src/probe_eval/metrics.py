"""Rank transformation, popularity weighting, and aggregation.

The rank transformer maps an integer rank r to a score r**(-alpha), where
alpha sets how severely non-top ranks are penalized (alpha=1 reproduces
the reciprocal-rank transform, alpha=-1 the raw rank).  The affine variant
rescales so rank 1 scores exactly 1 and rank |E| scores exactly 0, keeping
the full [0, 1] range regardless of alpha or entity count.  Aggregation is
a weighted mean with weights (epsilon + popularity)**(-beta), so beta > 0
down-weights queries whose gold entity was frequent in training.

Every metric reads the rank and popularity columns of a RankTable.  Every
float reduction goes through exact_sum, which returns math.fsum's exactly
rounded sum bit for bit, so every metric here is bit-identical under
record permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .ranking import RankTable

DEFAULT_HITS_KS = (1, 3, 10)


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation knobs: sharpness, bias robustness, and the affine switch.

    The one check of a scoring cell, so a config that constructs can score.
    Affine mode needs entity_count (the rescaling anchor) >= 2, and an alpha
    that does not round 1 - entity_count**-alpha to 0.
    """

    alpha: float = 1.0
    beta: float = 0.0
    epsilon: float = 1.0
    affine: bool = True
    entity_count: int | None = None

    def __post_init__(self):
        for name in ("alpha", "beta", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha <= 0:
            raise ValidationError(
                f"alpha must be > 0 for aggregated scoring, got {self.alpha} "
                "(negative-alpha transforms are available through rt_raw)")
        if self.epsilon <= 0:
            raise ValidationError(f"epsilon must be > 0, got {self.epsilon}")
        if self.beta < 0:
            raise ValidationError(f"beta must be >= 0, got {self.beta}")
        if self.affine:
            if self.entity_count is None:
                raise ValidationError("affine mode requires entity_count")
            _affine_denominator(self.alpha, self.entity_count)

    def with_cell(self, alpha: float, beta: float) -> "MetricConfig":
        return replace(self, alpha=alpha, beta=beta)


def rt_raw(rank: int, alpha: float) -> float:
    """Transform a rank to rank**(-alpha).

    Accepts any alpha so the degenerate forms stay reachable (alpha=1:
    reciprocal rank; alpha=-1: the rank itself).
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    return _power(rank, alpha)


def _power(n: int, alpha: float) -> float:
    """n ** -alpha, with the bits of float(n) ** -alpha for every n below 2**1024."""
    try:
        base = float(n)
    except OverflowError:  # n >= 2**1024; math.log takes any int
        return math.exp(-alpha * math.log(n))
    return base ** -alpha


def _affine_denominator(alpha: float, n_entities: int) -> float:
    if alpha <= 0:
        raise ValidationError(f"affine transform requires alpha > 0, got {alpha}")
    if n_entities < 2:
        raise ValidationError(f"affine transform requires n_entities >= 2, got {n_entities}")
    denom = 1.0 - _power(n_entities, alpha)
    if denom == 0.0:
        raise ValidationError(
            f"alpha={alpha} underflows the affine denominator for n_entities={n_entities}")
    return denom


def rt_affine(rank: int, alpha: float, n_entities: int) -> float:
    """Affine-rescaled transform: exactly 1.0 at rank 1, exactly 0.0 at rank n."""
    denom = _affine_denominator(alpha, n_entities)
    if rank < 1 or rank > n_entities:
        raise ValidationError(f"rank must be in [1, {n_entities}], got {rank}")
    return (rt_raw(rank, alpha) - 1.0) / denom + 1.0


def popularity_weights(pops: np.ndarray, beta: float, epsilon: float) -> np.ndarray:
    """Popularity weights scaled so the largest is exactly 1.

    Computed in log space, w_i = exp(-beta * (log(eps + d_i) - min_j log(eps + d_j))),
    so they cannot all underflow to 0; the weighted mean is unchanged.
    """
    if len(pops) and int(pops.min()) < 0:
        raise ValidationError("popularities must be >= 0")
    logs = np.log(epsilon + pops.astype(np.float64))
    with np.errstate(over="ignore"):  # a huge beta gives -inf, whose exp is the exact limit 0
        return np.exp(-beta * (logs - logs.min()))


_SPLIT_BITS = 27
_MAX_LEN = 2 ** 26
_EXP_LIMIT = 960


def exact_sum(values: np.ndarray, counts: np.ndarray | None = None) -> float:
    """``math.fsum(values)`` of a 1-D float array, bit for bit, in a few NumPy passes.

    With an integer ``counts`` column it is ``math.fsum(np.repeat(values,
    counts))``: value k enters the sum counts[k] times.

    frexp writes each value as mant * 2**exp.  mant * 2**27 splits exactly
    into an integer part below 2**27 and a fraction that is a multiple of
    2**-26, each part is multiplied by its count, and np.bincount sums each
    part per exponent.  While the counts sum below 2**26 (the number of
    values when there are no counts), every product and partial sum fits in
    53 bits, so those sums are exact, and so is scaling them back with ldexp
    while exponents stay within +-960.  One fsum over the scaled sums then
    rounds the same exact total that fsum over the repeated values would.
    Non-finite values, too many values, exponents outside that range, and
    zero totals (whose sign fsum decides) take math.fsum itself.
    """
    values = np.asarray(values, dtype=np.float64)

    def fsum_repeated() -> float:
        return math.fsum((values if counts is None else np.repeat(values, counts)).tolist())

    n = len(values) if counts is None else int(counts.sum())
    if not 0 < n < _MAX_LEN or not np.isfinite(values).all():
        return fsum_repeated()
    mant, exp = np.frexp(values)
    emin, emax = int(exp.min()), int(exp.max())
    if emin < -_EXP_LIMIT or emax > _EXP_LIMIT:
        return fsum_repeated()
    mant *= 2.0 ** _SPLIT_BITS
    whole = np.trunc(mant)
    mant -= whole
    if counts is not None:
        whole *= counts
        mant *= counts
    bins = exp - emin
    sums = np.concatenate((np.bincount(bins, weights=whole), np.bincount(bins, weights=mant)))
    scale = np.arange(emin, emax + 1) - _SPLIT_BITS
    total = math.fsum(np.ldexp(sums, np.concatenate((scale, scale))).tolist())
    return total if total != 0.0 else fsum_repeated()


def _nonempty(table: RankTable, empty_message: str) -> RankTable:
    if not len(table):
        raise ValidationError(empty_message)
    return table


def score_grid(ranks: np.ndarray, pops: np.ndarray, config: MetricConfig,
               alphas: Sequence[float], betas: Sequence[float]) -> np.ndarray:
    """PROBE scores of one set of ranked queries at every (alpha, beta) cell.

    Entry [i, j] is the weighted mean of the transformed ranks at
    (alphas[i], betas[j]); only config's epsilon, affine and entity_count
    are read.  A query's term depends only on its (rank, popularity) pair,
    so the sums run over the distinct pairs, each entering exact_sum with
    its count.  That sum is math.fsum over every query's term, bit for bit;
    it stays vectorised while fewer than 2**26 queries are scored, and
    falls back to math.fsum beyond.  Each alpha transforms the distinct
    ranks once, each beta weights the distinct popularities once, and each
    cell is one product and one counted exact_sum.  Every alpha must be > 0.
    """
    if not len(ranks):
        raise ValidationError("cannot score an empty record list")
    if int(ranks.min()) < 1:
        raise ValidationError(f"ranks must be >= 1, got {int(ranks.min())}")
    if config.affine:
        n = config.entity_count
        if int(ranks.max()) > n:
            raise ValidationError(
                f"rank {int(ranks.max())} exceeds entity_count {n} in affine mode")
        denoms = [_affine_denominator(alpha, n) for alpha in alphas]
    rank_values, rank_code = np.unique(ranks, return_inverse=True)
    pop_values, pop_code = np.unique(pops, return_inverse=True)
    pairs, counts = np.unique(rank_code * len(pop_values) + pop_code, return_counts=True)
    pair_rank, pair_pop = np.divmod(pairs, len(pop_values))
    values = rank_values.astype(np.float64)
    transforms = []
    for i, alpha in enumerate(alphas):
        scores = np.power(values, -alpha)
        if config.affine:
            scores = (scores - 1.0) / denoms[i] + 1.0
        transforms.append(scores[pair_rank])
    grid = np.empty((len(alphas), len(betas)))
    for j, beta in enumerate(betas):
        weights = popularity_weights(pop_values, beta, config.epsilon)[pair_pop]
        total = exact_sum(weights, counts)
        for i, scores in enumerate(transforms):
            grid[i, j] = exact_sum(weights * scores, counts) / total
    return grid


def probe_score(table: RankTable, config: MetricConfig) -> float:
    """Transform each record's rank, weight it by gold popularity, aggregate.

    Deterministic regardless of record order.
    """
    return float(score_grid(table.ranks, table.pops, config,
                            (config.alpha,), (config.beta,))[0, 0])


def mr(table: RankTable) -> float:
    """Arithmetic mean of the ranks."""
    ranks = _nonempty(table, "cannot compute mean rank of no records").ranks
    return exact_sum(ranks.astype(np.float64)) / len(ranks)


def mrr(table: RankTable) -> float:
    """Mean reciprocal rank."""
    ranks = _nonempty(table, "cannot compute MRR of no records").ranks
    return exact_sum(1.0 / ranks) / len(ranks)


def hits_at_k(table: RankTable, k: int) -> float:
    """Fraction of records ranked within the top k."""
    ranks = _nonempty(table, "cannot compute hits@k of no records").ranks
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return int(np.count_nonzero(ranks <= k)) / len(ranks)


@dataclass(frozen=True)
class Stratum:
    """One bucket [lo, hi) of popularities or ranks -- hi None means unbounded.

    A popularity stratum carries its score (None when empty); a rank bin
    has none.
    """

    lo: int
    hi: int | None
    count: int
    score: float | None = None


def default_bucket_edges(delta_max: int) -> list[int]:
    """Power-of-two popularity edges: 0, 1, 2, 4, ... up to >= delta_max."""
    edges = [0]
    if delta_max >= 1:
        edges.extend(2 ** k for k in range((int(delta_max) - 1).bit_length() + 1))
    return edges


def check_edges(edges: Sequence[int], first: int, what: str) -> list[int]:
    """The bucket edges as a list; they must start at `first` and ascend
    strictly, and `what` names them in the error."""
    edges = list(edges)
    if not edges or edges[0] != first:
        raise ValidationError(f"{what} must start at {first}, got {edges[:1]}")
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValidationError(f"{what} must be strictly ascending, got {edges}")
    return edges


def split_buckets(values: np.ndarray, edges: Sequence[int], first: int,
                  what: str) -> tuple[list[Stratum], np.ndarray]:
    """The counted Stratum of each half-open bucket [e0,e1), ..., [e_last, inf).

    The second result is each record's bucket, the index of its Stratum; the
    edges pass ``check_edges``.  A value below the first edge is an error.
    """
    edges = check_edges(edges, first, what)
    if len(values) and int(values.min()) < first:
        raise ValidationError(f"value {int(values.min())} lies below the {what} {edges}")
    bucket = np.searchsorted(edges, values, side="right") - 1
    counts = np.bincount(bucket, minlength=len(edges))
    return [Stratum(lo=lo, hi=hi, count=int(count))
            for lo, hi, count in zip(edges, edges[1:] + [None], counts)], bucket


def stratified_breakdown(table: RankTable, bucket_edges: Sequence[int],
                         config: MetricConfig) -> list[Stratum]:
    """Per-popularity-bucket record counts and scores.

    Buckets are half-open [e0,e1), ..., [e_last, inf).  Scores inside each
    bucket are computed with beta forced to 0, so the breakdown shows the
    raw per-group accuracy rather than re-weighted values.  Empty buckets
    report score None.
    """
    strata, bucket = split_buckets(table.pops, bucket_edges, 0, "bucket edges")
    return [replace(stratum, score=float(score_grid(table.ranks[indices], table.pops[indices],
                                                    config, (config.alpha,), (0.0,))[0, 0]))
            if stratum.count else stratum
            for k, stratum in enumerate(strata) for indices in [np.flatnonzero(bucket == k)]]
