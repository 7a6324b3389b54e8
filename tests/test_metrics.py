"""Rank transformer, weights, aggregation, baselines, and their invariants."""

from __future__ import annotations

import math
import random
import struct
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_records
from probe_eval import metrics
from probe_eval.errors import ValidationError
from probe_eval.metrics import (MetricConfig, Stratum, default_bucket_edges, exact_sum,
                                hits_at_k, mr, mrr, popularity_weights, probe_score,
                                rt_affine, rt_raw, split_buckets, stratified_breakdown)
from probe_eval.ranking import RankTable
from probe_eval.sweep import rank_histogram
from probe_eval.synthetic import oracle_probe

alphas_pos = st.floats(min_value=0.05, max_value=4.0, allow_nan=False)
ranks_st = st.integers(min_value=1, max_value=40943)


class TestRtRaw:
    def test_rank_one_is_identity(self):
        assert rt_raw(1, 2.0) == 1.0

    def test_reciprocal_rank_at_alpha_one(self):
        assert rt_raw(3, 1.0) == pytest.approx(1.0 / 3.0, abs=0)

    def test_sqrt_case(self):
        assert rt_raw(4, 0.5) == 0.5

    def test_negative_alpha_degenerates_to_rank(self):
        assert rt_raw(5, -1.0) == 5.0

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValidationError):
            rt_raw(0, 1.0)

    def test_rank_too_large_for_a_float(self):
        """float(10**400) overflows; rank**-alpha is then taken through
        logarithms, and a rank a float holds keeps its exact bits."""
        assert rt_raw(10 ** 400, 1.0) == 0.0
        assert rt_raw(10 ** 400, 0.0) == 1.0
        assert rt_affine(10 ** 400, 1.0, 10 ** 400) == 0.0  # exactly 0.0 at rank n
        assert rt_raw(2 ** 1023, 0.5) == 2.0 ** -511.5

    @given(r1=st.integers(1, 10_000), r2=st.integers(1, 10_000), alpha=alphas_pos)
    def test_anti_monotone(self, r1, r2, alpha):
        if r1 < r2:
            assert rt_raw(r1, alpha) > rt_raw(r2, alpha)

    @given(r=st.integers(2, 10_000), a1=alphas_pos, a2=alphas_pos)
    def test_sharpness_monotone(self, r, a1, a2):
        if a1 < a2:
            assert rt_raw(r, a1) > rt_raw(r, a2)


class TestRtAffine:
    def test_fixed_optimum(self):
        assert rt_affine(1, 0.7, 100) == 1.0

    def test_fixed_pessimum(self):
        assert rt_affine(100, 0.7, 100) == 0.0

    def test_hand_evaluated_midpoint(self):
        # (0.5 - 1)/(1 - 0.1) + 1 = 4/9
        assert rt_affine(2, 1.0, 10) == pytest.approx(4.0 / 9.0, rel=1e-15)

    def test_rank_above_entity_count_rejected(self):
        with pytest.raises(ValidationError):
            rt_affine(11, 1.0, 10)

    def test_nonpositive_alpha_rejected(self):
        with pytest.raises(ValidationError):
            rt_affine(1, 0.0, 10)
        with pytest.raises(ValidationError):
            rt_affine(1, -1.0, 10)

    def test_entity_count_too_large_for_a_float(self):
        """float(10**400) overflows; n**-alpha is then taken through logarithms,
        and a count a float holds keeps its exact bits."""
        assert rt_affine(1, 1.0, 10 ** 400) == 1.0
        assert rt_affine(2, 1.0, 10 ** 400) == 0.5
        assert rt_affine(2, 0.5, 2 ** 1023) == (2.0 ** -0.5 - 1.0) / (1.0 - 2.0 ** -511.5) + 1.0

    def test_tiny_entity_count_rejected(self):
        with pytest.raises(ValidationError):
            rt_affine(1, 1.0, 1)

    @given(alpha=alphas_pos, n=st.integers(2, 50_000))
    def test_fixed_endpoints_everywhere(self, alpha, n):
        assert rt_affine(1, alpha, n) == 1.0
        assert abs(rt_affine(n, alpha, n)) <= 1e-12

    @given(alpha=alphas_pos, n=st.integers(2, 5_000), data=st.data())
    @settings(max_examples=60)
    def test_anti_monotone_and_in_range(self, alpha, n, data):
        r1 = data.draw(st.integers(1, n))
        r2 = data.draw(st.integers(1, n))
        v1, v2 = rt_affine(r1, alpha, n), rt_affine(r2, alpha, n)
        assert 0.0 <= v1 <= 1.0
        if r1 < r2:
            assert v1 > v2

    @given(alpha=alphas_pos, n=st.integers(2, 5_000), r=st.integers(1, 5_000))
    @settings(max_examples=80)
    def test_affine_is_linear_in_raw(self, alpha, n, r):
        if r > n:
            return
        a = 1.0 / (1.0 - float(n) ** -alpha)
        b = 1.0 - a
        expected = a * rt_raw(r, alpha) + b
        assert rt_affine(r, alpha, n) == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestWeight:
    """(1 + popularity)**-beta, as popularity_weights gives it: the weights are
    scaled so the largest is 1, so each is taken beside a popularity of 0."""

    @staticmethod
    def relative(delta: int, beta: float) -> float:
        return float(popularity_weights(np.array([0, delta]), beta, 1.0)[1])

    def test_zero_beta_is_unit(self):
        assert popularity_weights(np.array([0, 3, 7614]), 0.0, 1.0).tolist() == [1.0] * 3

    def test_quarter(self):
        assert self.relative(3, 1.0) == 0.25

    def test_high_popularity_against_mpmath(self):
        expected = float(mpmath.power(7615, mpmath.mpf("-0.8")))
        assert self.relative(7614, 0.8) == pytest.approx(expected, rel=1e-14)
        assert self.relative(7614, 0.8) == pytest.approx(7.85e-4, rel=2e-3)

    def test_guard_validation(self):
        with pytest.raises(ValidationError):
            MetricConfig(epsilon=0.0, affine=False)
        with pytest.raises(ValidationError):
            popularity_weights(np.array([1, -1]), 1.0, 1.0)
        with pytest.raises(ValidationError):
            MetricConfig(beta=-0.5, affine=False)

    @given(delta=st.integers(0, 10**6), beta=st.floats(0, 2), eps=st.floats(1e-6, 10))
    def test_strictly_positive(self, delta, beta, eps):
        assert (popularity_weights(np.array([0, delta]), beta, eps) > 0.0).all()

    def test_huge_beta_reaches_its_limit_without_a_warning(self):
        """beta * log-ratio overflows to -inf; exp of it is the exact limit 0."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = popularity_weights(np.array([5, 0, 3, 0, 7614]), 1e308, 0.01)
        assert weights.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]


class TestMetricConfig:
    def test_affine_requires_entity_count(self):
        with pytest.raises(ValidationError):
            MetricConfig(affine=True)

    def test_affine_entity_count_lower_bound(self):
        with pytest.raises(ValidationError):
            MetricConfig(affine=True, entity_count=1)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError, match="alpha"):
            MetricConfig(alpha=-1.0, affine=False)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValidationError):
            MetricConfig(epsilon=0.0, affine=False)

    def test_beta_must_be_nonnegative(self):
        with pytest.raises(ValidationError):
            MetricConfig(beta=-0.1, affine=False)


class TestProbeScore:
    def test_equals_mrr_at_alpha_one(self):
        records = make_records([1, 2, 4])
        cfg = MetricConfig(alpha=1.0, beta=0.0, affine=False)
        assert probe_score(records, cfg) == pytest.approx(7.0 / 12.0, rel=1e-15)

    def test_all_rank_one_scores_one(self):
        records = make_records([1] * 7, pops=[0, 1, 5, 9, 2, 4, 100])
        for cfg in (MetricConfig(alpha=2.0, beta=0.7, affine=False),
                    MetricConfig(alpha=0.5, beta=1.5, affine=True, entity_count=50)):
            assert probe_score(records, cfg) == pytest.approx(1.0, abs=1e-15)

    def test_best_and_worst_average_to_half(self):
        for n in (2, 10, 1000):
            for alpha in (0.1, 0.5, 1.0, 3.0):
                records = make_records([1, n], pops=[4, 4])
                cfg = MetricConfig(alpha=alpha, beta=1.0, affine=True, entity_count=n)
                assert probe_score(records, cfg) == pytest.approx(0.5, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            probe_score(make_records([]), MetricConfig(affine=False))

    def test_rank_below_one_rejected(self):
        with pytest.raises(ValidationError, match=r"^ranks must be >= 1, got 0$"):
            probe_score(make_records([3, 0]), MetricConfig(affine=False))

    def test_weights_do_not_underflow(self):
        """(1 + 5000)**-90 is 0.0 in floats; the scaled weights are not."""
        assert (1.0 + 5_000) ** -90.0 == 0.0
        records = make_records([1, 7], pops=[5_000, 6_000])
        score = probe_score(records, MetricConfig(alpha=1.0, beta=90.0, affine=True,
                                                  entity_count=10))
        # weights 1 and (6001/5001)**-90 ~ 7.5e-8: the rank-1 record dominates
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(1.0, abs=1e-6)

    def test_largest_weight_is_exactly_one(self):
        pops = np.array([40, 3, 10**6])
        for beta in (0.0, 0.4, 2.0, 90.0):
            weights = popularity_weights(pops, beta, 1.0)
            assert weights[1] == 1.0  # the least popular gold
            assert weights.max() == 1.0
        unweighted = popularity_weights(pops, 0.0, 1.0)
        assert unweighted.tolist() == [1.0] * 3

    def test_rank_above_entity_count_rejected_in_affine(self):
        cfg = MetricConfig(affine=True, entity_count=5)
        with pytest.raises(ValidationError):
            probe_score(make_records([6]), cfg)

    @given(st.lists(ranks_st, min_size=1, max_size=300))
    @settings(max_examples=60)
    def test_mrr_reduction(self, ranks):
        records = make_records(ranks)
        cfg = MetricConfig(alpha=1.0, beta=0.0, affine=False)
        assert probe_score(records, cfg) == pytest.approx(mrr(records), rel=1e-12)

    @given(st.lists(ranks_st, min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_mr_reduction_via_rt_raw(self, ranks):
        records = make_records(ranks)
        mean_raw = sum(rt_raw(r, -1.0) for r in ranks) / len(ranks)
        assert mean_raw == pytest.approx(mr(records), rel=1e-12)

    @given(pairs=st.lists(st.tuples(st.integers(1, 5000), st.integers(0, 1000)),
                          min_size=1, max_size=400),
           alpha=st.floats(0.1, 4.0), beta=st.floats(0, 2))
    @settings(max_examples=60)
    def test_affine_is_affine_of_raw(self, pairs, alpha, beta):
        n_entities = 5000
        records = make_records([r for r, _ in pairs], [p for _, p in pairs])
        raw = probe_score(records, MetricConfig(alpha=alpha, beta=beta, affine=False))
        aff = probe_score(records, MetricConfig(alpha=alpha, beta=beta, affine=True,
                                                entity_count=n_entities))
        a = 1.0 / (1.0 - float(n_entities) ** -alpha)
        assert aff == pytest.approx(a * raw + (1.0 - a), rel=1e-10, abs=1e-10)
        assert 0.0 - 1e-12 <= aff <= 1.0 + 1e-12

    @given(st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 50)),
                    min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_beta_zero_is_unweighted_mean(self, pairs):
        records = make_records([r for r, _ in pairs], [p for _, p in pairs])
        cfg = MetricConfig(alpha=0.8, beta=0.0, affine=True, entity_count=1000)
        transformed = [rt_affine(r, 0.8, 1000) for r, _ in pairs]
        assert probe_score(records, cfg) == \
            pytest.approx(math.fsum(transformed) / len(transformed), rel=1e-12)

    @given(pairs=st.lists(st.tuples(st.integers(1, 1000), st.integers(0, 100)),
                          min_size=1, max_size=300),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40)
    def test_permutation_invariance_is_exact(self, pairs, seed):
        records = make_records([r for r, _ in pairs], [p for _, p in pairs])
        order = list(range(len(pairs)))
        random.Random(seed).shuffle(order)
        shuffled = make_records([pairs[i][0] for i in order], [pairs[i][1] for i in order],
                                index=order)
        cfg = MetricConfig(alpha=1.3, beta=0.6, affine=True, entity_count=1000)
        assert probe_score(records, cfg) == probe_score(shuffled, cfg)
        assert mr(records) == mr(shuffled)
        assert mrr(records) == mrr(shuffled)

    def test_oracle_agreement_spot(self):
        rng = np.random.default_rng(11)
        records = make_records(rng.integers(1, 999, 500).tolist(),
                               rng.integers(0, 400, 500).tolist())
        for cfg in (MetricConfig(alpha=0.3, beta=1.7, affine=True, entity_count=1000),
                    MetricConfig(alpha=2.5, beta=0.0, affine=False, epsilon=1e-6)):
            assert probe_score(records, cfg) == \
                pytest.approx(oracle_probe(records, cfg), rel=1e-10)

    def test_score_non_increasing_in_alpha_at_grid_points(self):
        """Numeric check at the default grid; not asserted universally."""
        rng = np.random.default_rng(23)
        for _ in range(20):
            records = make_records(rng.integers(1, 10_000, 300).tolist(),
                                   rng.integers(0, 500, 300).tolist())
            for beta in (0.0, 0.2, 0.4, 0.8):
                scores = [probe_score(records, MetricConfig(
                    alpha=alpha, beta=beta, affine=True, entity_count=10_000))
                    for alpha in (0.25, 0.5, 1.0, 2.0)]
                assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


_MIN_NORMAL = 2.2250738585072014e-308
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-_MIN_NORMAL, max_value=_MIN_NORMAL),  # subnormals and +-0.0
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=2.0 ** 990, max_value=2.0 ** 1010),
    st.floats(min_value=-2.0 ** 1010, max_value=-2.0 ** 990),
    st.floats(min_value=2.0 ** -1010, max_value=2.0 ** -990),
    st.floats(min_value=-2.0 ** -990, max_value=-2.0 ** -1010),
    st.floats(min_value=-1e6, max_value=1e6),
)
# exponents within exact_sum's vectorised range, so whole arrays stay on that path
moderate_floats = st.one_of(
    st.floats(min_value=2.0 ** -950, max_value=2.0 ** 950),
    st.floats(min_value=-2.0 ** 950, max_value=-2.0 ** -950),
    st.floats(min_value=0.5, max_value=2.0),
    st.sampled_from([0.0, -0.0]),
)
float_arrays = st.one_of(
    st.lists(finite_floats, max_size=300),
    st.lists(finite_floats, max_size=150).map(lambda xs: xs + [-x for x in xs]),
    st.lists(moderate_floats, max_size=300),
    st.lists(moderate_floats, max_size=150).map(lambda xs: xs + [-x for x in xs]),
).map(lambda xs: np.array(xs, dtype=np.float64))


class TestExactSum:
    """exact_sum is math.fsum bit for bit, whichever path it takes."""

    @given(values=float_arrays)
    @settings(max_examples=400)
    def test_bit_identical_to_fsum(self, values):
        try:
            expected = math.fsum(values.tolist())
        except OverflowError:
            assume(False)
        assert _bits(exact_sum(values)) == _bits(expected)

    @given(data=st.data(), values=float_arrays)
    @settings(max_examples=400)
    def test_counted_sum_is_fsum_of_repeated_values(self, data, values):
        counts = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=len(values),
                                             max_size=len(values))), dtype=np.int64)
        try:
            expected = math.fsum(np.repeat(values, counts).tolist())
        except OverflowError:
            assume(False)
        assert _bits(exact_sum(values, counts)) == _bits(expected)

    def _fsum_lengths(self, monkeypatch, values, counts=None) -> list[int]:
        """Lengths of the lists exact_sum hands to math.fsum; a fallback hands
        all n values, each repeated counts[k] times when counts are given."""
        repeated = values if counts is None else np.repeat(values, counts)
        expected = math.fsum(repeated.tolist())
        lengths = []
        real = math.fsum

        def spy(xs):
            lengths.append(len(xs))
            return real(xs)

        monkeypatch.setattr(math, "fsum", spy)
        assert _bits(exact_sum(values, counts)) == _bits(expected)
        return lengths

    def test_vectorised_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        values = rng.standard_normal(5_000) * 10.0 ** rng.integers(-30, 30, size=5_000)
        values = np.concatenate([values, 2.0 ** -961 * np.array([1.5, 1.0]),  # exponent -960
                                 2.0 ** 959 * np.array([1.5, -1.25])])          # exponent 960
        lengths = self._fsum_lengths(monkeypatch, values)
        assert len(lengths) == 1 and lengths[0] < len(values)

    @pytest.mark.parametrize("values", [
        [1.0, 5e-324, 3.0],                  # a subnormal
        [2.0 ** -962, 0.5],                  # exponent -961, below the limit
        [2.0 ** 960, -1.0, 2.0 ** 1000],     # exponent above the limit
        [0.1, 1.7e308, 1.7e308, -1.7e308],   # fsum's own overflow handling decides
        [1.5, -1.5, 0.25, -0.25],            # exact zero total
        [-0.0, -0.0],                        # the sign of a zero total
        [],
    ], ids=["subnormal", "tiny-exponent", "huge-exponent", "near-overflow",
            "zero-total", "negative-zero", "empty"])
    def test_fallbacks_match_fsum(self, monkeypatch, values):
        values = np.array(values, dtype=np.float64)
        try:
            lengths = self._fsum_lengths(monkeypatch, values)
        except OverflowError:
            with pytest.raises(OverflowError):
                exact_sum(values)
            return
        assert lengths[-1] == len(values)

    @pytest.mark.parametrize("values, expected", [
        ([1.0, math.inf, 2.0], math.inf),
        ([-math.inf, 1.0], -math.inf),
    ])
    def test_infinities_fall_back(self, values, expected):
        assert exact_sum(np.array(values)) == expected == math.fsum(values)

    @pytest.mark.parametrize("values, counts", [
        ([1.0, math.inf, 2.0], [2, 1, 3]),
        ([-math.inf, 1.0], [1, 4]),
        ([1.0, math.nan], [3, 2]),
        ([2.0 ** 960, -1.0], [2, 3]),          # exponent 961, above the limit
        ([2.0 ** -962, 0.5], [5, 1]),          # exponent -961, below the limit
        ([1.5, -0.5, -0.25], [1, 2, 2]),       # exact zero total
        ([-0.0, -0.0], [3, 1]),                # the sign of a zero total
    ], ids=["inf", "-inf", "nan", "huge-exponent", "tiny-exponent", "zero-total",
            "negative-zero"])
    def test_counted_fallbacks_repeat_every_value(self, monkeypatch, values, counts):
        counts = np.array(counts, dtype=np.int64)
        lengths = self._fsum_lengths(monkeypatch, np.array(values, dtype=np.float64), counts)
        assert lengths[-1] == counts.sum()

    def test_nan_and_opposite_infinities_fall_back(self):
        assert math.isnan(exact_sum(np.array([1.0, math.nan])))
        with pytest.raises(ValueError):
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError):
            exact_sum(np.array([math.inf, -math.inf]))

    def test_length_limit_falls_back(self, monkeypatch):
        """A real 2**26-element array needs 512 MB, so the limit is lowered instead."""
        monkeypatch.setattr(metrics, "_MAX_LEN", 8)
        values = np.linspace(0.1, 0.9, 9)
        assert self._fsum_lengths(monkeypatch, values) == [9]

    def test_length_limit_counts_repeated_values(self, monkeypatch):
        """Three values, but the counts make nine: the limit applies to the nine."""
        monkeypatch.setattr(metrics, "_MAX_LEN", 8)
        values = np.linspace(0.1, 0.9, 3)
        assert self._fsum_lengths(monkeypatch, values, np.array([4, 3, 2])) == [9]

    def test_large_exact_cancellation(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(10_000) * 10.0 ** rng.integers(-100, 100, size=10_000)
        values = np.concatenate([x, [1e-20], -x[::-1]])
        assert exact_sum(values) == 1e-20


class TestScoreGrid:
    def test_transforms_each_distinct_rank_once(self, monkeypatch):
        """10,000 queries with 5 distinct ranks: np.power never sees more than 5."""
        rng = np.random.default_rng(5)
        ranks = rng.choice([1, 2, 9, 40, 700], size=10_000)
        pops = rng.integers(0, 50, size=10_000)
        sizes = []
        real = np.power

        def spy(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(np, "power", spy)
        grid = metrics.score_grid(ranks, pops, MetricConfig(entity_count=1_000),
                                  (0.5, 1.0, 2.0), (0.0, 0.4))
        assert grid.shape == (3, 2)
        assert sizes and max(sizes) <= 5


class TestBaselines:
    def test_mean_rank(self):
        assert mr(make_records([1, 3, 5])) == 3.0

    def test_mean_rank_rounds_huge_ranks_as_fsum_does(self):
        ranks = [2 ** 62 + 1, 2 ** 53 + 1, 3, 2 ** 60 - 1]
        assert _bits(mr(make_records(ranks))) == _bits(math.fsum(ranks) / len(ranks))

    def test_mrr_example(self):
        assert mrr(make_records([1, 2, 4])) == pytest.approx(7.0 / 12.0, rel=1e-15)

    def test_hits_example(self):
        assert hits_at_k(make_records([1, 3, 7]), 3) == pytest.approx(2.0 / 3.0)

    def test_hits_validation(self):
        with pytest.raises(ValidationError):
            hits_at_k(make_records([1]), 0)

    def test_empty_records_rejected(self):
        for fn in (mr, mrr):
            with pytest.raises(ValidationError):
                fn(make_records([]))

    @given(ranks=st.lists(ranks_st, min_size=1, max_size=200),
           k=st.integers(1, 100))
    @settings(max_examples=40)
    def test_hits_is_monotone_in_k(self, ranks, k):
        records = make_records(ranks)
        assert hits_at_k(records, k) <= hits_at_k(records, k + 1)
        assert 0.0 <= hits_at_k(records, k) <= 1.0


class TestStratifiedBreakdown:
    def test_partition_counts(self):
        records = make_records([1, 2, 3], pops=[0, 0, 5])
        strata = stratified_breakdown(records, [0, 1],
                                      MetricConfig(affine=False))
        assert [(s.lo, s.hi, s.count) for s in strata] == \
            [(0, 1, 2), (1, None, 1)]

    def test_single_bucket_equals_beta_zero_probe(self):
        records = make_records([1, 5, 9, 2], pops=[0, 3, 10, 2])
        cfg = MetricConfig(alpha=1.0, beta=1.5, affine=True, entity_count=10)
        strata = stratified_breakdown(records, [0], cfg)
        beta0 = MetricConfig(alpha=1.0, beta=0.0, affine=True, entity_count=10)
        assert len(strata) == 1
        assert strata[0].score == pytest.approx(probe_score(records, beta0), abs=0)

    def test_empty_bucket_has_none_score(self):
        records = make_records([1], pops=[10])
        strata = stratified_breakdown(records, [0, 1], MetricConfig(affine=False))
        assert strata[0].count == 0 and strata[0].score is None

    def test_bad_edges_rejected(self):
        records = make_records([1])
        for edges in ([], [1, 2], [0, 2, 2], [0, 3, 1]):
            with pytest.raises(ValidationError):
                stratified_breakdown(records, edges, MetricConfig(affine=False))

    def test_rank_above_entity_count_rejected_in_affine(self):
        records = make_records([1, 6], pops=[0, 9])
        config = MetricConfig(affine=True, entity_count=5)
        with pytest.raises(ValidationError) as expected:
            probe_score(records, config)
        with pytest.raises(ValidationError) as raised:
            stratified_breakdown(records, [0, 4], config)
        assert str(raised.value) == str(expected.value) == \
            "rank 6 exceeds entity_count 5 in affine mode"

    @given(st.lists(st.tuples(st.integers(1, 100), st.integers(0, 500)),
                    min_size=1, max_size=300),
           st.lists(st.integers(1, 400), min_size=0, max_size=6, unique=True))
    @settings(max_examples=50)
    def test_counts_conserved(self, pairs, inner_edges):
        records = make_records([r for r, _ in pairs], [p for _, p in pairs])
        edges = [0] + sorted(inner_edges)
        cfg = MetricConfig(affine=False)
        strata = stratified_breakdown(records, edges, cfg)
        assert sum(s.count for s in strata) == len(records)
        # per-record loop reference for the vectorised bucket assignment
        buckets = [[(r, p) for r, p in pairs if lo <= p < hi]
                   for lo, hi in zip(edges, edges[1:] + [math.inf])]
        assert [s.count for s in strata] == [len(b) for b in buckets]
        assert [s.score for s in strata] == [
            probe_score(make_records([r for r, _ in b], [p for _, p in b]), cfg) if b else None
            for b in buckets]
        # the independent single-loop oracle; beta is 0 inside every stratum
        for stratum, bucket in zip(strata, buckets):
            if bucket:
                oracle = oracle_probe(make_records([r for r, _ in bucket],
                                                   [p for _, p in bucket]), cfg)
                assert stratum.score == pytest.approx(oracle, rel=1e-12)


class TestBucketMasks:
    @pytest.mark.parametrize("edges, message", [
        ([], "bucket edges must start at 0, got []"),
        ([1, 2], "bucket edges must start at 0, got [1]"),
        ([0, 2, 2], "bucket edges must be strictly ascending, got [0, 2, 2]"),
        ([0, 3, 1], "bucket edges must be strictly ascending, got [0, 3, 1]"),
    ])
    def test_strata_edge_messages(self, edges, message):
        with pytest.raises(ValidationError) as raised:
            stratified_breakdown(make_records([1]), edges, MetricConfig(affine=False))
        assert str(raised.value) == message

    @pytest.mark.parametrize("edges, message", [
        ([], "rank bins must start at 1, got []"),
        ([2, 3], "rank bins must start at 1, got [2]"),
        ([1, 1], "rank bins must be strictly ascending, got [1, 1]"),
        ([1, 5, 4], "rank bins must be strictly ascending, got [1, 5, 4]"),
    ])
    def test_rank_bin_edge_messages(self, edges, message):
        with pytest.raises(ValidationError) as raised:
            rank_histogram(make_records([1]), edges)
        assert str(raised.value) == message

    def test_last_bucket_is_unbounded(self):
        strata, bucket = split_buckets(np.array([12, 0, 9, 3, 10]), (0, 4, 10), 0, "edges")
        assert strata == [Stratum(lo=0, hi=4, count=2), Stratum(lo=4, hi=10, count=1),
                          Stratum(lo=10, hi=None, count=2)]
        assert bucket.tolist() == [2, 0, 1, 0, 2]

    def test_value_below_the_first_edge_is_an_error(self):
        """No record may fall outside every bucket: counts must sum to the records."""
        ranks = RankTable(["a", "b"], np.array([0, 3]), np.array([0, 0]))
        with pytest.raises(ValidationError) as raised:
            rank_histogram(ranks, (1, 2))
        assert str(raised.value) == "value 0 lies below the rank bins [1, 2]"
        pops = make_records([1, 2, 3], pops=[4, -2, 0])
        with pytest.raises(ValidationError) as raised:
            stratified_breakdown(pops, [0, 1], MetricConfig(affine=False))
        assert str(raised.value) == "value -2 lies below the bucket edges [0, 1]"


class TestDefaultBucketEdges:
    @pytest.mark.parametrize("delta_max,expected", [
        (0, [0]),
        (1, [0, 1]),
        (2, [0, 1, 2]),
        (3, [0, 1, 2, 4]),
        (482, [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512]),
        (np.int64(5), [0, 1, 2, 4, 8]),  # a popularity column's max
    ])
    def test_edges(self, delta_max, expected):
        assert default_bucket_edges(delta_max) == expected

    @pytest.mark.parametrize("k", [49, 53, 64, 100])
    def test_top_edge_exact_for_huge_popularity(self, k):
        assert default_bucket_edges(2 ** k)[-1] == 2 ** k
        assert default_bucket_edges(2 ** k + 1)[-1] == 2 ** (k + 1)

    def test_covers_benchmark_scale_popularity(self):
        edges = default_bucket_edges(7614)
        assert edges[-1] == 8192
        assert edges[:4] == [0, 1, 2, 4]
