"""Grid sweeps, flip detection, histograms, and surface export."""

from __future__ import annotations

import csv
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_records
from probe_eval.errors import ValidationError
from probe_eval.metrics import MetricConfig, popularity_weights, probe_score
from probe_eval.ranking import RankTable
from probe_eval.sweep import (DEFAULT_RANK_BINS, SweepGrid, SweepResult, _rank_cell,
                              find_flips, histogram_export, rank_histogram, run_sweep,
                              surface_export)
from probe_eval.synthetic import ExplicitProfile, generate

BASE_CONFIG = MetricConfig(alpha=1.0, beta=0.0, affine=True, entity_count=10_000)


def sharp_and_steady(n=1000):
    """60% rank-1 / 40% rank-100 versus constant rank-2, uniform popularity."""
    n1 = int(n * 0.6)
    sharp = generate(ExplicitProfile(ranks=(1,) * n1 + (100,) * (n - n1)), n, seed=0)
    steady = generate(ExplicitProfile(ranks=(2,) * n), n, seed=0)
    return {"sharp": sharp, "steady": steady}


class TestSweepGrid:
    def test_defaults_match_reference_grid(self):
        grid = SweepGrid()
        assert grid.alphas == (0.25, 0.5, 1.0, 2.0)
        assert grid.betas == (0.0, 0.2, 0.4, 0.8)
        assert grid.base == (1.0, 0.0)
        assert len(grid.cells()) == 16

    def test_base_must_be_on_grid(self):
        with pytest.raises(ValidationError):
            SweepGrid(alphas=(0.5, 1.0), betas=(0.0,), base=(2.0, 0.0))

    def test_empty_axis_rejected(self):
        for axes in ({"alphas": ()}, {"betas": ()}):
            with pytest.raises(ValidationError,
                               match=r"^grid needs at least one alpha and one beta$"):
                SweepGrid(**axes)

    def test_ordering_validated(self):
        with pytest.raises(ValidationError):
            SweepGrid(alphas=(1.0, 0.5), betas=(0.0,), base=(1.0, 0.0))
        with pytest.raises(ValidationError):
            SweepGrid(alphas=(0.0, 1.0), betas=(0.0,), base=(1.0, 0.0))
        with pytest.raises(ValidationError):
            SweepGrid(alphas=(1.0,), betas=(0.2, 0.1), base=(1.0, 0.2))


class TestRunSweep:
    def test_single_model_no_flips(self):
        models = {"only": make_records([1, 5, 20], pops=[0, 2, 9])}
        result = run_sweep(models, SweepGrid(), BASE_CONFIG)
        assert result.flips == []
        assert set(result.cells) == set(SweepGrid().cells())

    def test_identical_models_tie_everywhere(self):
        records = make_records([3, 7, 1], pops=[1, 0, 4])
        models = {"a": records, "b": records}
        result = run_sweep(models, SweepGrid(), BASE_CONFIG)
        assert result.flips == []
        for cell in result.grid.cells():
            scores = result.cells[cell]
            assert scores["a"] == scores["b"]
            ranking = result.rankings[cell]
            assert ranking.order == ("a", "b")  # lexicographic on ties
            assert ranking.ties == (("a", "b"),)

    def test_base_cell_reproduces_probe_score(self):
        models = sharp_and_steady(200)
        result = run_sweep(models, SweepGrid(), BASE_CONFIG)
        for name, records in models.items():
            assert result.cells[(1.0, 0.0)][name] == probe_score(records, BASE_CONFIG)

    def test_sharp_vs_steady_flip(self):
        result = run_sweep(sharp_and_steady(), SweepGrid(), BASE_CONFIG)
        # strict orders: sharp wins at alpha in {1, 2}, steady at {0.25, 0.5}
        for beta in SweepGrid().betas:
            assert result.cells[(2.0, beta)]["sharp"] > \
                result.cells[(2.0, beta)]["steady"]
            assert result.cells[(0.25, beta)]["steady"] > \
                result.cells[(0.25, beta)]["sharp"]
        flipped_cells = {flip.cell for flip in result.flips
                         if set(flip.pair) == {"sharp", "steady"}}
        assert (0.25, 0.0) in flipped_cells
        assert (0.5, 0.0) in flipped_cells
        assert (2.0, 0.0) not in flipped_cells
        flip = next(f for f in result.flips if f.cell == (0.25, 0.0))
        assert flip.base_order == ("sharp", "steady")
        assert flip.cell_order == ("steady", "sharp")

    def test_model_order_is_irrelevant(self):
        models = sharp_and_steady(100)
        forward = run_sweep(models, SweepGrid(), BASE_CONFIG)
        backward = run_sweep(dict(reversed(models.items())), SweepGrid(),
                             BASE_CONFIG)
        assert forward.cells == backward.cells
        assert forward.flips == backward.flips

    def test_mismatched_query_sets_rejected(self):
        models = {"a": make_records([1, 2]), "b": make_records([1, 2, 3])}
        with pytest.raises(ValidationError, match="records"):
            run_sweep(models, SweepGrid(), BASE_CONFIG)

    def test_mismatched_query_identity_reported(self):
        a = make_records([1, 2])
        b = make_records([1, 2], index=[0, 99])
        with pytest.raises(ValidationError, match="first divergence"):
            run_sweep({"a": a, "b": b}, SweepGrid(), BASE_CONFIG)

    def test_empty_models_rejected(self):
        with pytest.raises(ValidationError):
            run_sweep({}, SweepGrid(), BASE_CONFIG)

    def test_empty_tables_rejected_as_probe_score_rejects_them(self):
        empty = make_records([])
        with pytest.raises(ValidationError) as expected:
            probe_score(empty, BASE_CONFIG)
        with pytest.raises(ValidationError) as raised:
            run_sweep({"a": empty, "b": empty}, SweepGrid(), BASE_CONFIG)
        assert str(raised.value) == str(expected.value) == "cannot score an empty record list"

    def test_rank_above_entity_count_rejected_in_affine(self):
        config = MetricConfig(affine=True, entity_count=5)
        models = {"a": make_records([1, 2]), "b": make_records([6, 1])}
        with pytest.raises(ValidationError) as expected:
            probe_score(models["b"], config)
        with pytest.raises(ValidationError) as raised:
            run_sweep(models, SweepGrid(), config)
        assert str(raised.value) == str(expected.value) == \
            "rank 6 exceeds entity_count 5 in affine mode"


def fsum_cell(table, config, alpha, beta) -> float:
    """One cell from its definition: this cell's weights and transform, fsum sums."""
    weights = popularity_weights(table.pops, beta, config.epsilon)
    scores = np.power(table.ranks.astype(np.float64), -alpha)
    if config.affine:
        scores = (scores - 1.0) / (1.0 - float(config.entity_count) ** -alpha) + 1.0
    return math.fsum((weights * scores).tolist()) / math.fsum(weights.tolist())


class TestCellParity:
    @given(data=st.data(), affine=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_cell_matches_fsum_reference_bit_for_bit(self, data, affine):
        """Every sweep cell equals a per-cell math.fsum mean, bit for bit.

        Popularities reach 10**6, so beta = 50 pushes some weights below
        2**-960 and exact_sum takes its math.fsum fallback there.
        """
        n_records = data.draw(st.integers(2, 40))
        pops = [0, 10 ** 6] + data.draw(st.lists(st.integers(0, 10 ** 6),
                                                 min_size=n_records - 2,
                                                 max_size=n_records - 2))
        models = {}
        for m in range(data.draw(st.integers(2, 4))):
            ranks = data.draw(st.lists(st.integers(1, 10_000),
                                       min_size=n_records, max_size=n_records))
            order = data.draw(st.permutations(range(n_records)))
            models[f"m{m}"] = make_records([ranks[i] for i in order],
                                           [pops[i] for i in order], index=order)
        self.assert_cells_match_reference(models, affine)

    @given(data=st.data(), affine=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_repeated_pairs_match_fsum_reference_bit_for_bit(self, data, affine):
        """Queries share few (rank, popularity) pairs, so score_grid sums each
        distinct pair with a count above 1; the reference still sums every query."""
        n_records = data.draw(st.integers(2, 300))
        pops = data.draw(st.lists(st.sampled_from([0, 1, 10 ** 6]),
                                  min_size=n_records, max_size=n_records))
        models = {}
        for m in range(data.draw(st.integers(2, 4))):
            pool = data.draw(st.lists(st.integers(1, 10_000), min_size=1, max_size=4))
            ranks = data.draw(st.lists(st.sampled_from(pool),
                                       min_size=n_records, max_size=n_records))
            models[f"m{m}"] = make_records(ranks, pops)
        self.assert_cells_match_reference(models, affine)

    @pytest.mark.parametrize("affine", [True, False])
    def test_one_shared_pair_matches_fsum_reference(self, affine):
        """Every query of each model is one (rank, popularity) pair."""
        models = {"a": make_records([3] * 500, [10 ** 6] * 500),
                  "b": make_records([1] * 500, [10 ** 6] * 500)}
        self.assert_cells_match_reference(models, affine)

    @staticmethod
    def assert_cells_match_reference(models, affine):
        grid = SweepGrid(alphas=(0.1, 1.0, 7.0), betas=(0.0, 1.0, 50.0), base=(1.0, 0.0))
        config = BASE_CONFIG if affine else MetricConfig(affine=False)
        result = run_sweep(models, grid, config)
        for cell in grid.cells():
            for name, records in models.items():
                expected = fsum_cell(records, config, *cell)
                assert result.cells[cell][name].hex() == expected.hex()


class TestFlipOracle:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_antisymmetric_and_complete(self, data):
        """Every strict pair is either flipped or preserved, matching a
        brute-force pairwise comparison of the fsum reference scores."""
        n_models = data.draw(st.integers(2, 4))
        n_records = data.draw(st.integers(1, 30))
        models = {}
        for m in range(n_models):
            ranks = data.draw(st.lists(st.integers(1, 1000),
                                       min_size=n_records, max_size=n_records))
            pops = data.draw(st.lists(st.integers(0, 50),
                                      min_size=n_records, max_size=n_records))
            models[f"m{m}"] = make_records(ranks, pops)
        grid = SweepGrid(alphas=(0.5, 1.0), betas=(0.0, 0.8), base=(1.0, 0.0))
        result = run_sweep(models, grid, BASE_CONFIG)

        flip_keys = {(f.cell, f.pair) for f in result.flips}
        reference = {cell: {name: fsum_cell(records, BASE_CONFIG, *cell)
                            for name, records in models.items()}
                     for cell in grid.cells()}
        base = reference[grid.base]
        for cell in grid.cells():
            scores = reference[cell]
            for a, b in itertools.combinations(sorted(models), 2):
                strict = base[a] != base[b] and scores[a] != scores[b]
                expect_flip = strict and (base[a] > base[b]) != (scores[a] > scores[b])
                assert ((cell, (a, b)) in flip_keys) == expect_flip


class TestTieGroups:
    """Tie groups and flips apply one tie rule: equal scores tie."""

    BASE, OTHER = (1.0, 0.0), (2.0, 0.0)
    GRID = SweepGrid(alphas=(1.0, 2.0), betas=(0.0,), base=(1.0, 0.0))

    def _ranked(self, base: dict, other: dict) -> SweepResult:
        result = SweepResult(models=sorted(base), grid=self.GRID,
                             cells={self.BASE: base, self.OTHER: other})
        result.rankings = {cell: _rank_cell(cell, scores)
                           for cell, scores in result.cells.items()}
        result.flips = find_flips(result)
        return result

    def _check(self, result: SweepResult) -> None:
        groups = {cell: [set(group) for group in ranking.ties]
                  for cell, ranking in result.rankings.items()}
        for cell, cell_groups in groups.items():
            scores = result.cells[cell]
            for group in cell_groups:
                assert len({scores[name] for name in group}) == 1, (cell, group)
            for a, b in itertools.combinations(result.models, 2):
                if scores[a] == scores[b]:
                    assert any({a, b} <= group for group in cell_groups), (cell, a, b)
        for flip in result.flips:
            for cell in (flip.cell, self.BASE):
                assert not any(set(flip.pair) <= group for group in groups[cell])
            assert flip.cell_order == flip.base_order[::-1]

    def test_three_model_chain_is_not_one_group(self):
        """Scores one ULP apart are strictly ordered: flips, not ties."""
        b = math.nextafter(0.5, 1.0)
        base = {"a": 0.5, "b": b, "c": math.nextafter(b, 1.0)}
        other = {"a": 0.6, "b": 0.5, "c": 0.4}
        result = self._ranked(base, other)
        assert result.rankings[self.BASE].order == ("c", "b", "a")
        assert result.rankings[self.BASE].ties == ()
        assert [(f.cell, f.pair) for f in result.flips] == [
            (self.OTHER, ("a", "b")), (self.OTHER, ("a", "c")), (self.OTHER, ("b", "c"))]
        self._check(result)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_groups_are_ties_and_flips_are_not(self, data):
        """Steps repeat (equal scores) and neighbour (scores one ULP apart)."""
        ladder = [0.5]
        for _ in range(6):
            ladder.append(math.nextafter(ladder[-1], 1.0))
        n_models = data.draw(st.integers(2, 5))
        steps = st.lists(st.integers(0, 6), min_size=n_models, max_size=n_models)
        names = [f"m{i}" for i in range(n_models)]
        base, other = ({name: ladder[k] for name, k in zip(names, data.draw(steps))}
                       for _ in range(2))
        self._check(self._ranked(base, other))

    def test_alpha_two_near_tie_is_an_order(self):
        """At alpha = 2, one rank place on a few of 40,932 queries moves a
        score by ~1e-13; the three models stay strictly ordered."""
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 2000, size=40_932)
        pops = rng.integers(0, 500, size=40_932)
        one_lower = ranks.copy()
        one_lower[np.flatnonzero(ranks == 1000)[0]] += 1
        ten_lower = ranks.copy()
        ten_lower[np.flatnonzero(ranks > 1500)[:10]] += 1
        models = {name: make_records(r, pops)
                  for name, r in zip("abc", (ranks, one_lower, ten_lower))}
        result = run_sweep(models, SweepGrid(), MetricConfig(entity_count=14_541))
        for beta in result.grid.betas:
            scores = result.cells[(2.0, beta)]
            assert result.rankings[(2.0, beta)].ties == ()
            assert result.rankings[(2.0, beta)].order == ("a", "b", "c")
            assert scores["a"] > scores["b"] > scores["c"]


class TestRankHistogram:
    def test_worked_example(self):
        records = make_records([1, 1, 2, 50])
        bins = rank_histogram(records, (1, 2, 11, 101))
        assert [(b.lo, b.hi, b.count) for b in bins] == [
            (1, 2, 2), (2, 11, 1), (11, 101, 1), (101, None, 0)]

    def test_empty_records(self):
        bins = rank_histogram(make_records([]), DEFAULT_RANK_BINS)
        assert all(b.count == 0 for b in bins)
        assert len(bins) == len(DEFAULT_RANK_BINS)

    def test_default_bins_partition(self):
        bins = rank_histogram(make_records([1, 3, 8, 50, 1000]))
        assert [b.count for b in bins] == [1, 1, 1, 1, 1]

    def test_edges_validated(self):
        for bad in ([], [2, 3], [1, 1], [1, 5, 4]):
            with pytest.raises(ValidationError):
                rank_histogram(make_records([]), bad)

    @given(ranks=st.lists(st.integers(1, 10_000), max_size=300),
           inner=st.lists(st.integers(2, 9_999), max_size=6, unique=True))
    @settings(max_examples=60)
    def test_counts_conserved(self, ranks, inner):
        records = make_records(ranks)
        edges = [1] + sorted(inner)
        bins = rank_histogram(records, edges)
        assert sum(b.count for b in bins) == len(records)
        # per-record loop reference for the vectorised bin assignment
        assert [b.count for b in bins] == [
            sum(1 for r in ranks if lo <= r < hi)
            for lo, hi in zip(edges, edges[1:] + [float("inf")])]

    def test_holds_about_one_int64_per_record(self):
        """Bins are counted from each record's bucket, not sorted by it: the
        traced peak over 1,000,000 ranks is below 12 bytes per record (a stable
        sort of the bucket column beside the column itself read 16)."""
        n = 1_000_000
        ranks = np.random.default_rng(3).integers(1, 20_000, n)
        table = RankTable([""] * n, ranks, np.zeros(n, dtype=np.int64))
        rank_histogram(table)  # lazy imports
        tracemalloc.start()
        try:
            bins = rank_histogram(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(b.count for b in bins) == n
        assert peak < 12 * n, f"traced peak {peak} bytes"


class TestSurfaceExport:
    def test_cardinality_and_roundtrip(self, tmp_path):
        models = sharp_and_steady(50)
        result = run_sweep(models, SweepGrid(), BASE_CONFIG)
        path = tmp_path / "surface.csv"
        surface_export(result, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,alpha,beta,score"
        assert len(lines) == 1 + 2 * 16

        with path.open(encoding="utf-8", newline="") as handle:
            for row in csv.DictReader(handle):
                cell = (float(row["alpha"]), float(row["beta"]))
                assert float(row["score"]) == result.cells[cell][row["model"]]  # bit-exact

    def test_sorted_by_model_alpha_beta(self, tmp_path):
        result = run_sweep(sharp_and_steady(10), SweepGrid(), BASE_CONFIG)
        path = tmp_path / "surface.csv"
        surface_export(result, path)
        rows = [line.split(",")[:3]
                for line in path.read_text().splitlines()[1:]]
        keys = [(m, float(a), float(b)) for m, a, b in rows]
        assert keys == sorted(keys)

    def test_degenerate_empty_result(self, tmp_path):
        result = SweepResult(models=[], grid=SweepGrid(),
                             cells={c: {} for c in SweepGrid().cells()})
        path = tmp_path / "surface.csv"
        surface_export(result, path)
        assert path.read_text(encoding="utf-8") == "model,alpha,beta,score\n"


class TestHistogramExport:
    def test_format(self, tmp_path):
        per_model = {"m": rank_histogram(make_records([1, 2, 120]))}
        path = tmp_path / "hist.csv"
        histogram_export(per_model, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model,lo,hi,count"
        assert lines[1] == "m,1,2,1"
        assert lines[-1] == "m,101,,1"  # unbounded bin serializes empty hi
