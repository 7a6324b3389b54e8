"""Grid sweeps over (alpha, beta), ranking-flip detection, and exports.

A sweep scores every model at every grid cell and orders models per cell
(score descending, lexicographic on ties).  Two models tie at a cell when
their scores are equal.  A flip is a model pair whose strict order at a
cell is the reverse of its strict order at the base cell; a tie at either
cell is never a flip.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ValidationError
from .metrics import MetricConfig, Stratum, score_grid, split_buckets
from .ranking import RankTable, check_same_queries

DEFAULT_ALPHAS = (0.25, 0.5, 1.0, 2.0)
DEFAULT_BETAS = (0.0, 0.2, 0.4, 0.8)
DEFAULT_BASE = (1.0, 0.0)

DEFAULT_RANK_BINS = (1, 2, 6, 11, 101)

Cell = tuple[float, float]


@dataclass(frozen=True)
class SweepGrid:
    """The (alpha, beta) cells to evaluate, plus the reference cell; MetricConfig
    checks each value, and the entity-count rules where the count is known."""

    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    betas: tuple[float, ...] = DEFAULT_BETAS
    base: Cell = DEFAULT_BASE

    def __post_init__(self):
        if not self.alphas or not self.betas:
            raise ValidationError("grid needs at least one alpha and one beta")
        for alpha in self.alphas:
            MetricConfig(alpha=alpha, affine=False)
        for beta in self.betas:
            MetricConfig(beta=beta, affine=False)
        if list(self.alphas) != sorted(set(self.alphas)):
            raise ValidationError(f"alphas must be strictly ascending, got {self.alphas}")
        if list(self.betas) != sorted(set(self.betas)):
            raise ValidationError(f"betas must be strictly ascending, got {self.betas}")
        if self.base[0] not in self.alphas or self.base[1] not in self.betas:
            raise ValidationError(f"base cell {self.base} is outside the grid")

    def cells(self) -> list[Cell]:
        return [(a, b) for a in self.alphas for b in self.betas]


@dataclass(frozen=True)
class CellRanking:
    """Model order at one cell; ties lists the groups of equal scores.
    The fields are the keys of a rankings.json cell."""

    alpha: float
    beta: float
    order: tuple[str, ...]
    ties: tuple[tuple[str, ...], ...] = ()


@dataclass(frozen=True)
class Flip:
    """A model pair whose strict order at (alpha, beta) reverses the base order.
    The fields are the keys of a flips.json entry."""

    alpha: float
    beta: float
    pair: tuple[str, str]
    base_order: tuple[str, str]  # (winner, loser) at the base cell
    cell_order: tuple[str, str]

    @property
    def cell(self) -> Cell:
        return self.alpha, self.beta


@dataclass
class SweepResult:
    models: list[str]
    grid: SweepGrid
    cells: dict[Cell, dict[str, float]]
    rankings: dict[Cell, CellRanking] = field(default_factory=dict)
    flips: list[Flip] = field(default_factory=list)


def _rank_cell(cell: Cell, scores: Mapping[str, float]) -> CellRanking:
    order = sorted(scores, key=lambda m: (-scores[m], m))
    groups = (tuple(g) for _, g in itertools.groupby(order, key=scores.__getitem__))
    return CellRanking(*cell, order=tuple(order),
                       ties=tuple(g for g in groups if len(g) > 1))


def find_flips(result: SweepResult) -> list[Flip]:
    """Pairs whose strict base-cell order strictly reverses at another cell;
    a tie at either cell is never a flip."""
    base_scores = result.cells[result.grid.base]
    # (pair, (winner, loser) at the base) for every pair not tied there
    ordered = [((a, b), (a, b) if base_scores[a] > base_scores[b] else (b, a))
               for a, b in itertools.combinations(sorted(result.models), 2)
               if base_scores[a] != base_scores[b]]
    flips: list[Flip] = []
    for cell in result.grid.cells():
        scores = result.cells[cell]
        for pair, (winner, loser) in ordered:
            if scores[loser] > scores[winner]:
                flips.append(Flip(*cell, pair=pair, base_order=(winner, loser),
                                  cell_order=(loser, winner)))
    return flips


def run_sweep(models: Mapping[str, RankTable], grid: SweepGrid,
              config: MetricConfig) -> SweepResult:
    """Score every model at every cell, then derive rankings and flips.

    All models must cover the same query set; only alpha and beta vary
    across cells, everything else comes from the base config.
    """
    if not models:
        raise ValidationError("sweep needs at least one model")
    tables = {name: models[name] for name in sorted(models)}
    check_same_queries(tables)

    grids = {name: score_grid(table.ranks, table.pops, config, grid.alphas, grid.betas)
             for name, table in tables.items()}
    cells = {(alpha, beta): {name: float(scores[i, j]) for name, scores in grids.items()}
             for i, alpha in enumerate(grid.alphas) for j, beta in enumerate(grid.betas)}

    result = SweepResult(models=list(tables), grid=grid, cells=cells)
    result.rankings = {cell: _rank_cell(cell, scores) for cell, scores in cells.items()}
    result.flips = find_flips(result)
    return result


def rank_histogram(table: RankTable,
                   bins: Sequence[int] = DEFAULT_RANK_BINS) -> list[Stratum]:
    """Count records per rank bin; the final bin is [last edge, inf)."""
    return split_buckets(table.ranks, bins, 1, "rank bins")[0]


def surface_export(result: SweepResult, path: str | Path) -> None:
    """Write the long-format score surface: model,alpha,beta,score.

    Scores carry 17 significant digits so parsing the file reproduces the
    in-memory values exactly.
    """
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model", "alpha", "beta", "score"])
        for model in result.models:
            for alpha in result.grid.alphas:
                for beta in result.grid.betas:
                    score = result.cells[(alpha, beta)][model]
                    writer.writerow([model, repr(alpha), repr(beta), f"{score:.17g}"])


def histogram_export(per_model: Mapping[str, Sequence[Stratum]],
                     path: str | Path) -> None:
    """Write per-model rank histograms: model,lo,hi,count (hi empty = inf)."""
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["model", "lo", "hi", "count"])
        for model in sorted(per_model):
            for rank_bin in per_model[model]:
                hi = "" if rank_bin.hi is None else rank_bin.hi
                writer.writerow([model, rank_bin.lo, hi, rank_bin.count])
