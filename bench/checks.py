"""Independent checks of the program's outputs.

Every expected value here is computed from the arrays the generator kept
(ranks it drew, popularities it counted, score levels it wrote), never
from another output of the program.  Each check returns a list of error
strings; an empty list means the output is correct.

The score of a model at (alpha, beta) is the weighted mean
``sum(w*s)/sum(w)`` with ``s = (r**-alpha - 1)/(1 - E**-alpha) + 1`` and
``w = (epsilon + popularity)**-beta``.  Unlike the program, which
transforms every record, it is computed here over the distinct
(rank, popularity) pairs weighted by their counts, with ``math.fsum``.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path
from typing import Sequence

import numpy as np

REL_TOL = 1e-12
TIE_TOLERANCE = 1e-12  # the program's documented tie tolerance for rankings
DEFAULT_ALPHAS = (0.25, 0.5, 1.0, 2.0)
DEFAULT_BETAS = (0.0, 0.2, 0.4, 0.8)
BASE = (1.0, 0.0)
DEFAULT_HITS = (1, 3, 10)
DEFAULT_RANK_BINS = (1, 2, 6, 11, 101)


def _close(got, want: float) -> bool:
    return isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL,
                                                          abs_tol=1e-300)


class ModelScores:
    """A model's ranks and gold popularities, reduced to distinct pairs."""

    def __init__(self, ranks: np.ndarray, pops: np.ndarray, n_entities: int):
        pairs, counts = np.unique(np.stack([ranks, pops], axis=1), axis=0,
                                  return_counts=True)
        self.rank_values, self.rank_index = np.unique(pairs[:, 0], return_inverse=True)
        self.pop_values, self.pop_index = np.unique(pairs[:, 1], return_inverse=True)
        self.counts = counts.astype(np.float64)
        self.n_entities = n_entities

    def score(self, alpha: float, beta: float, epsilon: float = 1.0) -> float:
        denom = 1.0 - float(self.n_entities) ** -alpha
        transformed = np.array([(float(r) ** -alpha - 1.0) / denom + 1.0
                                for r in self.rank_values.tolist()])
        weights = np.array([(epsilon + p) ** -beta for p in self.pop_values.tolist()])
        weighted = self.counts * weights[self.pop_index]
        return (math.fsum((weighted * transformed[self.rank_index]).tolist())
                / math.fsum(weighted.tolist()))


def power_of_two_edges(delta_max: int) -> list[int]:
    """The program's documented 'auto' strata: 0, 1, 2, 4, ... reaching delta_max."""
    edges, edge = [0, 1], 1
    if delta_max < 1:
        return [0]
    while edge < delta_max:
        edge *= 2
        edges.append(edge)
    return edges


def bin_counts(ranks: np.ndarray, edges: Sequence[int]) -> list[int]:
    """Counts per half-open rank bin [e_i, e_i+1), the last one unbounded."""
    bounds = list(edges[1:]) + [np.inf]
    return [int(np.count_nonzero((ranks >= lo) & (ranks < hi)))
            for lo, hi in zip(edges, bounds)]


# ---------------------------------------------------------------------------
# rank


def check_rank_file(path: Path, expected: list[str]) -> list[str]:
    """The rank file holds exactly the expected lines, in canonical order."""
    got = path.read_text(encoding="utf-8").splitlines()
    errors = []
    if len(got) != len(expected):
        errors.append(f"{path.name}: {len(got)} records, expected {len(expected)}")
    for i, (line, want) in enumerate(zip(got, expected), start=1):
        if line != want:
            errors.append(f"{path.name}:{i}: {line!r} != expected {want!r}")
            break
    return errors


# ---------------------------------------------------------------------------
# eval / compare


def expected_eval(ranks: np.ndarray, pops: np.ndarray, pop_max: int,
                  n_entities: int) -> dict:
    n = len(ranks)
    edges = power_of_two_edges(pop_max)
    strata = []
    for i, lo in enumerate(edges):
        hi = edges[i + 1] if i + 1 < len(edges) else None
        inside = (pops >= lo) & (pops < hi) if hi is not None else pops >= lo
        count = int(np.count_nonzero(inside))
        score = (ModelScores(ranks[inside], pops[inside], n_entities).score(*BASE)
                 if count else None)
        strata.append({"lo": lo, "hi": hi, "count": count, "score": score})
    return {
        "probe": ModelScores(ranks, pops, n_entities).score(*BASE),
        "mr": math.fsum(ranks.tolist()) / n,
        "mrr": math.fsum(1.0 / r for r in ranks.tolist()) / n,
        "hits": {str(k): int(np.count_nonzero(ranks <= k)) / n for k in DEFAULT_HITS},
        "strata": strata,
    }


def check_eval(path: Path, want: dict, n_entities: int) -> list[str]:
    name = path.name
    try:
        got = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable ({exc})"]
    errors = []
    for key in ("probe", "mr", "mrr"):
        if not _close(got.get(key), want[key]):
            errors.append(f"{name}: {key} {got.get(key)!r} != expected {want[key]!r}")
    if got.get("hits") != want["hits"]:
        errors.append(f"{name}: hits {got.get('hits')} != expected {want['hits']}")
    affine_mrr = (want["mrr"] - 1.0) / (1.0 - 1.0 / n_entities) + 1.0
    if not _close(got.get("probe"), affine_mrr):
        errors.append(f"{name}: probe {got.get('probe')!r} breaks the affine MRR "
                      f"identity ({affine_mrr!r})")
    strata = got.get("strata") or []
    if [(s.get("lo"), s.get("hi"), s.get("count")) for s in strata] != \
            [(s["lo"], s["hi"], s["count"]) for s in want["strata"]]:
        errors.append(f"{name}: strata buckets/counts differ from expected")
    else:
        for s, w in zip(strata, want["strata"]):
            if (w["score"] is None) != (s.get("score") is None) or \
                    (w["score"] is not None and not _close(s.get("score"), w["score"])):
                errors.append(f"{name}: stratum [{w['lo']},{w['hi']}) score "
                              f"{s.get('score')!r} != expected {w['score']!r}")
    return errors


def _table_cells(payload: dict) -> dict[str, str]:
    cells = {m: f"{payload[m]:.6f}" for m in ("probe", "mr", "mrr")}
    cells.update({f"hits@{k}": f"{v:.6f}" for k, v in payload["hits"].items()})
    for s in payload["strata"]:
        hi = s["hi"] if s["hi"] is not None else "inf"
        score = "-" if s["score"] is None else f"{s['score']:.6f}"
        cells[f"strata[{s['lo']},{hi})"] = f"{score} (n={s['count']})"
    return cells


def check_compare(path: Path, models: list[str], payloads: list[dict]) -> list[str]:
    """Each column of the compare table equals that model's eval output."""
    name = path.name
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or re.split(r"\s{2,}", lines[0].strip()) != ["metric", *models]:
        return [f"{name}: header {lines[:1]} does not name {models}"]
    expected = [_table_cells(p) for p in payloads]
    rows = {}
    for line in lines[1:]:
        label, *cells = re.split(r"\s{2,}", line.strip())
        rows[label] = cells
    errors = []
    if list(rows) != list(expected[0]):
        errors.append(f"{name}: rows {list(rows)} != expected {list(expected[0])}")
    for label, cells in rows.items():
        want = [e.get(label) for e in expected]
        if cells != want:
            errors.append(f"{name}: row {label}: {cells} != eval outputs {want}")
    return errors


# ---------------------------------------------------------------------------
# sweep


def expected_surface(models: dict[str, ModelScores], alphas, betas) -> dict:
    return {(m, a, b): s.score(a, b) for m, s in models.items()
            for a in alphas for b in betas}


def expected_flips(surface: dict, models: list[str], alphas, betas) -> list[dict]:
    """Pairs whose strict base order reverses at a cell, in grid order."""
    def order(a: float, b: float) -> int:
        return 0 if abs(a - b) <= TIE_TOLERANCE else (1 if a > b else -1)

    names = sorted(models)
    flips = []
    for alpha in alphas:
        for beta in betas:
            if (alpha, beta) == BASE:
                continue
            for i, a in enumerate(names):
                for b in names[i + 1:]:
                    at_base = order(surface[(a, *BASE)], surface[(b, *BASE)])
                    at_cell = order(surface[(a, alpha, beta)], surface[(b, alpha, beta)])
                    if at_base and at_cell and at_base != at_cell:
                        base_order = [a, b] if at_base > 0 else [b, a]
                        flips.append({"alpha": alpha, "beta": beta, "pair": [a, b],
                                      "base_order": base_order,
                                      "cell_order": base_order[::-1]})
    return flips


def check_sweep(directory: Path, models: dict[str, ModelScores], alphas, betas,
                ranks_by_model: dict[str, np.ndarray]) -> list[str]:
    errors = []
    want = expected_surface(models, alphas, betas)
    seen = set()
    with (directory / "surface.csv").open(encoding="utf-8", newline="") as handle:
        for row in csv.DictReader(handle):
            key = (row["model"], float(row["alpha"]), float(row["beta"]))
            seen.add(key)
            if key not in want:
                errors.append(f"surface.csv: unexpected row {key}")
            elif not _close(float(row["score"]), want[key]):
                errors.append(f"surface.csv: {key} score {row['score']} != "
                              f"expected {want[key]!r}")
    if seen != set(want):
        errors.append(f"surface.csv: {len(set(want) - seen)} cells missing")

    rankings = json.loads((directory / "rankings.json").read_text(encoding="utf-8"))
    cells = rankings.get("cells", [])
    if [(c["alpha"], c["beta"]) for c in cells] != [(a, b) for a in alphas for b in betas]:
        errors.append("rankings.json: cells are not the grid in order")
    for c in cells:
        order = c.get("order", [])
        if sorted(order) != sorted(models):
            errors.append(f"rankings.json: cell ({c['alpha']}, {c['beta']}) orders {order}")
            continue
        for a, b in zip(order, order[1:]):
            sa, sb = want[(a, c["alpha"], c["beta"])], want[(b, c["alpha"], c["beta"])]
            if sa < sb - TIE_TOLERANCE:
                errors.append(f"rankings.json: cell ({c['alpha']}, {c['beta']}) puts "
                              f"{a} ({sa!r}) above {b} ({sb!r})")

    flips = json.loads((directory / "flips.json").read_text(encoding="utf-8"))
    want_flips = expected_flips(want, list(models), alphas, betas)
    if not want_flips:
        errors.append("expected flips are empty: the model profiles no longer flip")
    if flips != want_flips:
        first = next((i for i, pair in enumerate(zip(flips, want_flips))
                      if pair[0] != pair[1]), min(len(flips), len(want_flips)))
        errors.append(f"flips.json: {len(flips)} flips, expected {len(want_flips)}; "
                      f"first difference at entry {first}")

    with (directory / "histogram.csv").open(encoding="utf-8", newline="") as handle:
        hist: dict[str, list[int]] = {}
        for row in csv.DictReader(handle):
            hist.setdefault(row["model"], []).append(int(row["count"]))
    for model, ranks in ranks_by_model.items():
        want_counts = bin_counts(ranks, DEFAULT_RANK_BINS)
        got = hist.get(model)
        if got is None or sum(got) != len(ranks):
            errors.append(f"histogram.csv: {model} counts sum to "
                          f"{None if got is None else sum(got)}, expected {len(ranks)}")
        elif got != want_counts:
            errors.append(f"histogram.csv: {model} counts {got} != expected {want_counts}")
    return errors
