"""Seeded inputs for the benchmark workloads, generated in-process.

Every input is a pure function of (workload, seed): triple files
shaped like FB15k237 or WN18RR, a quantized JSON-lines score file, and
rank files from four model profiles.  Next to the files, the generator
keeps what the independent checks need (queries and training
popularity by entity id, the ranks it drew, the ranks it computed from
the scores it wrote), so no check reads a program output to learn what
the answer should be.

Generation is cached per seed (``cached_inputs``) and is never timed.
``run.py`` runs it as a child process, ``python3 bench/workloads.py
--workload NAME --seed N --cache DIR``, so the memory it takes never
shows in the benchmark's own process.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class DatasetShape:
    """Split sizes and popularity skew of a generated dataset."""

    entities: int
    relations: int
    train: int
    valid: int
    test: int
    entity_skew: float  # Zipf exponent of head/tail sampling
    label_prefix: str

    def scaled(self, factor: float) -> "DatasetShape":
        def s(n: int, floor: int) -> int:
            return max(floor, int(round(n * factor)))
        return DatasetShape(s(self.entities, 40), min(self.relations, s(self.relations, 3)),
                            s(self.train, 60), s(self.valid, 6), s(self.test, 8),
                            self.entity_skew, self.label_prefix)


FB15K237 = DatasetShape(14_541, 237, 272_115, 17_535, 20_466, 0.7, "/m/0")
WN18RR = DatasetShape(40_943, 11, 86_835, 3_034, 3_134, 0.5, "0")

# Score levels k are written as k/10, so equal levels parse to equal
# floats (ties) and the order of levels is the order of the parsed scores.
SCORE_LEVELS = 1000
_LEVEL_TEXT = [repr(k / 10) for k in range(SCORE_LEVELS)]

MODEL_PROFILES = ("sharp", "steady", "biased", "robust")


@dataclass(frozen=True)
class Workload:
    name: str
    shape: DatasetShape
    score_rows: int = 0                 # fb237-rank: queries in the score file
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None  # sweep grid


def dense_grid(n: int = 32) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """n log-spaced alphas around 1 (base) by n betas from 0 in steps of 0.05."""
    alphas = tuple(round(2.0 ** ((k - n // 2) / 6), 6) for k in range(n))
    betas = tuple(round(k * 0.05, 2) for k in range(n))
    return alphas, betas


WORKLOADS = {
    "fb237-rank": Workload("fb237-rank", FB15K237, score_rows=2_000),
    "fb237-sweep": Workload("fb237-sweep", FB15K237),
    "wn18rr-grid": Workload("wn18rr-grid", WN18RR, grid=dense_grid(32)),
}


def scaled(workload: Workload, factor: float) -> Workload:
    """The same workload on a dataset shrunk by `factor` (for the tests)."""
    rows = max(4, int(workload.score_rows * factor)) if workload.score_rows else 0
    return Workload(workload.name, workload.shape.scaled(factor), rows, workload.grid)


# ---------------------------------------------------------------------------
# Dataset


def _zipf_sampler(rng: np.random.Generator, n: int, skew: float):
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    ids = rng.permutation(n)

    def draw(size: int) -> np.ndarray:
        idx = np.searchsorted(cdf, rng.random(size), side="right")
        return ids[np.minimum(idx, n - 1)]
    return draw


def _first_occurrence(keys: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each key, in original order."""
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def generate_triples(shape: DatasetShape, rng: np.random.Generator):
    """Distinct (h, r, t) id triples for train/valid/test.

    Every entity and relation appears in train.  Ids are then renumbered
    in the program's vocabulary order (first appearance scanning train,
    valid, test; head before tail), so id i is score-row index i.
    """
    E, R = shape.entities, shape.relations
    total = shape.train + shape.valid + shape.test
    # coverage triples: every entity once, every relation at least once
    perm = rng.permutation(E)
    if E % 2:
        perm = np.append(perm, perm[0])
    cover = np.stack([perm[0::2], np.arange(len(perm) // 2) % R, perm[1::2]], axis=1)

    draw_entity = _zipf_sampler(rng, E, shape.entity_skew)
    draw_relation = _zipf_sampler(rng, R, 1.0)
    extra = int(total * 1.3) + 64
    sampled = np.stack([draw_entity(extra), draw_relation(extra), draw_entity(extra)], axis=1)
    triples = np.concatenate([cover, sampled])
    keys = (triples[:, 0] * R + triples[:, 1]) * E + triples[:, 2]
    triples = triples[_first_occurrence(keys)]
    if len(triples) < total:
        raise RuntimeError(f"generator produced {len(triples)} distinct triples, "
                           f"needs {total}")
    n_cover = len(cover)  # distinct by construction, so dedup keeps them first
    rest = triples[n_cover:total]
    rest = rest[rng.permutation(len(rest))]
    train = np.concatenate([triples[:n_cover], rest[:shape.train - n_cover]])
    train = train[rng.permutation(len(train))]
    valid = rest[shape.train - n_cover:shape.train - n_cover + shape.valid]
    test = rest[shape.train - n_cover + shape.valid:]

    splits = [train, valid, test]
    stacked = np.concatenate(splits)
    entity_seq = stacked[:, [0, 2]].ravel()
    entity_order = entity_seq[_first_occurrence(entity_seq)]
    relation_order = stacked[:, 1][_first_occurrence(stacked[:, 1])]
    if len(entity_order) != E or len(relation_order) != R:
        raise RuntimeError("coverage triples failed to place every id in train")
    entity_new = np.empty(E, dtype=np.int64)
    entity_new[entity_order] = np.arange(E)
    relation_new = np.empty(R, dtype=np.int64)
    relation_new[relation_order] = np.arange(R)
    return [np.stack([entity_new[s[:, 0]], relation_new[s[:, 1]], entity_new[s[:, 2]]],
                     axis=1) for s in splits]


def popularity(train: np.ndarray, n_entities: int) -> np.ndarray:
    """Training triples per entity; a self-loop counts once."""
    counts = np.zeros(n_entities, dtype=np.int64)
    for h, t in zip(train[:, 0].tolist(), train[:, 2].tolist()):
        counts[h] += 1
        if t != h:
            counts[t] += 1
    return counts


def labels(shape: DatasetShape, rng: np.random.Generator) -> tuple[list[str], list[str]]:
    codes = rng.permutation(shape.entities * 7)[:shape.entities] + 10_000
    entities = [f"{shape.label_prefix}{c:x}" if shape.label_prefix.startswith("/")
                else f"{shape.label_prefix}{c:08d}" for c in codes.tolist()]
    relations = [f"/rel/{j:03d}/type" if shape.label_prefix.startswith("/")
                 else f"_rel_{j:02d}" for j in range(shape.relations)]
    return entities, relations


def write_split(path: Path, triples: np.ndarray, ent: list[str], rel: list[str]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{ent[h]}\t{rel[r]}\t{ent[t]}\n" for h, r, t in triples.tolist())


def queries(test: np.ndarray) -> np.ndarray:
    """Canonical query order: per test triple, head-masked then tail-masked.

    Rows are (h, r, t, direction) with direction 0 = head, 1 = tail.
    """
    n = len(test)
    out = np.empty((2 * n, 4), dtype=np.int64)
    out[:, :3] = np.repeat(test, 2, axis=0)
    out[:, 3] = np.tile([0, 1], n)
    return out


def gold_of(q: np.ndarray) -> np.ndarray:
    return np.where(q[:, 3] == 0, q[:, 0], q[:, 2])


def rank_lines(ent: list[str], rel: list[str], q: np.ndarray, ranks: np.ndarray):
    """Rank-file lines: head, relation, tail, direction, rank."""
    for (h, r, t, d), k in zip(q.tolist(), ranks.tolist()):
        yield f"{ent[h]}\t{rel[r]}\t{ent[t]}\t{'head' if d == 0 else 'tail'}\t{k}\n"


# ---------------------------------------------------------------------------
# Model rank profiles (sweep workloads)


def _loguniform(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    return np.floor(np.exp(rng.uniform(math.log(lo), math.log(hi), size))).astype(np.int64)


def model_ranks(profile: str, gold_pop: np.ndarray, n_entities: int,
                rng: np.random.Generator) -> np.ndarray:
    """Ranks in [1, n_entities] for one model over all queries.

    sharp vs steady flips along alpha: sharp puts more golds first but
    the rest far down; steady rarely hits first and never lands far.
    biased vs robust flips along beta: biased is good on popular gold
    entities only; robust does not depend on popularity.
    """
    n = len(gold_pop)
    u = rng.random(n)
    if profile == "sharp":
        ranks = np.where(u < 0.42, 1, _loguniform(rng, 200, n_entities, n))
    elif profile == "steady":
        ranks = np.where(u < 0.20, 1, rng.integers(2, 9, n))
    elif profile == "biased":
        order = np.argsort(np.argsort(gold_pop, kind="stable"), kind="stable")
        quantile = order / max(1, n - 1)
        ranks = np.where(u < 0.02 + 0.9 * quantile ** 1.5, 1, _loguniform(rng, 2, 60, n))
    elif profile == "robust":
        ranks = np.where(u < 0.30, 1, _loguniform(rng, 2, 60, n))
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return np.clip(ranks, 1, n_entities)


# ---------------------------------------------------------------------------
# Score rows (rank workload)


def score_levels(gold: int, known: np.ndarray, n_entities: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Quantized score levels for one query row.

    Most candidates score low; known-true candidates (the filter) score
    high, so filtering changes ranks; the gold lands anywhere from the
    top level down, and level ties are common in every range.
    """
    levels = np.floor(SCORE_LEVELS * rng.random(n_entities) ** 6).astype(np.int16)
    if len(known):
        levels[known] = rng.integers(SCORE_LEVELS // 2, SCORE_LEVELS, len(known))
    levels[gold] = SCORE_LEVELS - 1 - int(SCORE_LEVELS * 0.6 * rng.random() ** 4)
    return levels


def row_json(ent: list[str], rel: list[str], q: np.ndarray, levels: np.ndarray) -> str:
    h, r, t, d = q.tolist()
    scores = ",".join([_LEVEL_TEXT[k] for k in levels.tolist()])
    return (f'{{"head": {json.dumps(ent[h])}, "relation": {json.dumps(rel[r])}, '
            f'"tail": {json.dumps(ent[t])}, "direction": "{"head" if d == 0 else "tail"}", '
            f'"scores": [{scores}]}}\n')


class KnownTriples:
    """Sorted key arrays of every known triple, for filtered-rank lookups."""

    def __init__(self, splits: list[np.ndarray], n_entities: int, n_relations: int):
        allt = np.concatenate(splits)
        self.E, self.R = n_entities, n_relations
        hr = allt[:, 0] * n_relations + allt[:, 1]
        order = np.argsort(hr, kind="stable")
        self.hr_keys, self.hr_tails = hr[order], allt[order, 2]
        rt = allt[:, 1] * n_entities + allt[:, 2]
        order = np.argsort(rt, kind="stable")
        self.rt_keys, self.rt_heads = rt[order], allt[order, 0]

    def completions(self, q: np.ndarray) -> np.ndarray:
        """Entities that complete a known triple for query q (gold included)."""
        h, r, t, d = (int(x) for x in q)
        if d == 0:
            key, keys, vals = r * self.E + t, self.rt_keys, self.rt_heads
        else:
            key, keys, vals = h * self.R + r, self.hr_keys, self.hr_tails
        lo, hi = np.searchsorted(keys, key, "left"), np.searchsorted(keys, key, "right")
        return np.unique(vals[lo:hi])


def expected_rank(levels: np.ndarray, gold: int, filtered: np.ndarray) -> int:
    """Filtered rank under the average tie policy.

    The gold can sit anywhere in its tie block [first, last]; the average
    policy takes the block's midpoint, rounding half up.
    """
    allowed = np.ones(len(levels), dtype=bool)
    allowed[filtered] = False
    allowed[gold] = False
    g = levels[gold]
    better = int(np.count_nonzero(levels[allowed] > g))
    ties = int(np.count_nonzero(levels[allowed] == g))
    first, last = 1 + better, 1 + better + ties
    return math.floor((first + last) / 2 + 0.5)


# ---------------------------------------------------------------------------
# Materialising a workload's inputs


def generate(workload: Workload, seed: int, directory: Path) -> None:
    """Write every input file and the check arrays for one seed."""
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, _workload_salt(workload.name)])
    shape = workload.shape
    train, valid, test = generate_triples(shape, rng)
    ent, rel = labels(shape, rng)
    data = directory / "dataset"
    data.mkdir(exist_ok=True)
    for name, split in zip(("train", "valid", "test"), (train, valid, test)):
        write_split(data / f"{name}.txt", split, ent, rel)
    pop = popularity(train, shape.entities)
    q = queries(test)
    gold_pop = pop[gold_of(q)]
    arrays = {"queries": q, "popularity": pop}

    if workload.score_rows:
        known = KnownTriples([train, valid, test], shape.entities, shape.relations)
        picked = np.sort(rng.choice(len(q), size=min(workload.score_rows, len(q)),
                                    replace=False))
        expected = np.empty(len(picked), dtype=np.int64)
        file_order = rng.permutation(len(picked))
        rows: list[str | None] = [None] * len(picked)
        golds = gold_of(q[picked]).tolist()
        for i, qi in enumerate(picked.tolist()):
            completions = known.completions(q[qi])
            levels = score_levels(golds[i], completions, shape.entities, rng)
            expected[i] = expected_rank(levels, golds[i], completions)
            rows[i] = row_json(ent, rel, q[qi], levels)
        with (directory / "scores.jsonl").open("w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(rows[i] for i in file_order.tolist())
        with (directory / "expected_ranks.tsv").open("w", encoding="utf-8",
                                                     newline="\n") as handle:
            handle.writelines(rank_lines(ent, rel, q[picked], expected))
    else:
        for profile in MODEL_PROFILES:
            ranks = model_ranks(profile, gold_pop, shape.entities, rng)
            arrays[f"ranks_{profile}"] = ranks
            with (directory / f"{profile}.tsv").open("w", encoding="utf-8",
                                                     newline="\n") as handle:
                handle.writelines(rank_lines(ent, rel, q, ranks))
    np.savez(directory / "expected.npz", **arrays)


def _workload_salt(name: str) -> int:
    return sum(ord(c) * 31 ** i for i, c in enumerate(name)) % (2 ** 31)


def cached_inputs(cache: Path, workload: Workload, seed: int) -> Path:
    """Directory under `cache` holding the seed's inputs; generated once per seed.

    Other seeds are removed from `cache`, so it holds one input set.
    """
    directory = cache / f"seed-{seed}"
    done = directory / "complete"
    if done.exists():
        return directory
    if cache.exists():
        shutil.rmtree(cache)
    generate(workload, seed, directory)
    done.write_text("", encoding="utf-8")
    return directory


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Generate one workload's inputs.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--cache", required=True, type=Path)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.scale != 1.0:
        workload = scaled(workload, args.scale)
    print(cached_inputs(args.cache, workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
