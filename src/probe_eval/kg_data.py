"""Knowledge-graph triple files: loading, vocabularies, popularity, statistics.

The on-disk convention is the 3-column TSV used by the FB15k237 / WN18RR
distributions: ``head<TAB>relation<TAB>tail``, UTF-8, one triple per line,
LF, CRLF or CR.  Labels are opaque byte strings compared exactly.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass
from itertools import count
from pathlib import Path

import numpy as np

from .errors import read_rows

logger = logging.getLogger(__name__)

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")  # a dataset directory's layout


def _split_rows(path: str | Path, entities: defaultdict[str, int],
                relations: defaultdict[str, int]) -> np.ndarray:
    """A split file's id rows, each chunk written into one (n, 3) array grown in place."""
    rows = np.empty((0, 3), np.int64)
    for (heads, relation, tails), _ in read_rows(path, 3):
        n, end = len(heads), len(rows)
        stream = [""] * (2 * n)
        stream[0::2], stream[1::2] = heads, tails
        rows.resize((end + n, 3), refcheck=False)  # realloc; no view of rows is held
        ids = np.fromiter(map(entities.__getitem__, stream), np.int64, 2 * n)
        rows[end:, 0::2] = ids.reshape(n, 2)
        rows[end:, 1] = np.fromiter(map(relations.__getitem__, relation), np.int64, n)
    return rows


def _drop_repeats(rows: np.ndarray, n_entities: int, n_relations: int,
                  path: str | Path) -> np.ndarray:
    """Keep each id triple's first row, warning with the number dropped.

    Rows are compared by the int64 key (head*|R| + relation)*|E| + tail, or
    whole where that key could wrap: exact, but slower.  A sorted key with no
    equal neighbours returns rows as they are; only a split that repeats a
    triple pays for np.unique's first-occurrence indices.
    """
    key = rows
    if n_entities ** 2 * n_relations < 2 ** 63:
        key = _triple_keys(rows, n_entities, n_relations)
        key.sort()
        if not (key[1:] == key[:-1]).any():
            return rows
        key = _triple_keys(rows, n_entities, n_relations)  # sorting lost the row order
    _, first = np.unique(key, return_index=True, axis=0)
    if len(first) < len(rows):
        logger.warning("%s: dropped %d duplicate triple line(s)", path, len(rows) - len(first))
        rows = rows[np.sort(first)]
    return rows


def _triple_keys(rows: np.ndarray, n_entities: int, n_relations: int,
                 known: int = 0, candidate: int = 2, out: np.ndarray | None = None) -> np.ndarray:
    """The int64 keys (rows[:, known]*|R| + relation)*|E| + rows[:, candidate], built in out."""
    out = np.multiply(rows[:, known], n_relations, out=out)
    out += rows[:, 1]
    out *= n_entities
    out += rows[:, candidate]
    return out


@dataclass(eq=False, repr=False)  # array fields; a large vocabulary would print in full
class KnowledgeGraph:
    """Entity/relation vocabularies plus the three splits as id-triples.

    Ids are dense integers assigned in first-appearance order scanning
    train, then valid, then test (head, then relation, then tail within
    a triple), so two loads of the same files yield identical id maps
    and score-row indices stay stable.
    """

    entity_ids: dict[str, int]  # label -> id, in id order
    relation_ids: dict[str, int]
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.entity_labels = list(self.entity_ids)
        self.relation_labels = list(self.relation_ids)
        # per direction, sorted known-triple keys, built lazily by ranking.filter_set
        self._filter_index = None

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)


def compute_popularity(graph: KnowledgeGraph) -> np.ndarray:
    """Count, per entity, the training triples it appears in.

    Returns an int64 array of length n_entities.  A self-loop triple
    contributes exactly 1 to its entity (triples are counted, not slot
    occurrences); entities seen only in valid/test have count 0.
    """
    n = graph.n_entities
    heads = graph.train[:, 0]
    tails = graph.train[:, 2]
    counts = np.bincount(heads, minlength=n)
    counts += np.bincount(tails[tails != heads], minlength=n)
    return counts.astype(np.int64)


@dataclass(frozen=True)
class DatasetStats:
    """The five summary statistics of a dataset's training split."""

    n_entities: int
    n_relations: int
    n_triples: int
    delta_avg: float | None  # full precision, None without entities; display rounds
    delta_max: int

    def to_text(self) -> str:
        """One row per field: counts with thousands separators, the mean to one decimal."""
        rows = {name: "undefined" if value is None
                else f"{value:.1f}" if isinstance(value, float) else f"{value:,}"
                for name, value in vars(self).items()}
        width = max(len(v) for v in rows.values())
        return "\n".join(f"{name:<12} {value:>{width}}" for name, value in rows.items())


def dataset_stats(graph: KnowledgeGraph, pop: np.ndarray) -> DatasetStats:
    """Summarize the training split: |E|, |R|, |T|, mean and max popularity.

    The mean is None for a dataset without entities.
    """
    n_entities = graph.n_entities
    return DatasetStats(
        n_entities=n_entities,
        n_relations=graph.n_relations,
        n_triples=len(graph.train),
        delta_avg=int(pop.sum()) / n_entities if n_entities else None,
        delta_max=int(pop.max(initial=0)),
    )


def load_dataset(directory: str | Path) -> tuple[KnowledgeGraph, np.ndarray]:
    """Load a directory's SPLIT_FILES (train, valid, test) and count popularity.

    The files are read a chunk at a time and keep no label past its chunk.
    Entity and relation ids are dense, in first-appearance order: heads and
    tails interleaved, train, then valid, then test.  The maps hold them from
    the first chunk on, so a label's id does not change when a later split
    adds labels.  A triple repeated within one split is kept at its first
    line, with a warning count naming its path.
    """
    # a label the map does not hold yet takes the map's next count
    entities: defaultdict[str, int] = defaultdict(count().__next__)
    relations: defaultdict[str, int] = defaultdict(count().__next__)
    splits = []
    for name in SPLIT_FILES:
        path = Path(directory) / name
        rows = _split_rows(path, entities, relations)
        splits.append(_drop_repeats(rows, len(entities), len(relations), path))
    entities.default_factory = relations.default_factory = None  # unknown labels raise KeyError
    graph = KnowledgeGraph(entities, relations, *splits)
    return graph, compute_popularity(graph)


def export_vocabulary(graph: KnowledgeGraph, path: str | Path) -> None:
    """Write the entity vocabulary as ``label<TAB>id`` lines in id order.

    Score-file producers use this export to fix the entity order of
    their dense score rows.
    """
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for eid, label in enumerate(graph.entity_labels):
            handle.write(f"{label}\t{eid}\n")
