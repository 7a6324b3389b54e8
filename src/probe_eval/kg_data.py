"""Knowledge-graph triple files: loading, vocabularies, popularity, statistics.

The on-disk convention is the 3-column TSV used by the FB15k237 / WN18RR
distributions: ``head<TAB>relation<TAB>tail``, UTF-8, one triple per line,
LF or CRLF.  Labels are opaque byte strings compared exactly.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ParseError, open_text

logger = logging.getLogger(__name__)

Labels = tuple[str, str, str]  # (head, relation, tail)

SPLIT_FILES = ("train.txt", "valid.txt", "test.txt")  # a dataset directory's layout


def load_split(path: str | Path) -> list[Labels]:
    """Parse one triple file into (head, relation, tail) label tuples.

    Empty lines are skipped; exact duplicate triples are dropped with a
    warning count, keeping the first occurrence in file order.  This is
    the only place triples are deduplicated.  A line with the wrong field
    count or an empty field raises ParseError naming the line number.
    """
    path = Path(path)
    triples: dict[Labels, None] = {}
    read = 0
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(
                    f"expected 3 tab-separated fields, got {len(parts)}",
                    path=str(path),
                    line=lineno,
                )
            key = (parts[0].strip(), parts[1].strip(), parts[2].strip())
            if not all(key):
                raise ParseError(
                    "empty field after whitespace trimming",
                    path=str(path),
                    line=lineno,
                )
            triples[key] = None
            read += 1
    dropped = read - len(triples)
    if dropped:
        logger.warning("%s: dropped %d duplicate triple line(s)", path, dropped)
    return list(triples)


@dataclass(eq=False, repr=False)  # array fields; a large vocabulary would print in full
class KnowledgeGraph:
    """Entity/relation vocabularies plus the three splits as id-triples.

    Ids are dense integers assigned in first-appearance order scanning
    train, then valid, then test (head, then relation, then tail within
    a triple), so two loads of the same files yield identical id maps
    and score-row indices stay stable.
    """

    entity_labels: list[str]
    relation_labels: list[str]
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.entity_ids = {label: i for i, label in enumerate(self.entity_labels)}
        self.relation_ids = {label: i for i, label in enumerate(self.relation_labels)}
        # lazily built (known entity, relation) -> candidate index; see ranking.filter_set
        self._filter_index = None

    @property
    def n_entities(self) -> int:
        return len(self.entity_labels)

    @property
    def n_relations(self) -> int:
        return len(self.relation_labels)


def build_graph(train: Sequence[Labels], valid: Sequence[Labels],
                test: Sequence[Labels]) -> KnowledgeGraph:
    """Build vocabularies over all splits and store each split by id.

    The splits are taken as given: load_split has already dropped
    duplicate triples.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    # setdefault(label, len(ids)) hands an unseen label the next dense id
    entity = entity_ids.setdefault
    relation = relation_ids.setdefault
    split_arrays = [
        np.fromiter((i for h, r, t in triples
                     for i in (entity(h, len(entity_ids)),
                               relation(r, len(relation_ids)),
                               entity(t, len(entity_ids)))),
                    dtype=np.int64, count=3 * len(triples)).reshape(-1, 3)
        for triples in (train, valid, test)]
    return KnowledgeGraph(list(entity_ids), list(relation_ids), *split_arrays)


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

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        rows = [
            ("n_entities", f"{self.n_entities:,}"),
            ("n_relations", f"{self.n_relations:,}"),
            ("n_triples", f"{self.n_triples:,}"),
            ("delta_avg", "undefined" if self.delta_avg is None else f"{self.delta_avg:.1f}"),
            ("delta_max", f"{self.delta_max:,}"),
        ]
        width = max(len(v) for _, v in rows)
        return "\n".join(f"{name:<12} {value:>{width}}" for name, value in rows)


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
    """Load a directory's SPLIT_FILES (train, valid, test) and count popularity."""
    directory = Path(directory)
    graph = build_graph(*(load_split(directory / name) for name in SPLIT_FILES))
    return graph, compute_popularity(graph)


def export_vocabulary(graph: KnowledgeGraph, path: str | Path) -> None:
    """Write the entity vocabulary as ``label<TAB>id`` lines in id order.

    Score-file producers use this export to fix the entity order of
    their dense score rows.
    """
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for eid, label in enumerate(graph.entity_labels):
            handle.write(f"{label}\t{eid}\n")
