"""Query generation, filtered rank computation, and rank/score file I/O.

Each test triple yields two queries (head-masked, tail-masked).  Ranking a
query means counting, among candidates not excluded by the filter, how many
score strictly above the gold entity, then resolving ties by policy.  The
filter removes every candidate that would itself form a known-true triple
(train, valid, or test), the standard filtered protocol.
"""

from __future__ import annotations

import enum
import hashlib
import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ParseError, ValidationError
from .kg_data import KnowledgeGraph, PopularityIndex

logger = logging.getLogger(__name__)


class Direction(str, enum.Enum):
    """Which slot of the triple is masked."""

    HEAD = "head"
    TAIL = "tail"


@dataclass(frozen=True)
class Query:
    """One masked test triple, identified by labels; ids resolved when known.

    The gold entity is the masked one: head for head-masked queries, tail
    for tail-masked.  gold_popularity is its training-split popularity
    (0 for entities outside the training vocabulary).
    """

    head: str
    relation: str
    tail: str
    direction: Direction
    gold_popularity: int = 0
    head_id: int = -1
    relation_id: int = -1
    tail_id: int = -1

    @property
    def gold(self) -> str:
        return self.head if self.direction is Direction.HEAD else self.tail

    @property
    def gold_id(self) -> int:
        return self.head_id if self.direction is Direction.HEAD else self.tail_id

    def key(self) -> tuple[str, str, str, str]:
        """Identity used to match queries across models and file round-trips."""
        return (self.head, self.relation, self.tail, self.direction.value)


@dataclass(frozen=True)
class ScoreRow:
    """Model scores for every candidate entity of one query (index = entity id)."""

    query: Query
    scores: np.ndarray


@dataclass(frozen=True)
class RankRecord:
    """One evaluated query: the (filtered) rank of its gold entity."""

    query: Query
    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValidationError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class RankTable:
    """Evaluated queries as index-aligned columns.

    keys holds one ``head<TAB>relation<TAB>tail<TAB>direction`` string per
    record, the identity used to match queries across models; ranks and
    pops (gold popularities) are int64 arrays.
    """

    keys: list[str]
    ranks: np.ndarray
    pops: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def as_rank_table(records: RankTable | Sequence[RankRecord]) -> RankTable:
    """The columns of a record sequence; a RankTable passes through."""
    if isinstance(records, RankTable):
        return records
    return RankTable(
        keys=["\t".join(r.query.key()) for r in records],
        ranks=np.fromiter((r.rank for r in records), dtype=np.int64, count=len(records)),
        pops=np.fromiter((r.query.gold_popularity for r in records),
                         dtype=np.int64, count=len(records)))


class TiePolicy:
    """How candidates scoring exactly equal to the gold entity count.

    optimistic ranks the gold first within its tie block, pessimistic last,
    average takes the midpoint rounded half-up, and random draws a seeded
    uniform position inside the block.
    """

    POLICIES = ("optimistic", "pessimistic", "average", "random")

    def __init__(self, policy: str = "average", seed: int | None = None):
        if policy not in self.POLICIES:
            raise ValidationError(
                f"unknown tie policy {policy!r}; expected one of {self.POLICIES}")
        if policy == "random":
            if seed is None:
                raise ValidationError("random tie policy requires an explicit seed")
            if seed < 0:
                raise ValidationError(f"seed must be >= 0, got {seed}")
        self.policy = policy
        self.seed = seed

    def __repr__(self) -> str:
        if self.policy == "random":
            return f"TiePolicy('random', seed={self.seed})"
        return f"TiePolicy({self.policy!r})"

    def adjustment(self, tie_count: int, query: Query) -> int:
        """Positions added after the strictly-better count, in [0, tie_count]."""
        if tie_count == 0 or self.policy == "optimistic":
            return 0
        if self.policy == "pessimistic":
            return tie_count
        if self.policy == "average":
            return (tie_count + 1) // 2  # midpoint, half-up
        rng = np.random.default_rng(_tie_entropy(self.seed, query))
        return int(rng.integers(0, tie_count + 1))


def _label_entropy(label: str) -> int:
    return int.from_bytes(hashlib.sha256(label.encode("utf-8")).digest()[:8], "big")


def _tie_entropy(seed: int, query: Query) -> list[int]:
    """Per-query PRNG entropy: stable across row order and parallelism."""
    return [
        seed,
        _label_entropy(query.head),
        _label_entropy(query.relation),
        _label_entropy(query.tail),
        0 if query.direction is Direction.HEAD else 1,
    ]


def make_queries(graph: KnowledgeGraph, pop: PopularityIndex) -> list[Query]:
    """Two queries per test triple (head-masked then tail-masked), in test order."""
    queries: list[Query] = []
    for h, r, t in graph.test:
        h, r, t = int(h), int(r), int(t)
        head, rel, tail = (graph.entity_labels[h], graph.relation_labels[r],
                           graph.entity_labels[t])
        queries.append(Query(head, rel, tail, Direction.HEAD,
                             gold_popularity=pop[h],
                             head_id=h, relation_id=r, tail_id=t))
        queries.append(Query(head, rel, tail, Direction.TAIL,
                             gold_popularity=pop[t],
                             head_id=h, relation_id=r, tail_id=t))
    return queries


class _FilterIndex:
    """(relation, known entity) -> entity ids forming known-true triples."""

    def __init__(self, graph: KnowledgeGraph):
        heads_by_rt: dict[tuple[int, int], set[int]] = {}
        tails_by_hr: dict[tuple[int, int], set[int]] = {}
        for split in (graph.train, graph.valid, graph.test):
            for h, r, t in split:
                heads_by_rt.setdefault((int(r), int(t)), set()).add(int(h))
                tails_by_hr.setdefault((int(h), int(r)), set()).add(int(t))
        self.heads_by_rt = heads_by_rt
        self.tails_by_hr = tails_by_hr


def _filter_index(graph: KnowledgeGraph) -> _FilterIndex:
    if graph._filter_index is None:
        graph._filter_index = _FilterIndex(graph)
    return graph._filter_index


def filter_set(query: Query, graph: KnowledgeGraph) -> set[int]:
    """Candidates (other than the gold) that complete a known-true triple."""
    if query.gold_id < 0 or query.relation_id < 0:
        raise ValidationError(f"query {query.key()} is not resolved against the graph")
    index = _filter_index(graph)
    if query.direction is Direction.HEAD:
        known = index.heads_by_rt.get((query.relation_id, query.tail_id), set())
    else:
        known = index.tails_by_hr.get((query.head_id, query.relation_id), set())
    return known - {query.gold_id}


def rank_of_gold(row: ScoreRow, filter_ids: set[int], tie: TiePolicy) -> RankRecord:
    """Rank the gold entity among non-filtered candidates.

    rank = 1 + (# strictly better) + tie adjustment.  Non-finite scores are
    rejected; the gold entity must not be in the filter set.
    """
    query = row.query
    gold = query.gold_id
    scores = np.asarray(row.scores, dtype=np.float64)
    if gold < 0 or gold >= len(scores):
        raise ValidationError(f"gold id {gold} outside score row of length {len(scores)}")
    if gold in filter_ids:
        raise ValidationError(f"gold entity {query.gold!r} present in its own filter set")
    if not np.isfinite(scores).all():
        raise ValidationError(f"non-finite score in row for query {query.key()}")

    allowed = np.ones(len(scores), dtype=bool)
    if filter_ids:
        allowed[np.fromiter(filter_ids, dtype=np.int64)] = False
    allowed[gold] = False

    gold_score = scores[gold]
    candidates = scores[allowed]
    better = int(np.count_nonzero(candidates > gold_score))
    ties = int(np.count_nonzero(candidates == gold_score))
    rank = 1 + better + tie.adjustment(ties, query)
    return RankRecord(query=query, rank=rank)


def rank_all(rows: Iterable[ScoreRow], graph: KnowledgeGraph, tie: TiePolicy,
             raw: bool = False, threads: int = 1) -> list[RankRecord]:
    """Rank many score rows; results come back in input order."""
    rows = list(rows)

    def one(row: ScoreRow) -> RankRecord:
        ids = set() if raw else filter_set(row.query, graph)
        return rank_of_gold(row, ids, tie)

    if threads <= 1:
        return [one(row) for row in rows]
    if rows:
        _filter_index(graph)  # build once before fan-out
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, rows))


# ---------------------------------------------------------------------------
# File formats


def load_rank_file(path: str | Path, graph: KnowledgeGraph | None = None,
                   popularity: PopularityIndex | None = None) -> RankTable:
    """Read ``head<TAB>relation<TAB>tail<TAB>direction<TAB>rank`` records.

    Gold popularity is looked up through the graph vocabulary; entities
    unknown to it get popularity 0 (one summary warning).  A query that
    appears on two lines is rejected.
    """
    path = Path(path)
    keys: list[str] = []
    ranks: list[int] = []
    gold_ids: list[int] = []
    first_line: dict[str, int] = {}
    entity_ids = graph.entity_ids if graph is not None else None
    with path.open("r", encoding="utf-8", newline=None) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"expected 5 tab-separated fields, got {len(parts)}",
                                 path=str(path), line=lineno)
            head, relation, tail, direction, rank_text = (p.strip() for p in parts)
            if direction not in (Direction.HEAD.value, Direction.TAIL.value):
                raise ParseError(f"direction must be 'head' or 'tail', got {direction!r}",
                                 path=str(path), line=lineno)
            try:
                rank = int(rank_text)
            except ValueError:
                raise ParseError(f"rank is not an integer: {rank_text!r}",
                                 path=str(path), line=lineno) from None
            if rank < 1:
                raise ValidationError(
                    f"{path}:{lineno}: rank must be >= 1, got {rank}")
            key = f"{head}\t{relation}\t{tail}\t{direction}"
            first = first_line.setdefault(key, lineno)
            if first != lineno:
                raise ValidationError(
                    f"{path}:{lineno}: duplicate query {(head, relation, tail, direction)} "
                    f"repeats line {first}")
            keys.append(key)
            ranks.append(rank)
            if entity_ids is not None:
                gold_ids.append(entity_ids.get(head if direction == "head" else tail, -1))

    pops = np.zeros(len(keys), dtype=np.int64)
    unknown = 0
    if entity_ids is not None:
        ids = np.array(gold_ids, dtype=np.int64)
        known = ids >= 0
        unknown = len(ids) - int(np.count_nonzero(known))
        if popularity is not None:
            pops[known] = popularity.counts[ids[known]]
    elif popularity is not None:
        unknown = len(keys)
    if unknown:
        logger.warning("%s: %d record(s) with gold entity unknown to the "
                       "vocabulary; popularity set to 0", path, unknown)
    return RankTable(keys, np.array(ranks, dtype=np.int64), pops)


def write_rank_file(records: Iterable[RankRecord], path: str | Path) -> None:
    """Serialize records to the 5-column rank TSV."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        for rec in records:
            q = rec.query
            handle.write(f"{q.head}\t{q.relation}\t{q.tail}\t"
                         f"{q.direction.value}\t{rec.rank}\n")


def iter_score_rows(path: str | Path, graph: KnowledgeGraph) -> Iterator[ScoreRow]:
    """Read JSON-lines score rows, validating entity order and length."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}",
                                 path=str(path), line=lineno) from None
            try:
                head, relation, tail = obj["head"], obj["relation"], obj["tail"]
                direction, scores = obj["direction"], obj["scores"]
            except (KeyError, TypeError):
                raise ParseError(
                    "score row needs head, relation, tail, direction, scores",
                    path=str(path), line=lineno) from None
            if direction not in (Direction.HEAD.value, Direction.TAIL.value):
                raise ParseError(f"direction must be 'head' or 'tail', got {direction!r}",
                                 path=str(path), line=lineno)
            hid = graph.entity_ids.get(head, -1)
            rid = graph.relation_ids.get(relation, -1)
            tid = graph.entity_ids.get(tail, -1)
            if min(hid, rid, tid) < 0:
                raise ValidationError(
                    f"{path}:{lineno}: triple ({head}, {relation}, {tail}) "
                    "references labels outside the dataset vocabulary")
            try:
                vector = np.asarray(scores, dtype=np.float64)
            except (TypeError, ValueError):
                raise ParseError("scores must be a list of numbers",
                                 path=str(path), line=lineno) from None
            if vector.ndim != 1 or len(vector) != graph.n_entities:
                raise ValidationError(
                    f"{path}:{lineno}: scores length {vector.size} != "
                    f"entity count {graph.n_entities}")
            yield ScoreRow(
                query=Query(head, relation, tail, Direction(direction),
                            head_id=hid, relation_id=rid, tail_id=tid),
                scores=vector)


def rank_score_file(path: str | Path, graph: KnowledgeGraph, pop: PopularityIndex,
                    tie: TiePolicy, raw: bool = False, threads: int = 1,
                    allow_partial: bool = False) -> list[RankRecord]:
    """Rank a score file against a dataset's test queries.

    Every one of the 2*|test| queries must appear exactly once unless
    allow_partial is set; rows that are not test queries are rejected.
    Output order is the canonical query order (head-masked then
    tail-masked per test triple), independent of file order.
    """
    queries = make_queries(graph, pop)
    by_key = {q.key(): i for i, q in enumerate(queries)}
    rows: dict[int, ScoreRow] = {}
    for row in iter_score_rows(path, graph):
        idx = by_key.get(row.query.key())
        if idx is None:
            raise ValidationError(
                f"score row {row.query.key()} does not match any test query")
        if idx in rows:
            raise ValidationError(f"duplicate score row for query {row.query.key()}")
        # re-attach the canonical query (carries gold popularity)
        rows[idx] = ScoreRow(query=queries[idx], scores=row.scores)

    if not allow_partial and len(rows) != len(queries):
        missing = next(i for i in range(len(queries)) if i not in rows)
        raise ValidationError(
            f"score file covers {len(rows)} of {len(queries)} test queries; "
            f"first missing: {queries[missing].key()}")

    ordered = [rows[i] for i in sorted(rows)]
    return rank_all(ordered, graph, tie, raw=raw, threads=threads)
