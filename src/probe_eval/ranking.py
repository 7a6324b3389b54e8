"""Query generation, filtered rank computation, and rank/score file I/O.

Each test triple yields two queries (head-masked, tail-masked).  Ranking a
query means counting, among candidates not excluded by the filter, how many
score strictly above the gold entity, then resolving ties by policy.  The
filter removes every candidate that would itself form a known-true triple
(train, valid, or test), the standard filtered protocol.  Score rows are
parsed by orjson, and by the standard library's json where orjson refuses a
row (see iter_score_rows).
"""

from __future__ import annotations

import array
import enum
import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterator, Mapping

import numpy as np

from .errors import ParseError, ValidationError, open_text, read_rows
from .kg_data import KnowledgeGraph, _triple_keys

logger = logging.getLogger(__name__)


class Direction(str, enum.Enum):
    """Which slot of the triple is masked."""

    HEAD = "head"
    TAIL = "tail"


# Plain strings, so a membership test reads no enum descriptor; a tuple, not a
# set, because a score row's direction may be an unhashable JSON value.
_DIRECTIONS = (Direction.HEAD.value, Direction.TAIL.value)
_DIRECTION_ERROR = "direction must be 'head' or 'tail', got {!r}"
_LABELS = ("head", "relation", "tail", "direction")  # a score row's string fields


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
    """rank_of_gold's result: the (filtered) rank of one query's gold entity."""

    query: Query
    rank: int


@dataclass(frozen=True)
class RankTable:
    """Evaluated queries as index-aligned columns.

    keys holds one ``head<TAB>relation<TAB>tail<TAB>direction`` string per
    record, the identity used to match queries across models; the tables
    of one run may share these string objects (see load_rank_file).  ranks
    and pops (gold popularities) are int64 arrays.
    """

    keys: list[str]
    ranks: np.ndarray
    pops: np.ndarray

    def __len__(self) -> int:
        return len(self.keys)


def check_same_queries(tables: Mapping[str, RankTable]) -> None:
    """Reject models that do not rank the same query set as the first one.

    A table whose keys equal the first table's in the same order passes
    at once (for keys shared through load_rank_file, a pointer compare);
    otherwise both key lists are compared sorted, so repeated keys count,
    and the error names their first divergence in sorted order.
    """
    reference, *others = tables
    ref_keys = tables[reference].keys
    for name in others:
        keys = tables[name].keys
        if len(keys) != len(ref_keys):
            raise ValidationError(
                f"model {name!r} has {len(keys)} records but {reference!r} "
                f"has {len(ref_keys)}")
        if keys == ref_keys:
            continue
        keys, ref_sorted = sorted(keys), sorted(ref_keys)
        if keys != ref_sorted:
            ref_key, key = next((tuple(a.split("\t")), tuple(b.split("\t")))
                                for a, b in zip(ref_sorted, keys) if a != b)
            raise ValidationError(
                f"models {reference!r} and {name!r} rank different query sets; "
                f"first divergence: {ref_key} vs {key}")


@dataclass(frozen=True)
class TiePolicy:
    """How candidates scoring exactly equal to the gold entity count.

    optimistic ranks the gold first within its tie block, pessimistic last,
    average takes the midpoint rounded half-up, and random draws a seeded
    uniform position inside the block.
    """

    POLICIES = ("optimistic", "pessimistic", "average", "random")

    policy: str = "average"
    seed: int | None = None

    def __post_init__(self):
        if self.policy not in self.POLICIES:
            raise ValidationError(
                f"unknown tie policy {self.policy!r}; expected one of {self.POLICIES}")
        if self.policy == "random":
            if self.seed is None:
                raise ValidationError("random tie policy requires an explicit seed")
            if self.seed < 0:
                raise ValidationError(f"seed must be >= 0, got {self.seed}")

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
    """Per-query PRNG entropy: independent of row order."""
    return [
        seed,
        _label_entropy(query.head),
        _label_entropy(query.relation),
        _label_entropy(query.tail),
        0 if query.direction is Direction.HEAD else 1,
    ]


def make_queries(graph: KnowledgeGraph, pop: np.ndarray) -> list[Query]:
    """Two queries per test triple (head-masked then tail-masked), in test order."""
    queries: list[Query] = []
    for h, r, t in graph.test:
        h, r, t = int(h), int(r), int(t)
        head, rel, tail = (graph.entity_labels[h], graph.relation_labels[r],
                           graph.entity_labels[t])
        queries.append(Query(head, rel, tail, Direction.HEAD,
                             gold_popularity=int(pop[h]),
                             head_id=h, relation_id=r, tail_id=t))
        queries.append(Query(head, rel, tail, Direction.TAIL,
                             gold_popularity=int(pop[t]),
                             head_id=h, relation_id=r, tail_id=t))
    return queries


def filter_set(query: Query, graph: KnowledgeGraph) -> np.ndarray:
    """Candidates (other than the gold) that complete a known-true triple.

    Sorted distinct int64 entity ids, looked up in an index over train,
    valid and test that is built on the graph's first call: per direction,
    the sorted distinct keys ``(known * |R| + relation) * |E| + candidate``,
    written split by split into one array and sorted in place, then compacted
    only where the splits share a triple.
    """
    n_entities, n_relations = graph.n_entities, graph.n_relations
    if not (0 <= query.head_id < n_entities and 0 <= query.tail_id < n_entities
            and 0 <= query.relation_id < n_relations):
        raise ValidationError(f"query {query.key()} is not resolved against the graph")
    index = graph._filter_index
    if index is None:
        if n_entities ** 2 * n_relations >= 2 ** 63:  # a key could wrap and match wrongly
            raise ValidationError(
                f"{n_entities} entities and {n_relations} relations overflow the int64 "
                "filter keys; rank with --raw to skip the filter")
        splits = (graph.train, graph.valid, graph.test)
        index = graph._filter_index = {}
        for direction, known, candidate in ((Direction.HEAD, 2, 0), (Direction.TAIL, 0, 2)):
            keys = np.empty(sum(map(len, splits)), np.int64)
            end = 0
            for split in splits:
                _triple_keys(split, n_entities, n_relations, known, candidate,
                             out=keys[end:end + len(split)])
                end += len(split)
            keys.sort()
            distinct = np.ones(len(keys), bool)
            np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
            index[direction] = keys if distinct.all() else keys[distinct]
    keys = index[query.direction]
    known = query.tail_id if query.direction is Direction.HEAD else query.head_id
    base = (known * n_relations + query.relation_id) * n_entities
    lo, hi = keys.searchsorted((base, base + n_entities))
    found = keys[lo:hi] - base
    return found[found != query.gold_id]


def rank_of_gold(row: ScoreRow, filter_ids: np.ndarray | Collection[int],
                 tie: TiePolicy) -> RankRecord:
    """Rank the gold entity among the candidates the filter leaves.

    rank = 1 + (# strictly better) + tie adjustment, both counts taken over
    the row less the gold and every filter id; an id given twice is left
    out once.  Filter ids must lie inside the row and must not include the
    gold; non-finite scores are rejected.
    """
    query = row.query
    gold = query.gold_id
    scores = np.asarray(row.scores, dtype=np.float64)
    if gold < 0 or gold >= len(scores):
        raise ValidationError(f"gold id {gold} outside score row of length {len(scores)}")
    ids = np.fromiter(filter_ids, dtype=np.int64, count=len(filter_ids))
    if len(ids) and (ids.min() < 0 or ids.max() >= len(scores)):
        raise ValidationError(f"filter id outside score row of length {len(scores)}")
    if np.any(ids == gold):
        raise ValidationError(f"gold entity {query.gold!r} present in its own filter set")
    if not np.isfinite(scores).all():
        raise ValidationError(f"non-finite score in row for query {query.key()}")

    left = np.ones(len(scores), dtype=bool)
    left[ids] = left[gold] = False
    gold_score = scores[gold]
    better = np.count_nonzero(left & (scores > gold_score))
    ties = np.count_nonzero(left & (scores == gold_score))
    return RankRecord(query=query, rank=1 + better + tie.adjustment(ties, query))


# ---------------------------------------------------------------------------
# File formats


def load_rank_file(path: str | Path, entity_ids: Mapping[str, int] | None = None,
                   popularity: np.ndarray | None = None,
                   shared: dict[str, str] | None = None) -> RankTable:
    """Read ``head<TAB>relation<TAB>tail<TAB>direction<TAB>rank`` records.

    Gold popularity is popularity[entity_ids[gold label]]; entities unknown
    to the entity_ids vocabulary (a dataset's label->id map) get popularity
    0 (one summary warning).  An empty label and a query that appears on
    two lines are rejected.  The file is read a chunk at a time, and an
    error names its first faulty line.  ``shared``, a dict that the tables
    of one run pass to every call, maps each key to the first string object
    read for it, so equal keys of later files are stored as that object.
    """
    path = Path(path)
    keys: list[str] = []
    ranks: list[int] = []
    gold_ids: list[int] = []
    first_line: dict[str, int] = {}
    vocabulary = entity_ids if entity_ids is not None else {}
    for columns, numbers in read_rows(path, 5):
        for head, relation, tail, direction, rank_text, lineno in zip(*columns, numbers.tolist()):
            if direction not in _DIRECTIONS:
                raise ParseError(_DIRECTION_ERROR.format(direction), path=path, line=lineno)
            # int() alone would also read "1_0", "+2" and non-ASCII digits
            if not (rank_text.isascii() and rank_text.isdigit()):
                raise ParseError(f"rank is not an integer: {rank_text!r}",
                                 path=str(path), line=lineno)
            # int() refuses over 4,300 digits, leading zeros included; ranks are int64
            if len(rank_text) > 19:
                rank_text = rank_text.lstrip("0") or "0"
            if len(rank_text) > 19 or not 1 <= (rank := int(rank_text)) < 2 ** 63:
                raise ValidationError("rank must be >= 1 and < 2**63, got "
                                      f"{rank_text.lstrip('0') or 0}", path=path, line=lineno)
            key = f"{head}\t{relation}\t{tail}\t{direction}"
            if shared is not None:
                key = shared.setdefault(key, key)
            first = first_line.setdefault(key, lineno)
            if first != lineno:
                raise ValidationError(
                    f"duplicate query {(head, relation, tail, direction)} repeats line {first}",
                    path=path, line=lineno)
            keys.append(key)
            ranks.append(rank)
            gold_ids.append(vocabulary.get(head if direction == "head" else tail, -1))

    ids = np.array(gold_ids, dtype=np.int64)
    known = ids >= 0
    pops = np.zeros(len(keys), dtype=np.int64)
    if popularity is not None:
        pops[known] = popularity[ids[known]]
    unknown = len(ids) - int(np.count_nonzero(known))
    if entity_ids is not None and unknown:
        logger.warning("%s: %d record(s) with gold entity unknown to the "
                       "vocabulary; popularity set to 0", path, unknown)
    return RankTable(keys, np.array(ranks, dtype=np.int64), pops)


def write_rank_file(table: RankTable, path: str | Path) -> None:
    """Serialize a table to the 5-column rank TSV."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(f"{key}\t{rank}\n"
                          for key, rank in zip(table.keys, table.ranks.tolist()))


def iter_score_rows(path: str | Path,
                    graph: KnowledgeGraph) -> Iterator[tuple[int, ScoreRow]]:
    """Yield (line number, score row) pairs, validating entity order and length.

    orjson parses each row.  json.loads parses again, and defines the row,
    where orjson refuses it (NaN, Infinity, a number beyond a double, a lone
    surrogate, malformed JSON) or gives anything but an object with string
    labels, since orjson reads an integer beyond 64 bits as a float.  The two
    agree on every other document, floats to the bit.  Only the row being
    yielded is held, not its parsed object.
    """
    import orjson  # loaded by rank alone, not by every command's start-up

    path = Path(path)
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if line.isspace():
                continue
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError:
                obj = None
            if type(obj) is not dict or not all(type(obj.get(key)) is str for key in _LABELS):
                try:
                    obj = json.loads(line)
                except (ValueError, RecursionError) as exc:  # over 4,300 digits or too deep: no .msg
                    raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}",
                                     path=str(path), line=lineno) from None
            try:
                head, relation, tail = obj["head"], obj["relation"], obj["tail"]
                direction, scores = obj["direction"], obj["scores"]
                hid = graph.entity_ids.get(head, -1)
                rid = graph.relation_ids.get(relation, -1)
                tid = graph.entity_ids.get(tail, -1)
            except (KeyError, TypeError):  # TypeError: not an object, or a list label
                raise ParseError(
                    "score row needs head, relation, tail, direction, scores",
                    path=str(path), line=lineno) from None
            if direction not in _DIRECTIONS:
                raise ParseError(_DIRECTION_ERROR.format(direction), path=path, line=lineno)
            if min(hid, rid, tid) < 0:
                raise ValidationError(
                    f"triple ({head}, {relation}, {tail}) references labels outside "
                    "the dataset vocabulary", path=path, line=lineno)
            # array("d") takes any iterable of real numbers, bools included;
            # a bool is looked for only when the line spells one
            try:
                if type(scores) is not list or (
                        ("true" in line or "false" in line)
                        and any(x is True or x is False for x in scores)):
                    raise TypeError("scores is not a JSON array of numbers")
                vector = np.frombuffer(array.array("d", scores), dtype=np.float64)
            except (TypeError, OverflowError):
                raise ParseError("scores must be a list of numbers",
                                 path=str(path), line=lineno) from None
            if len(vector) != graph.n_entities:
                raise ValidationError(
                    f"scores length {vector.size} != entity count {graph.n_entities}",
                    path=path, line=lineno)
            del obj, scores  # so the next row's parse does not overlap them
            yield lineno, ScoreRow(
                query=Query(head, relation, tail, Direction(direction),
                            head_id=hid, relation_id=rid, tail_id=tid),
                scores=vector)


# An id triple as one record: NumPy orders and compares records field by field
_TRIPLE = np.dtype([("h", np.int64), ("r", np.int64), ("t", np.int64)])


def rank_score_file(path: str | Path, graph: KnowledgeGraph, pop: np.ndarray,
                    tie: TiePolicy, raw: bool = False,
                    allow_partial: bool = False) -> RankTable:
    """Rank a score file's rows, each as it is read, against the test queries.

    Every one of the 2*|test| queries must appear exactly once unless
    allow_partial is set; rows that are not test queries are rejected, and
    an error in a row names its ``path:line``.  Output order is the
    canonical query order (head-masked then tail-masked per test triple):
    a row's id triple finds its test row by binary search over the test
    triples as (h, r, t) records in sorted order, and query 2*row (head)
    or 2*row + 1 (tail).  Keys and popularities are built for the ranked
    queries only.
    """
    test = np.ascontiguousarray(graph.test, np.int64).view(_TRIPLE).ravel()
    order = test.argsort()
    ranks = np.zeros(2 * len(graph.test), dtype=np.int64)  # 0: no row read yet
    for lineno, row in iter_score_rows(path, graph):
        query = row.query
        triple = np.array((query.head_id, query.relation_id, query.tail_id), _TRIPLE)
        at = int(test.searchsorted(triple, sorter=order))
        if at == len(test) or test[order[at]] != triple:
            raise ValidationError(f"score row {query.key()} does not match any "
                                  "test query", path=path, line=lineno)
        idx = 2 * int(order[at]) + (query.direction is Direction.TAIL)
        if ranks[idx]:
            raise ValidationError(f"duplicate score row for query {query.key()}",
                                  path=path, line=lineno)
        excluded = () if raw else filter_set(query, graph)
        try:
            ranks[idx] = rank_of_gold(row, excluded, tie).rank
        except ValidationError as exc:
            raise ValidationError(str(exc), path=path, line=lineno) from None

    seen = np.flatnonzero(ranks)
    if not allow_partial and len(seen) != len(ranks):
        missing = _query_keys(graph, np.flatnonzero(ranks == 0)[:1])[0]
        raise ValidationError(f"score file covers {len(seen)} of {len(ranks)} test queries; "
                              f"first missing: {missing}")
    triples = graph.test[seen // 2]
    pops = pop[np.where(seen % 2, triples[:, 2], triples[:, 0])]
    return RankTable(["\t".join(key) for key in _query_keys(graph, seen)], ranks[seen], pops)


def _query_keys(graph: KnowledgeGraph, indices: np.ndarray) -> list[tuple[str, str, str, str]]:
    """Query.key() of the canonical queries at these indices: query i masks
    test row i // 2's head if i is even, its tail if odd."""
    entity, relation = graph.entity_labels, graph.relation_labels
    return [(entity[h], relation[r], entity[t], _DIRECTIONS[i % 2])
            for i, (h, r, t) in zip(indices.tolist(), graph.test[indices // 2].tolist())]
