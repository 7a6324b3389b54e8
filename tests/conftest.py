"""Shared fixtures, independent test oracles, and acceptance reporting."""

from __future__ import annotations

import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest

from probe_eval.errors import ParseError, ValidationError, open_text
from probe_eval.kg_data import SPLIT_FILES, load_dataset
from probe_eval.ranking import RankTable


def pytest_runtest_logreport(report):
    """One visible pass/fail line per acceptance criterion."""
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        print(f"[acceptance] {name}: {report.outcome.upper()}")
    elif report.when == "setup" and report.skipped:
        print(f"[acceptance] {name}: SKIPPED")


def make_records(ranks, pops=None, index=None) -> RankTable:
    """A rank table with deterministic ``h{i}<TAB>r<TAB>t{i}<TAB>tail`` keys.

    index gives each record's i (default: its position), so a test can
    permute records or make two tables disagree on one query.
    """
    index = range(len(ranks)) if index is None else index
    pops = [0] * len(ranks) if pops is None else pops
    return RankTable([f"h{i}\tr\tt{i}\ttail" for i in index],
                     np.array(ranks, dtype=np.int64), np.array(pops, dtype=np.int64))


def dataset_of(train=(), valid=(), test=()):
    """load_dataset's (graph, popularity) for splits given as (head, relation,
    tail) label triples, written as split files in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, triples in zip(SPLIT_FILES, (train, valid, test)):
            (Path(tmp) / name).write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples),
                                          encoding="utf-8")
        return load_dataset(tmp)


def load_train_split(path):
    """The triples of `path`, a dataset's train.txt, as load_dataset reads them,
    as (head, relation, tail) labels.  Empty valid and test files are written
    beside it."""
    path = Path(path)
    for name in SPLIT_FILES[1:]:
        (path.parent / name).write_bytes(b"")
    graph, _ = load_dataset(path.parent)
    return [(graph.entity_labels[h], graph.relation_labels[r], graph.entity_labels[t])
            for h, r, t in graph.train.tolist()]


def brute_force_rank(scores: np.ndarray, gold: int, filter_ids: set[int],
                     policy: str, draw: int | None = None) -> int:
    """Full-sort rank oracle: sort allowed candidates, scan the tie block.

    Independent of the production path: no counting shortcut, just the
    positions the gold could occupy after a descending sort.
    """
    allowed = [i for i in range(len(scores))
               if i not in filter_ids and i != gold]
    ordered = sorted(allowed, key=lambda i: -scores[i])
    gold_score = scores[gold]
    first = 1
    for i in ordered:
        if scores[i] > gold_score:
            first += 1
    last = first
    for i in ordered:
        if scores[i] == gold_score:
            last += 1
    if policy == "optimistic":
        return first
    if policy == "pessimistic":
        return last
    if policy == "average":
        # midpoint of the tie block, rounded half-up
        twice = first + last
        return (twice + 1) // 2
    if policy == "random":
        assert draw is not None
        return first + draw
    raise AssertionError(policy)


def reference_load_dataset(directory, names=("train.txt", "valid.txt", "test.txt")):
    """Naive dataset oracle: vocabularies, split id rows, train popularity.

    Independent of kg_data: a leading byte-order mark is dropped, CRLF and
    lone CR become LF, each split's lines go into a dict keyed by the trimmed
    labels (dropping repeats), ids are handed out in first-appearance order,
    and popularity is counted triple by triple.
    """
    entities: dict[str, int] = {}
    relations: dict[str, int] = {}
    splits = []
    for name in names:
        text = (directory / name).read_bytes().decode("utf-8-sig")
        triples: dict[tuple[str, str, str], None] = {}
        for line in text.replace("\r\n", "\n").replace("\r", "\n").split("\n"):
            if line.strip():
                head, relation, tail = (label.strip() for label in line.split("\t"))
                triples[(head, relation, tail)] = None
        rows = []
        for head, relation, tail in triples:
            for label, vocab in ((head, entities), (relation, relations), (tail, entities)):
                if label not in vocab:
                    vocab[label] = len(vocab)
            rows.append((entities[head], relations[relation], entities[tail]))
        splits.append(rows)
    popularity = [0] * len(entities)
    for head, _, tail in splits[0]:
        popularity[head] += 1
        if tail != head:
            popularity[tail] += 1
    return list(entities), list(relations), splits, popularity


def reference_load_split(path):
    """Per-line triple-file oracle: the loop that read one split before files were
    read in chunks.  Same labels, same warning, same error for the same line."""
    path = Path(path)
    triples: dict[tuple[str, str, str], None] = {}
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
        logging.getLogger("probe_eval.kg_data").warning(
            "%s: dropped %d duplicate triple line(s)", path, dropped)
    return list(triples)


def reference_load_rank_file(path, graph=None, popularity=None) -> RankTable:
    """Per-line rank-file oracle: the loop load_rank_file ran before files were
    read in chunks.  Each line's checks run in order, and the first fails."""
    path = Path(path)
    keys: list[str] = []
    ranks: list[int] = []
    gold_ids: list[int] = []
    first_line: dict[str, int] = {}
    entity_ids = graph.entity_ids if graph is not None else {}
    with open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ParseError(f"expected 5 tab-separated fields, got {len(parts)}",
                                 path=str(path), line=lineno)
            head, relation, tail, direction, rank_text = (p.strip() for p in parts)
            if not (head and relation and tail):
                raise ParseError("empty field after whitespace trimming",
                                 path=str(path), line=lineno)
            if direction not in ("head", "tail"):
                raise ParseError(f"direction must be 'head' or 'tail', got {direction!r}",
                                 path=path, line=lineno)
            if not (rank_text.isascii() and rank_text.isdigit()):
                raise ParseError(f"rank is not an integer: {rank_text!r}",
                                 path=str(path), line=lineno)
            rank = int(rank_text)
            if not 1 <= rank < 2 ** 63:
                raise ValidationError(f"rank must be >= 1 and < 2**63, got {rank}",
                                      path=path, line=lineno)
            key = f"{head}\t{relation}\t{tail}\t{direction}"
            first = first_line.setdefault(key, lineno)
            if first != lineno:
                raise ValidationError(
                    f"duplicate query {(head, relation, tail, direction)} repeats line {first}",
                    path=path, line=lineno)
            keys.append(key)
            ranks.append(rank)
            gold_ids.append(entity_ids.get(head if direction == "head" else tail, -1))
    ids = np.array(gold_ids, dtype=np.int64)
    pops = np.zeros(len(keys), dtype=np.int64)
    if popularity is not None:
        pops[ids >= 0] = popularity[ids[ids >= 0]]
    return RankTable(keys, np.array(ranks, dtype=np.int64), pops)


@pytest.fixture
def toy_dataset(tmp_path):
    """Small three-split dataset on disk; returns its directory."""
    return write_toy_dataset(tmp_path / "toyds")


def write_toy_dataset(directory):
    """Write the toy train/valid/test files into a new directory; return it."""
    directory.mkdir()
    (directory / "train.txt").write_text(
        "a\tr1\tb\n"
        "a\tr1\tc\n"
        "b\tr2\tc\n"
        "c\tr1\tb\n",
        encoding="utf-8")
    (directory / "valid.txt").write_text("a\tr2\tb\n", encoding="utf-8")
    (directory / "test.txt").write_text("d\tr1\tb\na\tr2\tc\n", encoding="utf-8")
    return directory
