"""The chunked tab-separated reader: parity with the per-line loops it replaced,
chunk boundaries, and the memory it saves."""

from __future__ import annotations

import logging
import tempfile
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dataset_of, load_train_split, reference_load_rank_file,
                      reference_load_split)
from probe_eval import errors, kg_data
from probe_eval.errors import ParseError, ValidationError, read_rows
from probe_eval.kg_data import load_dataset
from probe_eval.ranking import load_rank_file

CHUNKS = (1, 2, 5, 16, 1 << 20)  # characters per read; 1 reads one line at a time


@contextmanager
def chunked(chunk: int):
    """Make read_rows, and so every triple- and rank-file loader, read `chunk`
    characters at a time."""
    with mock.patch.object(errors, "CHUNK", chunk):
        yield


def outcome(load, *args):
    """('ok', result) or ('error', exception type, message): the message names path:line."""
    try:
        return ("ok", load(*args))
    except (ParseError, ValidationError) as exc:
        return ("error", type(exc), str(exc))


def table_outcome(load, *args):
    result = outcome(load, *args)
    if result[0] == "ok":
        table = result[1]
        return ("ok", table.keys, table.ranks.tolist(), table.pops.tolist())
    return result


def write_lines(path: Path, lines, ends, final_newline: bool) -> Path:
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and not final_newline:
        text = text[:-len(ends[len(lines) - 1])]
    path.write_bytes(text.encode("utf-8"))
    return path


_ends = st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12)
_blank = st.sampled_from(["", " ", "\t", "\t\t", " \t \t", "\t\t\t\t", "\u3000"])
_label = st.sampled_from(["a", "b", " c", "a ", "", " ", "\u00a0"])  # the last three trim empty


def _row(fields, width: int):
    """A row of `fields`, with a field dropped or added now and then."""
    return st.builds(lambda row, change: "\t".join(row[:width - 1] if change == "drop"
                                                   else row + ["x"] if change == "add"
                                                   else row),
                     st.tuples(*fields).map(list),
                     st.sampled_from(["keep"] * 8 + ["drop", "add"]))


_triple_line = st.one_of(_row([_label, st.sampled_from(["r", "s"]), _label], 3), _blank)
_rank_line = st.one_of(
    _row([_label, st.just("r"), _label,
          st.sampled_from(["head", "tail", " tail", "Head", "", "x"]),
          st.sampled_from(["1", "2", " 3 ", "9223372036854775807", "0", str(2 ** 63),
                           "0" * 19 + "4", "", "x", "+2", "1_0", "\u0663"])], 5),
    _blank)


def _file(line):
    return st.tuples(st.lists(line, max_size=12), _ends, st.booleans())


class TestParity:
    """The chunked loaders give what the per-line loops gave: the same result, or
    the same exception with the same message and line, for any chunk size."""

    @given(_file(_triple_line), st.sampled_from(CHUNKS))
    @settings(max_examples=300, deadline=None)
    def test_triple_file(self, file, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "train.txt", *file)
            expected = outcome(reference_load_split, path)
            with chunked(chunk):
                assert outcome(load_train_split, path) == expected

    @given(_file(_rank_line), st.sampled_from(CHUNKS))
    @settings(max_examples=300, deadline=None)
    def test_rank_file(self, file, chunk):
        graph, pop = dataset_of([("a", "r", "b")])
        with tempfile.TemporaryDirectory() as tmp:
            path = write_lines(Path(tmp) / "ranks.tsv", *file)
            expected = table_outcome(reference_load_rank_file, path, graph, pop)
            with chunked(chunk):
                assert table_outcome(load_rank_file, path, graph.entity_ids, pop) == expected

    def test_empty_field_before_wrong_field_count(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\t \tb\na\tb\n", encoding="utf-8")
        for chunk in CHUNKS:
            with chunked(chunk), pytest.raises(
                    ParseError, match=r"train\.txt:1: empty field after whitespace trimming$"):
                load_train_split(path)

    @pytest.mark.parametrize("rank", ["9223372036854775807", str(2 ** 63), "1" + "0" * 25,
                                      "0" * 25 + "7", "0", "00", "0" * 4000 + "7",
                                      "1" + "0" * 4000])
    def test_rank_range_edges(self, tmp_path, rank):
        path = tmp_path / "r.tsv"
        path.write_text(f"a\tr\tb\ttail\t3\na\tr\tb\thead\t{rank}\n", encoding="utf-8")
        for chunk in CHUNKS:
            with chunked(chunk):
                assert (table_outcome(load_rank_file, path)
                        == table_outcome(reference_load_rank_file, path))

    def test_rank_check_before_a_later_field_count(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\thead\t0\na\tr\tb\n", encoding="utf-8")
        for chunk in CHUNKS:
            with chunked(chunk), pytest.raises(
                    ValidationError, match=r"r\.tsv:1: rank must be >= 1 and < 2\*\*63, got 0$"):
                load_rank_file(path)

    @pytest.mark.parametrize("zeros", [0, 5000])
    def test_ranks_beyond_the_int_digit_limit(self, tmp_path, zeros):
        """int() refuses over 4,300 digits; leading zeros do not count toward a
        rank's size, and a larger rank is named by its digits."""
        path = tmp_path / "r.tsv"
        path.write_text(f"a\tr\tb\ttail\t{'0' * 5000}7\n"
                        f"a\tr\tb\thead\t{'0' * zeros}{'9' * 5000}\n", encoding="utf-8")
        for chunk in CHUNKS:
            with chunked(chunk), pytest.raises(ValidationError) as raised:
                load_rank_file(path)
            assert str(raised.value) == (f"{path}:2: rank must be >= 1 and < 2**63, "
                                         f"got {'9' * 5000}")
        path.write_text(f"a\tr\tb\ttail\t{'0' * 5000}7\n", encoding="utf-8")
        assert load_rank_file(path).ranks.tolist() == [7]


class TestChunkBoundaries:
    def test_read_rows_columns_and_line_numbers(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(" a\tr\tb\n\n \t \nc\tr\t d \r\nd\ts\te", encoding="utf-8")
        for chunk in CHUNKS:
            with chunked(chunk):
                chunks = list(read_rows(path, 3))
            assert [row for columns, _ in chunks for row in zip(*columns)] == [
                ("a", "r", "b"), ("c", "r", "d"), ("d", "s", "e")]
            lines = np.concatenate([numbers for _, numbers in chunks])
            assert lines.dtype == np.int64 and lines.tolist() == [1, 4, 5]

    def test_error_line_in_a_later_chunk(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\tr\tb\n" * 5 + "\n" + "a\tr\n", encoding="utf-8")
        with chunked(4), pytest.raises(
                ParseError, match=r"t\.txt:7: expected 3 tab-separated fields, got 2"):
            list(read_rows(path, 3))

    def test_lines_before_an_error_are_yielded_first(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a\tr\tb\nc\t\td\n", encoding="utf-8")
        rows = read_rows(path, 3)
        columns, numbers = next(rows)
        assert columns == [["a"], ["r"], ["b"]] and numbers.tolist() == [1]
        with pytest.raises(ParseError, match=":2: empty field"):
            next(rows)

    def test_blank_line_at_a_boundary(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\thead\t1\n\t\t\n\na\tr\tb\ttail\tx\n", encoding="utf-8")
        for chunk in CHUNKS:
            with chunked(chunk), pytest.raises(ParseError,
                                               match=r":4: rank is not an integer: 'x'"):
                load_rank_file(path)

    def test_triple_repeated_across_chunks(self, tmp_path, caplog):
        (tmp_path / "train.txt").write_text("a\tr\tb\nb\tr\tc\na\tr\tb\n", encoding="utf-8")
        (tmp_path / "valid.txt").write_text("", encoding="utf-8")
        (tmp_path / "test.txt").write_text("c\tr\ta\n", encoding="utf-8")
        with chunked(2), caplog.at_level(logging.WARNING):
            graph, pop = load_dataset(tmp_path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{tmp_path / 'train.txt'}: dropped 1 duplicate triple line(s)"]
        assert graph.entity_labels == ["a", "b", "c"]
        assert graph.train.tolist() == [[0, 0, 1], [1, 0, 2]]
        assert pop.tolist() == [1, 2, 1]

    def test_each_split_warns_before_the_next_is_read(self, tmp_path, caplog):
        (tmp_path / "train.txt").write_text("a\tr\tb\na\tr\tb\n", encoding="utf-8")
        (tmp_path / "valid.txt").write_text("a\tr\tb\nc\tr\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING), pytest.raises(ParseError, match=r"valid\.txt:2:"):
            load_dataset(tmp_path)
        assert [r.getMessage() for r in caplog.records] == [
            f"{tmp_path / 'train.txt'}: dropped 1 duplicate triple line(s)"]

    def test_query_repeated_across_chunks_names_both_lines(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\thead\t1\na\tr\tb\ttail\t2\n\na\tr\tb\thead\t3\n",
                        encoding="utf-8")
        with chunked(1), pytest.raises(
                ValidationError,
                match=r"r\.tsv:4: duplicate query \('a', 'r', 'b', 'head'\) repeats line 1$"):
            load_rank_file(path)

    def test_ids_do_not_depend_on_the_chunk_size(self, tmp_path):
        rng = np.random.default_rng(3)
        for name, n in (("train.txt", 300), ("valid.txt", 40), ("test.txt", 40)):
            rows = rng.integers(0, [60, 5, 60], size=(n, 3))
            (tmp_path / name).write_text(
                "".join(f"e{h}\tr{r}\te{t}\n" for h, r, t in rows), encoding="utf-8")
        graph, pop = load_dataset(tmp_path)
        for chunk in CHUNKS:
            with chunked(chunk):
                other, other_pop = load_dataset(tmp_path)
            assert other.entity_labels == graph.entity_labels
            assert other.relation_labels == graph.relation_labels
            for split in ("train", "valid", "test"):
                assert np.array_equal(getattr(other, split), getattr(graph, split))
            assert np.array_equal(other_pop, pop)


def test_drop_repeats_compares_whole_rows_when_a_key_could_wrap(caplog):
    """With |E|**2 * |R| >= 2**63 the int64 key (h*|R| + r)*|E| + t could wrap,
    so rows are compared whole: these two distinct rows share that key modulo 2**64."""
    n_entities, n_relations = 2 ** 32 + 1, 1
    rows = np.array([[2 ** 32, 0, 0], [0, 0, 2 ** 32], [2 ** 32, 0, 0]], dtype=np.int64)
    wrapped = (rows[:, 0] * n_relations + rows[:, 1]) * n_entities + rows[:, 2]
    assert wrapped[0] == wrapped[1]
    with caplog.at_level(logging.WARNING):
        kept = kg_data._drop_repeats(rows, n_entities, n_relations, "train.txt")
    assert kept.tolist() == rows[:2].tolist()
    assert [r.getMessage() for r in caplog.records] == [
        "train.txt: dropped 1 duplicate triple line(s)"]


def _traced_peak(function, *args) -> int:
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _write_freebase_like(directory: Path, distinct: bool = False) -> None:
    """90,000 train, 5,000 valid and 5,000 test lines over 8,000 entities and
    200 relations, labelled like FB15k237.  Train repeats one triple, unless
    distinct keeps each split's first line of every triple."""
    rng = np.random.default_rng(7)
    for name, n in (("train.txt", 90_000), ("valid.txt", 5_000), ("test.txt", 5_000)):
        rows = rng.integers(0, [8_000, 200, 8_000], size=(n, 3))
        if distinct:
            rows = rows[np.sort(np.unique(rows, return_index=True, axis=0)[1])]
        (directory / name).write_text(
            "".join(f"/m/0{h:05x}\t/rel/{r:03d}/type\t/m/0{t:05x}\n" for h, r, t in rows),
            encoding="utf-8")


def test_load_dataset_peak_memory_is_below_the_per_line_loop(tmp_path):
    """load_dataset holds one chunk of labels at a time; the per-line loop held a
    tuple of fresh strings for every triple of all three splits."""
    _write_freebase_like(tmp_path)
    paths = [tmp_path / name for name in kg_data.SPLIT_FILES]
    reference = _traced_peak(lambda: [reference_load_split(path) for path in paths])
    chunked_peak = _traced_peak(load_dataset, tmp_path)
    assert chunked_peak < 0.6 * reference, (chunked_peak, reference)


def _load_dataset_overhead(directory: Path) -> float:
    """What load_dataset allocates beyond what it returns, in units of the
    largest split's (n, 3) int64 array."""
    tracemalloc.start()
    try:
        graph, pop = load_dataset(directory)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return (peak - kept) / max(split.nbytes for split in (graph.train, graph.valid, graph.test))


def test_load_dataset_builds_each_split_once(tmp_path):
    """What load_dataset allocates beyond what it returns is below 3 times the
    largest split's (n, 3) int64 array: 4.3 -> 2.2 times it here.  The label maps
    hold dense ids while the files are read, so a split's full-size arrays are its
    rows and, since train repeats a triple, np.unique's sort of its keys; position
    tables over every triple read, gathers through them and a column_stack copy
    made the 4.3."""
    _write_freebase_like(tmp_path)
    assert _load_dataset_overhead(tmp_path) < 3


def test_load_dataset_without_repeats_holds_each_split_once(tmp_path):
    """Where no split repeats a triple, what load_dataset allocates beyond what it
    returns is below the largest split's (n, 3) int64 array: 1.9 -> 0.5 times it
    here.  Each chunk's ids go into one array grown in place, and a split costs
    one int64 key, sorted in place to find that nothing repeats; per-chunk blocks,
    their concatenation and np.unique's sort of every split made the 1.9."""
    _write_freebase_like(tmp_path, distinct=True)
    assert _load_dataset_overhead(tmp_path) < 1
