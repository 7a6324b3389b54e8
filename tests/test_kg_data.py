"""Triple parsing, vocabulary construction, popularity, and statistics."""

from __future__ import annotations

import logging
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import dataset_of, load_train_split, reference_load_dataset
from probe_eval import errors
from probe_eval.errors import ParseError
from probe_eval.kg_data import (DatasetStats, dataset_stats, export_vocabulary,
                                load_dataset)


class TestLoadSplit:
    def test_two_line_file(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr1\tb\nb\tr1\tc\n", encoding="utf-8")
        assert load_train_split(path) == [("a", "r1", "b"), ("b", "r1", "c")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("", encoding="utf-8")
        assert len(load_train_split(path)) == 0

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("\na\tr\tb\n\n  \n", encoding="utf-8")
        assert len(load_train_split(path)) == 1

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_bytes(b"a\tr\tb\r\nb\tr\tc\r\n")
        assert load_train_split(path) == [("a", "r", "b"), ("b", "r", "c")]

    def test_duplicates_dropped_with_count(self, tmp_path, caplog):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\na\tr\tb\nb\tr\tc\na\tr\tb\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            ts = load_train_split(path)
        assert ts == [("a", "r", "b"), ("b", "r", "c")]
        assert "dropped 2 duplicate" in caplog.text

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\tr\tb\na\tb\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r"train\.txt:2:"):
            load_train_split(path)

    def test_empty_field_rejected(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text("a\t \tb\n", encoding="utf-8")
        with pytest.raises(ParseError, match="empty field"):
            load_train_split(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_train_split(tmp_path / "train.txt")  # not written

    def test_fields_are_whitespace_trimmed(self, tmp_path):
        path = tmp_path / "train.txt"
        path.write_text(" a \tr\t b\n", encoding="utf-8")
        assert load_train_split(path) == [("a", "r", "b")]

    def test_byte_order_mark_dropped(self, tmp_path):
        (tmp_path / "train.txt").write_bytes(b"\xef\xbb\xbfa\tr\tb\n")
        (tmp_path / "valid.txt").write_bytes(b"")
        (tmp_path / "test.txt").write_bytes(b"a\tr\tb\n")
        g, pop = load_dataset(tmp_path)
        assert g.entity_labels == ["a", "b"]
        assert pop[g.entity_ids["a"]] == 1


class TestBuildGraph:
    """Vocabularies and id rows, as load_dataset builds them."""

    def test_counts(self):
        g, _ = dataset_of([("a", "r", "b")], test=[("a", "r", "c")])
        assert g.n_entities == 3
        assert g.n_relations == 1

    def test_all_empty(self):
        g, _ = dataset_of()
        assert g.n_entities == 0
        assert g.n_relations == 0
        assert g.train.shape == (0, 3)

    def test_first_appearance_order(self):
        g, _ = dataset_of(
            [("b", "r2", "a"), ("c", "r1", "b")],
            [("d", "r1", "a")],
            [("e", "r3", "c")],
        )
        assert g.entity_labels == ["b", "a", "c", "d", "e"]
        assert g.relation_labels == ["r2", "r1", "r3"]

    def test_two_loads_identical_ids(self, toy_dataset):
        g1, _ = load_dataset(toy_dataset)
        g2, _ = load_dataset(toy_dataset)
        assert g1.entity_ids == g2.entity_ids
        assert g1.relation_ids == g2.relation_ids
        assert np.array_equal(g1.train, g2.train)

    def test_unknown_label_raises_and_adds_no_id(self, toy_dataset):
        g, _ = load_dataset(toy_dataset)
        n_entities, n_relations = len(g.entity_ids), len(g.relation_ids)
        for labels in (g.entity_ids, g.relation_ids):
            with pytest.raises(KeyError):
                labels["no such label"]
        assert (len(g.entity_ids), len(g.relation_ids)) == (n_entities, n_relations)
        assert g.n_entities == n_entities

    def test_split_arrays_resolve_to_vocabulary(self, toy_dataset):
        g, _ = load_dataset(toy_dataset)
        for split in (g.train, g.valid, g.test):
            for h, r, t in split:
                assert 0 <= h < g.n_entities
                assert 0 <= r < g.n_relations
                assert 0 <= t < g.n_entities


# One line of a split file: a triple with padded fields, or a blank or
# whitespace-only line.  Few labels, so duplicates within and across
# splits and self-loops are common.  str.strip trims NBSP and U+3000 too;
# U+0085 inside a label ends no line in a text-mode read, though
# str.splitlines would split there.
_padding = st.sampled_from(["", " ", "  ", "\u00a0", "\u3000"])


def _padded(*labels: str):
    return st.builds(lambda pad, label, end: pad + label + end,
                     _padding, st.sampled_from(labels), _padding)


_entity = _padded("e0", "e1", "e2", "e\u00853")
_triple_line = st.builds(lambda *fields: "\t".join(fields),
                         _entity, _padded("r0", "r1"), _entity)
_line = st.one_of(_triple_line, st.sampled_from(["", " ", "\t\t", " \t ", "\u3000"]))
_split_file = st.tuples(st.lists(st.tuples(_line, st.sampled_from(["\n", "\r\n", "\r"])),
                                 max_size=12),
                        st.booleans(), st.booleans())


class TestLoadDatasetParity:
    @given(st.tuples(_split_file, _split_file, _split_file), st.integers(1, 256))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_loader(self, files, chunk):
        """Any read size: chunk boundaries fall within and between the splits."""
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for name, (lines, final_newline, byte_order_mark) in zip(
                    ("train.txt", "valid.txt", "test.txt"), files):
                text = "".join(line + end for line, end in lines)
                if lines and not final_newline:
                    text = text[:-len(lines[-1][1])]
                if byte_order_mark:
                    text = "\ufeff" + text
                (directory / name).write_bytes(text.encode("utf-8"))
            with mock.patch.object(errors, "CHUNK", chunk):
                graph, pop = load_dataset(directory)
            entities, relations, splits, popularity = reference_load_dataset(directory)
        assert graph.entity_labels == entities
        assert graph.relation_labels == relations
        for array, rows in zip((graph.train, graph.valid, graph.test), splits):
            assert array.dtype == np.int64 and array.shape == (len(rows), 3)
            assert [tuple(row) for row in array.tolist()] == rows
        assert pop.tolist() == popularity


class TestPopularity:
    def test_direct_count(self):
        g, pop = dataset_of([("a", "r", "b"), ("a", "r", "c")])
        assert pop[g.entity_ids["a"]] == 2
        assert pop[g.entity_ids["b"]] == 1
        assert pop[g.entity_ids["c"]] == 1

    def test_self_loop_counts_once(self):
        g, pop = dataset_of([("a", "r", "a")])
        assert pop[g.entity_ids["a"]] == 1

    def test_valid_test_only_entities_zero(self):
        g, pop = dataset_of([("a", "r", "b")],
                            [("c", "r", "a")],
                            [("a", "r", "d")])
        assert pop[g.entity_ids["c"]] == 0
        assert pop[g.entity_ids["d"]] == 0

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3),
                              st.integers(0, 12)),
                    min_size=0, max_size=60, unique=True))
    @settings(max_examples=60)
    def test_sum_identity(self, rows):
        """sum(counts) == 2*(non-self-loop train triples) + self-loops."""
        triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
        g, pop = dataset_of(triples)
        self_loops = int(np.count_nonzero(g.train[:, 0] == g.train[:, 2])) \
            if len(g.train) else 0
        assert int(pop.sum()) == 2 * (len(g.train) - self_loops) + self_loops
        if len(g.train):
            train_entities = set(g.train[:, 0]) | set(g.train[:, 2])
            assert all(pop[int(e)] >= 1 for e in train_entities)


class TestDatasetStats:
    def test_single_triple(self):
        g, pop = dataset_of([("a", "r", "b")])
        stats = dataset_stats(g, pop)
        assert stats == DatasetStats(2, 1, 1, 1.0, 1)

    def test_degenerate_empty_graph(self):
        g, pop = dataset_of()
        stats = dataset_stats(g, pop)
        assert stats == DatasetStats(0, 0, 0, None, 0)
        assert asdict(stats)["delta_avg"] is None
        assert "undefined" in stats.to_text()

    def test_avg_times_entities_is_total_mass(self, toy_dataset):
        g, pop = load_dataset(toy_dataset)
        stats = dataset_stats(g, pop)
        assert stats.delta_avg * stats.n_entities == pytest.approx(int(pop.sum()), abs=0)

    def test_json_keys(self, toy_dataset):
        g, pop = load_dataset(toy_dataset)
        d = asdict(dataset_stats(g, pop))
        assert set(d) == {"n_entities", "n_relations", "n_triples",
                          "delta_avg", "delta_max"}

    def test_text_is_aligned(self, toy_dataset):
        g, pop = load_dataset(toy_dataset)
        lines = dataset_stats(g, pop).to_text().splitlines()
        assert len(lines) == 5
        assert len({len(line) for line in lines}) == 1  # right-aligned values

    def test_display_rounding_one_decimal(self):
        g, pop = dataset_of([("a", "r", "b"), ("a", "r", "c"), ("a", "r2", "d")])
        stats = dataset_stats(g, pop)
        assert stats.delta_avg == 1.5
        assert "1.5" in stats.to_text()


class TestVocabularyExport:
    def test_label_tab_id_in_id_order(self, toy_dataset, tmp_path):
        g, _ = load_dataset(toy_dataset)
        out = tmp_path / "vocab.tsv"
        export_vocabulary(g, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == g.n_entities
        for i, line in enumerate(lines):
            label, eid = line.split("\t")
            assert int(eid) == i
            assert g.entity_ids[label] == i

