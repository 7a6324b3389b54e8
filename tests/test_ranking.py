"""Query generation, filtering, tie policies, and rank/score file I/O."""

from __future__ import annotations

import hashlib
import json
import logging
import pathlib
import tempfile
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_rank, dataset_of, make_records
from probe_eval.errors import ParseError, ValidationError
from probe_eval.kg_data import compute_popularity, load_dataset
from probe_eval.ranking import (Direction, Query, RankTable, ScoreRow,
                                TiePolicy, check_same_queries, filter_set,
                                load_rank_file, make_queries, rank_of_gold,
                                rank_score_file, write_rank_file)


def graph_of(*train, valid=(), test=()):
    return dataset_of(train, valid, test)[0]


SPLITS = ("train", "valid", "test")


def graph_in_splits(rows, splits):
    """A graph where the unique id triple rows[i] sits in each split of
    splits[i]; the first row is always a test triple."""
    rows = list(dict.fromkeys(rows))
    splits = [set(s) for s in splits[:len(rows)]]
    splits[0].add("test")
    triples = {name: [(f"e{h}", f"r{r}", f"e{t}") for (h, r, t), where in zip(rows, splits)
                      if name in where] for name in SPLITS}
    return dataset_of(triples["train"], triples["valid"], triples["test"])[0]


def naive_filter(graph, query) -> set[int]:
    """Other entities that complete a known triple, by a scan of all three splits."""
    out = set()
    for h, r, t in np.vstack([graph.train, graph.valid, graph.test]).tolist():
        if r != query.relation_id:
            continue
        if query.direction is Direction.HEAD and t == query.tail_id:
            out.add(h)
        if query.direction is Direction.TAIL and h == query.head_id:
            out.add(t)
    return out - {query.gold_id}


def query_for(gold_id: int, n: int = 3, direction=Direction.TAIL,
              head="h", relation="r", tail="t") -> Query:
    if direction is Direction.TAIL:
        return Query(head, relation, tail, direction, tail_id=gold_id,
                     head_id=0, relation_id=0)
    return Query(head, relation, tail, direction, head_id=gold_id,
                 tail_id=0, relation_id=0)


class TestMakeQueries:
    def test_two_queries_per_triple_in_order(self):
        g = graph_of(("a", "r", "b"), test=(("a", "r", "b"),))
        pop = compute_popularity(g)
        queries = make_queries(g, pop)
        assert len(queries) == 2
        head_q, tail_q = queries
        assert head_q.direction is Direction.HEAD and head_q.gold == "a"
        assert tail_q.direction is Direction.TAIL and tail_q.gold == "b"
        assert head_q.gold_popularity == 1
        assert tail_q.gold_popularity == 1

    def test_cardinality(self, toy_dataset):
        g, pop = load_dataset(toy_dataset)
        assert len(make_queries(g, pop)) == 2 * len(g.test)

    def test_empty_test_set(self):
        g = graph_of(("a", "r", "b"))
        assert make_queries(g, compute_popularity(g)) == []

    def test_popularity_of_unseen_gold_is_zero(self):
        g = graph_of(("a", "r", "b"), test=(("c", "r", "b"),))
        queries = make_queries(g, compute_popularity(g))
        assert queries[0].gold == "c"
        assert queries[0].gold_popularity == 0


class TestFilterSet:
    def test_known_competitor_filtered(self):
        g = graph_of(("a", "r", "b"), ("c", "r", "b"), test=(("a", "r", "b"),))
        pop = compute_popularity(g)
        head_q = make_queries(g, pop)[0]
        assert filter_set(head_q, g).tolist() == [g.entity_ids["c"]]

    def test_no_shared_pairs_gives_empty_filter(self):
        g = graph_of(("a", "r", "b"), ("c", "r2", "d"), test=(("a", "r", "b"),))
        pop = compute_popularity(g)
        for q in make_queries(g, pop):
            assert filter_set(q, g).tolist() == []

    @pytest.mark.parametrize("direction, head_id, relation_id, tail_id", [
        pytest.param(Direction.TAIL, -1, -1, -1, id="unknown-labels"),
        pytest.param(Direction.HEAD, 0, 0, -1, id="head-query-unknown-tail"),
        pytest.param(Direction.TAIL, -1, 0, 1, id="tail-query-unknown-head"),
        pytest.param(Direction.TAIL, 0, 2, 1, id="relation-past-vocabulary"),
        pytest.param(Direction.HEAD, 3, 0, 1, id="head-past-vocabulary"),
        pytest.param(Direction.TAIL, 0, 0, 3, id="tail-past-vocabulary"),
    ])
    def test_unresolved_query_rejected(self, direction, head_id, relation_id, tail_id):
        """Every id of the query, the known side included, must lie inside its
        vocabulary: an id past it would read another key block of the index."""
        g = graph_of(("a", "r", "b"), ("b", "r", "a"), ("b", "r", "c"), ("a", "r2", "c"))
        assert (g.n_entities, g.n_relations) == (3, 2)
        query = Query("x", "r", "y", direction, head_id=head_id,
                      relation_id=relation_id, tail_id=tail_id)
        with pytest.raises(ValidationError, match="is not resolved against the graph"):
            filter_set(query, g)

    @given(rows=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2),
                                   st.integers(0, 9)),
                         min_size=1, max_size=50),
           splits=st.lists(st.sets(st.sampled_from(SPLITS), min_size=1),
                           min_size=50, max_size=50))
    @settings(max_examples=50)
    def test_matches_brute_force_substitution(self, rows, splits):
        """Filter == every other entity whose substitution hits a known triple,
        with triples repeated across train, valid and test."""
        g = graph_in_splits(rows, splits)
        pop = compute_popularity(g)
        for q in make_queries(g, pop):
            got = filter_set(q, g)
            assert got.tolist() == sorted(naive_filter(g, q))

    def test_keys_that_could_wrap_are_refused(self):
        """With |E|**2 * |R| >= 2**63 the int64 key (known*|R| + r)*|E| + candidate
        could wrap: these two rows share it modulo 2**64, so the filter is refused."""
        g = graph_of(("a", "r", "b"), test=(("a", "r", "b"),))
        g.train = g.test = np.array([[2 ** 32, 0, 0], [0, 0, 2 ** 32]], dtype=np.int64)
        g.entity_labels = range(2 ** 32 + 1)  # the vocabulary's size, without its labels
        query = Query("a", "r", "b", Direction.TAIL, head_id=2 ** 32, relation_id=0, tail_id=0)
        with pytest.raises(ValidationError, match="--raw") as error:
            filter_set(query, g)
        assert "4294967297 entities and 1 relations overflow" in str(error.value)

    @staticmethod
    def index_build_overhead(shared: bool) -> float:
        """What the first filter_set call allocates beyond the index it keeps, in
        units of one direction's key array, over 60,000 drawn train triples and
        5,000 valid and test triples that are train's (shared) or not."""
        rng = np.random.default_rng(11)
        train = [(f"e{h}", f"r{r}", f"e{t}")
                 for h, r, t in rng.integers(0, [3_000, 50, 3_000], size=(60_000, 3))]
        if shared:
            g = graph_of(*train, valid=train[:5_000], test=train[5_000:10_000])
        else:
            train = list(dict.fromkeys(train))
            g = graph_of(*train[10_000:], valid=train[:5_000], test=train[5_000:10_000])
        query = make_queries(g, compute_popularity(g))[0]
        tracemalloc.start()
        try:
            filter_set(query, g)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - kept) / (8 * (len(g.train) + len(g.valid) + len(g.test)))

    def test_index_build_holds_one_key_array_at_a_time(self):
        """Building the index allocates, beyond the two key arrays it keeps, less
        than twice one direction's key array: 5.1 -> 1.3 times it here.  Each
        direction's keys are written split by split into one array and sorted in
        place; a copy of all three splits' columns and a sort copy made the 5.1."""
        assert self.index_build_overhead(shared=True) < 2

    def test_index_build_keeps_keys_that_do_not_repeat(self):
        """Where no two splits share a triple, building the index allocates, beyond
        the two key arrays it keeps, less than half of one: 1.1 -> 0.25 times it
        here.  A sorted key array without repeats is kept as it is; compacting it
        into a copy made the 1.1."""
        assert self.index_build_overhead(shared=False) < 0.5


class TestRankOfGold:
    def test_plain_second_place(self):
        row = ScoreRow(query_for(1), np.array([0.9, 0.5, 0.1]))
        assert rank_of_gold(row, set(), TiePolicy("average")).rank == 2

    def test_tie_policies_on_shared_top_score(self):
        row = ScoreRow(query_for(1), np.array([0.9, 0.9, 0.1]))
        assert rank_of_gold(row, set(), TiePolicy("optimistic")).rank == 1
        assert rank_of_gold(row, set(), TiePolicy("pessimistic")).rank == 2
        # tie block spans positions {1, 2}; midpoint 1.5 rounds half-up to 2
        assert rank_of_gold(row, set(), TiePolicy("average")).rank == 2

    def test_filtered_competitor_removed(self):
        row = ScoreRow(query_for(1), np.array([0.9, 0.5, 0.1]))
        assert rank_of_gold(row, {0}, TiePolicy("average")).rank == 1

    def test_average_midpoint_rounds_half_up(self):
        # two better, three tied: positions {3,4,5}, midpoint 4
        scores = np.array([0.9, 0.8, 0.5, 0.5, 0.5, 0.1])
        row = ScoreRow(query_for(2, n=6), scores)
        assert rank_of_gold(row, set(), TiePolicy("average")).rank == 4
        # one better, one tied: positions {2,3}, midpoint 2.5 -> 3
        scores = np.array([0.9, 0.5, 0.5])
        row = ScoreRow(query_for(1), scores)
        assert rank_of_gold(row, set(), TiePolicy("average")).rank == 3

    @pytest.mark.parametrize("gold", [-1, 3])
    def test_gold_outside_row_rejected(self, gold):
        row = ScoreRow(query_for(gold), np.array([0.9, 0.5, 0.1]))
        with pytest.raises(ValidationError,
                           match=rf"^gold id {gold} outside score row of length 3$"):
            rank_of_gold(row, set(), TiePolicy("average"))

    @pytest.mark.parametrize("filter_id", [-1, -2, 4, 7])
    def test_filter_id_outside_row_rejected(self, filter_id):
        """An id below 0 would wrap to a candidate from the row's end, and one
        past the row would index outside it: both are one ValidationError."""
        row = ScoreRow(query_for(1), np.array([0.1, 0.5, 0.9, 0.2]))
        for ids in ([filter_id], np.array([2, filter_id]), {filter_id, 0}):
            with pytest.raises(ValidationError,
                               match=r"^filter id outside score row of length 4$"):
                rank_of_gold(row, ids, TiePolicy("average"))

    def test_repeated_filter_id_left_out_once(self):
        """An id given twice leaves its candidate out once: entity 2 scores
        above the gold, and without it two of the rest do too."""
        row = ScoreRow(query_for(1), np.array([0.9, 0.5, 0.8, 0.7]))
        for ids in ([2, 2], np.array([2, 2]), (2, 2, 2)):
            assert rank_of_gold(row, ids, TiePolicy("average")).rank == 3
        row = ScoreRow(query_for(1), np.array([0.1, 0.5, 0.9, 0.2]))
        assert rank_of_gold(row, [2, 2], TiePolicy("average")).rank == 1

    def test_gold_in_filter_rejected(self):
        row = ScoreRow(query_for(1), np.array([0.9, 0.5, 0.1]))
        with pytest.raises(ValidationError):
            rank_of_gold(row, {1}, TiePolicy("average"))

    def test_non_finite_scores_rejected(self):
        row = ScoreRow(query_for(1), np.array([0.9, np.nan, 0.1]))
        with pytest.raises(ValidationError):
            rank_of_gold(row, set(), TiePolicy("average"))

    def test_random_policy_requires_seed(self):
        with pytest.raises(ValidationError):
            TiePolicy("random")

    def test_random_policy_deterministic(self):
        scores = np.array([0.5] * 10)
        row = ScoreRow(query_for(3, n=10), scores)
        tie = TiePolicy("random", seed=42)
        first = rank_of_gold(row, set(), tie).rank
        assert all(rank_of_gold(row, set(), tie).rank == first for _ in range(5))
        assert 1 <= first <= 10

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError):
            TiePolicy("middle")

    def test_policy_is_a_value(self):
        """Two policies with the same fields are equal, and the repr names both."""
        tie = TiePolicy("random", seed=7)
        assert tie == TiePolicy("random", seed=7)
        assert tie != TiePolicy("random", seed=8)
        assert repr(tie) == "TiePolicy(policy='random', seed=7)"

    @given(data=st.data())
    @settings(max_examples=120)
    def test_matches_brute_force_oracle(self, data):
        n = data.draw(st.integers(2, 60))
        # coarse scores so ties actually occur
        scores = np.array(data.draw(st.lists(
            st.integers(0, 6), min_size=n, max_size=n)), dtype=float)
        gold = data.draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != gold]
        filter_ids = set(data.draw(st.lists(
            st.sampled_from(others), max_size=len(others), unique=True))) \
            if others else set()
        row = ScoreRow(query_for(gold, n=n), scores)

        for policy in ("optimistic", "pessimistic", "average"):
            got = rank_of_gold(row, filter_ids, TiePolicy(policy)).rank
            assert got == brute_force_rank(scores, gold, filter_ids, policy)

        opt = rank_of_gold(row, filter_ids, TiePolicy("optimistic")).rank
        avg = rank_of_gold(row, filter_ids, TiePolicy("average")).rank
        pes = rank_of_gold(row, filter_ids, TiePolicy("pessimistic")).rank
        assert opt <= avg <= pes
        raw = rank_of_gold(row, set(), TiePolicy("average")).rank
        assert avg <= raw
        rnd = rank_of_gold(row, filter_ids, TiePolicy("random", seed=9)).rank
        assert opt <= rnd <= pes

        # repeated ids, as a list, an array and a set: each candidate left out once
        repeated = data.draw(st.lists(st.sampled_from(others), max_size=2 * n))
        ties = {policy: TiePolicy(policy) for policy in ("optimistic", "pessimistic", "average")}
        expected = {policy: brute_force_rank(scores, gold, set(repeated), policy)
                    for policy in ties}
        ties["random"] = TiePolicy("random", seed=9)
        draw = ties["random"].adjustment(
            expected["pessimistic"] - expected["optimistic"], row.query)
        expected["random"] = brute_force_rank(scores, gold, set(repeated), "random", draw=draw)
        for ids in (repeated, np.array(repeated, dtype=np.int64), set(repeated)):
            assert {policy: rank_of_gold(row, ids, tie).rank
                    for policy, tie in ties.items()} == expected

    @given(data=st.data())
    @settings(max_examples=60)
    def test_permuting_non_gold_candidates_is_irrelevant(self, data):
        n = data.draw(st.integers(3, 40))
        scores = np.array(data.draw(st.lists(
            st.integers(0, 5), min_size=n, max_size=n)), dtype=float)
        gold = data.draw(st.integers(0, n - 1))
        others = [i for i in range(n) if i != gold]
        perm = data.draw(st.permutations(others))
        mapping = dict(zip(others, perm))
        mapping[gold] = gold
        permuted = np.empty_like(scores)
        for src, dst in mapping.items():
            permuted[dst] = scores[src]
        row, prow = ScoreRow(query_for(gold, n=n), scores), \
            ScoreRow(query_for(gold, n=n), permuted)
        for policy in ("optimistic", "pessimistic", "average"):
            tie = TiePolicy(policy)
            assert rank_of_gold(row, set(), tie).rank == \
                rank_of_gold(prow, set(), tie).rank


class TestRankFileIO:
    def test_parse_example(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\ttail\t3\n", encoding="utf-8")
        table = load_rank_file(path)
        assert len(table) == 1
        assert table.ranks.tolist() == [3]
        assert table.keys == ["a\tr\tb\ttail"]  # tail-masked: gold is "b"

    def test_rank_zero_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\ttail\t0\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="rank must be >= 1"):
            load_rank_file(path)

    def test_malformed_line_number_reported(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\ttail\t3\na\tr\tb\t4\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":2:"):
            load_rank_file(path)

    def test_bad_direction_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\tboth\t3\n", encoding="utf-8")
        with pytest.raises(ParseError, match="direction"):
            load_rank_file(path)

    @pytest.mark.parametrize("field", range(3), ids=["head", "relation", "tail"])
    def test_empty_label_rejected(self, tmp_path, field):
        """A label that is empty after trimming is a parse error, as in a triple file."""
        labels = ["a", "r", "b"]
        labels[field] = " "
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\thead\t1\n" + "\t".join(labels) + "\ttail\t3\n",
                        encoding="utf-8")
        with pytest.raises(ParseError,
                           match=r"r\.tsv:2: empty field after whitespace trimming$"):
            load_rank_file(path)

    def test_non_integer_rank_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\ttail\tx\n", encoding="utf-8")
        with pytest.raises(ParseError, match="integer"):
            load_rank_file(path)

    def test_popularity_attached_from_graph(self, tmp_path, toy_dataset):
        g, pop = load_dataset(toy_dataset)
        path = tmp_path / "r.tsv"
        path.write_text("a\tr1\tb\ttail\t2\n", encoding="utf-8")
        table = load_rank_file(path, g.entity_ids, popularity=pop)
        assert table.pops.tolist() == [pop[g.entity_ids["b"]]]

    def test_unknown_entity_warns_and_zeroes(self, tmp_path, toy_dataset, caplog):
        g, pop = load_dataset(toy_dataset)
        path = tmp_path / "r.tsv"
        path.write_text("zz\tr1\tunknown\ttail\t2\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_rank_file(path, g.entity_ids, popularity=pop)
        assert table.pops.tolist() == [0]
        assert "unknown to the vocabulary" in caplog.text

    def test_line_count(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("".join(f"h{i}\tr\tt{i}\thead\t{i + 1}\n"
                                for i in range(500)), encoding="utf-8")
        assert len(load_rank_file(path)) == 500

    def test_write_then_load_roundtrip(self, tmp_path):
        table = make_records(list(range(1, 11)), index=range(10))
        path = tmp_path / "r.tsv"
        write_rank_file(table, path)
        assert path.read_text(encoding="utf-8") == "".join(
            f"h{i}\tr\tt{i}\ttail\t{i + 1}\n" for i in range(10))
        loaded = load_rank_file(path)
        assert loaded.keys == table.keys
        assert loaded.ranks.tolist() == table.ranks.tolist()


def keyed(*keys: str) -> RankTable:
    """A rank table of library-built keys, which may repeat; every rank is 1."""
    return RankTable(list(keys), np.ones(len(keys), np.int64), np.zeros(len(keys), np.int64))


class TestCheckSameQueries:
    HEAD, TAIL, OTHER = "a\tr\tb\thead", "a\tr\tb\ttail", "x\tr\tb\thead"

    def test_same_keys_in_another_order_pass(self):
        check_same_queries({"a": make_records([1, 2, 3]),
                            "b": make_records([3, 2, 1], index=[2, 0, 1]),
                            "c": make_records([1, 1, 1], index=[1, 2, 0])})

    def test_divergence_message_of_two_tables(self):
        """The first divergence is taken in sorted order, not in file order."""
        with pytest.raises(ValidationError) as error:
            check_same_queries({"a": keyed(self.TAIL, self.HEAD),
                                "b": keyed(self.OTHER, self.TAIL)})
        assert str(error.value) == (
            "models 'a' and 'b' rank different query sets; first divergence: "
            "('a', 'r', 'b', 'head') vs ('a', 'r', 'b', 'tail')")

    def test_divergence_message_of_three_tables(self):
        """A table that matches the first in another order passes; the next
        that differs is named against the first."""
        with pytest.raises(ValidationError) as error:
            check_same_queries({"a": keyed(self.HEAD, self.TAIL),
                                "b": keyed(self.TAIL, self.HEAD),
                                "c": keyed(self.HEAD, self.OTHER)})
        assert str(error.value) == (
            "models 'a' and 'c' rank different query sets; first divergence: "
            "('a', 'r', 'b', 'tail') vs ('x', 'r', 'b', 'head')")

    def test_repeated_keys_count(self):
        """Tables built by the library may repeat a key: [a, a, b] and [a, b, b]
        hold the same set of keys, but not the same queries."""
        with pytest.raises(ValidationError) as error:
            check_same_queries({"a": keyed(self.HEAD, self.HEAD, self.TAIL),
                                "b": keyed(self.HEAD, self.TAIL, self.TAIL)})
        assert str(error.value) == (
            "models 'a' and 'b' rank different query sets; first divergence: "
            "('a', 'r', 'b', 'head') vs ('a', 'r', 'b', 'tail')")

    def test_repeated_keys_in_another_order_pass(self):
        check_same_queries({"a": keyed(self.HEAD, self.HEAD, self.TAIL),
                            "b": keyed(self.TAIL, self.HEAD, self.HEAD)})


@dataclass(frozen=True)
class _Names:
    """Labels r0, r1, ... of a vocabulary too large to list."""

    size: int

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int) -> str:
        return f"r{i}"


def write_score_file(path, graph, rows):
    """rows: list of (head, relation, tail, direction, scores)."""
    with path.open("w", encoding="utf-8") as handle:
        for head, rel, tail, direction, scores in rows:
            handle.write(json.dumps({
                "head": head, "relation": rel, "tail": tail,
                "direction": direction, "scores": list(scores)}) + "\n")


class TestRankScoreFile:
    @pytest.fixture
    def small(self, tmp_path):
        g = graph_of(("a", "r", "b"), ("c", "r", "b"),
                     test=(("a", "r", "b"),))
        pop = compute_popularity(g)
        return tmp_path, g, pop

    def score_rows(self, g, head_scores, tail_scores):
        return [("a", "r", "b", "head", head_scores),
                ("a", "r", "b", "tail", tail_scores)]

    def test_end_to_end_filtering(self, small):
        tmp_path, g, pop = small
        # entity order: a, b, c.  head query gold=a; c is filtered (c,r,b known)
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, self.score_rows(
            g, [0.2, 0.1, 0.9], [0.1, 0.8, 0.9]))
        table = rank_score_file(path, g, pop, TiePolicy("average"))
        assert table.keys == ["a\tr\tb\thead", "a\tr\tb\ttail"]
        # head: c filtered away; tail: c outranks b, not filtered
        assert table.ranks.tolist() == [1, 2]
        assert table.pops.tolist() == [pop[g.entity_ids["a"]], pop[g.entity_ids["b"]]]

    def test_raw_mode_keeps_competitors(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, self.score_rows(
            g, [0.2, 0.1, 0.9], [0.1, 0.8, 0.9]))
        raw = rank_score_file(path, g, pop, TiePolicy("average"), raw=True)
        assert raw.ranks[0] == 2  # the head query
        filtered = rank_score_file(path, g, pop, TiePolicy("average"))
        assert filtered.keys == raw.keys
        assert (filtered.ranks <= raw.ranks).all()

    def test_missing_query_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("a", "r", "b", "head", [0.2, 0.1, 0.9])])
        with pytest.raises(ValidationError) as error:
            rank_score_file(path, g, pop, TiePolicy("average"))
        assert str(error.value) == ("score file covers 1 of 2 test queries; "
                                    "first missing: ('a', 'r', 'b', 'tail')")

    def test_allow_partial(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("a", "r", "b", "head", [0.2, 0.1, 0.9])])
        table = rank_score_file(path, g, pop, TiePolicy("average"),
                                allow_partial=True)
        assert len(table) == 1

    def test_duplicate_row_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        row = ("a", "r", "b", "head", [0.2, 0.1, 0.9])
        write_score_file(path, g, [row, row])
        with pytest.raises(ValidationError, match=r"s\.jsonl:2: duplicate"):
            rank_score_file(path, g, pop, TiePolicy("average"))

    def test_non_finite_row_reported_at_its_line(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        # the tail row is missing too; the bad row is reported first
        write_score_file(path, g, [("a", "r", "b", "head", [0.2, float("nan"), 0.9])])
        with pytest.raises(ValidationError, match=r"s\.jsonl:1: non-finite score"):
            rank_score_file(path, g, pop, TiePolicy("average"))

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_oracle(self, data):
        """Every tie policy, filtered and raw, on shuffled partial files with
        heavy ties and triples repeated across the three splits."""
        rows = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1),
                                            st.integers(0, 5)), min_size=1, max_size=20))
        splits = data.draw(st.lists(st.sets(st.sampled_from(SPLITS), min_size=1),
                                    min_size=20, max_size=20))
        g = graph_in_splits(rows, splits)
        pop = compute_popularity(g)
        queries = make_queries(g, pop)
        scores = [np.array(data.draw(st.lists(st.integers(0, 2), min_size=g.n_entities,
                                              max_size=g.n_entities)), dtype=float)
                  for _ in queries]
        order = data.draw(st.permutations(range(len(queries))))
        kept = order[:data.draw(st.integers(1, len(queries)))]
        seed = data.draw(st.integers(0, 2**32))
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "s.jsonl"
            write_score_file(path, g, [(*queries[i].key(), scores[i]) for i in kept])
            for raw in (False, True):
                for policy in TiePolicy.POLICIES:
                    tie = TiePolicy(policy, seed=seed if policy == "random" else None)
                    got = rank_score_file(path, g, pop, tie, raw=raw, allow_partial=True)
                    expected, pops = [], []
                    for i in sorted(kept):
                        query, row = queries[i], scores[i]
                        excluded = set() if raw else naive_filter(g, query)
                        ties = sum(1 for e in range(g.n_entities) if e != query.gold_id
                                   and e not in excluded and row[e] == row[query.gold_id])
                        draw = documented_draw(seed, query, ties)
                        expected.append(("\t".join(query.key()), brute_force_rank(
                            row, query.gold_id, excluded, policy, draw)))
                        pops.append(sum(query.gold_id in (h, t)
                                        for h, _, t in g.train.tolist()))
                    assert list(zip(got.keys, got.ranks.tolist())) == expected
                    assert got.pops.dtype == np.int64 and got.pops.tolist() == pops

    def test_holds_one_row_at_a_time(self, tmp_path):
        """400 rows x 5,000 entities would hold 16 MB as float64 rows."""
        n_entities, n_test = 5_000, 200
        train = [(f"e{i}", f"r{i % 7}", f"e{(i * 31 + 1) % n_entities}")
                 for i in range(n_entities)]
        test = [(f"e{i}", "r0", f"e{i + 1}") for i in range(0, 2 * n_test, 2)]
        g = graph_of(*train, test=test)
        pop = compute_popularity(g)
        rng = np.random.default_rng(5)
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [(*q.key(), rng.integers(0, 50, n_entities).tolist())
                                   for q in make_queries(g, pop)])
        rank_score_file(path, g, pop, TiePolicy("average"))  # lazy imports, filter index
        tracemalloc.start()
        try:
            table = rank_score_file(path, g, pop, TiePolicy("average"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == 2 * n_test
        row_bytes = 8 * n_entities
        assert peak < 40 * row_bytes, f"traced peak {peak} bytes"

    def test_holds_no_object_per_test_query(self, tmp_path):
        """With 4 score rows and 20,000 test triples, the traced peak per test query
        is below 48 bytes: 318 -> 97 -> 14 here.  A row finds its test triple by
        binary search over the triples as sorted records, and the rank column is
        the one array per query; a Query object and a key string per query, with
        a dict over the keys, made the 318, and a dict from id-triple tuple to
        test row the 97."""
        n_entities, n_test = 2_000, 20_000
        rng = np.random.default_rng(5)
        drawn = rng.integers(0, [n_entities, 20, n_entities], size=(n_test + 500, 3))
        test = sorted({(f"e{h}", f"r{r}", f"e{t}") for h, r, t in drawn.tolist()})[:n_test]
        train = [(f"e{i}", "r0", f"e{(i + 1) % n_entities}") for i in range(n_entities)]
        g = graph_of(*train, test=test)
        pop = compute_popularity(g)
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [(*triple, direction, rng.integers(0, 50, n_entities).tolist())
                                   for triple in test[:2] for direction in ("head", "tail")])
        tie = TiePolicy("average")
        rank_score_file(path, g, pop, tie, allow_partial=True)  # lazy imports, filter index
        tracemalloc.start()
        try:
            table = rank_score_file(path, g, pop, tie, allow_partial=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(g.test) == n_test and len(table) == 4
        assert peak < 48 * 2 * n_test, f"traced peak {peak} bytes"

    def test_raw_ranks_where_a_filter_key_could_wrap(self, tmp_path):
        """rank --raw runs where |E|**2 * |R| >= 2**63.  These two test triples'
        int64 key (h*|R| + r)*|E| + t is the same modulo 2**64, so a lookup by that
        key would confuse them."""
        g = graph_of(("a", "r0", "b"), ("b", "r0", "c"), test=(("a", "r0", "a"),))
        n_relations, r = 2 ** 62, (2 ** 62 - 1) // 3
        g.relation_labels = _Names(n_relations)
        g.relation_ids = {"r0": 0, f"r{r}": r}
        g.test = np.array([[1, r, 1], [0, 0, 0]], dtype=np.int64)
        keys = (g.test[:, 0] * n_relations + g.test[:, 1]) * g.n_entities + g.test[:, 2]
        assert g.n_entities ** 2 * n_relations >= 2 ** 63 and keys[0] == keys[1]
        pop = compute_popularity(g)
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("b", f"r{r}", "b", "tail", [0.9, 0.5, 0.5]),
                                   ("a", "r0", "a", "head", [0.2, 0.1, 0.3]),
                                   ("b", f"r{r}", "b", "head", [0.5, 0.9, 0.1]),
                                   ("a", "r0", "a", "tail", [0.1, 0.2, 0.3])])
        table = rank_score_file(path, g, pop, TiePolicy("pessimistic"), raw=True)
        assert table.keys == [f"b\tr{r}\tb\thead", f"b\tr{r}\tb\ttail",
                              "a\tr0\ta\thead", "a\tr0\ta\ttail"]
        assert table.ranks.tolist() == [1, 3, 2, 3]
        assert table.pops.tolist() == [2, 2, 1, 1]

    def test_non_test_query_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, self.score_rows(
            g, [0.2, 0.1, 0.9], [0.1, 0.8, 0.9]) +
            [("c", "r", "b", "head", [0.2, 0.1, 0.9])])
        with pytest.raises(ValidationError, match="does not match"):
            rank_score_file(path, g, pop, TiePolicy("average"))

    def test_score_length_mismatch_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("a", "r", "b", "head", [0.2, 0.1])])
        with pytest.raises(ValidationError, match="length"):
            rank_score_file(path, g, pop, TiePolicy("average"))

    def test_unknown_label_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("zz", "r", "b", "head", [0.2, 0.1, 0.9])])
        with pytest.raises(ValidationError, match="vocabulary"):
            rank_score_file(path, g, pop, TiePolicy("average"),
                            allow_partial=True)

    def test_invalid_json_line_reported(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        path.write_text('{"head": "a"\n', encoding="utf-8")
        with pytest.raises(ParseError, match=r":1:"):
            rank_score_file(path, g, pop, TiePolicy("average"))

    def test_output_in_canonical_query_order(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        rows = self.score_rows(g, [0.2, 0.1, 0.9], [0.1, 0.8, 0.9])
        write_score_file(path, g, rows[::-1])  # tail row first in the file
        table = rank_score_file(path, g, pop, TiePolicy("average"))
        assert [key.split("\t")[3] for key in table.keys] == ["head", "tail"]


def documented_draw(seed: int, query: Query, tie_count: int) -> int:
    """The seeded random tie draw: PCG64 over [seed, sha256 of each label, direction]."""
    if not tie_count:
        return 0

    def entropy(label):
        return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")

    rng = np.random.default_rng([seed, entropy(query.head), entropy(query.relation),
                                 entropy(query.tail),
                                 0 if query.direction is Direction.HEAD else 1])
    return int(rng.integers(0, tie_count + 1))


class TestRandomTieDraw:
    def test_oracle_reproduces_seeded_draw(self):
        """The random draw is a published convention: PCG64 seeded with
        [seed, sha256(head), sha256(relation), sha256(tail), direction]."""
        scores = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        query = query_for(2, n=5, head="hh", relation="rr", tail="tt")
        row = ScoreRow(query, scores)
        got = rank_of_gold(row, set(), TiePolicy("random", seed=123)).rank
        # four non-gold candidates tie with the gold, none scores higher
        assert got == 1 + 0 + documented_draw(123, query, 4)
