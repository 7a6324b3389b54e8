"""Query generation, filtering, tie policies, and rank/score file I/O."""

from __future__ import annotations

import hashlib
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_rank
from probe_eval.errors import ParseError, ValidationError
from probe_eval.kg_data import build_graph, compute_popularity, load_dataset
from probe_eval.ranking import (Direction, Query, RankRecord, ScoreRow,
                                TiePolicy, filter_set, load_rank_file,
                                make_queries, rank_all, rank_of_gold,
                                rank_score_file, write_rank_file)


def graph_of(*train, valid=(), test=()):
    return build_graph(train, valid, test)


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
        assert filter_set(head_q, g) == {g.entity_ids["c"]}

    def test_no_shared_pairs_gives_empty_filter(self):
        g = graph_of(("a", "r", "b"), ("c", "r2", "d"), test=(("a", "r", "b"),))
        pop = compute_popularity(g)
        for q in make_queries(g, pop):
            assert filter_set(q, g) == set()

    def test_unresolved_query_rejected(self):
        g = graph_of(("a", "r", "b"))
        with pytest.raises(ValidationError):
            filter_set(Query("x", "r", "y", Direction.TAIL), g)

    @given(rows=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 2),
                                   st.integers(0, 9)),
                         min_size=1, max_size=50),
           split_at=st.integers(0, 49))
    @settings(max_examples=50)
    def test_matches_brute_force_substitution(self, rows, split_at):
        """Filter == all entities whose substitution hits a known triple."""
        triples = [(f"e{h}", f"r{r}", f"e{t}") for h, r, t in rows]
        train, test = triples[:max(1, split_at)], triples[max(1, split_at):]
        if not test:
            test = [triples[-1]]
        g = graph_of(*train, test=test)
        pop = compute_popularity(g)
        known = {tuple(row) for row in np.vstack([g.train, g.valid, g.test])}
        for q in make_queries(g, pop):
            expected = set()
            for candidate in range(g.n_entities):
                if candidate == q.gold_id:
                    continue
                if q.direction is Direction.HEAD:
                    probe = (candidate, q.relation_id, q.tail_id)
                else:
                    probe = (q.head_id, q.relation_id, candidate)
                if probe in known:
                    expected.add(candidate)
            assert filter_set(q, g) == expected


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


class TestRankRecord:
    def test_rank_lower_bound(self):
        with pytest.raises(ValidationError):
            RankRecord(query_for(0), 0)


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

    def test_non_integer_rank_rejected(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("a\tr\tb\ttail\tx\n", encoding="utf-8")
        with pytest.raises(ParseError, match="integer"):
            load_rank_file(path)

    def test_popularity_attached_from_graph(self, tmp_path, toy_dataset):
        g, pop = load_dataset(toy_dataset)
        path = tmp_path / "r.tsv"
        path.write_text("a\tr1\tb\ttail\t2\n", encoding="utf-8")
        table = load_rank_file(path, graph=g, popularity=pop)
        assert table.pops.tolist() == [pop[g.entity_ids["b"]]]

    def test_unknown_entity_warns_and_zeroes(self, tmp_path, toy_dataset, caplog):
        g, pop = load_dataset(toy_dataset)
        path = tmp_path / "r.tsv"
        path.write_text("zz\tr1\tunknown\ttail\t2\n", encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            table = load_rank_file(path, graph=g, popularity=pop)
        assert table.pops.tolist() == [0]
        assert "unknown to the vocabulary" in caplog.text

    def test_line_count(self, tmp_path):
        path = tmp_path / "r.tsv"
        path.write_text("".join(f"h{i}\tr\tt{i}\thead\t{i + 1}\n"
                                for i in range(500)), encoding="utf-8")
        assert len(load_rank_file(path)) == 500

    def test_write_then_load_roundtrip(self, tmp_path):
        records = [RankRecord(query_for(0, head=f"h{i}", tail=f"t{i}"), i + 1)
                   for i in range(10)]
        path = tmp_path / "r.tsv"
        write_rank_file(records, path)
        loaded = load_rank_file(path)
        assert [(tuple(k.split("\t")), r) for k, r in zip(loaded.keys, loaded.ranks.tolist())] == \
            [(r.query.key(), r.rank) for r in records]


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
        records = rank_score_file(path, g, pop, TiePolicy("average"))
        by_dir = {r.query.direction: r for r in records}
        assert by_dir[Direction.HEAD].rank == 1  # c filtered away
        assert by_dir[Direction.TAIL].rank == 2  # c outranks b, not filtered

    def test_raw_mode_keeps_competitors(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, self.score_rows(
            g, [0.2, 0.1, 0.9], [0.1, 0.8, 0.9]))
        records = rank_score_file(path, g, pop, TiePolicy("average"), raw=True)
        by_dir = {r.query.direction: r for r in records}
        assert by_dir[Direction.HEAD].rank == 2
        filtered = rank_score_file(path, g, pop, TiePolicy("average"))
        for direction in (Direction.HEAD, Direction.TAIL):
            raw_rank = {r.query.direction: r for r in records}[direction].rank
            f_rank = {r.query.direction: r
                      for r in filtered}[direction].rank
            assert f_rank <= raw_rank

    def test_missing_query_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("a", "r", "b", "head", [0.2, 0.1, 0.9])])
        with pytest.raises(ValidationError, match="first missing"):
            rank_score_file(path, g, pop, TiePolicy("average"))

    def test_allow_partial(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, [("a", "r", "b", "head", [0.2, 0.1, 0.9])])
        records = rank_score_file(path, g, pop, TiePolicy("average"),
                                  allow_partial=True)
        assert len(records) == 1

    def test_duplicate_row_is_error(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        row = ("a", "r", "b", "head", [0.2, 0.1, 0.9])
        write_score_file(path, g, [row, row])
        with pytest.raises(ValidationError, match="duplicate"):
            rank_score_file(path, g, pop, TiePolicy("average"))

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
        records = rank_score_file(path, g, pop, TiePolicy("average"))
        assert [r.query.direction for r in records] == \
            [Direction.HEAD, Direction.TAIL]

    def test_threads_do_not_change_results(self, small):
        tmp_path, g, pop = small
        path = tmp_path / "s.jsonl"
        write_score_file(path, g, self.score_rows(
            g, [0.2, 0.1, 0.9], [0.1, 0.8, 0.9]))
        base = rank_score_file(path, g, pop, TiePolicy("average"))
        threaded = rank_score_file(path, g, pop, TiePolicy("average"), threads=4)
        assert [(r.query.key(), r.rank) for r in base] == \
            [(r.query.key(), r.rank) for r in threaded]


class TestRandomTieDraw:
    def test_oracle_reproduces_seeded_draw(self):
        """The random draw is a published convention: PCG64 seeded with
        [seed, sha256(head), sha256(relation), sha256(tail), direction]."""
        scores = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        query = query_for(2, n=5, head="hh", relation="rr", tail="tt")
        row = ScoreRow(query, scores)
        got = rank_of_gold(row, set(), TiePolicy("random", seed=123)).rank

        def entropy(label):
            return int.from_bytes(
                hashlib.sha256(label.encode()).digest()[:8], "big")

        rng = np.random.default_rng(
            [123, entropy("hh"), entropy("rr"), entropy("tt"), 1])
        ties = 4  # four non-gold candidates tie with the gold
        expected = 1 + 0 + int(rng.integers(0, ties + 1))
        assert got == expected


def test_rank_all_preserves_input_order(toy_dataset):
    g, pop = load_dataset(toy_dataset)
    queries = make_queries(g, pop)
    rng = np.random.default_rng(3)
    rows = [ScoreRow(q, rng.random(g.n_entities)) for q in queries]
    sequential = rank_all(rows, g, TiePolicy("average"))
    threaded = rank_all(rows, g, TiePolicy("average"), threads=3)
    assert [r.rank for r in sequential] == [r.rank for r in threaded]
    assert [r.query.key() for r in sequential] == [q.key() for q in queries]
