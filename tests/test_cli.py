"""Exit codes, output formats, manifests, and rerun determinism."""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import logging
import math
import subprocess
import sys
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_toy_dataset
from probe_eval import cli
from probe_eval.cli import dispatch
from probe_eval.errors import ValidationError


def run_cli(*argv) -> int:
    return dispatch(list(argv))


def single_error_line(capsys, category: str) -> str:
    """The one stderr line, which must carry the given error category."""
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"error[{category}]:"), err
    return lines[0]


def write_profile(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def rankfile(tmp_path):
    path = tmp_path / "ranks.tsv"
    path.write_text(
        "d\tr1\tb\thead\t3\n"
        "d\tr1\tb\ttail\t1\n"
        "a\tr2\tc\thead\t2\n"
        "a\tr2\tc\ttail\t4\n",
        encoding="utf-8")
    return path


class TestStats:
    def test_json_to_stdout(self, toy_dataset, capsys):
        assert run_cli("stats", "--dataset", str(toy_dataset)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_entities"] == 4
        assert payload["n_relations"] == 2
        assert payload["n_triples"] == 4
        # the keys are DatasetStats' fields
        assert set(payload) == {"n_entities", "n_relations", "n_triples",
                                "delta_avg", "delta_max"}

    def test_text_format(self, toy_dataset, capsys):
        assert run_cli("stats", "--dataset", str(toy_dataset),
                       "--format", "text") == 0
        out = capsys.readouterr().out
        assert "n_entities" in out and "delta_max" in out

    def test_out_file_and_manifest(self, toy_dataset, tmp_path):
        out = tmp_path / "stats.json"
        assert run_cli("stats", "--dataset", str(toy_dataset),
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["n_entities"] == 4
        manifest = json.loads((tmp_path / "stats.json.manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert len(manifest["inputs"]) == 3
        assert all(digest.startswith("sha256:")
                   for digest in manifest["inputs"].values())

    def test_export_vocab(self, toy_dataset, tmp_path, capsys):
        vocab = tmp_path / "vocab.tsv"
        assert run_cli("stats", "--dataset", str(toy_dataset),
                       "--export-vocab", str(vocab)) == 0
        lines = vocab.read_text().splitlines()
        assert lines[0].split("\t") == ["a", "0"]

    def test_export_vocab_gets_a_manifest(self, toy_dataset, tmp_path, capsys):
        """The vocabulary is an output file; the report on stdout gets no manifest."""
        vocab = tmp_path / "vocab.tsv"
        assert run_cli("stats", "--dataset", str(toy_dataset),
                       "--export-vocab", str(vocab)) == 0
        assert json.loads(capsys.readouterr().out)["n_entities"] == 4
        assert vocab.read_bytes() == b"a\t0\nb\t1\nc\t2\nd\t3\n"
        assert sorted(p.name for p in tmp_path.iterdir() if p.is_file()) == [
            "vocab.tsv", "vocab.tsv.manifest.json"]
        manifest = json.loads((tmp_path / "vocab.tsv.manifest.json").read_text())
        assert (manifest["command"], manifest["config"]) == ("stats", {})
        assert sorted(manifest["inputs"]) == [
            str(toy_dataset / name) for name in ("test.txt", "train.txt", "valid.txt")]

    def test_empty_dataset_has_no_mean_popularity(self, tmp_path, capsys):
        """Without entities delta_avg is null in JSON and "undefined" in text."""
        dataset = tmp_path / "empty"
        dataset.mkdir()
        for name in ("train.txt", "valid.txt", "test.txt"):
            (dataset / name).write_text("", encoding="utf-8")
        assert run_cli("stats", "--dataset", str(dataset)) == 0
        assert json.loads(capsys.readouterr().out) == {
            "n_entities": 0, "n_relations": 0, "n_triples": 0,
            "delta_avg": None, "delta_max": 0}
        assert run_cli("stats", "--dataset", str(dataset), "--format", "text") == 0
        assert "delta_avg undefined" in " ".join(capsys.readouterr().out.split())

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code = run_cli("stats", "--dataset", str(tmp_path / "nope"))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[io]:")
        assert "nope" in err


# toy test split: (d, r1, b) and (a, r2, c); entity order a,b,c,d
TOY_SCORE_ROWS = [
    {"head": "d", "relation": "r1", "tail": "b", "direction": "head",
     "scores": [0.1, 0.2, 0.3, 0.9]},
    {"head": "d", "relation": "r1", "tail": "b", "direction": "tail",
     "scores": [0.5, 0.4, 0.3, 0.2]},
    {"head": "a", "relation": "r2", "tail": "c", "direction": "head",
     "scores": [0.9, 0.1, 0.2, 0.3]},
    {"head": "a", "relation": "r2", "tail": "c", "direction": "tail",
     "scores": [0.2, 0.8, 0.4, 0.1]},
]


class TestRank:
    @pytest.fixture
    def scores_file(self, toy_dataset, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in TOY_SCORE_ROWS),
                        encoding="utf-8")
        return path

    def test_rank_writes_rankfile_and_manifest(self, toy_dataset, scores_file,
                                               tmp_path):
        out = tmp_path / "out.tsv"
        assert run_cli("rank", "--scores", str(scores_file),
                       "--dataset", str(toy_dataset), "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].split("\t")[:4] == ["d", "r1", "b", "head"]
        assert (tmp_path / "out.tsv.manifest.json").exists()

    def test_random_tie_without_seed_fails(self, toy_dataset, scores_file,
                                           tmp_path, capsys):
        code = run_cli("rank", "--scores", str(scores_file),
                       "--dataset", str(toy_dataset), "--tie", "random",
                       "--out", str(tmp_path / "o.tsv"))
        assert code == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        ([], "random tie policy requires an explicit seed"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["no-seed", "negative-seed"])
    def test_tie_policy_checked_before_the_dataset_is_read(self, tmp_path, capsys,
                                                           flags, message):
        out = tmp_path / "o.tsv"
        assert run_cli("rank", "--scores", str(tmp_path / "missing.jsonl"),
                       "--dataset", str(tmp_path / "nope"), "--tie", "random", *flags,
                       "--out", str(out)) == 1
        assert single_error_line(capsys, "validation") == f"error[validation]: {message}"
        assert not out.exists()

    def test_partial_scores_rejected_by_default(self, toy_dataset, scores_file,
                                                tmp_path, capsys):
        trimmed = tmp_path / "partial.jsonl"
        trimmed.write_text(scores_file.read_text().splitlines()[0] + "\n",
                           encoding="utf-8")
        code = run_cli("rank", "--scores", str(trimmed),
                       "--dataset", str(toy_dataset),
                       "--out", str(tmp_path / "o.tsv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error[validation]: score file covers 1 of 4 test queries; "
                       "first missing: ('d', 'r1', 'b', 'tail')\n")


class TestEval:
    def test_json_output(self, toy_dataset, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile),
                       "--dataset", str(toy_dataset)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"probe", "mr", "mrr", "hits", "strata", "config"}
        assert payload["strata"]
        assert all(set(stratum) == {"count", "hi", "lo", "score"}  # Stratum's fields
                   for stratum in payload["strata"])
        assert payload["mr"] == 2.5
        assert payload["config"]["alpha"] == 1.0
        assert payload["config"]["entity_count"] == 4

    def test_entities_override_without_dataset(self, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile), "--entities", "10") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["entity_count"] == 10

    def test_affine_needs_entity_source(self, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile)) == 1
        assert "entity count" in capsys.readouterr().err

    def test_raw_transform_needs_no_entity_source(self, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile), "--no-affine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["config"]["entity_count"] is None
        assert payload["config"]["affine"] is False
        assert payload["mr"] == 2.5

    def test_negative_alpha_cites_requirement(self, toy_dataset, rankfile, capsys):
        code = run_cli("eval", "--ranks", str(rankfile),
                       "--dataset", str(toy_dataset), "--alpha", "-1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error[validation]:")
        assert "alpha must be > 0" in err

    def test_missing_rank_file_io_error(self, toy_dataset, capsys):
        code = run_cli("eval", "--ranks", "missing.tsv",
                       "--dataset", str(toy_dataset))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error[io]:")
        assert "missing.tsv" in err

    def test_arguments_checked_before_rank_file_is_read(self, capsys):
        assert run_cli("eval", "--ranks", "missing.tsv", "--entities", "1") == 1
        assert single_error_line(capsys, "validation").endswith(
            "--entities must be >= 2, got 1")

    def test_metric_flags_checked_before_the_dataset_is_read(self, tmp_path, capsys):
        """An entity count taken from the dataset is not needed to check them."""
        assert run_cli("eval", "--ranks", "missing.tsv", "--dataset", str(tmp_path / "nope"),
                       "--epsilon", "0") == 1
        assert single_error_line(capsys, "validation") == \
            "error[validation]: epsilon must be > 0, got 0.0"

    def test_hits_below_one_rejected_before_any_file_is_read(self, tmp_path, capsys):
        assert run_cli("eval", "--ranks", "missing.tsv", "--dataset", str(tmp_path / "nope"),
                       "--hits", "0") == 1
        assert single_error_line(capsys, "validation") == \
            "error[validation]: --hits cutoffs must be >= 1, got [0]"

    def test_hits_must_ascend_strictly(self, rankfile, capsys):
        """A repeated cutoff would collapse into one JSON key."""
        assert run_cli("eval", "--ranks", str(rankfile), "--entities", "10",
                       "--hits", "1,1,3") == 1
        assert single_error_line(capsys, "validation").endswith(
            "--hits must be strictly ascending, got [1, 1, 3]")
        assert capsys.readouterr().out == ""

    def test_csv_format(self, toy_dataset, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile),
                       "--dataset", str(toy_dataset), "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,key,value"
        assert any(line.startswith("probe,,") for line in lines)
        assert any(line.startswith("hits,10,") for line in lines)

    def test_explicit_strata(self, toy_dataset, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile),
                       "--dataset", str(toy_dataset), "--strata", "0,1,2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert [s["lo"] for s in payload["strata"]] == [0, 1, 2]

    def test_rerun_byte_identical(self, toy_dataset, rankfile, tmp_path):
        out = tmp_path / "a.json"
        argv = ("eval", "--ranks", str(rankfile), "--dataset", str(toy_dataset),
                "--beta", "0.4", "--out", str(out))
        snapshots = []
        for _ in range(2):
            assert run_cli(*argv) == 0
            snapshots.append((
                out.read_bytes(),
                json.loads((tmp_path / "a.json.manifest.json").read_text())))
        first_data, first_manifest = snapshots[0]
        second_data, second_manifest = snapshots[1]
        assert first_data == second_data
        first_manifest.pop("created_utc")
        second_manifest.pop("created_utc")
        assert first_manifest == second_manifest  # only the timestamp may differ

    def test_threads_byte_identical(self, toy_dataset, rankfile, tmp_path):
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"t{threads}.json"
            assert run_cli("eval", "--ranks", str(rankfile),
                           "--dataset", str(toy_dataset),
                           "--threads", threads, "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSweepCommand:
    def ranks_for(self, tmp_path, name, ranks):
        path = tmp_path / f"{name}.tsv"
        path.write_text("".join(f"q{i:05d}\tr\te{i:05d}\ttail\t{r}\n"
                                for i, r in enumerate(ranks)), encoding="utf-8")
        return path

    def test_outputs_and_flip_detection(self, tmp_path, capsys):
        sharp = self.ranks_for(tmp_path, "sharp", [1] * 6 + [100] * 4)
        steady = self.ranks_for(tmp_path, "steady", [2] * 10)
        out = tmp_path / "sweepout"
        assert run_cli("sweep", "--ranks", f"sharp={sharp}", f"steady={steady}",
                       "--entities", "10000", "--out", str(out)) == 0
        for name in ("surface.csv", "rankings.json", "flips.json",
                     "histogram.csv", "manifest.json"):
            assert (out / name).exists(), name
        flips = json.loads((out / "flips.json").read_text())
        assert any(set(f["pair"]) == {"sharp", "steady"} and f["alpha"] == 0.25
                   for f in flips)
        # the keys are the fields of Flip and CellRanking
        assert all(set(f) == {"alpha", "beta", "base_order", "cell_order", "pair"}
                   for f in flips)
        rankings = json.loads((out / "rankings.json").read_text())
        assert all(set(cell) == {"alpha", "beta", "order", "ties"}
                   for cell in rankings["cells"])
        base_cell = next(c for c in rankings["cells"]
                         if c["alpha"] == 1.0 and c["beta"] == 0.0)
        assert base_cell["order"] == ["sharp", "steady"]
        surface = (out / "surface.csv").read_text().splitlines()
        assert len(surface) == 1 + 2 * 16

    def test_bad_ranks_argument(self, tmp_path, capsys):
        assert run_cli("sweep", "--ranks", "nofile.tsv",
                       "--entities", "10", "--out", str(tmp_path / "o")) == 1
        assert "name=path" in capsys.readouterr().err

    def test_duplicate_model_name_rejected(self, tmp_path, capsys):
        a = self.ranks_for(tmp_path, "a", [1, 2])
        out = tmp_path / "o"
        assert run_cli("sweep", "--ranks", f"m={a}", f"m={a}",
                       "--entities", "10", "--out", str(out)) == 1
        assert single_error_line(capsys, "validation") == \
            "error[validation]: duplicate model name 'm'"
        assert not out.exists()

    def test_mismatched_models_rejected(self, tmp_path, capsys):
        a = self.ranks_for(tmp_path, "a", [1, 2])
        b = self.ranks_for(tmp_path, "b", [1, 2, 3])
        assert run_cli("sweep", "--ranks", f"a={a}", f"b={b}",
                       "--entities", "10", "--out", str(tmp_path / "o")) == 1

    def test_threads_byte_identical(self, tmp_path):
        a = self.ranks_for(tmp_path, "a", list(range(1, 400)))
        b = self.ranks_for(tmp_path, "b", [2] * 399)
        outputs = {}
        for threads in ("1", "4"):
            out = tmp_path / f"out{threads}"
            assert run_cli("sweep", "--ranks", f"a={a}", f"b={b}",
                           "--entities", "10000", "--threads", threads,
                           "--out", str(out)) == 0
            outputs[threads] = {
                name: (out / name).read_bytes()
                for name in ("surface.csv", "rankings.json", "flips.json",
                             "histogram.csv")}
        assert outputs["1"] == outputs["4"]


class TestCompare:
    def test_text_table(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("q\tr\te\ttail\t1\nq2\tr\te2\ttail\t4\n", encoding="utf-8")
        b.write_text("q\tr\te\ttail\t2\nq2\tr\te2\ttail\t2\n", encoding="utf-8")
        assert run_cli("compare", "--ranks", f"a={a}", f"b={b}",
                       "--entities", "100") == 0
        out = capsys.readouterr().out
        assert "probe" in out and "mrr" in out and "hits@10" in out
        assert "a" in out.splitlines()[0] and "b" in out.splitlines()[0]

    def test_json_mode(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("q\tr\te\ttail\t1\n", encoding="utf-8")
        b.write_text("q\tr\te\ttail\t2\n", encoding="utf-8")
        assert run_cli("compare", "--ranks", f"a={a}", f"b={b}",
                       "--entities", "100", "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["models"]) == {"a", "b"}

    def test_requires_exactly_two(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        a.write_text("q\tr\te\ttail\t1\n", encoding="utf-8")
        assert run_cli("compare", "--ranks", f"a={a}",
                       "--entities", "100") == 1

    def test_fewer_queries_rejected(self, rankfile, tmp_path, capsys):
        one = tmp_path / "one.tsv"
        one.write_text(rankfile.read_text(encoding="utf-8").splitlines(keepends=True)[0],
                       encoding="utf-8")
        assert run_cli("compare", "--ranks", f"full={rankfile}", f"one={one}",
                       "--entities", "10") == 1
        assert single_error_line(capsys, "validation").endswith(
            "model 'one' has 1 records but 'full' has 4")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("source", ["dataset", "entities"])
    def test_model_blocks_equal_eval_output(self, toy_dataset, rankfile, tmp_path,
                                            capsys, source):
        """eval and compare score through one path: each model's block is
        that file's eval JSON, and the echoed config is eval's."""
        other = tmp_path / "other.tsv"
        other.write_text("a\tr2\tc\ttail\t1\nd\tr1\tb\thead\t2\n"
                         "a\tr2\tc\thead\t4\nd\tr1\tb\ttail\t3\n", encoding="utf-8")
        flags = (["--dataset", str(toy_dataset)] if source == "dataset"
                 else ["--entities", "10"]) + ["--beta", "0.4", "--hits", "1,3"]
        evals = {}
        for name, path in (("a", rankfile), ("b", other)):
            assert run_cli("eval", "--ranks", str(path), *flags) == 0
            evals[name] = json.loads(capsys.readouterr().out)
        configs = [evals[name].pop("config") for name in ("a", "b")]
        assert run_cli("compare", "--ranks", f"a={rankfile}", f"b={other}", *flags,
                       "--format", "json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["models"] == evals
        assert payload["config"] == configs[0] == configs[1]

    def test_hits_must_ascend_strictly(self, rankfile, capsys):
        """A descending or repeated cutoff list would print rows out of order or twice."""
        assert run_cli("compare", "--ranks", f"a={rankfile}", f"b={rankfile}",
                       "--entities", "10", "--hits", "3,1,1") == 1
        assert single_error_line(capsys, "validation").endswith(
            "--hits must be strictly ascending, got [3, 1, 1]")
        assert capsys.readouterr().out == ""

    def test_other_queries_rejected(self, rankfile, tmp_path, capsys):
        other = tmp_path / "other.tsv"
        other.write_text(rankfile.read_text(encoding="utf-8").replace("d\tr1", "x\tr1"),
                         encoding="utf-8")
        assert run_cli("compare", "--ranks", f"full={rankfile}", f"other={other}",
                       "--entities", "10", "--format", "json") == 1
        assert "first divergence" in single_error_line(capsys, "validation")


class TestLoadModels:
    """What eval, compare and sweep hold while they score: each query key once
    per run, and none of the dataset's split arrays."""

    N = 20_000
    ARGS = argparse.Namespace(entities=10 ** 6, dataset=None, no_affine=False, epsilon=1.0)

    @pytest.fixture
    def same_queries(self, tmp_path):
        """Two rank files over the same queries, the second in reverse order."""
        lines = [f"head{i:05d}\trelation\ttail{i:05d}\ttail\t{i + 1}\n"
                 for i in range(self.N)]
        first, second = tmp_path / "a.tsv", tmp_path / "b.tsv"
        first.write_text("".join(lines), encoding="utf-8")
        second.write_text("".join(reversed(lines)), encoding="utf-8")
        return {"a": first, "b": second}

    def test_tables_share_key_strings(self, same_queries):
        _, _, tables = cli._load_models(self.ARGS, same_queries, (1.0,), 0.0)
        first, second = tables["a"].keys, tables["b"].keys
        assert first == second[::-1]
        assert all(a is b for a, b in zip(first, reversed(second)))

    def test_second_table_holds_no_key_string(self, same_queries):
        """A second table over the same queries adds a key pointer, a rank
        and a popularity per record, at most 40 bytes under tracemalloc
        (~25 here); a string of its own per key made it over 100."""
        def held(model_files) -> int:
            tracemalloc.start()
            try:
                # held while measured
                loaded = cli._load_models(self.ARGS, model_files, (1.0,), 0.0)
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        one = held({"a": same_queries["a"]})
        assert (held(same_queries) - one) / self.N <= 40

    def test_split_arrays_released_before_rank_files(self, toy_dataset, rankfile,
                                                     monkeypatch):
        """Of load_dataset's graph only the vocabulary and popularity are kept:
        no split array is alive when the first rank file is read."""
        trains, alive = [], []
        original_load_dataset, original_load_rank_file = cli.load_dataset, cli.load_rank_file

        def load_dataset(directory):
            graph, pop = original_load_dataset(directory)
            trains.append(weakref.ref(graph.train))
            return graph, pop

        def load_rank_file(*args, **kwargs):
            alive.append(trains[0]() is not None)
            return original_load_rank_file(*args, **kwargs)

        monkeypatch.setattr(cli, "load_dataset", load_dataset)
        monkeypatch.setattr(cli, "load_rank_file", load_rank_file)
        assert run_cli("compare", "--ranks", f"a={rankfile}", f"b={rankfile}",
                       "--dataset", str(toy_dataset), "--format", "json") == 0
        assert alive == [False, False]


class TestSynth:
    def test_deterministic_output(self, tmp_path):
        profile = write_profile(tmp_path / "p.json", {
            "kind": "mixture", "p1": 0.5, "tail_rate": 0.1, "n_entities": 100})
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            assert run_cli("synth", "--profile", profile, "--n", "200",
                           "--seed", "5", "--out", str(out)) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_explicit_profile_through_pipeline(self, tmp_path, capsys):
        profile = write_profile(tmp_path / "p.json", {
            "kind": "explicit", "ranks": [1, 2, 4]})
        out = tmp_path / "r.tsv"
        assert run_cli("synth", "--profile", profile, "--n", "3",
                       "--seed", "0", "--out", str(out)) == 0
        assert run_cli("eval", "--ranks", str(out), "--entities", "10",
                       "--no-affine") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mrr"] == pytest.approx(7 / 12, rel=1e-12)

    @pytest.mark.parametrize("payload,n,digest", [
        ({"kind": "mixture", "p1": 0.35, "tail_rate": 0.01, "n_entities": 40_943,
          "popularity_model": [{"max_rank": 1, "low": 0, "high": 7000},
                               {"low": 0, "high": 500}]}, 40_932,
         "e08e0ad327d913e6f55ba20d3e01c0c8985be7da65a39b96f7bc3f6c0d8cd1d4"),
        ({"kind": "explicit", "ranks": [1, 5, 9, 2], "popularities": [0, 3, 10, 2]}, 4,
         "f8e3e3817459887cbfdbe53216e69ad51241234b2d52551d4b03848cdf1f75f0"),
    ], ids=["mixture", "explicit"])
    def test_output_bytes_are_pinned(self, tmp_path, payload, n, digest):
        """Any change to the sampling order, the labels or the format shows here."""
        profile = write_profile(tmp_path / "p.json", payload)
        out = tmp_path / "r.tsv"
        assert run_cli("synth", "--profile", profile, "--n", str(n),
                       "--seed", "3", "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_bad_profile_is_validation_error(self, tmp_path, capsys):
        profile = write_profile(tmp_path / "p.json", {"kind": "what"})
        assert run_cli("synth", "--profile", profile, "--n", "1",
                       "--seed", "0", "--out", str(tmp_path / "o.tsv")) == 1


class TestDispatch:
    def test_no_subcommand(self, capsys):
        assert run_cli() == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()
        assert "error[usage]:" in err

    def test_unknown_flag(self, toy_dataset, capsys):
        assert run_cli("stats", "--dataset", str(toy_dataset),
                       "--frobnicate") == 1
        assert "error[usage]:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert run_cli("transmogrify") == 1

    @pytest.mark.parametrize("flag", ["--train-file", "--valid-file", "--test-file"])
    def test_split_file_names_are_not_options(self, toy_dataset, capsys, flag):
        """A dataset directory always holds train.txt, valid.txt and test.txt."""
        assert run_cli("stats", "--dataset", str(toy_dataset), flag, "train.txt") == 1
        err = capsys.readouterr().err
        assert f"error[usage]: unrecognized arguments: {flag} train.txt" in err

    @pytest.mark.parametrize("argv", [
        ["stats", "--dataset", "a\0b"],
        ["eval", "--ranks", "x\0", "--entities", "10"],
        ["eval", "--ranks", "x", "--dataset", "d", "--out", "a\0b"],
        ["synth", "--profile", "p\0", "--n", "1", "--seed", "1", "--out", "o"],
    ], ids=["stats-dataset", "eval-ranks", "eval-out", "synth-profile"])
    def test_nul_byte_in_an_argument_is_a_usage_error(self, tmp_path, monkeypatch, capsys,
                                                      argv):
        """No file name holds a NUL byte; the os calls on one raise ValueError."""
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 1
        assert single_error_line(capsys, "usage") == \
            "error[usage]: an argument holds a NUL byte"
        assert list(tmp_path.iterdir()) == []

    def test_warnings_go_to_each_calls_stderr(self, toy_dataset):
        """A host that redirects stderr between calls gets each call's warnings."""
        train = toy_dataset / "train.txt"
        train.write_text(train.read_text() + "a\tr1\tb\n", encoding="utf-8")
        handlers = list(logging.getLogger("probe_eval").handlers)
        for _ in range(2):
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                assert dispatch(["stats", "--dataset", str(toy_dataset)]) == 0
            assert stderr.getvalue() == \
                f"WARNING {train}: dropped 1 duplicate triple line(s)\n"
        assert logging.getLogger("probe_eval").handlers == handlers

    @pytest.mark.parametrize("fault, category", [("valid-unparsable", "parse"),
                                                 ("test-missing", "io")])
    def test_duplicate_warning_printed_before_a_later_split_fails(self, toy_dataset, capsys,
                                                                  fault, category):
        """Each split is checked for repeats as soon as it is read."""
        train = toy_dataset / "train.txt"
        train.write_text(train.read_text() + "a\tr1\tb\n", encoding="utf-8")
        if fault == "valid-unparsable":
            (toy_dataset / "valid.txt").write_text("a\tr1\n", encoding="utf-8")
        else:
            (toy_dataset / "test.txt").unlink()
        assert run_cli("stats", "--dataset", str(toy_dataset)) != 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2, err
        assert err[0] == f"WARNING {train}: dropped 1 duplicate triple line(s)"
        assert err[1].startswith(f"error[{category}]:"), err

    def test_error_category_is_named_by_the_error_class(self, tmp_path, capsys, monkeypatch):
        """dispatch prints each ValidationError subclass under its own category."""
        class CustomError(ValidationError):
            category = "custom"

        def fail(args, argv):
            raise CustomError("the command failed its own way")

        monkeypatch.setattr(cli, "_cmd_synth", fail)
        assert run_cli("synth", "--profile", str(tmp_path / "p.json"), "--n", "1",
                       "--seed", "0", "--out", str(tmp_path / "o.tsv")) == 1
        assert capsys.readouterr().err == "error[custom]: the command failed its own way\n"

    @pytest.mark.parametrize("command, flag, target", [
        ("eval", "--out", "ranks"), ("stats", "--out", "train"),
        ("stats", "--export-vocab", "train"), ("rank", "--out", "scores"),
        ("rank", "--out", "test"), ("synth", "--out", "profile")])
    def test_an_output_never_overwrites_an_input(self, toy_dataset, rankfile, tmp_path,
                                                 capsys, command, flag, target):
        """Refused before any file is read: the input keeps its bytes, no manifest
        records another file's digest under its name, and nothing is written."""
        scores = tmp_path / "scores.jsonl"
        scores.write_text("".join(json.dumps(r) + "\n" for r in TOY_SCORE_ROWS),
                          encoding="utf-8")
        profile = tmp_path / "p.json"
        write_profile(profile, {"kind": "explicit", "ranks": [1, 2]})
        inputs = {"ranks": rankfile, "train": toy_dataset / "train.txt",
                  "test": toy_dataset / "test.txt", "scores": scores, "profile": profile}
        argv = {"eval": ["--ranks", str(rankfile), "--dataset", str(toy_dataset)],
                "stats": ["--dataset", str(toy_dataset)],
                "rank": ["--scores", str(scores), "--dataset", str(toy_dataset)],
                "synth": ["--profile", str(profile), "--n", "2", "--seed", "0"]}[command]

        def snapshot():
            return {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}

        before = snapshot()
        # another spelling of the same file: the check compares files, not strings
        out = toy_dataset / ".." / inputs[target].relative_to(tmp_path)
        assert run_cli(command, *argv, flag, str(out)) == 1
        assert single_error_line(capsys, "validation") == (
            f"error[validation]: {flag} {out} is the input file {inputs[target]}; "
            "refusing to overwrite it")
        assert snapshot() == before

    @staticmethod
    def refused(capsys, root, argv, inputs) -> str:
        """Run argv, which must exit 1 with one validation line, keep every
        input's sha256 and add no file under root; return the line."""
        def digests():
            return {path: hashlib.sha256(path.read_bytes()).hexdigest() for path in inputs}

        before, files = digests(), set(root.rglob("*"))
        assert run_cli(*argv) == 1
        line = single_error_line(capsys, "validation")
        assert digests() == before
        assert set(root.rglob("*")) == files
        return line

    def test_two_outputs_naming_one_file_are_refused(self, toy_dataset, tmp_path, capsys):
        """The vocabulary would be written and then overwritten by the report."""
        out = tmp_path / "report.txt"
        splits = sorted(toy_dataset.iterdir())
        line = self.refused(capsys, tmp_path, ["stats", "--dataset", str(toy_dataset),
                                               "--out", str(out), "--export-vocab", str(out)],
                            splits)
        assert line == (f"error[validation]: --out {out} is also written by --export-vocab; "
                        "refusing to write it twice")

    def test_two_outputs_hard_linked_to_one_file_are_refused(self, toy_dataset, tmp_path,
                                                             capsys):
        """Two names of one inode are one file, though their resolved paths differ."""
        report = tmp_path / "report.json"
        report.write_text("kept\n", encoding="utf-8")
        vocab = tmp_path / "vocab.tsv"
        vocab.hardlink_to(report)
        splits = sorted(toy_dataset.iterdir())
        line = self.refused(capsys, tmp_path, ["stats", "--dataset", str(toy_dataset),
                                               "--export-vocab", str(vocab), "--out", str(report)],
                            [*splits, report])
        assert line == (f"error[validation]: --out {report} is also written by --export-vocab; "
                        "refusing to write it twice")

    def test_two_sweep_files_hard_linked_to_one_file_are_refused(self, toy_dataset, rankfile,
                                                                 tmp_path, capsys):
        """flips.json would overwrite surface.csv through their shared inode."""
        out = tmp_path / "sweepout"
        out.mkdir()
        surface, flips = out / "surface.csv", out / "flips.json"
        surface.write_text("kept\n", encoding="utf-8")
        flips.hardlink_to(surface)
        line = self.refused(capsys, tmp_path, ["sweep", "--ranks", f"m={rankfile}",
                                               "--dataset", str(toy_dataset), "--out", str(out)],
                            [surface, rankfile])
        assert line == (f"error[validation]: --out {flips} is also written by --out; "
                        "refusing to write it twice")

    def test_a_sweep_file_naming_an_input_is_refused(self, toy_dataset, rankfile, tmp_path,
                                                     capsys):
        """sweep writes fixed names under --out; one of them may be an input."""
        out = tmp_path / "sweepout"
        out.mkdir()
        surface = out / "surface.csv"
        surface.write_bytes(rankfile.read_bytes())
        line = self.refused(capsys, tmp_path, ["sweep", "--ranks", f"a={surface}", f"b={rankfile}",
                                               "--dataset", str(toy_dataset), "--out", str(out)],
                            [surface, rankfile])
        assert line == (f"error[validation]: --out {surface} is the input file {surface}; "
                        "refusing to overwrite it")

    def test_a_sidecar_naming_an_input_is_refused(self, toy_dataset, rankfile, tmp_path, capsys):
        """--out E writes E and E.manifest.json; the latter may be the input."""
        out = tmp_path / "E"
        ranks = tmp_path / "E.manifest.json"
        ranks.write_bytes(rankfile.read_bytes())
        line = self.refused(capsys, tmp_path, ["eval", "--ranks", str(ranks), "--dataset",
                                               str(toy_dataset), "--out", str(out)], [ranks])
        assert line == (f"error[validation]: --out {ranks} is the input file {ranks}; "
                        "refusing to overwrite it")

    def test_threads_validated(self, toy_dataset, rankfile, capsys):
        assert run_cli("eval", "--ranks", str(rankfile),
                       "--dataset", str(toy_dataset), "--threads", "0") == 1

    def test_version_via_console_script(self):
        result = subprocess.run(
            [sys.executable, "-m", "probe_eval.cli", "--version"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "probe-eval 0.1.0" in result.stdout

    def test_help_exits_zero(self):
        result = subprocess.run(
            [sys.executable, "-m", "probe_eval.cli", "eval", "--help"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "--alpha" in result.stdout


class TestCompareStrataAlignment:
    def test_divergent_popularity_ranges_share_buckets(self, tmp_path, capsys):
        """Golds of very different popularity fall in different buckets, and
        every per-stratum row carries a cell for both models."""
        g = tmp_path / "ds"
        g.mkdir()
        # popular entity 'hub' appears in many training triples; 'leaf' in one
        train = "".join(f"hub\tr\te{i}\n" for i in range(40)) + "leaf\tr\te0\n"
        (g / "train.txt").write_text(train, encoding="utf-8")
        (g / "valid.txt").write_text("e0\tr\te1\n", encoding="utf-8")
        (g / "test.txt").write_text("hub\tr\te1\nleaf\tr\te2\n", encoding="utf-8")

        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        # both models rank the popular-gold and the rare-gold query, in
        # different line orders
        a.write_text("hub\tr\te1\thead\t1\nleaf\tr\te2\thead\t3\n", encoding="utf-8")
        b.write_text("leaf\tr\te2\thead\t2\nhub\tr\te1\thead\t4\n", encoding="utf-8")
        assert run_cli("compare", "--ranks", f"a={a}", f"b={b}",
                       "--dataset", str(g)) == 0
        out = capsys.readouterr().out
        strata_rows = [line for line in out.splitlines()
                       if line.startswith("strata[")]
        assert strata_rows, out
        # every strata row carries a cell for both models
        for line in strata_rows:
            assert line.count("(n=") == 2
        # hub and leaf land in two different buckets, one query each
        assert sum(line.count("(n=1)") == 2 for line in strata_rows) == 2, out


class TestManifestDigest:
    def test_digest_is_sha256_of_file_bytes(self, toy_dataset, rankfile, tmp_path):
        out = tmp_path / "e.json"
        assert run_cli("eval", "--ranks", str(rankfile), "--dataset", str(toy_dataset),
                       "--out", str(out)) == 0
        inputs = json.loads((tmp_path / "e.json.manifest.json").read_text())["inputs"]
        assert len(inputs) == 4
        for path, digest in inputs.items():
            with open(path, "rb") as handle:
                assert digest == "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _score_line(head="d", direction="head", scores=(0.1, 0.2, 0.3, 0.4)) -> str:
    return json.dumps({"head": head, "relation": "r1", "tail": "b",
                       "direction": direction, "scores": list(scores)})


# case: (command, input lines, error category, the error line after its path)
# json.loads raises RecursionError, not ValueError, on 100,000 nested arrays;
# for a score file it does so after orjson refuses them as unterminated
DEEP_JSON = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
LOCATED_ERRORS = {
    "score-vocabulary": ("rank", [_score_line(), _score_line(head="zz")], "validation",
                         ":2: triple (zz, r1, b) references labels outside the "
                         "dataset vocabulary"),
    "score-length": ("rank", [_score_line(scores=(0.1, 0.2, 0.3))], "validation",
                     ":1: scores length 3 != entity count 4"),
    "score-not-a-query": ("rank", [_score_line(head="c", direction="tail")], "validation",
                          ":1: score row ('c', 'r1', 'b', 'tail') does not match any "
                          "test query"),
    "score-duplicate": ("rank", [_score_line(), _score_line()], "validation",
                        ":2: duplicate score row for query ('d', 'r1', 'b', 'head')"),
    "score-non-finite": ("rank", [_score_line(scores=(0.1, 0.2, 0.3, math.nan))],
                         "validation", ":1: non-finite score in row for query "
                         "('d', 'r1', 'b', 'head')"),
    # json.loads defines the next three rows: orjson refuses Infinity and 10**400,
    # and reads 2**70 as a float
    "score-infinity-literal": ("rank", [_score_line(scores=(0.1, 0.2, 0.3, math.inf))],
                               "validation", ":1: non-finite score in row for query "
                               "('d', 'r1', 'b', 'head')"),
    "score-big-int-label": ("rank", [_score_line(head=2**70)], "validation",
                            ":1: triple (1180591620717411303424, r1, b) references "
                            "labels outside the dataset vocabulary"),
    "score-overflow-int": ("rank", [_score_line(scores=(0.1, 0.2, 0.3, 10**400))], "parse",
                           ":1: scores must be a list of numbers"),
    "score-direction": ("rank", [_score_line(direction="Tail")], "parse",
                        ":1: direction must be 'head' or 'tail', got 'Tail'"),
    "rank-direction": ("eval", ["d\tr1\tb\tHead\t1"], "parse",
                       ":1: direction must be 'head' or 'tail', got 'Head'"),
    "rank-range": ("eval", ["d\tr1\tb\thead\t0"], "validation",
                   ":1: rank must be >= 1 and < 2**63, got 0"),
    "rank-duplicate": ("eval", ["d\tr1\tb\thead\t1", "d\tr1\tb\thead\t2"], "validation",
                       ":2: duplicate query ('d', 'r1', 'b', 'head') repeats line 1"),
    "profile-json": ("synth", ["{bad"], "validation", ": invalid profile JSON: Expecting "
                     "property name enclosed in double quotes"),
    "score-deep-json": ("rank", ["[" * 100_000], "parse", f":1: invalid JSON: {DEEP_JSON}"),
    "profile-deep-json": ("synth", ["[" * 100_000], "validation",
                          f": invalid profile JSON: {DEEP_JSON}"),
}


class TestHostileInputs:
    """Bad input gives exit 1 and one error line, never a traceback."""

    @pytest.mark.parametrize("case", sorted(LOCATED_ERRORS))
    def test_file_error_names_its_location(self, toy_dataset, tmp_path, capsys, case):
        command, lines, category, located = LOCATED_ERRORS[case]
        path = tmp_path / "input"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        out = str(tmp_path / "out.tsv")
        argv = {
            "rank": ["--scores", str(path), "--dataset", str(toy_dataset), "--out", out],
            "eval": ["--ranks", str(path), "--entities", "10"],
            "synth": ["--profile", str(path), "--n", "1", "--seed", "0", "--out", out],
        }[command]
        assert run_cli(command, *argv) == 1
        assert single_error_line(capsys, category) == f"error[{category}]: {path}{located}"

    def test_duplicate_rank_line_rejected_by_eval(self, rankfile, tmp_path, capsys):
        rankfile.write_text(rankfile.read_text() + "d\tr1\tb\thead\t3\n", encoding="utf-8")
        out = tmp_path / "e.json"
        assert run_cli("eval", "--ranks", str(rankfile), "--entities", "10",
                       "--out", str(out)) == 1
        line = single_error_line(capsys, "validation")
        assert f"{rankfile}:5:" in line and "line 1" in line
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["1_0", "+2", "\u0661"])  # U+0661: Arabic-Indic 1
    def test_rank_spelling_int_would_accept_is_parse_error(self, spelling, rankfile,
                                                           tmp_path, capsys):
        rankfile.write_text(rankfile.read_text() + f"e\tr1\tb\thead\t{spelling}\n",
                            encoding="utf-8")
        out = tmp_path / "e.json"
        assert run_cli("eval", "--ranks", str(rankfile), "--entities", "20",
                       "--out", str(out)) == 1
        line = single_error_line(capsys, "parse")
        assert f"{rankfile}:5: rank is not an integer: {spelling!r}" in line
        assert not out.exists()

    def test_duplicate_rank_line_rejected_by_sweep(self, rankfile, tmp_path, capsys):
        other = tmp_path / "other.tsv"
        other.write_text(rankfile.read_text(), encoding="utf-8")
        rankfile.write_text(rankfile.read_text() + "a\tr2\tc\ttail\t4\n", encoding="utf-8")
        assert run_cli("sweep", "--ranks", f"a={rankfile}", f"b={other}",
                       "--entities", "10", "--out", str(tmp_path / "o")) == 1
        line = single_error_line(capsys, "validation")
        assert f"{rankfile}:5:" in line and "line 4" in line

    @pytest.mark.parametrize("command, flags", [
        ("eval", ["--alpha", "nan"]),
        ("eval", ["--beta", "inf"]),
        ("eval", ["--epsilon", "inf", "--beta", "1"]),
        ("sweep", ["--alphas", "1,nan"]),
    ], ids=["eval-alpha-nan", "eval-beta-inf", "eval-epsilon-inf", "sweep-alphas-nan"])
    def test_non_finite_parameters_rejected(self, rankfile, tmp_path, capsys,
                                            command, flags):
        out = tmp_path / "out"
        assert run_cli(command, "--ranks", f"m={rankfile}" if command == "sweep"
                       else str(rankfile), "--entities", "10", *flags,
                       "--out", str(out)) == 1
        assert "must be finite" in single_error_line(capsys, "validation")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags, message", [
        ("sweep", ["--alphas", "1,x"], "--alphas expects comma-separated numbers, got '1,x'"),
        ("eval", ["--strata", "0,x"], "--strata expects comma-separated integers, got '0,x'"),
        ("sweep", ["--base", "1"], "--base expects alpha,beta, got '1'"),
        ("sweep", ["--bins", "0,5"], "rank bins must start at 1, got [0]"),
        ("sweep", ["--bins", ""], "--bins expects comma-separated integers, got ''"),
        ("sweep", ["--alphas", "0,1"], "alpha must be > 0 for aggregated scoring, got 0.0 "
                                       "(negative-alpha transforms are available through rt_raw)"),
        ("sweep", ["--betas=-1,0"], "beta must be >= 0, got -1.0"),
        ("eval", ["--strata", "1,2"], "bucket edges must start at 0, got [1]"),
        ("eval", ["--alpha", "1e-320"],
         "alpha=1e-320 underflows the affine denominator for n_entities=10"),
        ("sweep", ["--alphas", "1e-320,1"],
         "alpha=1e-320 underflows the affine denominator for n_entities=10"),
    ], ids=["sweep-alphas-word", "eval-strata-word", "sweep-base-one-number",
            "sweep-bins-from-zero", "sweep-bins-empty", "sweep-alphas-zero",
            "sweep-betas-negative", "eval-strata-from-one", "eval-alpha-underflow",
            "sweep-alphas-underflow"])
    def test_malformed_list_argument_rejected(self, rankfile, tmp_path, capsys,
                                              command, flags, message):
        """Each flag is checked before any file is read, and nothing is written."""
        out = tmp_path / "out"
        for ranks in (rankfile, tmp_path / "missing.tsv"):
            assert run_cli(command, "--ranks", f"m={ranks}" if command == "sweep"
                           else str(ranks), "--entities", "10", *flags,
                           "--out", str(out)) == 1
            assert single_error_line(capsys, "validation") == f"error[validation]: {message}"
            assert not out.exists()

    def test_alpha_checked_against_dataset_before_rank_files(self, toy_dataset, tmp_path,
                                                             capsys):
        """An entity count from --dataset is known once the dataset is read;
        every alpha is checked against it before any rank file is opened."""
        out = tmp_path / "out"
        assert run_cli("sweep", "--ranks", f"m={tmp_path / 'missing.tsv'}",
                       "--dataset", str(toy_dataset), "--alphas", "1e-320,1",
                       "--out", str(out)) == 1
        assert single_error_line(capsys, "validation") == (
            "error[validation]: alpha=1e-320 underflows the affine denominator for n_entities=4")
        assert not out.exists()

    def test_non_numeric_score_is_parse_error(self, toy_dataset, tmp_path, capsys):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({"head": "d", "relation": "r1", "tail": "b",
                                      "direction": "head",
                                      "scores": [0.1, "high", 0.3, 0.9]}) + "\n",
                          encoding="utf-8")
        assert run_cli("rank", "--scores", str(scores), "--dataset", str(toy_dataset),
                       "--out", str(tmp_path / "o.tsv")) == 1
        assert f"{scores}:1:" in single_error_line(capsys, "parse")

    @pytest.mark.parametrize("values", [
        (0.1, "0.1", 0.3, 0.4), (0.1, True, 0.3, 0.4), (0.1, False, 0.3, 0.4), {},
        [[0.1, 0.2], [0.3, 0.4]],
    ], ids=["string", "true", "false", "object", "nested"])
    def test_scores_not_a_list_of_numbers_is_parse_error(self, toy_dataset, tmp_path,
                                                          capsys, values):
        scores = tmp_path / "scores.jsonl"
        scores.write_text(json.dumps({"head": "d", "relation": "r1", "tail": "b",
                                      "direction": "head", "scores": values}) + "\n",
                          encoding="utf-8")
        out = tmp_path / "o.tsv"
        assert run_cli("rank", "--scores", str(scores), "--dataset", str(toy_dataset),
                       "--allow-partial", "--out", str(out)) == 1
        assert single_error_line(capsys, "parse") == \
            f"error[parse]: {scores}:1: scores must be a list of numbers"
        assert not out.exists()

    @pytest.mark.parametrize("profile", [
        {"kind": "mixture", "p1": 0.5, "n_entities": 10},
        [{"kind": "mixture"}],
        {"kind": "mixture", "p1": "0.5", "tail_rate": 0.1, "n_entities": 10},
        {"kind": "mixture", "p1": False, "tail_rate": 0.1, "n_entities": 10},
        {"kind": "mixture", "p1": 0.5, "tail_rate": True, "n_entities": 10},
        {"kind": "mixture", "p1": 0.5, "tail_rate": 0.1, "n_entities": 10,
         "popularity_model": [{"constant": 1}, {"max_rank": 1, "constant": 5}]},
        {"kind": "mixture", "p1": 0.5, "tail_rate": 0.1, "n_entities": 10,
         "popularity_model": [{"max_rank": 3, "constant": 1}, {"max_rank": 3, "constant": 5}]},
        {"kind": "mixture", "p1": 0.5, "tail_rate": 0.1, "n_entities": 50,
         "popularity_model": [{"max_rank": 100, "constant": 1}, {"constant": 5}]},
    ], ids=["missing-tail-rate", "json-list", "string-p1", "false-p1", "true-tail-rate",
            "rule-after-open-rule", "rule-at-equal-bound", "rule-after-bound-past-n-entities"])
    def test_malformed_profile_is_validation_error(self, tmp_path, capsys, profile):
        path = write_profile(tmp_path / "p.json", profile)
        out = tmp_path / "o.tsv"
        assert run_cli("synth", "--profile", path, "--n", "3", "--seed", "0",
                       "--out", str(out)) == 1
        single_error_line(capsys, "validation")
        assert not out.exists()

    @pytest.mark.parametrize("profile, key", [
        ({"kind": "mixture", "p1": 0.5, "tail_rate": 0.1, "n_entities": 10,
          "popularity_model": [{"constant": 3, "max_rnak": 1}]}, "max_rnak"),
        ({"kind": "explicit", "ranks": [1, 2], "popularites": [5, 6]}, "popularites"),
    ], ids=["rule-max-rank", "explicit-popularities"])
    def test_misspelled_profile_key_is_named(self, tmp_path, capsys, profile, key):
        """A key that is not a field of its kind, or of a popularity_model entry,
        is refused: dropped, it would leave a rule covering every rank, or every
        popularity 0."""
        path = write_profile(tmp_path / "p.json", profile)
        out = tmp_path / "o.tsv"
        assert run_cli("synth", "--profile", path, "--n", "2", "--seed", "0",
                       "--out", str(out)) == 1
        assert repr(key) in single_error_line(capsys, "validation")
        assert not out.exists()

    @pytest.mark.parametrize("model", [[[1]], 5], ids=["list-of-lists", "number"])
    def test_popularity_model_not_a_list_of_objects(self, tmp_path, capsys, model):
        path = write_profile(tmp_path / "p.json", {"kind": "mixture", "p1": 0.5, "tail_rate": 0.1,
                                                   "n_entities": 10, "popularity_model": model})
        assert run_cli("synth", "--profile", path, "--n", "3", "--seed", "0",
                       "--out", str(tmp_path / "o.tsv")) == 1
        assert single_error_line(capsys, "validation") == (
            "error[validation]: popularity_model must be a list of objects")

    @pytest.mark.parametrize("profile", [
        {"kind": "explicit", "ranks": [1.5, 2]},
        {"kind": "explicit", "ranks": [True, 2]},
        {"kind": "mixture", "p1": 0.5, "tail_rate": 0.1, "n_entities": 10.5},
    ], ids=["float-rank", "bool-rank", "float-n-entities"])
    def test_non_integer_profile_count_rejected(self, tmp_path, capsys, profile):
        path = write_profile(tmp_path / "p.json", profile)
        out = tmp_path / "o.tsv"
        assert run_cli("synth", "--profile", path, "--n", "2", "--seed", "0",
                       "--out", str(out)) == 1
        assert "must be an integer" in single_error_line(capsys, "validation")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["stats", "stats-valid", "eval", "sweep-second",
                                         "synth"])
    def test_non_utf8_input_is_parse_error(self, toy_dataset, rankfile, tmp_path,
                                           capsys, command):
        profile = tmp_path / "p.json"
        second = tmp_path / "second.tsv"
        second.write_text(rankfile.read_text(), encoding="utf-8")
        bad, argv = {
            "stats": (toy_dataset / "train.txt", ["--dataset", str(toy_dataset)]),
            "stats-valid": (toy_dataset / "valid.txt", ["--dataset", str(toy_dataset)]),
            "eval": (rankfile, ["--ranks", str(rankfile), "--entities", "10"]),
            "sweep-second": (second, ["--ranks", f"a={rankfile}", f"b={second}",
                                      "--entities", "10", "--out", str(tmp_path / "o")]),
            "synth": (profile, ["--profile", str(profile), "--n", "1", "--seed", "0",
                                "--out", str(tmp_path / "o.tsv")]),
        }[command]
        bad.write_bytes(b"a\tr1\tb\n\xff\n")
        assert run_cli(command.split("-")[0], *argv) == 1
        line = single_error_line(capsys, "parse")
        assert f"{bad}: input is not UTF-8" in line

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_huge_finite_beta_writes_nothing_to_stderr(self, toy_dataset, rankfile, tmp_path,
                                                        command):
        # beta * log-ratio of the popularities overflows to -inf, whose weight is 0
        flags = (["--ranks", str(rankfile), "--beta", "1e308"] if command == "eval" else
                 ["--ranks", f"m={rankfile}", "--betas", "0,1e308", "--out", str(tmp_path / "o")])
        result = subprocess.run(
            [sys.executable, "-m", "probe_eval.cli", command, *flags,
             "--dataset", str(toy_dataset), "--epsilon", "0.01"], capture_output=True, text=True)
        assert (result.returncode, result.stderr) == (0, "")

    def test_underflowing_weights_still_score(self, rankfile, capsys):
        # every raw weight (1e200 + delta)**-2 underflows to 0.0
        assert run_cli("eval", "--ranks", str(rankfile), "--entities", "10",
                       "--epsilon", "1e200", "--beta", "2") == 0
        probe = json.loads(capsys.readouterr().out)["probe"]
        assert math.isfinite(probe) and 0.0 <= probe <= 1.0


# int() refuses integers over 4,300 digits, so json.dumps cannot write one:
# _dumps writes this placeholder string as a 5,001-digit integer
HUGE_INT = "<5,001-digit integer>"


def _dumps(value) -> str:
    return json.dumps(value).replace(json.dumps(HUGE_INT), "1" + "0" * 5000)


@pytest.mark.parametrize("command", ["rank", "eval", "synth"])
def test_integers_over_the_digit_limit_are_one_error_line(toy_dataset, tmp_path, capsys,
                                                           command):
    """A 5,001-digit score, rank or profile rank is one error line, not a traceback."""
    path = tmp_path / "input"
    if command == "rank":
        rows = [dict(row, scores=[HUGE_INT, *row["scores"][1:]]) for row in TOY_SCORE_ROWS]
        path.write_text("".join(_dumps(row) + "\n" for row in rows), encoding="utf-8")
        argv = ["--scores", str(path), "--dataset", str(toy_dataset)]
        category, message = "parse", "input:1: invalid JSON: Exceeds the limit (4300 digits)"
    elif command == "eval":
        path.write_text(f"d\tr1\tb\thead\t1{'0' * 5000}\n", encoding="utf-8")
        argv = ["--ranks", str(path), "--dataset", str(toy_dataset)]
        category = "validation"
        message = f"input:1: rank must be >= 1 and < 2**63, got 1{'0' * 5000}"
    else:
        path.write_text(_dumps({"kind": "explicit", "ranks": [HUGE_INT]}), encoding="utf-8")
        argv = ["--profile", str(path), "--n", "1", "--seed", "0"]
        category, message = "validation", "input: invalid profile JSON: Exceeds the limit (4300"
    assert run_cli(command, *argv, "--out", str(tmp_path / "out")) == 1
    assert message in single_error_line(capsys, category)
    assert not (tmp_path / "out").exists()


# Every numeric flag of each command that takes one
NUMERIC_FLAGS = {
    "eval": ("--epsilon", "--entities", "--alpha", "--beta", "--hits", "--strata", "--threads"),
    "compare": ("--epsilon", "--entities", "--alpha", "--beta", "--hits", "--strata",
                "--threads"),
    "sweep": ("--epsilon", "--entities", "--alphas", "--betas", "--base", "--bins", "--threads"),
    "rank": ("--seed", "--threads"),
    "synth": ("--n", "--seed"),
}
EXTREME_VALUES = {
    "2**63": str(2 ** 63),
    "310-digits": "1" + "0" * 309,  # 10**309 >= 2**1024: float() of it overflows
    "5001-digits": "1" + "0" * 5000,  # over int()'s digit limit
    "subnormal": "5e-324",
    "nan": "nan",
    "1e309": "1e309",
    "minus-zero": "-0",
    "underscore": "1_0",
}


@pytest.mark.parametrize("value", EXTREME_VALUES.values(), ids=EXTREME_VALUES)
@pytest.mark.parametrize("command, flag", [(command, flag) for command, flags
                                           in NUMERIC_FLAGS.items() for flag in flags])
def test_extreme_numeric_flag_keeps_the_cli_contract(toy_dataset, rankfile, tmp_path, capsys,
                                                      command, flag, value):
    """Exit 0, 1 or 2 and at most one error[...] line.  dispatch maps every error
    the commands raise to an exit code, so an exception escaping it is the
    traceback the command line would print."""
    scores = tmp_path / "scores.jsonl"
    scores.write_text("".join(json.dumps(row) + "\n" for row in TOY_SCORE_ROWS),
                      encoding="utf-8")
    profile = write_profile(tmp_path / "p.json", {"kind": "explicit", "ranks": [1, 2]})
    out = str(tmp_path / "out")
    argv = {
        "eval": ["--ranks", str(rankfile), "--entities", "10"],
        "compare": ["--ranks", f"a={rankfile}", f"b={rankfile}", "--entities", "10"],
        "sweep": ["--ranks", f"a={rankfile}", "--entities", "10", "--out", out],
        "rank": ["--scores", str(scores), "--dataset", str(toy_dataset), "--tie", "random",
                 "--seed", "0", "--out", out],
        "synth": ["--profile", profile, "--n", "2", "--seed", "0", "--out", out],
    }[command]
    argv += [flag, f"{value},{value}" if flag == "--base" else value]  # the last value wins
    assert run_cli(command, *argv) in (0, 1, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("error[") <= 1, err


def _mutate_score_lines(lines: list[bytes], data) -> tuple[list[bytes], str]:
    """One hostile edit of a JSON-lines score file, drawn by Hypothesis."""
    kind = data.draw(st.sampled_from([
        "truncate", "0xff", "nan", "null", "string", "numeric-string", "bool",
        "missing-key", "duplicate", "bom", "list-label", "huge-int"]))
    i = data.draw(st.integers(0, len(lines) - 1))
    lines = list(lines)
    if kind == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, max(0, len(lines[i]) - 1)))]
    elif kind == "0xff":
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    else:
        try:
            row = json.loads(lines[i])
        except ValueError:  # an earlier edit broke this line
            return lines, kind
        scores = row.get("scores") if isinstance(row, dict) else None
        if not row or not isinstance(scores, list) or not scores:
            return lines, kind
        if kind == "missing-key":
            row.pop(data.draw(st.sampled_from(sorted(row))))
        elif kind == "list-label":
            label = data.draw(st.sampled_from(["head", "relation", "tail"]))
            row[label] = [row.get(label)]
        else:
            scores[data.draw(st.integers(0, len(scores) - 1))] = (
                data.draw(st.booleans()) if kind == "bool" else
                data.draw(st.sampled_from([10 ** 400, HUGE_INT])) if kind == "huge-int" else
                {"nan": float("nan"), "null": None, "string": "high",
                 "numeric-string": "0.1"}[kind])
        lines[i] = _dumps(row).encode("utf-8")
    return lines, kind


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("rank-fuzz")
    write_toy_dataset(directory / "toyds")
    return directory


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_rank_fuzzed_score_file_keeps_the_cli_contract(fuzz_dir, data):
    """Exit 0, 1 or 2; stderr empty on success, else one error[...] line."""
    clean = [json.dumps(row).encode("utf-8") for row in TOY_SCORE_ROWS]
    lines, kinds = clean, []
    for _ in range(data.draw(st.integers(1, 3))):
        lines, kind = _mutate_score_lines(lines, data)
        kinds.append(kind)
    scores = fuzz_dir / "scores.jsonl"
    scores.write_bytes(b"\n".join(lines) + b"\n")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = dispatch(["rank", "--scores", str(scores), "--dataset",
                         str(fuzz_dir / "toyds"), "--out", str(fuzz_dir / "out.tsv")])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 0:
        assert err == ""
    else:
        assert len(err.splitlines()) == 1 and err.startswith("error["), err
    if kinds == ["bom"]:
        assert code == 0
    if kinds in (["numeric-string"], ["bool"]):
        assert code == 1


TOY_RANK_LINES = [b"d\tr1\tb\thead\t3", b"d\tr1\tb\ttail\t1",
                  b"a\tr2\tc\thead\t2", b"a\tr2\tc\ttail\t4"]


def _mutate_rank_lines(lines: list[bytes], data) -> list[bytes]:
    """One hostile edit of a rank file, drawn by Hypothesis."""
    kind = data.draw(st.sampled_from([
        "truncate", "fields", "rank", "direction", "empty-label", "0xff", "bom", "duplicate",
        "empty"]))
    if kind == "empty" or not lines:
        return []
    i = data.draw(st.integers(0, len(lines) - 1))
    lines = list(lines)
    fields = lines[i].split(b"\t")
    if kind == "truncate":
        lines[i] = lines[i][:data.draw(st.integers(0, max(0, len(lines[i]) - 1)))]
    elif kind == "fields":
        lines[i] = b"\t".join(fields[:-1] if data.draw(st.booleans()) else fields + [b"x"])
    elif kind == "rank" and len(fields) == 5:
        fields[4] = data.draw(st.sampled_from([b"0", b"-3", b"2.5", b"1e3", b"x", b"", b"9" * 20,
                                                b"1_0", b"+2", "\u0661".encode(), b"9" * 5000,
                                                b"0" * 5000 + b"7"]))
        lines[i] = b"\t".join(fields)
    elif kind == "direction" and len(fields) == 5:
        fields[3] = data.draw(st.sampled_from([b"Head", b"both", b""]))
        lines[i] = b"\t".join(fields)
    elif kind == "empty-label" and len(fields) == 5:
        fields[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from([b"", b" ", b"  "]))
        lines[i] = b"\t".join(fields)
    elif kind == "0xff":
        at = data.draw(st.integers(0, len(lines[i])))
        lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
    elif kind == "bom":
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    return lines


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_rank_file_keeps_the_cli_contract(fuzz_dir, data):
    """eval, compare and sweep: exit 0, 1 or 2; at most one error[...] line; strict JSON."""
    lines = TOY_RANK_LINES
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _mutate_rank_lines(lines, data)
    ranks = fuzz_dir / "ranks.tsv"
    ranks.write_bytes(b"".join(line + b"\n" for line in lines))
    clean = fuzz_dir / "clean.tsv"
    clean.write_bytes(b"".join(line + b"\n" for line in TOY_RANK_LINES))
    out = fuzz_dir / "out"
    out.mkdir(exist_ok=True)
    for stale in out.iterdir():
        stale.unlink()
    command = data.draw(st.sampled_from(["eval", "compare", "sweep"]))
    models = [f"m={ranks}", f"clean={clean}"]
    argv = {
        "eval": ["eval", "--ranks", str(ranks), "--out", str(out / "eval.json")],
        "compare": ["compare", "--ranks", *models, "--format", "json"],
        "sweep": ["sweep", "--ranks", *models, "--out", str(out)],
    }[command] + ["--dataset", str(fuzz_dir / "toyds")]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(argv)
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert sum(line.startswith("error[") for line in err.splitlines()) == (code != 0), err
    texts = [path.read_text(encoding="utf-8") for path in out.glob("*.json")]
    if command == "compare" and code == 0:
        texts.append(stdout.getvalue())
    for text in texts:
        json.loads(text, parse_constant=_reject_constant)


TOY_SPLITS = {"train.txt": [b"a\tr1\tb", b"a\tr1\tc", b"b\tr2\tc", b"c\tr1\tb"],
              "valid.txt": [b"a\tr2\tb"],
              "test.txt": [b"d\tr1\tb", b"a\tr2\tc"]}
HARMLESS_SPLIT_EDITS = {"bom", "crlf", "duplicate", "blank"}


def _mutate_splits(splits: dict, data) -> tuple[dict, str]:
    """One hostile edit of one split file (None: deleted), drawn by Hypothesis."""
    kind = data.draw(st.sampled_from([
        "truncate", "fields", "whitespace", "0xff", "bom", "crlf", "duplicate", "blank",
        "delete"]))
    name = data.draw(st.sampled_from(sorted(splits)))
    lines = splits[name]
    if lines is None:
        return splits, kind
    lines = list(lines)
    if kind == "delete":
        lines = None
    elif kind == "blank":
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from([b"", b"  ", b"\t"])))
    elif kind == "bom":
        lines[0:1] = [b"\xef\xbb\xbf" + (lines[0] if lines else b"")]
    elif lines:
        i = data.draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(b"\t")
        if kind == "truncate":
            lines[i] = lines[i][:data.draw(st.integers(0, max(0, len(lines[i]) - 1)))]
        elif kind == "fields":
            lines[i] = b"\t".join(fields[:-1] if data.draw(st.booleans()) else fields + [b"x"])
        elif kind == "whitespace":
            fields[data.draw(st.integers(0, len(fields) - 1))] = b" "
            lines[i] = b"\t".join(fields)
        elif kind == "0xff":
            at = data.draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + b"\xff" + lines[i][at:]
        elif kind == "crlf":
            lines[i] += b"\r"
        elif kind == "duplicate":
            lines.insert(i, lines[i])
    return {**splits, name: lines}, kind


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fuzzed_triple_files_keep_the_stats_contract(fuzz_dir, data):
    """Exit 0, 1 or 2; no error[...] line on success, exactly one otherwise;
    strict JSON on stdout.  A duplicate-triple warning may appear."""
    splits, kinds = TOY_SPLITS, []
    for _ in range(data.draw(st.integers(1, 3))):
        splits, kind = _mutate_splits(splits, data)
        kinds.append(kind)
    dataset = fuzz_dir / "stats-ds"
    dataset.mkdir(exist_ok=True)
    for name, lines in splits.items():
        (dataset / name).unlink(missing_ok=True)
        if lines is not None:
            (dataset / name).write_bytes(b"".join(line + b"\n" for line in lines))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(["stats", "--dataset", str(dataset)])
    err = stderr.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in stderr.getvalue()
    errors = [line for line in err if line.startswith("error[")]
    assert len(errors) == (code != 0), err
    assert all("duplicate triple" in line for line in err if line not in errors), err
    if code == 0:
        json.loads(stdout.getvalue(), parse_constant=_reject_constant)
    else:
        assert stdout.getvalue() == ""
    if len(kinds) == 1 and kinds[0] in HARMLESS_SPLIT_EDITS:
        assert code == 0, (kinds, err)


def _hostile(data):
    """A JSON value of the wrong kind for most profile fields."""
    return data.draw(st.one_of(
        st.booleans(), st.none(), st.floats(), st.integers(-3, 3), st.just(HUGE_INT),
        st.sampled_from(["7", "", [], {}, [1, "2"], 2 ** 63, 10 ** 400])))


def _fuzzed_profile(data):
    """An explicit or mixture profile, or a non-object, with hostile edits, and
    whether an unknown key was added at its top level or to a popularity rule."""
    kind = data.draw(st.sampled_from(["explicit", "mixture", "non-object"]))
    if kind == "non-object":
        return data.draw(st.sampled_from([[], [{"kind": "explicit"}], "explicit", 3, None])), False
    if kind == "explicit":
        ranks = data.draw(st.lists(st.integers(-1, 10 ** 6), min_size=0, max_size=8))
        profile = {"kind": "explicit", "ranks": ranks}
        if data.draw(st.booleans()):
            profile["popularities"] = data.draw(
                st.lists(st.integers(-1, 10 ** 6), min_size=0, max_size=8))
    else:
        rule = dict(data.draw(st.sampled_from([
            {"constant": 3}, {"low": 0, "high": 50}, {"low": 5, "high": 1}, {"low": 0}, {}])))
        if data.draw(st.booleans()):
            rule[data.draw(st.sampled_from(["constant", "low", "high"]))] = _hostile(data)
        profile = {"kind": "mixture",
                   "p1": data.draw(st.floats(-0.5, 1.5)),
                   "tail_rate": data.draw(st.floats(-0.5, 1.5)),
                   "n_entities": data.draw(st.integers(-1, 10 ** 5)),
                   "popularity_model": [dict(rule, max_rank=data.draw(st.integers(-1, 5))),
                                        rule]}
    for _ in range(data.draw(st.integers(0, 2))):
        field = data.draw(st.sampled_from(sorted(profile)))
        if data.draw(st.booleans()):
            del profile[field]
        else:
            profile[field] = _hostile(data)
    unknown = None  # 1 in 4, so most examples still reach the value checks
    if data.draw(st.booleans()) and data.draw(st.booleans()):
        unknown = data.draw(st.sampled_from(["popularites", "max_rnak", "note"]))
    rules = profile.get("popularity_model")
    if unknown and isinstance(rules, list) and rules and isinstance(rules[-1], dict) \
            and data.draw(st.booleans()):
        rules[-1][unknown] = 1
    elif unknown:
        profile[unknown] = [1]
    return profile, unknown is not None


def _synth_contract(fuzz_dir, profile, n) -> tuple[int, str]:
    """Run synth; exit 0, 1 or 2, at most one error[...] line, no traceback."""
    path = fuzz_dir / "profile.json"
    path.write_text(_dumps(profile), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = dispatch(["synth", "--profile", str(path), "--n", str(n),
                         "--seed", "1", "--out", str(fuzz_dir / "synth.tsv")])
    err = stderr.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert sum(line.startswith("error[") for line in err.splitlines()) <= 1, err
    return code, err


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_profile_keeps_the_synth_contract(fuzz_dir, data):
    """Sizes stay small (n_entities <= 10**5, --n <= 10**4): nothing large is allocated.
    About 150 of the 200 examples carry no unknown key."""
    profile, unknown = _fuzzed_profile(data)
    ranks = profile.get("ranks") if isinstance(profile, dict) else None
    n = data.draw(st.one_of(st.integers(-2, 10 ** 4), st.just(
        len(ranks) if isinstance(ranks, list) else 1)))
    code, err = _synth_contract(fuzz_dir, profile, n)
    if unknown:  # a key that is no field of its kind is one error line
        assert code == 1 and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("n_entities,n,message", [
    (10 ** 15, 5, "needs more memory"), (100, 10 ** 15, "needs more memory"),
    (2 ** 62, 5, "needs more memory"), (100, 10 ** 20, "needs more memory"),
    (2 ** 64, 5, "n_entities must be < 2**63"),
], ids=["pmf-7PiB", "draws-7PiB", "pmf-past-numpy", "draws-past-int64",
        "n-entities-past-int64"])
def test_oversized_synth_is_one_error_line(fuzz_dir, n_entities, n, message):
    """Each size fails at once: 8 bytes times 10**15 exceeds the address space."""
    profile = {"kind": "mixture", "p1": 0.3, "tail_rate": 0.1, "n_entities": n_entities}
    code, err = _synth_contract(fuzz_dir, profile, n)
    assert code == 1
    assert err.startswith("error[validation]: ") and message in err, err


def test_dispatch_returns_zero_for_help_and_version(capsys):
    assert run_cli("--version") == 0
    assert "probe-eval" in capsys.readouterr().out
    assert run_cli("eval", "--help") == 0
    assert "--alpha" in capsys.readouterr().out
