"""The benchmark's own tests: its checks catch a perturbed output, and the
command prints every metric BENCHMARK.json names, with its unit.

The program runs on workloads shrunk to 2% of their size.
"""

from __future__ import annotations

import csv
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

SCALE = 0.02
BENCH = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ran(tmp_path_factory):
    """name -> (workload, inputs, outputs) of one checked pass per workload."""
    out = {}
    for name, full in workloads.WORKLOADS.items():
        workload = workloads.scaled(full, SCALE)
        base = tmp_path_factory.mktemp(name)
        inputs = workloads.cached_inputs(base / "cache", workload, seed=3)
        outputs = base / "out"
        runs = run.run_commands(run.sequence(workload, inputs, outputs), outputs)
        assert [r.code for r in runs] == [0] * len(runs)
        out[name] = (workload, inputs, outputs)
    return out


def perturbed(ran, name, tmp_path, edit):
    """Errors of the checks after `edit(outputs)` on a copy of the outputs."""
    workload, inputs, outputs = ran[name]
    copy = tmp_path / "out"
    shutil.copytree(outputs, copy)
    edit(copy)
    return run.check_outputs(workload, inputs, copy)


def _rewrite(path: Path, change) -> None:
    path.write_text(change(path.read_text(encoding="utf-8")), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_unperturbed_outputs_pass(ran, name):
    workload, inputs, outputs = ran[name]
    assert run.check_outputs(workload, inputs, outputs) == []


def test_rank_off_by_one_fails(ran, tmp_path):
    def edit(out):
        def bump(text):
            lines = text.splitlines(keepends=True)
            fields = lines[len(lines) // 2].rstrip("\n").split("\t")
            fields[4] = str(int(fields[4]) + 1)
            lines[len(lines) // 2] = "\t".join(fields) + "\n"
            return "".join(lines)
        _rewrite(out / "ranks.tsv", bump)
    assert perturbed(ran, "fb237-rank", tmp_path, edit)


def test_dropped_rank_record_fails(ran, tmp_path):
    def edit(out):
        _rewrite(out / "ranks.tsv", lambda t: "".join(t.splitlines(keepends=True)[1:]))
    assert perturbed(ran, "fb237-rank", tmp_path, edit)


@pytest.mark.parametrize("name", ["fb237-sweep", "wn18rr-grid"])
def test_surface_cell_changed_fails(ran, tmp_path, name):
    def edit(out):
        path = out / "sweep" / "surface.csv"
        rows = list(csv.reader(path.open(encoding="utf-8")))
        rows[5][3] = repr(float(rows[5][3]) * (1 + 1e-9))
        with path.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    assert perturbed(ran, name, tmp_path, edit)


@pytest.mark.parametrize("name", ["fb237-sweep", "wn18rr-grid"])
def test_flip_changed_fails(ran, tmp_path, name):
    def edit(out):
        path = out / "sweep" / "flips.json"
        flips = json.loads(path.read_text(encoding="utf-8"))
        assert flips, "the profiles must produce flips"
        flips[0]["cell_order"] = flips[0]["cell_order"][::-1]
        path.write_text(json.dumps(flips), encoding="utf-8")
    assert perturbed(ran, name, tmp_path, edit)


def test_flip_dropped_fails(ran, tmp_path):
    def edit(out):
        path = out / "sweep" / "flips.json"
        path.write_text(json.dumps(json.loads(path.read_text())[1:]), encoding="utf-8")
    assert perturbed(ran, "wn18rr-grid", tmp_path, edit)


@pytest.mark.parametrize("name", ["fb237-sweep", "wn18rr-grid"])
def test_histogram_count_moved_fails(ran, tmp_path, name):
    def edit(out):
        path = out / "sweep" / "histogram.csv"
        rows = list(csv.reader(path.open(encoding="utf-8")))
        rows[1][3] = str(int(rows[1][3]) - 1)  # same total, one bin over
        rows[2][3] = str(int(rows[2][3]) + 1)
        with path.open("w", encoding="utf-8", newline="") as handle:
            csv.writer(handle, lineterminator="\n").writerows(rows)
    assert perturbed(ran, name, tmp_path, edit)


def test_ranking_order_swapped_fails(ran, tmp_path):
    def edit(out):
        path = out / "sweep" / "rankings.json"
        rankings = json.loads(path.read_text(encoding="utf-8"))
        order = rankings["cells"][0]["order"]
        order[0], order[-1] = order[-1], order[0]
        path.write_text(json.dumps(rankings), encoding="utf-8")
    assert perturbed(ran, "wn18rr-grid", tmp_path, edit)


@pytest.mark.parametrize("key", ["probe", "mr", "mrr"])
def test_eval_value_changed_fails(ran, tmp_path, key):
    def edit(out):
        path = out / "eval_sharp.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload[key] *= 1 + 1e-9
        path.write_text(json.dumps(payload), encoding="utf-8")
    assert perturbed(ran, "fb237-sweep", tmp_path, edit)


def test_eval_stratum_count_moved_fails(ran, tmp_path):
    def edit(out):
        path = out / "eval_steady.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        filled = [s for s in payload["strata"] if s["count"]]
        filled[0]["count"] -= 1
        filled[1]["count"] += 1
        path.write_text(json.dumps(payload), encoding="utf-8")
    assert perturbed(ran, "fb237-sweep", tmp_path, edit)


def test_compare_cell_changed_fails(ran, tmp_path):
    def edit(out):
        _rewrite(out / "compare.txt",
                 lambda t: re.sub(r"(mrr\s+)(\d)", lambda m: m.group(1) + str(
                     (int(m.group(2)) + 1) % 10), t, count=1))
    assert perturbed(ran, "fb237-sweep", tmp_path, edit)


def test_stats_check_catches_a_wrong_count(ran):
    workload, inputs, _ = ran["fb237-sweep"]
    proc = subprocess.run([sys.executable, "-c", run.CLI_MAIN, "stats", "--dataset",
                           str(inputs / "dataset")], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(run.SRC)))
    assert run.check_stats(inputs, workload.shape, proc.stdout) == []
    wrong = proc.stdout.replace('"n_triples": ', '"n_triples": 1')
    assert run.check_stats(inputs, workload.shape, wrong)


def test_later_round_differing_from_checked_round_fails(ran, tmp_path):
    _, _, outputs = ran["wn18rr-grid"]
    copy = tmp_path / "again"
    shutil.copytree(outputs, copy)
    assert run.same_outputs(outputs, copy) == []
    _rewrite(copy / "sweep" / "surface.csv", lambda t: t.replace("0.", "1.", 1))
    assert run.same_outputs(outputs, copy)


def test_inputs_repeat_per_seed(tmp_path):
    workload = workloads.scaled(workloads.WORKLOADS["fb237-rank"], SCALE)
    a = workloads.cached_inputs(tmp_path / "a", workload, seed=5)
    b = workloads.cached_inputs(tmp_path / "b", workload, seed=5)
    for name in ("dataset/train.txt", "dataset/test.txt", "scores.jsonl",
                 "expected_ranks.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    c = workloads.cached_inputs(tmp_path / "a", workload, seed=6)
    assert (c / "scores.jsonl").read_bytes() != (b / "scores.jsonl").read_bytes()
    assert not a.exists()  # the cache keeps one seed


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_benchmark_metric_is_printed_with_its_unit(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {m["name"]: m["unit"] for m in spec[section]}
    for workload in spec["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload["name"],
             "--seed", "1", "--seconds", "0", "--trace", str(trace), "--scale", str(SCALE)],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, workload["name"]
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_command_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "fb237-rank",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_child_peak_rss_is_not_the_benchmark_peak(tmp_path):
    ballast = bytearray(200 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(ballast[::4096])  # touch every page: raise our own peak
    del ballast
    child = run.spawn(["-c", "pass"], tmp_path / "out", tmp_path / "err")
    assert child.code == 0
    assert child.rss_mb < 100
