"""Benchmark of the probe-eval command line on three seeded workloads.

    python3 bench/run.py --workload fb237-rank --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload wn18rr-grid --seed 1 --repeat 10

Each run generates (or reuses) the workload's inputs for the seed, then
runs the ``probe-eval`` CLI of this checkout (``src/``) as child
processes, one at a time, with ``--threads 1``, and checks every output
against values computed apart from the program (``checks.py``).

``--trace 0`` measures the end-to-end metrics: three ``stats`` set-ups,
then rounds of the workload's command sequence until ``--seconds`` have
passed (at least one round).  CPU time and peak RSS come from each
child's ``os.wait4`` rusage.  ``--trace 1`` instead runs the sequence in
one traced process and one untraced process (``tracing.py``) and
reports the per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--repeat N`` runs the workload N times on seeds seed..seed+N-1 and
prints the median and quartiles of each end-to-end metric, with its
spread (quartile distance over median) next to its bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
CLI_MAIN = "from probe_eval.cli import main; main()"  # what the probe-eval script runs
MODELS = workloads.MODEL_PROFILES
COMPARED = ("sharp", "steady")  # the eval/compare pair of fb237-sweep

END_TO_END = {"setup_s": "s", "run_wall_s": "s", "run_cpu_s": "s", "peak_rss_mb": "MB"}

# A child started with vfork() (or posix_spawn) reports in ru_maxrss the peak
# RSS of this process if that is higher than its own; after fork() it
# reports this process's resident size at the fork, if higher.  So children
# are forked, and this process stays small (inputs are generated in a child).
subprocess._USE_VFORK = False


@dataclass(frozen=True)
class Command:
    argv: list[str]
    stdout: str | None = None  # file name in the output directory, if captured


@dataclass(frozen=True)
class ChildRun:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args: list[str], stdout: Path, stderr: Path) -> ChildRun:
    """Run ``python3 *args`` against this checkout's sources; read its rusage."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with stdout.open("wb") as out, stderr.open("wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)


# ---------------------------------------------------------------------------
# Command sequences


def stats_command(inputs: Path) -> Command:
    return Command(["stats", "--dataset", str(inputs / "dataset")], stdout="stats.json")


def sequence(workload: workloads.Workload, inputs: Path, out: Path) -> list[Command]:
    dataset = ["--dataset", str(inputs / "dataset")]
    if workload.score_rows:
        return [Command(["rank", "--scores", str(inputs / "scores.jsonl"), *dataset,
                         "--tie", "average", "--allow-partial", "--threads", "1",
                         "--out", str(out / "ranks.tsv")])]
    ranks = [f"{m}={inputs / f'{m}.tsv'}" for m in MODELS]
    grid = []
    if workload.grid:
        alphas, betas = workload.grid
        grid = ["--alphas", ",".join(map(repr, alphas)), "--betas", ",".join(map(repr, betas))]
    sweep = Command(["sweep", "--ranks", *ranks, *dataset, *grid, "--threads", "1",
                     "--out", str(out / "sweep")])
    if workload.grid:
        return [sweep]
    return [
        *(Command(["eval", "--ranks", str(inputs / f"{m}.tsv"), *dataset, "--threads", "1",
                   "--out", str(out / f"eval_{m}.json")]) for m in COMPARED),
        Command(["compare", "--ranks", *(f"{m}={inputs / f'{m}.tsv'}" for m in COMPARED),
                 *dataset, "--threads", "1"], stdout="compare.txt"),
        sweep,
    ]


# ---------------------------------------------------------------------------
# Checks


def check_outputs(workload: workloads.Workload, inputs: Path, out: Path) -> list[str]:
    """Every output of one pass of the sequence, against the independent values."""
    try:
        return _check_outputs(workload, inputs, out)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or garbled output
        return [f"output unreadable: {exc!r}"]


def _check_outputs(workload: workloads.Workload, inputs: Path, out: Path) -> list[str]:
    if workload.score_rows:
        expected = (inputs / "expected_ranks.tsv").read_text(encoding="utf-8").splitlines()
        return checks.check_rank_file(out / "ranks.tsv", expected)
    data = np.load(inputs / "expected.npz")
    pop = data["popularity"]
    gold_pop = pop[workloads.gold_of(data["queries"])]
    n_entities = len(pop)
    ranks = {m: data[f"ranks_{m}"] for m in MODELS}
    models = {m: checks.ModelScores(r, gold_pop, n_entities) for m, r in ranks.items()}
    grid = workload.grid or (checks.DEFAULT_ALPHAS, checks.DEFAULT_BETAS)
    errors = checks.check_sweep(out / "sweep", models, *grid, ranks)
    if not workload.grid:
        payloads = [checks.expected_eval(ranks[m], gold_pop, int(pop.max()), n_entities)
                    for m in COMPARED]
        for m, payload in zip(COMPARED, payloads):
            errors += checks.check_eval(out / f"eval_{m}.json", payload, n_entities)
        errors += checks.check_compare(out / "compare.txt", list(COMPARED), payloads)
    return errors


def check_stats(inputs: Path, shape: workloads.DatasetShape, text: str) -> list[str]:
    pop = np.load(inputs / "expected.npz")["popularity"]
    want = {"n_entities": shape.entities, "n_relations": shape.relations,
            "n_triples": shape.train, "delta_avg": int(pop.sum()) / shape.entities,
            "delta_max": int(pop.max())}
    try:
        got = json.loads(text)
    except ValueError:
        return [f"stats output is not JSON: {text[:80]!r}"]
    return [] if got == want else [f"stats {got} != expected {want}"]


def same_outputs(first: Path, other: Path) -> list[str]:
    """Data files of a later pass are byte-identical to the checked pass.

    Manifests are skipped: they carry a timestamp.
    """
    errors = []
    for path in sorted(first.rglob("*")):
        if path.is_dir() or path.name.endswith("manifest.json") or path.suffix == ".err":
            continue
        twin = other / path.relative_to(first)
        if not twin.is_file() or twin.read_bytes() != path.read_bytes():
            errors.append(f"{twin} differs from the checked output {path}")
    return errors


# ---------------------------------------------------------------------------
# Runs


def run_commands(commands: list[Command], out: Path) -> list[ChildRun]:
    out.mkdir(parents=True, exist_ok=True)
    runs = []
    for i, command in enumerate(commands):
        stdout = out / (command.stdout or f"cmd{i}.out")
        runs.append(spawn(["-c", CLI_MAIN, *command.argv], stdout, out / f"cmd{i}.err"))
    return runs


def measure(workload: workloads.Workload, inputs: Path, work: Path,
            seconds: float) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics, attempted and failed commands, and check errors."""
    started = time.perf_counter()
    setups = [run_commands([stats_command(inputs)], work / f"setup{i}")[0]
              for i in range(SETUP_REPEATS)]
    rounds: list[list[ChildRun]] = []
    while not rounds or time.perf_counter() - started < seconds:
        out = work / f"round{len(rounds)}"
        rounds.append(run_commands(sequence(workload, inputs, out), out))

    children = setups + [run for r in rounds for run in r]
    errors = check_stats(inputs, workload.shape,
                         (work / "setup0" / "stats.json").read_text(encoding="utf-8"))
    errors += check_outputs(workload, inputs, work / "round0")
    for i in range(1, len(rounds)):
        errors += same_outputs(work / "round0", work / f"round{i}")
    metrics = {
        "setup_s": statistics.median(run.cpu_s for run in setups),
        "run_wall_s": statistics.median(sum(run.wall_s for run in r) for r in rounds),
        "run_cpu_s": statistics.median(sum(run.cpu_s for run in r) for r in rounds),
        "peak_rss_mb": max(run.rss_mb for r in rounds for run in r),
    }
    failed = sum(run.code != 0 for run in children)
    return metrics, len(children), failed, errors


def trace(workload: workloads.Workload, inputs: Path, work: Path) -> tuple[dict, int, int,
                                                                           list[str]]:
    """Per-layer metrics from one traced and one untraced in-process pass."""
    passes = {}
    for mode in ("traced", "untraced"):
        out = work / mode
        out.mkdir(parents=True)
        commands = [{"argv": c.argv, "stdout": str(out / c.stdout) if c.stdout else None}
                    for c in sequence(workload, inputs, out)]
        (work / f"{mode}.commands.json").write_text(json.dumps(commands), encoding="utf-8")
        result = work / f"{mode}.json"
        argv = [str(Path(__file__).with_name("tracing.py")), "--src", str(SRC),
                "--commands", str(work / f"{mode}.commands.json"), "--out", str(result)]
        if mode == "traced":
            argv.append("--traced")
        child = spawn(argv, work / f"{mode}.out", work / f"{mode}.err")
        if child.code != 0 or not result.exists():
            err = (work / f"{mode}.err").read_text(encoding="utf-8")[-2000:]
            raise RuntimeError(f"{mode} pass failed with code {child.code}:\n{err}")
        passes[mode] = json.loads(result.read_text(encoding="utf-8"))
    errors = check_outputs(workload, inputs, work / "traced")
    errors += same_outputs(work / "traced", work / "untraced")
    codes = passes["traced"]["codes"] + passes["untraced"]["codes"]
    metrics = tracing.layer_metrics(passes["traced"], passes["untraced"])
    return metrics, len(codes), sum(code != 0 for code in codes), errors


def run_once(name: str, seed: int, seconds: float, traced: bool,
             scale: float = 1.0) -> dict:
    workload = workloads.WORKLOADS[name]
    tag = name
    if scale != 1.0:
        workload, tag = workloads.scaled(workload, scale), f"{name}@{scale:g}"
    work = RUNS / tag
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    # Generating in a child keeps this process small: a forked child's
    # ru_maxrss starts from this process's resident size.
    generator = spawn([str(Path(__file__).with_name("workloads.py")), "--workload", name,
                       "--seed", str(seed), "--scale", str(scale),
                       "--cache", str(ROOT / ".bench_cache" / tag)],
                      work / "inputs.out", work / "inputs.err")
    if generator.code != 0:
        raise RuntimeError("input generation failed:\n"
                           + (work / "inputs.err").read_text(encoding="utf-8")[-2000:])
    inputs = Path((work / "inputs.out").read_text(encoding="utf-8").strip())
    if traced:
        metrics, attempted, failed, errors = trace(workload, inputs, work)
        units = tracing.LAYER_METRICS
    else:
        metrics, attempted, failed, errors = measure(workload, inputs, work, seconds)
        units = END_TO_END
    for error in errors[:20]:
        print(f"check failed: {error}", file=sys.stderr)
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


def repeat(name: str, seed: int, seconds: float, count: int, scale: float) -> dict:
    """Run one workload `count` times on consecutive seeds; summarise each metric."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"]
                  for m in json.loads(spec.read_text(encoding="utf-8"))["end_to_end"]}
    values: dict[str, list[float]] = {k: [] for k in END_TO_END}
    correct, attempted, failed = True, 0, 0
    for i in range(count):
        result = run_once(name, seed + i, seconds, False, scale)
        print(json.dumps(result), flush=True)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for k in values:
            values[k].append(result["metrics"][k]["value"])
    summary = {}
    for k, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        spread = (q3 - q1) / median
        summary[k] = {"unit": END_TO_END[k], "median": median, "q1": q1, "q3": q3,
                      "spread": spread, "bound": bounds.get(k)}
        print(f"{name} {k}: median {median:.4f} {END_TO_END[k]}  quartiles "
              f"[{q1:.4f}, {q3:.4f}]  spread {spread:.3f}  bound {bounds.get(k)}",
              file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "workload": name, "runs": count, "summary": summary}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run N times on consecutive seeds and summarise")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the dataset (the benchmark's own tests use 0.02)")
    args = parser.parse_args(argv)
    if not (SRC / "probe_eval" / "cli.py").is_file():
        print(f"error: no probe_eval sources under {SRC}", file=sys.stderr)
        return 2
    if args.repeat:
        result = repeat(args.workload, args.seed, args.seconds, args.repeat, args.scale)
    else:
        result = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.scale)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
