"""In-process pass of a workload's command sequence, traced or not.

Run as a child of ``run.py``::

    python3 bench/tracing.py --src SRC --commands commands.json --out result.json [--traced]

It times ``import probe_eval.cli``, then runs every command through
``probe_eval.cli.dispatch`` in this one process.  With ``--traced`` the
public functions of each measured layer are wrapped, in their home
module and in the ``probe_eval.cli`` namespace, so that each call
records a span: name, start, end, parent span, and the growth of the
process's RSS high-water mark across the call.  Spans are kept in
memory and written to ``--out`` when the pass ends.  Times are process
CPU seconds (``time.process_time``), the clock of the headline metrics.

``layer_metrics`` turns the spans of a traced pass (and the CPU time of
an untraced pass) into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# (span name, module, attribute) of every traced function.  Class methods
# are given as "Class.method".
TRACED = [
    ("cli.dispatch", "cli", "dispatch"),
    ("cli.manifest", "cli", "RunManifest.add_input"),
    ("cli.manifest", "cli", "RunManifest.write"),
    ("kg_data.load_dataset", "kg_data", "load_dataset"),
    ("ranking.make_queries", "ranking", "make_queries"),
    ("ranking.filter_set", "ranking", "filter_set"),
    ("ranking.iter_score_rows", "ranking", "iter_score_rows"),
    ("ranking.rank_of_gold", "ranking", "rank_of_gold"),
    ("ranking.rank_score_file", "ranking", "rank_score_file"),
    ("ranking.write_rank_file", "ranking", "write_rank_file"),
    ("ranking.load_rank_file", "ranking", "load_rank_file"),
    ("metrics.probe_score", "metrics", "probe_score"),
    ("metrics.baselines", "metrics", "mr"),
    ("metrics.baselines", "metrics", "mrr"),
    ("metrics.baselines", "metrics", "hits_at_k"),
    ("metrics.stratified_breakdown", "metrics", "stratified_breakdown"),
    ("sweep.run_sweep", "sweep", "run_sweep"),
    ("sweep.find_flips", "sweep", "find_flips"),
    ("sweep.rank_histogram", "sweep", "rank_histogram"),
    ("sweep.export", "sweep", "surface_export"),
    ("sweep.export", "sweep", "histogram_export"),
]

# Per-layer metrics: name -> unit, in the order they are reported.
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.dispatch_self_s": "s",
    "cli.manifest_s": "s",
    "cli.manifest_peak_mb": "MB",
    "kg_data.load_dataset_s": "s",
    "kg_data.triples_per_s": "1/s",
    "kg_data.load_dataset_peak_mb": "MB",
    "ranking.make_queries_s": "s",
    "ranking.filter_set_s": "s",
    "ranking.filter_set_peak_mb": "MB",
    "ranking.iter_score_rows_s": "s",
    "ranking.score_parse_mb_per_s": "MB/s",
    "ranking.rank_of_gold_s": "s",
    "ranking.rank_score_file_peak_mb": "MB",
    "ranking.write_rank_file_s": "s",
    "ranking.load_rank_file_s": "s",
    "ranking.load_rank_records_per_s": "1/s",
    "metrics.probe_score_s": "s",
    "metrics.baselines_s": "s",
    "metrics.stratified_breakdown_s": "s",
    "sweep.run_sweep_self_s": "s",
    "sweep.cell_score_us": "us",
    "sweep.find_flips_s": "s",
    "sweep.rank_histogram_s": "s",
    "sweep.export_s": "s",
    "trace.overhead_s": "s",
}

MIB = 1024 * 1024


def _max_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Span recorder: one list of [name, start, end, parent, rss_kb]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        record = [name, 0.0, 0.0, parent, 0]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        rss = _max_rss_kb()
        record[1] = time.process_time()
        try:
            yield
        finally:
            record[2] = time.process_time()
            record[4] = _max_rss_kb() - rss
            self._open.pop()

    def wrap(self, name: str, fn):
        if name == "ranking.iter_score_rows":
            @functools.wraps(fn)
            def rows(path, *args, **kwargs):
                self.count("score_bytes", os.path.getsize(path))
                inner = fn(path, *args, **kwargs)
                while True:
                    with self.span(name):
                        row = next(inner, None)
                    if row is None:
                        return
                    yield row
            return rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if name == "kg_data.load_dataset":
                graph = result[0]
                self.count("triples", len(graph.train) + len(graph.valid) + len(graph.test))
            elif name == "ranking.load_rank_file":
                self.count("rank_records", len(result))
            elif name == "sweep.run_sweep":
                self.count("model_cells", len(result.models) * len(result.cells))
            return result
        return traced


def install(tracer: Tracer) -> None:
    """Replace each traced function in its home module and in the cli namespace."""
    cli = importlib.import_module("probe_eval.cli")
    wrappers = {}
    for name, module_name, attr in TRACED:
        module = importlib.import_module(f"probe_eval.{module_name}")
        owner, _, leaf = attr.rpartition(".")
        target = getattr(module, owner) if owner else module
        original = getattr(target, leaf)
        wrapper = wrappers.setdefault(id(original), tracer.wrap(name, original))
        setattr(target, leaf, wrapper)
        if not owner and getattr(cli, leaf, None) is original:
            setattr(cli, leaf, wrapper)


def run_pass(commands: list[dict], traced: bool) -> dict:
    started = time.process_time()
    cli = importlib.import_module("probe_eval.cli")
    import_s = time.process_time() - started
    tracer = Tracer()
    if traced:
        install(tracer)
    codes = []
    started = time.process_time()
    for command in commands:
        with contextlib.ExitStack() as stack:
            if command["stdout"]:
                handle = stack.enter_context(open(command["stdout"], "w", encoding="utf-8"))
                stack.enter_context(contextlib.redirect_stdout(handle))
            codes.append(cli.dispatch(command["argv"]))
    return {"import_s": import_s, "pass_cpu_s": time.process_time() - started,
            "codes": codes, "spans": tracer.spans, "counters": tracer.counters}


# ---------------------------------------------------------------------------
# Aggregation


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Per-layer metrics from a traced pass; 0 where the layer did not run."""
    spans = traced["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    peak: dict[str, float] = {}
    for i, (name, start, end, _, rss_kb) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child_time[i])
        peak[name] = max(peak.get(name, 0.0), rss_kb / 1024)
    counters = traced["counters"]

    def rate(amount: float, seconds: float) -> float:
        return amount / seconds if seconds > 0 else 0.0

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    out = {
        "cli.import_s": traced["import_s"],
        "cli.dispatch_self_s": self_time.get("cli.dispatch", 0.0),
        "cli.manifest_s": t("cli.manifest"),
        "cli.manifest_peak_mb": peak.get("cli.manifest", 0.0),
        "kg_data.load_dataset_s": t("kg_data.load_dataset"),
        "kg_data.triples_per_s": rate(counters.get("triples", 0), t("kg_data.load_dataset")),
        "kg_data.load_dataset_peak_mb": peak.get("kg_data.load_dataset", 0.0),
        "ranking.make_queries_s": t("ranking.make_queries"),
        "ranking.filter_set_s": t("ranking.filter_set"),
        "ranking.filter_set_peak_mb": peak.get("ranking.filter_set", 0.0),
        "ranking.iter_score_rows_s": t("ranking.iter_score_rows"),
        "ranking.score_parse_mb_per_s": rate(counters.get("score_bytes", 0) / MIB,
                                             t("ranking.iter_score_rows")),
        "ranking.rank_of_gold_s": t("ranking.rank_of_gold"),
        "ranking.rank_score_file_peak_mb": peak.get("ranking.rank_score_file", 0.0),
        "ranking.write_rank_file_s": t("ranking.write_rank_file"),
        "ranking.load_rank_file_s": t("ranking.load_rank_file"),
        "ranking.load_rank_records_per_s": rate(counters.get("rank_records", 0),
                                                t("ranking.load_rank_file")),
        "metrics.probe_score_s": t("metrics.probe_score"),
        "metrics.baselines_s": t("metrics.baselines"),
        "metrics.stratified_breakdown_s": t("metrics.stratified_breakdown"),
        "sweep.run_sweep_self_s": self_time.get("sweep.run_sweep", 0.0),
        "sweep.cell_score_us": 1e6 * rate(self_time.get("sweep.run_sweep", 0.0),
                                          counters.get("model_cells", 0)),
        "sweep.find_flips_s": t("sweep.find_flips"),
        "sweep.rank_histogram_s": t("sweep.rank_histogram"),
        "sweep.export_s": t("sweep.export"),
        "trace.overhead_s": traced["pass_cpu_s"] - untraced["pass_cpu_s"],
    }
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding probe_eval")
    parser.add_argument("--commands", required=True, help="JSON list of commands")
    parser.add_argument("--out", required=True, help="where to write the pass result")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    commands = json.loads(Path(args.commands).read_text(encoding="utf-8"))
    result = run_pass(commands, args.traced)
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
