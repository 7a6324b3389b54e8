"""Unified command line: stats, rank, eval, sweep, compare, synth.

Exit codes: 0 success, 1 validation/parse/usage errors, 2 I/O errors.
Diagnostics go to stderr with a single-line machine-parseable prefix
(``error[<category>]: message``); data goes to files or stdout.  Every
command ends in ``_emit``, which writes each output file's sidecar
manifest recording the command, resolved configuration, input digests,
tool version, and timestamp, so reruns on identical inputs produce
byte-identical data files and manifests differing only in the timestamp.
``eval``, ``compare`` and ``sweep`` check their flags, and each alpha against
the entity count, before ``_load_models`` reads any rank file, and write
nothing until every result is computed.  An output file that is an input
file, or another output file, is refused before any file is read.  Each
JSON object written from a value type is ``vars(value)``, the instance's
own field dict, so nothing may mutate it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

# No command calls BLAS, but NumPy's OpenBLAS worker thread would spin on a second core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
import numpy as np

from . import __version__
from .errors import ValidationError
from .kg_data import SPLIT_FILES, dataset_stats, export_vocabulary, load_dataset
from .metrics import (DEFAULT_HITS_KS, MetricConfig, check_edges, default_bucket_edges,
                      hits_at_k, mr, mrr, probe_score, stratified_breakdown)
from .ranking import (RankTable, TiePolicy, check_same_queries, load_rank_file,
                      rank_score_file, write_rank_file)
from .sweep import (DEFAULT_ALPHAS, DEFAULT_BASE, DEFAULT_BETAS, DEFAULT_RANK_BINS,
                    SweepGrid, histogram_export, rank_histogram, run_sweep,
                    surface_export)
from .synthetic import generate, load_profile

PROG = "probe-eval"
_JSON = json.JSONEncoder(indent=2, sort_keys=True)  # the layout of every JSON output

class _UsageError(ValidationError):
    """Bad command line; prints usage before the error line."""

    category = "usage"

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); remap to exit 1
        raise _UsageError(message, usage=self.format_usage())


@dataclass
class RunManifest:
    """Reproducibility record accompanying every output file."""

    command: str
    argv: list[str]
    config: dict
    inputs: dict[str, str] = field(default_factory=dict)

    def add_input(self, path: str | Path) -> None:
        digest = hashlib.sha256()
        with Path(path).open("rb") as handle:
            for block in iter(lambda: handle.read(1 << 16), b""):
                digest.update(block)
        self.inputs[str(path)] = f"sha256:{digest.hexdigest()}"

    def write(self, path: str | Path) -> None:
        payload = {"tool": PROG, "version": __version__, **vars(self),
                   "created_utc": datetime.now(timezone.utc).isoformat()}
        _write_json(payload, path)


def _dump_json(payload) -> str:
    return _JSON.encode(payload) + "\n"


def _write_json(payload, path: str | Path) -> None:
    Path(path).write_text(_dump_json(payload), encoding="utf-8", newline="\n")


def _input_files(args) -> list[str | Path]:
    """The files a command reads, in the order its manifest digests them:
    its --scores, --ranks or --profile, then the dataset's split files."""
    files = [getattr(args, name) for name in ("scores", "profile") if hasattr(args, name)]
    ranks = getattr(args, "ranks", [])
    files += _parse_model_files(ranks).values() if isinstance(ranks, list) else [ranks]
    if getattr(args, "dataset", None):
        files += [Path(args.dataset) / name for name in SPLIT_FILES]
    return files


def _sidecar(path: str | Path) -> str:
    return f"{path}.manifest.json"


def _file_identity(path: str | Path) -> tuple[int, int] | str:
    """What makes two names one file: its device and inode when it exists, so
    that hard links and every spelling of its path agree, else its resolved path."""
    try:
        stat = os.stat(path)
    except OSError:  # not yet written
        return os.path.realpath(path)
    return stat.st_dev, stat.st_ino


def _output_files(args) -> list[tuple[str, str | Path]]:
    """(flag, file) for every file a command writes, in the order it writes them:
    sweep's five files in its --out directory, or --export-vocab and --out,
    each followed by its sidecar."""
    if args.command == "sweep":
        return [("--out", Path(args.out) / name) for name in
                ("surface.csv", "rankings.json", "flips.json", "histogram.csv", "manifest.json")]
    flags = {"--export-vocab": getattr(args, "export_vocab", None),
             "--out": getattr(args, "out", None)}
    return [(flag, file) for flag, path in flags.items() if path
            for file in (path, _sidecar(path))]


def _emit(args, argv: list[str], config: dict, text: str | None = None,
          manifest: str | Path | None = None) -> int:
    """The one output path of every command; returns its exit code.

    ``text``, when given, is the command's data: it goes to --out, or to
    stdout when there is no --out, and stdout output gets no manifest.
    Output to files gets one manifest: ``config`` (plus --threads where the
    command has that flag) and the digests of the command's input files,
    written to ``manifest``, by default the sidecar of --out.
    """
    out = getattr(args, "out", None)
    if text is not None:
        if out is None:
            sys.stdout.write(text)
            return 0
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    if hasattr(args, "threads"):
        config = {**config, "threads": args.threads}
    record = RunManifest(args.command, argv, config)
    for path in _input_files(args):
        record.add_input(path)
    record.write(manifest or _sidecar(out))
    return 0


def _parse_list(text: str, flag: str, kind: type) -> tuple:
    """The comma-separated ints or floats (`kind`) given to `flag`."""
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise ValidationError(f"{flag} expects comma-separated {noun}, got {text!r}") \
            from None


def _parse_model_files(pairs: Sequence[str]) -> dict[str, Path]:
    models: dict[str, Path] = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ValidationError(f"--ranks expects name=path entries, got {pair!r}")
        if name in models:
            raise ValidationError(f"duplicate model name {name!r}")
        models[name] = Path(path)
    return models


def _dataset_arg(parser: _Parser, required: bool) -> None:
    parser.add_argument("--dataset", metavar="DIR", required=required,
                        help=f"directory holding {', '.join(SPLIT_FILES)}")


def _metric_args(parser: _Parser) -> None:
    """What fixes a metric's configuration apart from its cell: eval, sweep, compare."""
    _dataset_arg(parser, required=False)
    parser.add_argument("--epsilon", type=float, default=1.0,
                        help="division guard in the popularity weight (> 0)")
    parser.add_argument("--no-affine", action="store_true",
                        help="use the raw transform instead of the [0,1] affine form")
    parser.add_argument("--entities", type=int, default=None, metavar="N",
                        help="override the entity count (required without --dataset)")


def _scoring_args(parser: _Parser) -> None:
    """One (alpha, beta) score with its baselines and strata: eval, compare."""
    _metric_args(parser)
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="sharpness control factor (> 0)")
    parser.add_argument("--beta", type=float, default=0.0,
                        help="popularity-bias robustness factor (>= 0)")
    parser.add_argument("--hits", default=",".join(map(str, DEFAULT_HITS_KS)),
                        help="comma-separated Hits@K cutoffs")
    parser.add_argument("--strata", default="auto",
                        help="'auto' or comma-separated popularity bucket edges from 0")


def _load_models(args, model_files: Mapping[str, str | Path], alphas: Sequence[float],
                 beta: float) -> tuple[MetricConfig, np.ndarray | None, dict[str, RankTable]]:
    """The input path of eval, compare and sweep, once each has checked its own
    flags: the metric flags, then the dataset, then each cell (alpha, beta) of
    ``alphas``, then each nonempty rank file.

    Returns the MetricConfig at (alphas[0], beta), the dataset's popularity
    column (None without --dataset) and each model's RankTable.  Only the
    checks needing an entity count taken from the dataset run after it is read.
    Of the dataset only the entity label->id map and the popularity column
    are kept: its split arrays are released before any rank file is read.
    The tables share one string object per distinct query key.
    """
    if args.entities is not None and args.entities < 2:
        raise ValidationError(f"--entities must be >= 2, got {args.entities}")
    if args.entities is None and not args.dataset and not args.no_affine:
        raise ValidationError("affine mode needs --dataset or --entities "
                              "to fix the entity count")
    # alpha, beta and epsilon need no entity count: check them in raw mode
    config = MetricConfig(alpha=alphas[0], beta=beta, epsilon=args.epsilon, affine=False)
    graph, pop = load_dataset(args.dataset) if args.dataset else (None, None)
    vocabulary = graph.entity_ids if graph is not None else None
    del graph  # the last reference to the split arrays
    config = replace(config, affine=not args.no_affine,
                     entity_count=args.entities if args.entities is not None
                     else len(vocabulary) if vocabulary is not None else None)
    for alpha in alphas:
        config.with_cell(alpha, beta)
    tables = {}
    shared: dict[str, str] = {}
    for name, path in model_files.items():
        tables[name] = load_rank_file(path, vocabulary, pop, shared)
        if not len(tables[name]):
            raise ValidationError(f"rank file {path} holds no records")
    return config, pop, tables


def _score_models(args, model_files: Mapping[str, str | Path]
                  ) -> tuple[dict, tuple[int, ...], dict[str, dict]]:
    """Score each rank file at (--alpha, --beta), with baselines and strata.

    Returns the configuration to echo in data outputs, the Hits@K cutoffs
    and each model's metrics.  The echo holds no execution details such as
    --threads, so data outputs are byte-identical across thread counts; the
    manifest records those.  The models must rank the same queries, and
    they share one bucket scheme so that their per-stratum rows align.
    """
    hits_ks = _parse_list(args.hits, "--hits", int)
    if min(hits_ks) < 1:
        raise ValidationError(f"--hits cutoffs must be >= 1, got {list(hits_ks)}")
    if any(b <= a for a, b in zip(hits_ks, hits_ks[1:])):
        raise ValidationError(f"--hits must be strictly ascending, got {list(hits_ks)}")
    edges = (None if args.strata == "auto" else
             check_edges(_parse_list(args.strata, "--strata", int), 0, "bucket edges"))
    config, pop, tables = _load_models(args, model_files, (args.alpha,), args.beta)
    check_same_queries(tables)
    if edges is None:  # without a dataset every gold popularity is 0
        edges = default_bucket_edges(0 if pop is None else int(pop.max(initial=0)))
    return vars(config), hits_ks, {name: {
        "probe": probe_score(table, config),
        "mr": mr(table),
        "mrr": mrr(table),
        "hits": {str(k): hits_at_k(table, k) for k in hits_ks},
        "strata": [vars(s) for s in stratified_breakdown(table, edges, config)],
    } for name, table in tables.items()}


def _metrics_csv(payload: dict) -> str:
    lines = ["metric,key,value"]
    for name in ("probe", "mr", "mrr"):
        lines.append(f"{name},,{payload[name]:.17g}")
    for k, value in payload["hits"].items():
        lines.append(f"hits,{k},{value:.17g}")
    for stratum in payload["strata"]:
        key = f"{stratum['lo']}-{stratum['hi'] if stratum['hi'] is not None else 'inf'}"
        lines.append(f"stratum_count,{key},{stratum['count']}")
        score = stratum["score"]
        lines.append(f"stratum_score,{key},{'' if score is None else format(score, '.17g')}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_stats(args, argv: list[str]) -> int:
    graph, pop = load_dataset(args.dataset)
    stats = dataset_stats(graph, pop)
    if args.export_vocab:
        export_vocabulary(graph, args.export_vocab)
        # the vocabulary is an output file of its own, with its own sidecar
        _emit(args, argv, {}, manifest=_sidecar(args.export_vocab))
    text = _dump_json(vars(stats)) if args.format == "json" else stats.to_text() + "\n"
    return _emit(args, argv, {"format": args.format}, text=text)


def _cmd_rank(args, argv: list[str]) -> int:
    tie = TiePolicy(args.tie, seed=args.seed)
    graph, pop = load_dataset(args.dataset)
    table = rank_score_file(args.scores, graph, pop, tie, raw=args.raw,
                            allow_partial=args.allow_partial)
    write_rank_file(table, args.out)
    return _emit(args, argv, {"tie": tie.policy, "seed": tie.seed, "raw": args.raw})


def _cmd_eval(args, argv: list[str]) -> int:
    config, _, per_model = _score_models(args, {"model": args.ranks})
    payload = {**per_model["model"], "config": config}
    text = (_metrics_csv(payload) if args.format == "csv" else _dump_json(payload))
    return _emit(args, argv, config, text=text)


def _cmd_sweep(args, argv: list[str]) -> int:
    model_files = _parse_model_files(args.ranks)
    base = _parse_list(args.base, "--base", float)
    if len(base) != 2:
        raise ValidationError(f"--base expects alpha,beta, got {args.base!r}")
    grid = SweepGrid(alphas=_parse_list(args.alphas, "--alphas", float),
                     betas=_parse_list(args.betas, "--betas", float),
                     base=base)
    bins = check_edges(_parse_list(args.bins, "--bins", int), 1, "rank bins")
    config, _, models = _load_models(args, model_files, grid.alphas, grid.base[1])
    result = run_sweep(models, grid, config)
    histograms = {name: rank_histogram(table, bins) for name, table in models.items()}

    Path(args.out).mkdir(parents=True, exist_ok=True)
    surface, rankings, flips, histogram, manifest = (path for _, path in _output_files(args))
    surface_export(result, surface)
    _write_json({
        "base": {"alpha": grid.base[0], "beta": grid.base[1]},
        "cells": [vars(result.rankings[cell]) for cell in grid.cells()],
    }, rankings)
    _write_json([vars(flip) for flip in result.flips], flips)
    histogram_export(histograms, histogram)

    return _emit(args, argv, {
        **vars(grid), "epsilon": config.epsilon, "affine": config.affine,
        "entity_count": config.entity_count, "bins": bins,
    }, manifest=manifest)


def _cmd_compare(args, argv: list[str]) -> int:
    model_files = _parse_model_files(args.ranks)
    if len(model_files) != 2:
        raise ValidationError(f"compare needs exactly 2 models, got {len(model_files)}")
    config, hits_ks, per_model = _score_models(args, model_files)

    if args.format == "json":
        return _emit(args, argv, config,
                     text=_dump_json({"config": config, "models": per_model}))

    names = list(per_model)
    rows: list[tuple[str, list[str]]] = []
    for metric in ("probe", "mr", "mrr"):
        rows.append((metric, [f"{per_model[n][metric]:.6f}" for n in names]))
    for k in hits_ks:
        rows.append((f"hits@{k}", [f"{per_model[n]['hits'][str(k)]:.6f}" for n in names]))
    strata = per_model[names[0]]["strata"]
    for i, stratum in enumerate(strata):
        hi = stratum["hi"] if stratum["hi"] is not None else "inf"
        label = f"strata[{stratum['lo']},{hi})"
        cells = []
        for n in names:
            entry = per_model[n]["strata"][i]
            score = "-" if entry["score"] is None else f"{entry['score']:.6f}"
            cells.append(f"{score} (n={entry['count']})")
        rows.append((label, cells))

    width = max(len(label) for label, _ in rows)
    col = max(max(len(c) for c in cells) for _, cells in rows)
    col = max(col, *(len(n) for n in names))
    lines = [f"{label:<{width}}  " + "  ".join(f"{c:>{col}}" for c in cells)
             for label, cells in [("metric", names), *rows]]
    return _emit(args, argv, config, text="\n".join(lines) + "\n")


def _cmd_synth(args, argv: list[str]) -> int:
    profile = load_profile(args.profile)
    write_rank_file(generate(profile, args.n, args.seed), args.out)
    return _emit(args, argv, {"n": args.n, "seed": args.seed})


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog=PROG, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"{PROG} {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("stats", help="dataset statistics")
    _dataset_arg(p, required=True)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--export-vocab", metavar="FILE",
                   help="also write the entity vocabulary as label<TAB>id")
    p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("rank", help="rank a score file into a rank file")
    p.add_argument("--scores", required=True, metavar="FILE",
                   help="JSON-lines score rows over the exported entity order")
    _dataset_arg(p, required=True)
    p.add_argument("--tie", choices=TiePolicy.POLICIES, default="average",
                   help="how a gold entity tied with other candidates is ranked")
    p.add_argument("--seed", type=int, help="seed of the random tie policy")
    p.add_argument("--raw", action="store_true",
                   help="rank against all candidates (disable the filtered protocol)")
    p.add_argument("--allow-partial", action="store_true",
                   help="permit score files that do not cover every test query")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("eval", help="score a rank file")
    p.add_argument("--ranks", required=True, metavar="FILE")
    _scoring_args(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="evaluate models over an (alpha, beta) grid")
    p.add_argument("--ranks", required=True, nargs="+", metavar="NAME=FILE")
    _metric_args(p)
    p.add_argument("--alphas", default=",".join(map(str, DEFAULT_ALPHAS)))
    p.add_argument("--betas", default=",".join(map(str, DEFAULT_BETAS)))
    p.add_argument("--base", default=",".join(map(str, DEFAULT_BASE)),
                   help="reference cell alpha,beta")
    p.add_argument("--bins", default=",".join(map(str, DEFAULT_RANK_BINS)),
                   help="comma-separated rank histogram edges starting at 1")
    p.add_argument("--out", required=True, metavar="DIR")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare", help="two models, one cell, per-metric table")
    p.add_argument("--ranks", required=True, nargs="+", metavar="NAME=FILE")
    _scoring_args(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic rank file from a profile")
    p.add_argument("--profile", required=True, metavar="FILE")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", type=int, required=True, help="seed of the sampler")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=_cmd_synth)

    for name in ("rank", "eval", "sweep", "compare"):
        sub.choices[name].add_argument(
            "--threads", type=int, default=1,
            help="accepted (>= 1) and recorded in any manifest written; "
                 "no command uses threads")
    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Route argv to a subcommand; map failures to exit codes."""
    argv = list(argv)
    # warnings go to this call's stderr, which a host may have redirected
    # since an earlier call; the host's own logging setup is left alone
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    package_logger = logging.getLogger(__package__)
    package_logger.addHandler(handler)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise _UsageError("a subcommand is required", usage=parser.format_usage())
        if getattr(args, "threads", 1) < 1:
            raise ValidationError(f"--threads must be >= 1, got {args.threads}")
        if any("\0" in arg for arg in argv):  # no file name can hold one
            raise _UsageError("an argument holds a NUL byte")
        # no output may overwrite an input or another output
        written: dict[tuple[int, int] | str, str] = {}
        for flag, out in _output_files(args):
            identity = _file_identity(out)
            for path in _input_files(args) if os.path.exists(out) else ():
                if os.path.exists(path) and _file_identity(path) == identity:
                    raise ValidationError(f"{flag} {out} is the input file {path}; "
                                          "refusing to overwrite it")
            if identity in written:
                raise ValidationError(f"{flag} {out} is also written by {written[identity]}; "
                                      "refusing to write it twice")
            written[identity] = flag
        return args.func(args, argv)
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    except ValidationError as exc:  # a _UsageError also carries its usage text
        sys.stderr.write(f"{getattr(exc, 'usage', '')}error[{exc.category}]: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write("error[validation]: input needs more memory than is "
                         f"available ({str(exc) or 'MemoryError'})\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 2
    finally:
        package_logger.removeHandler(handler)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
