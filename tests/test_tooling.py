"""Repository guards: the benchmark's tracer wraps functions that exist in
the package, float reductions go through ``metrics.exact_sum``, PROBE
scores come only from ``metrics.score_grid``, ``math.isfinite`` is called
only by ``metrics.MetricConfig``, ranked queries reach the
metrics only as a ``RankTable``, every manifest is written by ``cli._emit``,
every rank file is read by ``cli._load_models``, files are identified only by
``cli._file_identity``, every tab-separated input goes through
``errors.read_rows``, orjson is imported and called only in
``ranking.iter_score_rows``, every value type is a dataclass whose fields are its
file form (no ``asdict``, no ``to_json_dict``), every public name has
a caller outside the tests, np.unique is never asked for its values alone,
nothing calls BLAS, every text writer pins its line ending, the command-line
options are pinned and each named in the README, every profile field (a
profile file's JSON key) is named in the README, and every ``module.name``
the README cites exists."""

from __future__ import annotations

import argparse
import ast
import dataclasses
import enum
import importlib
import importlib.util
import re
from pathlib import Path

import probe_eval
from probe_eval.cli import build_parser
from probe_eval.synthetic import ExplicitProfile, MixtureProfile, PopularityStratum

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_function_resolves():
    """A renamed or deleted function would otherwise break only a traced bench run."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for _, module_name, attr in tracing.TRACED:
        target = importlib.import_module(f"probe_eval.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"probe_eval.{module_name}.{attr}")
    assert missing == []


def _nodes_inside(tree: ast.AST, function: str) -> set[int]:
    """ids of the AST nodes within every definition of `function` (or class)."""
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef)) and fn.name == function
            for node in ast.walk(fn)}


def test_fsum_is_called_only_inside_exact_sum():
    """math.fsum over an ndarray walks it one NumPy scalar at a time; exact_sum
    gives the same bits in a few vectorised passes, so nothing else calls fsum."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "exact_sum")
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if name == "fsum" and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "fsum" for a in node.names):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_isfinite_is_called_only_inside_metric_config():
    """The domain of alpha, beta and epsilon is MetricConfig's: a sweep grid or
    a command checks a value by constructing one, not by a rule of its own."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "MetricConfig")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "isfinite"
                    and isinstance(node.value, ast.Name) and node.value.id == "math"
                    and id(node) not in allowed):
                stray.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.ImportFrom) and node.module == "math"
                    and any(a.name == "isfinite" for a in node.names)):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_probe_arithmetic_is_only_in_score_grid():
    """probe_score, every stratum and every sweep cell are scored by score_grid,
    so no other code in metrics.py or sweep.py weights or transforms ranks."""
    stray = []
    for name in ("metrics.py", "sweep.py"):
        tree = ast.parse((ROOT / "src" / "probe_eval" / name).read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "score_grid")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called in ("popularity_weights", "power"):
                    stray.append(f"{name}:{node.lineno}")
    assert stray == []


def test_rank_record_is_named_only_in_ranking():
    """RankRecord is rank_of_gold's result; a set of ranked queries is a RankTable,
    so no other module may build or accept per-record lists."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        if path.name == "ranking.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.value] if isinstance(node, ast.Constant) else [])
            if "RankRecord" in names:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_manifests_are_built_only_in_emit():
    """_emit alone builds a RunManifest, and _sidecar alone names a sidecar path,
    so every output file's manifest records its inputs, --threads and the
    dataset alike, and dispatch checks the same sidecar names _emit writes."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "_emit") | _nodes_inside(tree, "_sidecar")
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "RunManifest"):
                stray.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and ".manifest.json" in node.value):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_file_identity_is_decided_only_in_file_identity():
    """os.path.samefile, os.path.realpath and os.stat are called only inside
    cli._file_identity, so every rule on output files (no output overwrites an
    input or another output) compares files by one notion of "the same file",
    hard links and every spelling of a path included."""
    identity_calls = {("os", "path", "samefile"), ("os", "path", "realpath"), ("os", "stat")}
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "_file_identity")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                parts, func = [], node.func
                while isinstance(func, ast.Attribute):
                    parts.insert(0, func.attr)
                    func = func.value
                if isinstance(func, ast.Name) and (func.id, *parts) in identity_calls:
                    stray.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom):
                module = tuple((node.module or "").split("."))
                if any((*module, a.name) in identity_calls for a in node.names):
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_rank_files_are_read_only_in_load_models():
    """eval, compare and sweep read their rank files through _load_models, after
    their own flags are checked, so no flag is reported only after a file is read."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "_load_models")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called == "load_rank_file":
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_open_text_is_called_only_in_the_readers():
    """Triple and rank files are read by read_rows, score files by iter_score_rows
    and profiles by load_profile, so line ends, byte-order marks, field checks and
    error line numbers are handled in one place per format."""
    readers = ("read_rows", "iter_score_rows", "load_profile")
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set().union(*(_nodes_inside(tree, name) for name in readers))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed:
                func = node.func
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called == "open_text":
                    stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_orjson_is_used_only_in_iter_score_rows():
    """orjson parses score rows alone, with json.loads as its fallback there, and
    is imported inside iter_score_rows so that no other command loads it."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = _nodes_inside(tree, "iter_score_rows")
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] + [node.module]
                     if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.id] if isinstance(node, ast.Name) else [])
            if "orjson" in names and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_every_text_writer_pins_its_line_ending():
    """Each write_text, and each open in a text write mode, passes newline=, so
    that output files end lines in LF on every platform."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called == "open":
                # Path.open takes the mode first, the builtin open second
                position = 0 if isinstance(func, ast.Attribute) else 1
                modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
                mode = (modes or node.args[position:position + 1] or [ast.Constant("r")])[0]
                mode = mode.value if isinstance(mode, ast.Constant) else "w"  # unknown: a write
                if set(mode).isdisjoint("wax+") or "b" in mode:
                    continue
            elif called != "write_text":
                continue
            if not any(kw.arg == "newline" for kw in node.keywords):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_value_types_are_dataclasses():
    """A value type declares its fields once, as a dataclass, which derives its
    constructor, equality and repr; only exceptions, enums and the argument
    parser are plain classes."""
    plain = (Exception, enum.Enum, argparse.ArgumentParser)
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(getattr(d, "id", None) == "dataclass" for d in decorators):
                continue
            cls = getattr(importlib.import_module(f"probe_eval.{path.stem}"), node.name, None)
            if not (isinstance(cls, type) and issubclass(cls, plain)):
                stray.append(f"{path.name}:{node.name}")
    assert stray == []


def test_value_types_are_written_through_vars():
    """A value type's fields are the keys of the JSON object a command writes
    from it, as ``vars(value)``: nothing under src/ names dataclasses.asdict,
    which deep-copies each object, and no function there is named to_json_dict,
    which would list the keys a second time."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name)
                     else [node.name] if isinstance(node, ast.FunctionDef) else [])
            if {"asdict", "to_json_dict"}.intersection(names):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


def test_public_names_have_a_product_caller():
    """Every name in probe_eval.__all__ is used by the package outside its own
    definition, or imported by the acceptance tests, so the unit tests run what
    the command line runs and no public function exists only for them."""
    missing = set(probe_eval.__all__)
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        if path.name == "__init__.py":  # it lists every public name
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if name in missing and id(node) not in _nodes_inside(tree, name):
                missing.discard(name)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in ast.walk(acceptance):
        if isinstance(node, ast.ImportFrom):
            missing.difference_update(alias.name for alias in node.names)
    assert sorted(missing) == []


def test_np_unique_returns_more_than_the_values():
    """A bare np.unique takes a slower path: on the 272,115 int64 keys of an
    FB15k237-shaped training split it took 169 ms where np.sort took 2.6 ms
    (NumPy 2.4.6, shared 2-core x86 machine), so distinct sorted values come
    from np.sort and an np.diff mask, and np.unique is called only for an
    index, inverse or counts."""
    flags = {"return_index", "return_inverse", "return_counts"}
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "unique"
                    and not flags & {keyword.arg for keyword in node.keywords}):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def test_nothing_calls_blas():
    """The command line runs OpenBLAS on one thread, which costs nothing only
    while no code in the package multiplies matrices."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                     else [node.attr] if isinstance(node, ast.Attribute)
                     else [node.id] if isinstance(node, ast.Name) else [])
            if (BLAS_CALLS.intersection(names)
                    or isinstance(getattr(node, "op", None), ast.MatMult)):
                stray.append(f"{path.name}:{node.lineno}")
    assert stray == []


# Every option string of each subcommand ("" is the top-level parser), -h aside.
CLI_OPTIONS = {
    "": {"--version"},
    "stats": {"--dataset", "--format", "--export-vocab", "--out"},
    "rank": {"--scores", "--dataset", "--tie", "--seed", "--raw", "--allow-partial",
             "--out", "--threads"},
    "eval": {"--ranks", "--dataset", "--epsilon", "--no-affine", "--entities", "--alpha",
             "--beta", "--hits", "--strata", "--format", "--out", "--threads"},
    "sweep": {"--ranks", "--dataset", "--epsilon", "--no-affine", "--entities", "--alphas",
              "--betas", "--base", "--bins", "--out", "--threads"},
    "compare": {"--ranks", "--dataset", "--epsilon", "--no-affine", "--entities", "--alpha",
                "--beta", "--hits", "--strata", "--format", "--threads"},
    "synth": {"--profile", "--n", "--seed", "--out"},
}


def test_cli_options_are_pinned():
    """An added or removed flag changes the command-line contract: it must
    show up here, in review, not only in --help."""
    def options(parser):
        return {option for action in parser._actions for option in action.option_strings
                if option not in ("-h", "--help")}

    parser = build_parser()
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    found = {"": options(parser)}
    found.update((name, options(sub)) for name, sub in subparsers.choices.items())
    assert found == CLI_OPTIONS


def test_every_cli_option_is_in_the_readme():
    """Each pinned option appears in README.md as a whole option, so that
    --alphas does not stand in for --alpha."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = sorted({option for options in CLI_OPTIONS.values() for option in options
                      if not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)})
    assert missing == []


def test_every_profile_field_is_in_the_readme():
    """A profile's dataclass fields are its JSON keys, so each one appears in
    README.md, backticked or as a JSON key."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = sorted(f.name for cls in (PopularityStratum, ExplicitProfile, MixtureProfile)
                     for f in dataclasses.fields(cls)
                     if f"`{f.name}`" not in readme and f'"{f.name}":' not in readme)
    assert missing == []


def test_readme_code_references_resolve():
    """Each backticked ``module.name`` in README.md whose module is a probe_eval
    submodule names an attribute of that module, so a renamed or deleted
    function cannot stay cited."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    submodules = {path.stem for path in (ROOT / "src" / "probe_eval").glob("*.py")}
    cited = [(module, name) for module, name in re.findall(r"`(\w+)\.(\w+)`", readme)
             if module in submodules]
    assert cited
    missing = [f"{module}.{name}" for module, name in cited
               if not hasattr(importlib.import_module(f"probe_eval.{module}"), name)]
    assert missing == []
