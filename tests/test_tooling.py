"""Repository guards: the benchmark's tracer wraps functions that exist in
the package, float reductions go through ``metrics.exact_sum``, and ranked
queries reach the metrics only as a ``RankTable``."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

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


def test_fsum_is_called_only_inside_exact_sum():
    """math.fsum over an ndarray walks it one NumPy scalar at a time; exact_sum
    gives the same bits in a few vectorised passes, so nothing else calls fsum."""
    stray = []
    for path in sorted((ROOT / "src" / "probe_eval").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "exact_sum"
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.id if isinstance(node, ast.Name)
                    else None)
            if name == "fsum" and id(node) not in allowed:
                stray.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "fsum" for a in node.names):
                stray.append(f"{path.name}:{node.lineno}")
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
