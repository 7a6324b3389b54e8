"""The benchmark's tracer wraps functions that exist in the package."""

from __future__ import annotations

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
