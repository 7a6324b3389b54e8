"""Process start-up: the package loads its modules on first use, only `rank`
loads orjson, and the command line caps NumPy's OpenBLAS at one thread unless
the user chose a count.

Each case runs in a fresh interpreter with OPENBLAS_NUM_THREADS removed from
its environment, because the test process has long since imported NumPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import probe_eval
from conftest import write_toy_dataset

PACKAGE_ROOT = str(Path(probe_eval.__file__).resolve().parent.parent)


def run_python(code: str, **env: str):
    """The JSON that `code` prints, run with this test's probe_eval on the path."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_ROOT, environ.get("PYTHONPATH")]))
    environ.update(env)
    result = subprocess.run([sys.executable, "-c", code], env=environ,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_importing_the_package_loads_no_numpy():
    loaded, variable = run_python(
        "import json, os, sys\n"
        "import probe_eval\n"
        "print(json.dumps(['numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))")
    assert loaded is False
    assert variable is None


def test_star_import_binds_every_public_name():
    unbound, listed = run_python(
        "import json\n"
        "import probe_eval\n"
        "from probe_eval import *\n"
        "print(json.dumps([[n for n in probe_eval.__all__ if n not in globals()],\n"
        "                  sorted(set(probe_eval.__all__) - set(dir(probe_eval)))]))")
    assert unbound == []
    assert listed == []


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        probe_eval.no_such_name


def test_command_line_runs_one_thread():
    variable, tasks = run_python(
        "import json, os\n"
        "from probe_eval.cli import main\n"
        "tasks = len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None\n"
        "print(json.dumps([os.environ.get('OPENBLAS_NUM_THREADS'), tasks]))")
    assert variable == "1"
    if tasks is None:
        pytest.skip("no /proc/self/task to count threads in")
    assert tasks == 1


def test_user_thread_count_is_kept():
    variable = run_python(
        "import json, os\n"
        "from probe_eval.cli import main\n"
        "print(json.dumps(os.environ['OPENBLAS_NUM_THREADS']))",
        OPENBLAS_NUM_THREADS="2")
    assert variable == "2"


def test_only_rank_loads_orjson(tmp_path):
    """orjson parses score rows, so the other commands start without it."""
    dataset = write_toy_dataset(tmp_path / "toyds")
    ranks = tmp_path / "ranks.tsv"
    ranks.write_text("d\tr1\tb\thead\t3\nd\tr1\tb\ttail\t1\n"
                     "a\tr2\tc\thead\t2\na\tr2\tc\ttail\t4\n", encoding="utf-8")
    profile = tmp_path / "profile.json"
    profile.write_text('{"kind": "explicit", "ranks": [1, 2, 4]}', encoding="utf-8")
    scores = tmp_path / "scores.jsonl"
    scores.write_text(json.dumps({"head": "d", "relation": "r1", "tail": "b", "direction":
                                  "head", "scores": [0.1, 0.2, 0.3, 0.4]}) + "\n",
                      encoding="utf-8")
    commands = [
        ["stats", "--dataset", str(dataset)],
        ["eval", "--ranks", str(ranks), "--dataset", str(dataset)],
        ["compare", "--ranks", f"a={ranks}", f"b={ranks}", "--dataset", str(dataset)],
        ["sweep", "--ranks", f"a={ranks}", f"b={ranks}", "--dataset", str(dataset),
         "--out", str(tmp_path / "sweep")],
        ["synth", "--profile", str(profile), "--n", "3", "--seed", "0",
         "--out", str(tmp_path / "synth.tsv")],
        ["rank", "--scores", str(scores), "--dataset", str(dataset), "--allow-partial",
         "--out", str(tmp_path / "rank.tsv")],
    ]
    loaded = run_python(
        "import contextlib, io, json, sys\n"
        "from probe_eval.cli import dispatch\n"
        "loaded = [['import', 0, 'orjson' in sys.modules]]\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = dispatch(argv)\n"
        "    loaded.append([argv[0], code, 'orjson' in sys.modules])\n"
        "print(json.dumps(loaded))")
    assert loaded == [["import", 0, False], ["stats", 0, False], ["eval", 0, False],
                      ["compare", 0, False], ["sweep", 0, False], ["synth", 0, False],
                      ["rank", 0, True]]
