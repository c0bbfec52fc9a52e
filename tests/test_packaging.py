import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import finitefreq


def test_cli_import_leaves_scipy_unloaded():
    # scipy is a test-only dependency: the package and its CLI must not import it
    code = "import sys, finitefreq.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = str(Path(finitefreq.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=src, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"


def test_every_traced_name_is_a_package_function(monkeypatch):
    # the benchmark's tracer binds these names when it installs, and raises on a missing one
    path = Path(__file__).resolve().parents[1] / "benches" / "tracing.py"
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up
    spec.loader.exec_module(tracing)
    before.add(spec.name)
    assert {m.split(".")[0] for m in set(sys.modules) - before} <= sys.stdlib_module_names
    for module, names in tracing.TARGETS.items():
        home = importlib.import_module(f"finitefreq.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"finitefreq.{module}.{name}"
