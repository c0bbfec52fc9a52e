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
