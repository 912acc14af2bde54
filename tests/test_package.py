import os
import subprocess
import sys
import types

import anop

from conftest import ROOT


def test_all_lists_no_submodules():
    leaked = [name for name in anop.__all__
              if isinstance(getattr(anop, name), types.ModuleType)]
    assert leaked == []


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    example = library.split("```python\n", 1)[1].split("```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", example], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
