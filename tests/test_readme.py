"""The README's "Core API sketch" runs as written, and the package exports
exactly the names it imports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import splitsgd

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    section = README.read_text(encoding="utf-8").split("## Core API sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_sketch_runs_and_writes_its_trace(tmp_path):
    src = str(Path(splitsgd.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _sketch()], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    header = (tmp_path / "trace.csv").read_text().splitlines()[0]
    assert header == "epoch,gradient_evals,learning_rate,full_loss,event"


def test_package_exports_the_sketch_imports():
    imported = [
        alias.name
        for node in ast.walk(ast.parse(_sketch()))
        if isinstance(node, ast.ImportFrom) and node.module == "splitsgd"
        for alias in node.names
    ]
    assert splitsgd.__all__ == [*imported, "__version__"]
    assert all(hasattr(splitsgd, name) for name in splitsgd.__all__)
