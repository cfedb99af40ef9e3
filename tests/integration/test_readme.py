"""README's Python snippets run as printed.

Each ```` ```python ```` block of README.md runs in a fresh interpreter
with ``src`` on the path and the result cache under ``tmp_path``, so a
snippet that names a moved or deleted API fails here instead of in a
reader's terminal.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]
README = SRC.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_its_python_blocks():
    assert len(BLOCKS) == 3


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC),
               REPRO_CACHE_DIR=str(tmp_path / "cache"))
    proc = subprocess.run([sys.executable, "-c", block], env=env,
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
