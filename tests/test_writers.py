"""Each golden writer, run as a script from src/, rewrites its tests/golden directory exactly.

CI's install-smoke job runs the same scripts against the installed
package and `diff -r`s their output with tests/golden, so the file
names, the file contents and the manifests the writers produce are
checked here, file by file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"


def tree(root: Path) -> dict:
    """Relative path -> bytes, for every file under root."""
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


@pytest.mark.parametrize("kind", sorted(path.name for path in GOLDEN.iterdir() if path.is_dir()))
def test_writer_rewrites_its_golden_dir(kind, tmp_path):
    subprocess.run([sys.executable, str(TESTS / f"test_golden_{kind}.py"), str(tmp_path / kind)],
                   check=True, env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")})
    written, golden = tree(tmp_path / kind), tree(GOLDEN / kind)
    assert sorted(written) == sorted(golden)
    for name, data in golden.items():
        assert written[name] == data, name
