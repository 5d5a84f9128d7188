"""The acceptance summary that ``tests/conftest.py`` prints."""

import shutil
import subprocess
import sys
from pathlib import Path


def test_collection_error_reads_fail(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_acceptance.py").write_text("import no_such_module_here\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", str(tmp_path)],
        cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode != 0
    assert "acceptance criteria" in run.stdout
    assert "FAIL  test_acceptance.py (collection error)" in run.stdout
