import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_paper_checks.py"


def _digest(out_dir):
    run = subprocess.run(
        [sys.executable, str(SCRIPT), str(out_dir)], capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 13
    assert re.fullmatch(r"sha256 [0-9a-f]{64}", lines[-1])
    return lines[-1]


# The digest of the 12 reports.  A change that moves a report updates it and
# says which report moved and why.
PINNED = "sha256 a2376f6cf3f4df27489e6717e621951876976c866fc40a98bed6b7fa8f653caf"


def test_paper_checks_end_with_one_stable_digest(tmp_path):
    assert _digest(tmp_path / "a") == _digest(tmp_path / "b") == PINNED


@pytest.mark.parametrize("args, code", [(["--help"], 0), (["-h"], 0), (["--out"], 1),
                                        (["a", "b"], 1)])
def test_usage_and_refusals_write_nothing(tmp_path, args, code):
    run = subprocess.run([sys.executable, str(SCRIPT), *args], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code
    if code == 0:
        assert run.stdout.startswith("usage: ") and run.stderr == ""
    else:
        assert run.stdout == "" and re.fullmatch(r"error: [^\n]*\n", run.stderr)
    assert list(tmp_path.iterdir()) == []
