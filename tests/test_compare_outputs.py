"""scripts/compare_outputs.py: CSV cells within a tolerance, other files exact."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"

CSV = "t,household,holding\r\n0.0,0,1.0\r\n0.0,agg,2.0\r\n"


def compare(tmp_path, old_files, new_files, rtol):
    for side, files in (("old", old_files), ("new", new_files)):
        (tmp_path / side).mkdir()
        for name, text in files.items():
            (tmp_path / side / name).write_bytes(text.encode("utf-8"))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "old"), str(tmp_path / "new"),
         "--rtol", str(rtol)],
        capture_output=True, text=True, check=False)


def test_identical_directories_pass(tmp_path):
    files = {"a.csv": CSV, "a.svg": "<svg/>\n"}
    result = compare(tmp_path, files, files, 0.0)
    assert result.returncode == 0
    assert "a.csv: identical" in result.stdout


@pytest.mark.parametrize("rtol, code", [(1e-6, 0), (1e-8, 1)])
def test_numeric_cells_within_rtol(tmp_path, rtol, code):
    new = CSV.replace("0.0,0,1.0", "0.0,0,1.0000001")
    result = compare(tmp_path, {"a.csv": CSV}, {"a.csv": new}, rtol)
    assert result.returncode == code
    assert "holding: max relative difference 1.000e-07" in result.stdout


@pytest.mark.parametrize("new, reason", [
    (CSV.replace("agg", "all"), "'agg' != 'all'"),
    (CSV + "1.0,0,1.0\r\n", "layout differs"),
    (CSV.replace("0.0,0,1.0", "0.0,0,1.0,"), "layout differs"),
])
def test_text_and_layout_must_match(tmp_path, new, reason):
    result = compare(tmp_path, {"a.csv": CSV}, {"a.csv": new}, 1.0)
    assert result.returncode == 1
    assert reason in result.stdout


def test_other_files_compared_byte_for_byte(tmp_path):
    result = compare(tmp_path, {"a.svg": "<svg/>\n"}, {"a.svg": "<svg />\n"}, 1.0)
    assert result.returncode == 1
    assert "a.svg: bytes differ" in result.stdout


def test_missing_file_fails(tmp_path):
    result = compare(tmp_path, {"a.csv": CSV, "b.csv": CSV}, {"a.csv": CSV}, 0.0)
    assert result.returncode == 1
    assert "b.csv: missing from NEW" in result.stdout
