"""Golden digests of the artifacts of the bundled scenarios.

Each scenario in ``scenarios/`` is run with ``outputs = [csv, svg, summary]``
and the SHA-256 of every file it writes, and of its summary text, must match
the digest recorded here. A change that is meant to keep outputs as they are
(a refactor or a speed-up) leaves this table alone. A change that alters a
numerical method updates the digests in the same commit and states the
tolerance its outputs keep against the old ones, for example relative 1e-8
on c(0) and 1e-6 on paths, checked with ``scripts/compare_outputs.py``.
"""

import hashlib
import re
from pathlib import Path

import pytest

from ineqlab import parse_scenario, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    "olg_autarky_converge": {
        "olg-autarky-converge.svg": "4e429a3f1c525ec84d69712441c29ae6d7e8907ad10ef16a320f4ec77cc1ef4b",
        "olg-autarky-converge_metrics.csv": "664f3bf66add42330e4a220d737763c251d9eeb3c6c0f855c77272f802ec3f60",
        "olg-autarky-converge_trajectory.csv": "ecf6aeba09409b907a59af84eed81c828365c9e6380999fbea6796a040cfc31d",
        "summary": "4aa8eab52cb0b7d365bed30f0c4cccb170d97bf77075e3453ba465eb60b32870",
    },
    "olg_market_growth": {
        "olg-market-growth.svg": "5590cc263c5565ceec66198426b6d2691764ce9e8c2e27ca2b98aa71ce0743be",
        "olg-market-growth_metrics.csv": "724ca6f7bb4387cd5a790f83c8fe548eb2f9d77c78358f319b2fa2e78871fe0e",
        "olg-market-growth_trajectory.csv": "452feb16afbf9014525bd708751d6350e5f73e332aab1d4249946a2f333912db",
        "summary": "ceea9c3140e176b08e53073c08c51276cd336a58e8f92db6b03b84bd1ca46ced",
    },
    "ramsey_autarky_saddle": {
        "ramsey-autarky-saddle.svg": "5ad49dbe738db2eb4d975b3859b9adb168e30f41e51600e4da01a47d4053060c",
        "ramsey-autarky-saddle_metrics.csv": "2ad8252070eb92a9749c058e7c57fdad4d0dc377facd09431550dcc18e3171d6",
        "ramsey-autarky-saddle_trajectory.csv": "93241d497d00fcc6f175d767de95fddd25da85217dfec08bbb4c44cc1678186b",
        "summary": "206864252511a394663d257a1aebce8826bfe63e93c8c12d66d43ae98b76338f",
    },
    "ramsey_market_growth": {
        "ramsey-market-growth.svg": "c1aabdf0e145a1bf8285bd2dcf1ef847273bc24e6e7e86b37440ef4be40bb025",
        "ramsey-market-growth_metrics.csv": "23c7df92e1a203675a326b49d7ccb7d8116e79adc3d23a081fbe6b3b3aca28de",
        "ramsey-market-growth_trajectory.csv": "4564e241a72b4a50b31db617297083a3ab467593e620b0f91857c5756542437b",
        "summary": "925f657fb51b6afb1a07d37386a9abc262b010dc933a796e07ad4b0d629438b5",
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_every_bundled_scenario_has_digests():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")) == sorted(GOLDEN)


@pytest.mark.parametrize("stem", sorted(GOLDEN))
def test_artifacts_match_golden_digests(stem, tmp_path):
    text = (SCENARIO_DIR / f"{stem}.scn").read_text(encoding="utf-8")
    text, count = re.subn(r"^outputs = .*$", "outputs = [csv, svg, summary]",
                          text, flags=re.M)
    assert count == 1
    artifacts = run_scenario(parse_scenario(text), tmp_path)
    found = {p.name: _sha256(p.read_bytes()) for p in tmp_path.iterdir()}
    found["summary"] = _sha256(artifacts.summary.encode("utf-8"))
    assert found == GOLDEN[stem]
