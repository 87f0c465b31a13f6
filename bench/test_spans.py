"""The tracer's spans add up, and removing it leaves the program untouched.

Run from the repository root with ``python3 -m pytest bench``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import ineqlab
import spans
import workloads


def test_traced_scenario_spans(tmp_path):
    text = workloads.scenario_text("t", "ramsey", "market", "exogenous",
                                    workloads.SADDLE_ECONOMY, [20.0, 30.0],
                                    workloads.SADDLE_HORIZON)
    original = ineqlab.scenario.shoot_saddle_path
    tracer = spans.Tracer()
    tracer.install(ineqlab)
    try:
        tracer.op = "t"
        config = ineqlab.scenario.parse_scenario(text)
        artifacts = ineqlab.scenario.run_scenario(config, tmp_path)
    finally:
        tracer.uninstall()
    assert ineqlab.scenario.shoot_saddle_path is original
    tracer.write(tmp_path / "spans.jsonl")
    records = spans.read_spans(tmp_path / "spans.jsonl")
    assert all(0.0 <= s["self_s"] <= s["busy_s"] for s in records)
    metrics = {k: v for k, (v, _) in spans.layer_metrics(records).items()}
    rows = len(artifacts.trajectory.times)
    assert metrics["ramsey.shoot_calls"] == 1
    # per-row statistics of the aggregate path and of the household paths
    assert metrics["metrics.row_stats_calls"] == 3 * 2 * rows
    csv_bytes = (artifacts.trajectory_csv.stat().st_size
                 + artifacts.metrics_csv.stat().st_size)
    assert metrics["scenario.csv_mb"] == csv_bytes / 1e6
    assert metrics["svgplot.svg_mb"] == artifacts.svg.stat().st_size / 1e6
    assert metrics["value_theory.spectral_radius_calls"] == 0
    run = [s for s in records if s["layer"] == "scenario.run_scenario"][0]
    children = sum(s["busy_s"] for s in records if s["parent"] == "scenario.run_scenario")
    assert abs(run["busy_s"] - children - run["self_s"]) < 1e-9
