#!/usr/bin/env python3
"""Run one ineqlab benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload saddle --seed 1 --seconds 30 --trace 0

Run from the repository root; ``ineqlab`` is imported from ``src/``. The run
sets up its inputs from the seed (several times, to time set-up), then runs
whole passes over them for about ``--seconds`` seconds, in one process on one
thread. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it traces every pass after the first and reports the per-layer
metrics instead. Artifacts go to a fresh directory under ``.bench_run/``,
removed when the run ends. The outputs of the first pass are checked (see
checks.py) and every later pass must write byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
when every check passed.
"""

import os

# Pin the BLAS pool to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import spans
import speed
import workloads
from workloads import ScenarioOp, SweepOp

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 25
#: Wall time between two probe readings (see speed.py).
SAMPLE_INTERVAL_S = 0.1
#: The probe reading that counts as reference speed. A time is reported at
#: reference speed: divided by the mean probe reading while it was taken,
#: over this (see README.md).
PROBE_REFERENCE_S = 0.004
#: random_economy draws per sweep batch checked against the M-matrix oracle.
ORACLE_DRAWS = 25


def import_ineqlab():
    """Import ``ineqlab`` from ``src/`` as if for the first time."""
    src = ROOT / "src"
    if not (src / "ineqlab").is_dir():
        raise FileNotFoundError(f"no ineqlab sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "ineqlab"]:
        del sys.modules[name]
    return importlib.import_module("ineqlab")


def set_up(workload: str, seed: int):
    """Import the program, build the workload's inputs and parse them."""
    ineqlab = import_ineqlab()
    ops = workloads.WORKLOADS[workload](seed)
    configs = {op.name: ineqlab.scenario.parse_scenario(op.text)
               for op in ops if isinstance(op, ScenarioOp)}
    return ineqlab, ops, configs


def run_pass(ineqlab, ops, out: Path, tracer, clock):
    """Run every op once through the program's public entry points.

    Returns each op's time on ``clock`` and each op's result: RunArtifacts,
    a SweepReport, or the IneqLabError the op raised.
    """
    times, results = {}, {}
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        start = clock()
        try:
            if isinstance(op, SweepOp):
                results[op.name] = ineqlab.value_theory.fmt_sweep(
                    op.trials, op.n, op.seed)
            else:
                config = ineqlab.scenario.parse_scenario(op.text)
                results[op.name] = ineqlab.scenario.run_scenario(config, out)
        except ineqlab.errors.IneqLabError as exc:
            results[op.name] = exc
        times[op.name] = clock() - start
    return times, results


def digest(ops, results, out: Path, keep: bool) -> dict:
    """sha256 of every artifact file and of each op's summary or report."""
    found = {}
    for path in sorted(out.iterdir()):
        found[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if not keep:
            path.unlink()
    for op in ops:
        result = results[op.name]
        if isinstance(result, Exception):
            text = repr(result)
        elif isinstance(op, SweepOp):
            text = result.text()
        else:
            text = result.summary
        found[op.name] = hashlib.sha256(text.encode()).hexdigest()
    return found


def check_scenario(op: ScenarioOp, config, artifacts, seed: int):
    regime, params = config.regime, config.params
    rows = len(artifacts.trajectory.times)
    table = checks.read_trajectory_csv(artifacts.trajectory_csv.read_bytes(),
                                       rows, params.population)
    checks.check_metrics_csv(artifacts.metrics_csv.read_bytes(), table)
    checks.check_svg(artifacts.svg.read_bytes())
    if op.sampled_rows:
        rng = np.random.default_rng([seed, 5])
        drawn = rng.choice(rows, size=min(rows, op.sampled_rows), replace=False)
        sample = sorted({0, rows - 1, *drawn.tolist()})
    else:
        sample = range(rows)
    checks.check_row_stats(table, sample)
    if regime.is_market:
        checks.check_market_mean(table)
    if regime.is_olg:
        if not regime.is_market and not regime.is_endogenous:
            checks.check_olg_monotone(table, params)
        return
    market, ak = regime.is_market, regime.is_endogenous
    checks.check_ramsey_terminal(table, params, market, ak,
                                 config.shooting.terminal_band)
    checks.check_ramsey_path(table, params, market, ak)
    if ak and not market:
        checks.check_ak_dispersion(table)


def check_sweep(ineqlab, op: SweepOp, report):
    checks.check_sweep(report, op.trials, op.n, op.seed)
    vt = ineqlab.value_theory
    rng = np.random.default_rng([op.seed, 6])
    for _ in range(ORACLE_DRAWS):
        low = rng.random() < 0.5
        wage_scale = float(rng.uniform(0.3, 0.9) if low else rng.uniform(1.1, 1.7))
        econ = vt.random_economy(rng, op.n, wage_scale)
        checks.check_profit_sign(econ, vt.profit_sign(econ),
                                 vt.surplus_value_rate(econ), wage_scale)


def check_first_pass(ineqlab, ops, configs, results, seed) -> list[str]:
    problems = []
    for op in ops:
        result = results[op.name]
        if isinstance(result, Exception):
            continue  # counted in ``failed``
        try:
            if isinstance(op, SweepOp):
                check_sweep(ineqlab, op, result)
            else:
                check_scenario(op, configs[op.name], result, seed)
        except checks.CheckFailed as exc:
            problems.append(f"{op.name}: {exc}")
    return problems


def measure(args, work: Path, sampler: speed.Sampler) -> dict:
    """Set up, run passes for ``args.seconds`` and check the first pass.

    Every time is taken on ``sampler.clock`` and reported at reference
    speed, by the probe readings taken while it ran.
    """
    clock = sampler.clock
    setup_times = []
    first_reading = len(sampler.readings)
    for _ in range(SETUP_REPEATS):
        start = clock()
        ineqlab, ops, configs = set_up(args.workload, args.seed)
        setup_times.append(clock() - start)
    setup_slowness = sampler.mean_since(first_reading) / PROBE_REFERENCE_S

    first_out, out = work / "first", work / "pass"
    first_out.mkdir()
    out.mkdir()
    start = time.perf_counter()
    first_reading = len(sampler.readings)
    op_times, first = run_pass(ineqlab, ops, first_out, None, clock)
    elapsed = time.perf_counter() - start
    reference = digest(ops, first, first_out, keep=True)
    failed = sum(isinstance(r, Exception) for r in first.values())
    attempted = len(ops)
    problems = []

    tracer = None
    if args.trace:
        tracer = spans.Tracer(clock)
        tracer.install(ineqlab)
    # (op times, slowness) of each timed pass
    passes = [] if tracer else [
        (op_times, sampler.mean_since(first_reading) / PROBE_REFERENCE_S)]
    while not passes or time.perf_counter() - start + elapsed <= args.seconds:
        if tracer:
            tracer.pass_index = len(passes)
        pass_start = time.perf_counter()
        first_reading = len(sampler.readings)
        op_times, results = run_pass(ineqlab, ops, out, tracer, clock)
        passes.append(
            (op_times, sampler.mean_since(first_reading) / PROBE_REFERENCE_S))
        elapsed = time.perf_counter() - pass_start
        attempted += len(ops)
        failed += sum(isinstance(r, Exception) for r in results.values())
        if digest(ops, results, out, keep=False) != reference:
            problems.append(f"pass {len(passes)}: artifacts differ from the "
                            "untraced first pass")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()  # the checks' own calls into the program are no pass

    problems += check_first_pass(ineqlab, ops, configs, first, args.seed)
    pass_times = [sum(times.values()) / slowness for times, slowness in passes]
    print(f"{args.workload} seed {args.seed}: passes "
          + " ".join(f"{sum(times.values()):.3f}" for times, _ in passes)
          + " s, at reference speed "
          + " ".join(f"{t:.3f}" for t in pass_times)
          + f" s; {len(sampler.readings)} probe readings", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    order = sorted(range(len(passes)), key=pass_times.__getitem__)
    median = order[(len(order) - 1) // 2]
    if tracer:
        span_file = work / "spans.jsonl"
        tracer.write(span_file)
        kept = [s for s in spans.read_spans(span_file) if s["pass"] == median]
        for span in kept:
            span["busy_s"] /= passes[median][1]
            span["self_s"] /= passes[median][1]
        found = spans.layer_metrics(kept)
        found["trace.pass_s"] = (pass_times[median], "s")
    else:
        found = {
            "pass_s": (pass_times[median], "s"),
            "setup_s": (statistics.median(setup_times) / setup_slowness, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in found.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    run_root = ROOT / ".bench_run"
    run_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=run_root))
    sampler = speed.Sampler(SAMPLE_INTERVAL_S)
    sampler.start()
    try:
        result = measure(args, work, sampler)
    finally:
        sampler.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            run_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
