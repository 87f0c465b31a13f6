"""Scenario documents: a flat key-value format, runner, and CSV emission.

A scenario is a UTF-8 text document of ``key = value`` lines with dotted
section keys and JSON-compatible values (bare words are accepted as strings
for convenience). Example::

    name = "converge-from-dispersion"
    regime.family = olg
    regime.market = autarky
    regime.technology = exogenous
    params.tfp = 1.0
    params.alpha = 0.5
    params.theta = 0.0
    initial_distribution = [0.01, 1.0]
    horizon.max_generations = 200
    outputs = [csv, summary]

``_KEYS`` is the one list of the keys: for each, the part of the config it
sets (the config itself, its regime, params or shooting), the field there,
and the reader that checks its value's type. Both ``parse_scenario`` and
``render_scenario`` go through it. The model bounds belong to the types and
functions that own them, which raise OutOfRange naming their field; a
growth condition or a float fault in a solver is OutOfRange("params").
``parse_scenario``, ``steady_state_for`` and ``run_scenario`` run the model
code inside ``errors.named_by(_KEY_OF)``, which names the scenario key of
that field instead.

Running a scenario writes ``<name>_trajectory.csv`` and ``<name>_metrics.csv``
(RFC-4180, CRLF line endings) and optionally a minimal SVG chart; identical
configs produce byte-identical files.

The trajectory CSV has L household lines and one ``agg`` line per time step;
the metrics CSV has one line per time step. The six columns both write
(``SHARED_COLUMNS``: t, r, g, gini, cv and r - g) are formatted once per
trajectory, by :func:`shared_texts`, and both writers join those texts. The
metrics writer formats only ``ratio_max_min``. The writers call no model
code: the household output cells are the trajectory's ``output``, and the
only values they derive are r - g and each row's mean consumption. The
trajectory writer formats blocks of about ``_BLOCK_CELLS`` household cells:
one ``tolist()`` per column of the block, ``repr`` on each float, and one
``",".join`` per line; each block also formats its rows of the three mean
columns and slices the shared texts. So the only lists of cell texts held
for the whole trajectory are the shared ones, and the whole text is built
once, from the blocks' strings. ``atomic_write`` then encodes it a slice
at a time.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from itertools import chain, cycle, repeat
from pathlib import Path

import numpy as np

from .core import (
    EconomyParams,
    Family,
    Market,
    Regime,
    SteadyState,
    Technology,
    Trajectory,
    WealthDistribution,
    check_population,
    validate_params,
)
from .errors import OutOfRange, ParseError, named_by
from .olg import check_horizon, olg_simulate, olg_steady_state
from .ramsey import ShootingConfig, ramsey_steady_state, shoot_saddle_path
from .svgplot import line_chart

OUTPUT_KINDS = ("csv", "svg", "summary")


@dataclass(frozen=True)
class ScenarioConfig:
    """A fully validated scenario: regime, parameters, start, horizon, outputs."""

    name: str
    regime: Regime
    params: EconomyParams
    initial_distribution: tuple[float, ...]
    max_generations: int = 10000
    stop_tol: float = 1e-9
    shooting: ShootingConfig = ShootingConfig()
    outputs: frozenset[str] = frozenset({"csv", "summary"})


def _number(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise OutOfRange(key, f"{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond float64
        raise OutOfRange(key, f"{key} must fit in a float64") from None


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise OutOfRange(key, f"{key} must be an integer, got {value!r}")
    return value


def _number_or_null(key: str, value) -> float | None:
    return None if value is None else _number(key, value)


def _choice(kind: type[Enum]):
    """Reader of a member of ``kind`` by its value."""
    def read(key: str, value) -> Enum:
        try:
            return kind(value)
        except ValueError:
            choices = sorted(member.value for member in kind)
            raise OutOfRange(
                key, f"{key} must be one of {choices}, got {value!r}") from None
    return read


#: UTF-8 bytes of a scenario name: 255, the usual file-name limit, less the
#: 27 of "_trajectory.csv" and atomic_write's 8 random characters and ".tmp".
_NAME_BYTES = 228


def _file_name(key: str, value) -> str:
    if not isinstance(value, str) or not value:
        raise OutOfRange(key, f"{key} must be a nonempty string")
    # the name becomes a file name inside the output directory
    if "/" in value or "\\" in value or value in (".", ".."):
        raise OutOfRange(
            key, f"{key} must not contain / or \\ or be . or ..; got {value!r}")
    try:
        fits = "\0" not in value and len(value.encode("utf-8")) <= _NAME_BYTES
    except UnicodeEncodeError:  # a lone surrogate
        fits = False
    if not fits:
        raise OutOfRange(key, f"{key}: a file name is UTF-8 text of at most "
                              f"{_NAME_BYTES} bytes with no NUL; got {value!r}")
    return value


def _holdings(key: str, value) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise OutOfRange(key, f"{key} must be a list")
    return tuple(_number(key, x) for x in value)


def _outputs(key: str, value) -> frozenset[str]:
    if not isinstance(value, list):
        raise OutOfRange(key, f"{key} must be a list")
    for kind in value:
        if kind not in OUTPUT_KINDS:
            raise OutOfRange(key, f"{key}: unknown output kind {kind!r}")
    return frozenset(value)


#: The scenario format: each key, in the order render_scenario writes it,
#: with the part of the config it sets, the field it sets there and the
#: reader that checks its value. A key is required when its field has no
#: default.
_KEYS = {
    "name": (ScenarioConfig, "name", _file_name),
    "regime.family": (Regime, "family", _choice(Family)),
    "regime.market": (Regime, "market", _choice(Market)),
    "regime.technology": (Regime, "technology", _choice(Technology)),
    "params.tfp": (EconomyParams, "tfp", _number),
    "params.alpha": (EconomyParams, "alpha", _number),
    "params.theta": (EconomyParams, "theta", _number),
    "params.gamma": (EconomyParams, "gamma", _number),
    "params.population": (EconomyParams, "population", _integer),
    "initial_distribution": (ScenarioConfig, "initial_distribution", _holdings),
    "horizon.max_generations": (ScenarioConfig, "max_generations", _integer),
    "horizon.stop_tol": (ScenarioConfig, "stop_tol", _number),
    "horizon.time": (ShootingConfig, "horizon", _number_or_null),
    "horizon.dt": (ShootingConfig, "dt", _number),
    "horizon.max_iterations": (ShootingConfig, "max_iterations", _integer),
    "horizon.terminal_band": (ShootingConfig, "terminal_band", _number),
    "horizon.record_stride": (ShootingConfig, "record_stride", _integer),
    "outputs": (ScenarioConfig, "outputs", _outputs),
}


def _parse_value(token: str, line_no: int):
    token = token.strip()
    if not token:
        raise ParseError(line_no, "missing value")
    try:
        return json.loads(token)
    except json.JSONDecodeError:
        pass
    if token.startswith("[") and token.endswith("]"):
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_value(item, line_no) for item in inner.split(",")]
    return token  # bare word -> string


#: The keys a document must give: those whose field has no default.
_REQUIRED = [key for key, (part, field, _) in _KEYS.items()
             if all(f.default is MISSING and f.default_factory is MISSING
                    for f in fields(part) if f.name == field)]

#: The key of each field that the model code's OutOfRange can name; a growth
#: condition, a float fault, or a steady state or path out of its domain, is
#: named ``params``.
_KEY_OF = {**dict.fromkeys(("params", "holding_star", "growth_star",
                            "trajectory"), "params"),
           "holdings": "initial_distribution",
           **{field: key for key, (_, field, _) in _KEYS.items()}}


def parse_scenario(text: str) -> ScenarioConfig:
    """Parse and validate a scenario document.

    Raises ParseError for malformed lines and OutOfRange (naming the
    offending key) for unknown keys, bad types, or violated model bounds.
    Each value's type is checked by its key's reader as its line is read.
    After the last line come the missing keys, then the bounds, checked by
    the types and functions that own them inside ``named_by(_KEY_OF)``. A
    field whose key is absent takes its dataclass default, except
    ``params.population``, which defaults to the number of holdings.
    """
    given = {part: {} for part, _, _ in _KEYS.values()}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(line_no, f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise OutOfRange(key, f"line {line_no}: unknown key {key!r}")
        part, field, read = _KEYS[key]
        if field in given[part]:
            raise ParseError(line_no, f"duplicate key {key!r}")
        given[part][field] = read(key, _parse_value(value, line_no))
    for key in _REQUIRED:
        part, field, _ = _KEYS[key]
        if field not in given[part]:
            raise OutOfRange(key, f"missing required key {key!r}")

    holdings = given[ScenarioConfig]["initial_distribution"]
    regime = Regime(**given[Regime])
    params = EconomyParams(**{"population": len(holdings), **given[EconomyParams]})
    with named_by(_KEY_OF):
        shooting = ShootingConfig(**given[ShootingConfig])
        dist = WealthDistribution(np.asarray(holdings))
        validate_params(params, regime)
        check_population(dist, params)
        config = ScenarioConfig(regime=regime, params=params, shooting=shooting,
                                **given[ScenarioConfig])
        check_horizon(config.max_generations, config.stop_tol)
    return config


def render_scenario(config: ScenarioConfig) -> str:
    """Canonical text form of a scenario.

    parse_scenario(render_scenario(c)) == c holds for every ScenarioConfig
    ``c`` that passes validation. A config that violates a model bound
    renders, but parsing the text raises OutOfRange. Choices are
    written bare, the outputs sorted and every other value as JSON.
    """
    parts = {ScenarioConfig: config, Regime: config.regime,
             EconomyParams: config.params, ShootingConfig: config.shooting}
    lines = []
    for key, (part, field, _) in _KEYS.items():
        value = getattr(parts[part], field)
        if isinstance(value, frozenset):
            value = sorted(value)
        text = value.value if isinstance(value, Enum) else json.dumps(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# running


def format_float(x: float) -> str:
    """Shortest text that reads back as the same float64.

    The CSV writers format a column, or a block of one, at a time with
    ``repr`` on the floats of ``ndarray.tolist()`` (see :func:`_texts`),
    which gives the same text. A value that both CSVs write is formatted
    once, by :func:`shared_texts`.
    """
    return repr(float(x))


def _texts(values):
    """format_float of every entry of a 1-D array, as a lazy iterator.

    One ``tolist()`` call for the whole array, so no numpy scalar is made
    per cell. :func:`shared_texts` passes it a whole column, the trajectory
    writer one column of a block and the metrics writer ``ratio_max_min``.
    """
    return map(repr, np.asarray(values, dtype=float).tolist())


def _repeat_each(items, n: int):
    """Each of ``items`` ``n`` times in a row, in order, as a lazy iterator."""
    return chain.from_iterable(map(repeat, items, repeat(n)))


def csv_text(header, rows) -> str:
    """CSV text with CRLF line endings: ``header``, then one line per row.

    ``header`` and every row are sequences of cells that are already text;
    format numbers with :func:`format_float`.
    """
    lines = [",".join(header)]
    lines.extend(map(",".join, rows))
    return "\r\n".join(lines) + "\r\n"


#: Characters that :func:`atomic_write` encodes and writes at a time.
_WRITE_CHARS = 1 << 20


def atomic_write(path: Path, data: str):
    """Write ``data`` to ``path`` through a temporary file and a rename.

    Newlines are written as given. The text is encoded in slices of
    ``_WRITE_CHARS`` characters, so no encoded copy of the whole of it is
    made. The file gets the mode a plain ``open`` would give it, 0o666 less
    the process umask.
    """
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for start in range(0, len(data), _WRITE_CHARS):
                fh.write(data[start:start + _WRITE_CHARS])
        # umask can only be read by setting it; 0o077 keeps anything created
        # by another thread in between private
        umask = os.umask(0o077)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


TRAJECTORY_COLUMNS = ("t", "household", "holding", "consumption", "output",
                      "r", "g", "gini", "cv", "r_minus_g")
METRICS_COLUMNS = ("t", "gini", "cv", "ratio_max_min", "r", "g", "r_minus_g")
#: The columns of both CSVs, which :func:`shared_texts` formats, in the
#: order of the trajectory CSV.
SHARED_COLUMNS = ("t", "r", "g", "gini", "cv", "r_minus_g")

#: Household cells the trajectory CSV formats at a time: one block of the
#: text covers max(1, _BLOCK_CELLS // L) time steps of L households.
_BLOCK_CELLS = 2048


def shared_texts(traj: Trajectory) -> dict[str, list[str]]:
    """The cell texts of each column in ``SHARED_COLUMNS``, one per time
    step, formatted once for both CSV writers."""
    columns = (traj.times, traj.interest, traj.growth, traj.gini, traj.cv,
               traj.interest - traj.growth)
    return {name: list(_texts(column))
            for name, column in zip(SHARED_COLUMNS, columns)}


def _trajectory_chunks(traj: Trajectory, texts: dict[str, list[str]]):
    """The trajectory CSV lines after the header, one block of time steps at
    a time, each block one string ending in CRLF."""
    steps, population = traj.holdings.shape
    labels = [str(h) for h in range(population)]
    # a contiguous copy keeps each row's mean in the summation order of a
    # 1-D mean, whatever the layout of the solver's array
    mean_consumption = np.ascontiguousarray(traj.consumption).mean(axis=1)
    means = np.array([traj.mean_holding, mean_consumption, traj.mean_output],
                     dtype=float)
    per_block = max(1, _BLOCK_CELLS // population)
    for start in range(0, steps, per_block):
        block = slice(start, start + per_block)
        times, *shared = (texts[name][block] for name in SHARED_COLUMNS)
        if traj.output.shape[1] == 1:  # a market's one output per time step
            outputs = _repeat_each(_texts(traj.output[block, 0]), population)
        else:
            outputs = _texts(traj.output[block].ravel())
        # ",,,," closes each household line with the five aggregate-only
        # channels left blank
        household = map(",".join, zip(
            _repeat_each(times, population), cycle(labels),
            _texts(traj.holdings[block].ravel()),
            _texts(traj.consumption[block].ravel()), outputs, repeat(",,,,"),
        ))
        agg = map(",".join, zip(
            times, repeat("agg"),
            *(map(repr, column) for column in means[:, block].tolist()),
            *shared,
        ))
        # each time step: its households' lines, then its agg line
        lines = chain.from_iterable(zip(*[household] * population, agg))
        yield "\r\n".join(chain(lines, [""]))


def trajectory_csv_text(traj: Trajectory, texts: dict[str, list[str]]) -> str:
    """The trajectory CSV of ``traj``, with the shared columns' cells taken
    from ``texts`` (see :func:`shared_texts`) and each household's output
    from ``traj.output``, whose one column under a market every household
    of the step shares."""
    return "".join(chain([",".join(TRAJECTORY_COLUMNS) + "\r\n"],
                         _trajectory_chunks(traj, texts)))


def metrics_csv_text(traj: Trajectory, texts: dict[str, list[str]]) -> str:
    """The metrics CSV of ``traj``, with the shared columns' cells taken
    from ``texts`` (see :func:`shared_texts`)."""
    return csv_text(METRICS_COLUMNS, zip(
        texts["t"], texts["gini"], texts["cv"], _texts(traj.ratio_max_min),
        texts["r"], texts["g"], texts["r_minus_g"],
    ))


def steady_state_for(config: ScenarioConfig) -> SteadyState:
    """The steady state (or balanced ray) of the configured economy."""
    steady_state = olg_steady_state if config.regime.is_olg else ramsey_steady_state
    with named_by(_KEY_OF):
        return steady_state(config.params, config.regime)


def summary_text(config: ScenarioConfig, steady: SteadyState,
                 traj: Trajectory) -> str:
    p = config.params
    lines = [
        f"scenario {config.name}  [case {config.regime.case_label()}]",
        (f"params: tfp={format_float(p.tfp)} alpha={format_float(p.alpha)} "
         f"theta={format_float(p.theta)} gamma={format_float(p.gamma)} "
         f"population={p.population}"),
    ]
    target = ("balanced ray," if steady.holding_star is None
              else f"holding*={format_float(steady.holding_star)}")
    lines.append(f"steady state: {target} r*={format_float(steady.interest_star)} "
                 f"g*={format_float(steady.growth_star)}")
    i = len(traj) - 1
    lines.append(
        f"terminal t={format_float(traj.times[i])}: "
        f"mean holding={format_float(traj.mean_holding[i])} "
        f"gini={format_float(traj.gini[i])} cv={format_float(traj.cv[i])}"
    )
    lines.append(
        f"r - g: terminal r={format_float(traj.interest[i])} "
        f"g={format_float(traj.growth[i])} "
        f"r-g={format_float(traj.interest[i] - traj.growth[i])}"
    )
    lines.append(f"converged: {'yes' if traj.converged else 'NO (' + traj.note + ')'}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RunArtifacts:
    """What run_scenario produced: file paths, summary text, raw objects."""

    trajectory_csv: Path | None
    metrics_csv: Path | None
    svg: Path | None
    summary: str
    trajectory: Trajectory
    steady: SteadyState


def run_scenario(config: ScenarioConfig, out_dir: str | Path = "out",
                 fmt: str | None = None) -> RunArtifacts:
    """Simulate the configured economy and write its artifact bundle.

    ``fmt`` narrows file outputs to "csv", "svg", or "both" (None means
    both); which artifacts exist at all is governed by ``config.outputs``.
    Identical configs produce byte-identical files. A bound or float fault
    of the solve is an OutOfRange naming its scenario key.
    """
    steady = steady_state_for(config)
    with named_by(_KEY_OF):
        dist0 = WealthDistribution(np.asarray(config.initial_distribution))
        if config.regime.is_olg:
            traj = olg_simulate(
                dist0, config.params, config.regime,
                max_generations=config.max_generations, stop_tol=config.stop_tol,
            )
        else:
            traj = shoot_saddle_path(dist0, config.params, config.regime,
                                     config.shooting)
    # made only now, so a failed solve leaves no directory behind
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    want_csv = "csv" in config.outputs and fmt in (None, "csv", "both")
    want_svg = "svg" in config.outputs and fmt in (None, "svg", "both")
    traj_path = metrics_path = svg_path = None
    if want_csv:
        texts = shared_texts(traj)
        traj_path = out / f"{config.name}_trajectory.csv"
        atomic_write(traj_path, trajectory_csv_text(traj, texts))
        metrics_path = out / f"{config.name}_metrics.csv"
        atomic_write(metrics_path, metrics_csv_text(traj, texts))
        del texts  # not held while the chart is drawn
    if want_svg:
        svg_path = out / f"{config.name}.svg"
        series = [
            (f"household {h}", traj.times, traj.holdings[:, h])
            for h in range(traj.population)
        ]
        series.append(("mean", traj.times, traj.mean_holding))
        atomic_write(svg_path, line_chart(
            series, title=f"{config.name} [{config.regime.case_label()}]",
            xlabel="time", ylabel="holding",
        ))
    return RunArtifacts(
        trajectory_csv=traj_path,
        metrics_csv=metrics_path,
        svg=svg_path,
        summary=summary_text(config, steady, traj),
        trajectory=traj,
        steady=steady,
    )
