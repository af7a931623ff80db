"""Batch front end: config parsing, experiment execution, CSV emission.

Three subcommands:

    hsdpa-ee run      --config cfg.ini | --preset figure5   [--seed N] [--out DIR] [--reps N]
    hsdpa-ee sweep    --config cfg.ini | --preset figure7   [--seed N] [--out DIR] [--reps N]
    hsdpa-ee tablegen [--step-db 1.0] [--entries 30] [--out mcs_table.csv]

Config files are INI-style key = value text.  A minimal run config:

    [scenario]
    distance_m = 435
    i_or_dbm = -72.5
    geometry_db = 23
    alpha = 0.995
    speed_kmh = 3
    antenna_mode = SIMO
    strategy = SemiStatic
    duration_ttis = 10000
    seed = 1
    table = reference

    [controller]
    ee_smoothing = 0.01

A sweep config adds:

    [sweep]
    variable = speed
    values = 3, 30, 120
    strategies = FixedBaseline, SemiStatic
    repetitions = 4

variable is speed, distance, fixed_power or theta_min; antenna modes
are swept with antenna_modes. No entry of values, strategies or
antenna_modes may repeat, and m_a is not a key: it follows antenna_mode.

`run` writes trace.csv and metrics.csv, `sweep` writes series.csv, and
all floats are emitted with repr so the files re-parse losslessly.
trace.csv is written row by row as the runs go, into trace.csv.part next
to it, and renamed into place once every strategy has run, so a traced
run's memory does not grow with its length and a run that fails leaves
no trace.csv. Each trace row is one f-string with the bytes csv.writer
would write (_trace_sink); its two float cells are formatted once per
float object, which the engine reuses while the power holds.
Exit codes: 0 success, 1 config parse failure, 2 invalid experiment,
3 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import io
import os
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import get_type_hints

import numpy as np

from .ee_controller import ControllerConfig
from .link_channel import make_channel
from .mcs_table import (
    McsTable,
    default_table,
    load_table_file,
    make_uniform_table,
    reference_table,
    table_to_csv,
)
from .power_model import PowerModelParams, shannon_ee, shannon_se, total_power
from .sim_engine import (
    FIXED_BASELINE,
    MIMO,
    PER_TTI_OPTIMAL,
    SEMI_STATIC,
    SIMO,
    _SWEEP_VARS,
    RunMetrics,
    ScenarioConfig,
    TtiRecord,
    _check_count,
    run,
    sweep,
)

__all__ = [
    "ExperimentSpec",
    "PRESETS",
    "build_preset",
    "load_config",
    "cmd_run",
    "cmd_sweep",
    "cmd_tablegen",
    "main",
]

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INVALID = 2
EXIT_IO = 3


class ConfigError(Exception):
    """Malformed config text; message carries file and line when known."""


@dataclass(frozen=True)
class ExperimentSpec:
    """One executable experiment: a run of each strategy on the
    template, a sweep of the template, or the analytic curves."""

    name: str
    kind: str  # "run" | "sweep" | "analytic"
    template: ScenarioConfig | None = None
    variable: str = ""
    values: tuple = ()
    strategies: tuple[str, ...] = ()
    antenna_modes: tuple[str, ...] = ()
    repetitions: int = 1

    def __post_init__(self):
        if not self.name:
            raise ValueError("experiment name must be nonempty")
        if self.kind not in ("run", "sweep", "analytic"):
            raise ValueError(f"unknown experiment kind {self.kind!r}")


# ------------------------------------------------------------- config

# [scenario] takes make_channel's named arguments, the scalar fields of
# ScenarioConfig and the label of the table ("default", "reference" or
# a CSV path)
_CHANNEL_KEYS = {k: t for k, t in get_type_hints(make_channel).items() if k != "return"}
_SCENARIO_KEYS = {
    **_CHANNEL_KEYS,
    **{k: t for k, t in get_type_hints(ScenarioConfig).items() if t in (int, float, str, bool)},
    "table": str,
}

_CONTROLLER_KEYS = get_type_hints(ControllerConfig)
_POWER_KEYS = {k: t for k, t in get_type_hints(PowerModelParams).items() if k != "m_a"}
_SWEEP_KEYS = {
    "variable": str,
    "values": str,
    "strategies": str,
    "antenna_modes": str,
    "repetitions": int,
}

def _located(path: str, text: str, section: str, key: str) -> str:
    """path, with the line of key in [section] of text (or in [DEFAULT],
    whose keys configparser hands to every section) if it is found."""
    pat = re.compile(rf"^\s*{re.escape(key)}\s*[=:]", re.IGNORECASE)
    first, current = {}, None
    for i, line in enumerate(text.splitlines(), start=1):
        header = configparser.ConfigParser.SECTCRE.match(line.strip())
        if header:
            current = header["header"]
        elif pat.match(line):
            first.setdefault(current, i)
    line = first.get(section, first.get("DEFAULT"))
    return path if line is None else f"{path} [line {line}]"


def _coerce(raw: str, typ, path: str, text: str, section: str, key: str):
    raw = raw.strip()
    try:
        if typ is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        return raw
    except (ValueError, KeyError):
        raise ConfigError(
            f"{_located(path, text, section, key)}: "
            f"cannot parse {raw!r} as {typ.__name__} for key {key!r}"
        ) from None


def _section_dict(cp, section, allowed, path, text):
    out = {}
    if not cp.has_section(section):
        return out
    for key, raw in cp.items(section):
        if key not in allowed:
            raise ConfigError(
                f"{_located(path, text, section, key)}: unknown key {key!r} in [{section}]"
            )
        out[key] = _coerce(raw, allowed[key], path, text, section, key)
    return out


def _resolve_table(label: str) -> McsTable:
    if label == "default":
        return default_table()
    if label == "reference":
        return reference_table()
    return load_table_file(label)


def _scenario_from_config(cp, path: str, text: str) -> ScenarioConfig:
    if not cp.has_section("scenario"):
        raise ConfigError(f"{path}: missing required [scenario] section")
    sc = _section_dict(cp, "scenario", _SCENARIO_KEYS, path, text)

    ctrl_kwargs = _section_dict(cp, "controller", _CONTROLLER_KEYS, path, text)
    pm_kwargs = _section_dict(cp, "power", _POWER_KEYS, path, text)

    return ScenarioConfig(
        channel=_preset_channel(**{k: sc.pop(k) for k in list(sc) if k in _CHANNEL_KEYS}),
        antenna_mode=sc.pop("antenna_mode", SIMO),
        table=_resolve_table(sc.pop("table", "reference")),
        controller=ControllerConfig(**ctrl_kwargs),
        power_model=PowerModelParams(**pm_kwargs),
        **sc,
    )


def _split_list(raw: str) -> list[str]:
    return [tok.strip() for tok in raw.split(",") if tok.strip()]


def load_config(path: str, kind: str) -> ExperimentSpec:
    """Parse an INI config into an ExperimentSpec of the given kind.

    Raises ConfigError for malformed text (exit 1 territory) and
    ValueError for configs that parse but describe an invalid or
    incomplete experiment (exit 2).
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # values are taken as written: no % interpolation
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        cp.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    known = {"scenario", "controller", "power", "sweep"}
    for section in cp.sections():
        if section not in known:
            raise ConfigError(f"{path}: unknown section [{section}]")

    scenario = _scenario_from_config(cp, path, text)
    name = os.path.splitext(os.path.basename(path))[0]

    if kind == "run":
        return ExperimentSpec(
            name=name, kind="run", template=scenario, strategies=(scenario.strategy,)
        )

    if not cp.has_section("sweep"):
        raise ValueError(f"{path}: sweep command needs a [sweep] section")
    sw = _section_dict(cp, "sweep", _SWEEP_KEYS, path, text)
    variable = sw.get("variable", "")
    if variable not in _SWEEP_VARS:
        raise ValueError(f"{path}: variable must be one of {tuple(_SWEEP_VARS)}")
    typ = _SWEEP_VARS[variable]
    values = tuple(
        _coerce(v, typ, path, text, "sweep", "values") for v in _split_list(sw.get("values", ""))
    )
    return ExperimentSpec(
        name=name,
        kind="sweep",
        template=scenario,
        variable=variable,
        values=values,
        strategies=tuple(_split_list(sw.get("strategies", ""))) or (scenario.strategy,),
        antenna_modes=tuple(_split_list(sw.get("antenna_modes", ""))),
        repetitions=sw.get("repetitions", 1),
    )


# ------------------------------------------------------------- presets

_PRESET_SEED = 20210 + 8


def _preset_channel(**over):
    """The reference link, 435 m from the cell at 3 km/h, with over's
    make_channel arguments in place of its defaults: the presets' channel
    and the defaults of a config's [scenario]."""
    return make_channel(**{"distance_m": 435.0, "i_or_dbm": -72.5, "geometry_db": 23.0,
                           "alpha": 0.995, "speed_kmh": 3.0, **over})


def _preset_scenario(**over) -> ScenarioConfig:
    kwargs = dict(
        channel=_preset_channel(),
        antenna_mode=SIMO,
        duration_ttis=10_000,
        seed=_PRESET_SEED,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        collect_trace=False,
    )
    kwargs.update(over)
    return ScenarioConfig(**kwargs)


def _run_preset(name: str, strategies: tuple[str, ...]) -> ExperimentSpec:
    """A traced 2000-TTI run of each strategy on the reference link."""
    return ExperimentSpec(
        name=name,
        kind="run",
        template=_preset_scenario(strategy=strategies[0], duration_ttis=2000, collect_trace=True),
        strategies=strategies,
    )


def _sweep_preset(
    name: str,
    variable: str,
    values: tuple,
    strategies: tuple[str, ...],
    repetitions: int,
    antenna_modes: tuple[str, ...] = (SIMO,),
    **over,
) -> ExperimentSpec:
    """A sweep of the reference scenario with over's fields in place."""
    return ExperimentSpec(
        name=name,
        kind="sweep",
        template=_preset_scenario(strategy=strategies[0], **over),
        variable=variable,
        values=values,
        strategies=strategies,
        antenna_modes=antenna_modes,
        repetitions=repetitions,
    )


_FIXED_POWERS = tuple(float(p) for p in range(21, 45, 2))
_BASELINE_AND_SEMI = (FIXED_BASELINE, SEMI_STATIC)

# each figure's experiment, built when asked for
PRESETS = {
    "figure1": lambda: ExperimentSpec(name="figure1", kind="analytic"),
    "figure2": lambda: _sweep_preset(
        "figure2", "fixed_power", _FIXED_POWERS, (FIXED_BASELINE,), 3,
        duration_ttis=3000,
    ),
    "figure5": lambda: _run_preset("figure5", (FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL)),
    "figure6": lambda: _run_preset("figure6", (SEMI_STATIC, PER_TTI_OPTIMAL)),
    "figure7": lambda: _sweep_preset(
        "figure7", "speed", (3.0, 30.0, 120.0), _BASELINE_AND_SEMI, 4,
        duration_ttis=8000,
    ),
    "figure8": lambda: _sweep_preset(
        "figure8", "distance", (400.0, 500.0, 650.0, 800.0, 1100.0, 1500.0),
        _BASELINE_AND_SEMI, 3, duration_ttis=6000,
    ),
    "figure9": lambda: _sweep_preset(
        "figure9", "theta_min", (1, 26, 28, 30), _BASELINE_AND_SEMI, 3,
        duration_ttis=8000,
    ),
    "figure10": lambda: _sweep_preset(
        "figure10", "fixed_power", _FIXED_POWERS, (FIXED_BASELINE,), 4,
        antenna_modes=(SIMO, MIMO),
        channel=_preset_channel(distance_m=430.0),
        duration_ttis=3000,
    ),
    "figure11": lambda: _sweep_preset(
        "figure11", "distance", (400.0, 430.0, 460.0, 500.0, 550.0, 650.0),
        (SEMI_STATIC,), 3, antenna_modes=(SIMO, MIMO), duration_ttis=6000,
    ),
}


def _override(spec: ExperimentSpec, seed: int | None, reps: int | None) -> ExperimentSpec:
    """Apply the command line's --seed and --reps to an experiment."""
    if seed is not None:
        _check_count("seed", seed, 0)
        if spec.template is not None:
            spec = replace(spec, template=replace(spec.template, seed=seed))
    if reps is not None:
        _check_count("reps", reps, 1)
        if spec.kind == "sweep":
            spec = replace(spec, repetitions=reps)
    return spec


def build_preset(name: str, seed: int | None = None, reps: int | None = None) -> ExperimentSpec:
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {', '.join(sorted(PRESETS))}")
    return _override(PRESETS[name](), seed, reps)


# ------------------------------------------------------------- emission

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_, int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)


def _analytic_rows(pm_base: PowerModelParams):
    # Shannon EE/SE against transmit power over a flat link with the
    # preset channel's path loss folded into its noise floor
    ch = _preset_channel()
    n0w = ch.noise_w / ch.path_gain_lin
    pm1 = replace(pm_base, m_a=1)
    pm2 = replace(pm_base, m_a=2)
    for p_dbm in np.linspace(0.0, 46.0, 461):
        p_w = 10.0 ** ((p_dbm - 30.0) / 10.0)
        yield (
            p_dbm,
            total_power(p_w, pm1),
            total_power(p_w, pm2),
            shannon_se(p_w, n0w),
            shannon_ee(p_w, pm1, n0w),
            shannon_ee(p_w, pm2, n0w),
        )


_TRACE_HEADER = ["strategy", "antenna_mode", "tti_index", "p_tx_dbm", "mcs_index",
                 "mcs_secondary", "outcome", "delivered_bits", "consumed_energy_j",
                 "reconfigured"]


def _trace_sink(label: str, mode: str, write) -> Callable[[TtiRecord], None]:
    """A sink that writes each TtiRecord as one trace.csv row, the bytes
    csv.writer writes for _fmt of each cell, with write (a text file's,
    opened with newline="").

    label,mode, is quoted once by csv's rules; the int cells are written
    with str and the outcome, always an OUTCOME_* word, as it is. The two
    float cells go through _fmt, kept for the last value by identity:
    the engine hands on the same float objects while the power holds,
    and equal values can print differently (0.0 and -0.0, 40 and 40.0)."""
    buf = io.StringIO()
    csv.writer(buf).writerow((label, mode, ""))
    prefix = buf.getvalue()[:-2]  # without csv's \r\n
    last_p = last_e = object()
    p_cell = e_cell = ""

    def write_row(r):
        nonlocal last_p, p_cell, last_e, e_cell
        p = r.p_tx_dbm
        if p is not last_p:
            last_p, p_cell = p, _fmt(p)
        e = r.consumed_energy_j
        if e is not last_e:
            last_e, e_cell = e, _fmt(e)
        write(
            f"{prefix}{r.tti_index},{p_cell},{r.mcs_index},{r.mcs_secondary},{r.outcome},"
            f"{r.delivered_bits},{e_cell},{1 if r.reconfigured else 0}\r\n"
        )

    return write_row


def _run_traced(sc: ScenarioConfig, write) -> RunMetrics:
    """Run sc, writing each trace row with write as the run makes it."""
    label, mode = sc.strategy, sc.antenna_mode
    # run is looked up in this module, so a wrapper put in its place
    # (the benchmark's tracer) sees every run
    metrics, _ = run(sc, _trace_sink(label, mode, write))
    print(
        f"{label}/{mode}: ee={metrics.avg_ee_bits_per_joule:.0f} bits/J  "
        f"throughput={metrics.throughput_bps / 1e6:.2f} Mbps  "
        f"nack={metrics.nack_rate:.3f}  reconfigs={metrics.reconfig_count}"
    )
    return metrics


def cmd_run(spec: ExperimentSpec, out_dir: str) -> list[str]:
    """Run each strategy on the template; write trace.csv + metrics.csv
    (curves.csv for the analytic preset). Returns the paths written.

    Each strategy's trace rows are written as its run makes them, into
    trace.csv.part, which becomes trace.csv when every run is done; a
    run that raises removes it."""
    os.makedirs(out_dir, exist_ok=True)
    if spec.kind == "analytic":
        path = os.path.join(out_dir, "curves.csv")
        _write_csv(
            path,
            ["p_tx_dbm", "p_total_m1_w", "p_total_m2_w",
             "se_bps_hz", "ee_m1_bits_per_joule", "ee_m2_bits_per_joule"],
            _analytic_rows(PowerModelParams()),
        )
        print(f"{spec.name}: wrote {path}")
        return [path]
    if spec.kind != "run":
        raise ValueError(f"{spec.name} is a sweep; use the sweep command")

    trace_path = os.path.join(out_dir, "trace.csv")
    metrics_path = os.path.join(out_dir, "metrics.csv")
    part_path = trace_path + ".part"
    try:
        with open(part_path, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(_TRACE_HEADER) + "\r\n")
            results = [
                _run_traced(replace(spec.template, strategy=strategy), fh.write)
                for strategy in spec.strategies
            ]
        os.replace(part_path, trace_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(part_path)
        raise

    _write_csv(
        metrics_path,
        ["strategy", "antenna_mode", "avg_ee_bits_per_joule", "throughput_bps",
         "reconfig_count", "nack_rate", "delivered_bits", "consumed_energy_j",
         "duration_ttis"],
        (
            (m.strategy, m.antenna_mode, m.avg_ee_bits_per_joule, m.throughput_bps,
             m.reconfig_count, m.nack_rate, m.delivered_bits, m.consumed_energy_j,
             m.duration_ttis)
            for m in results
        ),
    )
    # a traced run hands its sink one row per TTI
    n_rows = sum(m.duration_ttis for m in results) if spec.template.collect_trace else 0
    print(f"{spec.name}: wrote {trace_path} ({n_rows} rows), {metrics_path}")
    return [trace_path, metrics_path]


def cmd_sweep(spec: ExperimentSpec, out_dir: str) -> list[str]:
    """Execute a sweep spec; write series.csv. Returns the paths written."""
    if spec.kind != "sweep":
        raise ValueError(f"{spec.name} is not a sweep; use the run command")
    if not spec.values:
        raise ValueError(f"{spec.name}: sweep value list is empty")
    os.makedirs(out_dir, exist_ok=True)
    points = sweep(
        spec.template,
        spec.variable,
        list(spec.values),
        repetitions=spec.repetitions,
        strategies=spec.strategies or None,
        antenna_modes=spec.antenna_modes or None,
    )
    path = os.path.join(out_dir, "series.csv")
    _write_csv(
        path,
        ["variable", "value", "strategy", "mean_ee", "std_ee",
         "mean_reconfigs", "mean_throughput"],
        (
            (p.variable, p.value, p.strategy, p.mean_ee, p.std_ee,
             p.mean_reconfigs, p.mean_throughput)
            for p in points
        ),
    )
    print(f"{spec.name}: wrote {path} ({len(points)} rows, {spec.repetitions} reps/cell)")
    return [path]


def cmd_tablegen(step_db: float, entries: int, out_path: str) -> str:
    """Materialize the synthetic uniform table as CSV; returns the path."""
    table = make_uniform_table(step_db=step_db, entries=entries)
    text = table_to_csv(
        table,
        comment=f"synthetic uniform table: step {step_db} dB, {entries} entries",
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {out_path} ({entries} entries)")
    return out_path


# ------------------------------------------------------------- entry

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsdpa-ee",
        description="Link-level EE experiments: runs, sweeps, table generation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "single scenario (or run-style preset); writes trace.csv + metrics.csv"),
        ("sweep", "parameter sweep (or sweep-style preset); writes series.csv"),
    ):
        p = sub.add_parser(name, help=help_text)
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", metavar="PATH", help="INI experiment config")
        src.add_argument("--preset", metavar="NAME",
                         help=f"one of: {', '.join(sorted(PRESETS))}")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.add_argument("--out", metavar="DIR", default=".", help="output directory")
        p.add_argument("--reps", type=int, default=None,
                       help="override sweep repetitions")
    t = sub.add_parser("tablegen", help="emit a synthetic MCS table as CSV")
    t.add_argument("--step-db", type=float, default=1.0, help="threshold spacing, dB")
    t.add_argument("--entries", type=int, default=30, help="number of CQI levels")
    t.add_argument("--out", metavar="PATH", default="mcs_table.csv",
                   help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "tablegen":
            cmd_tablegen(args.step_db, args.entries, args.out)
            return EXIT_OK
        if args.preset:
            spec = build_preset(args.preset, seed=args.seed, reps=args.reps)
        else:
            spec = _override(load_config(args.config, args.command), args.seed, args.reps)
        (cmd_run if args.command == "run" else cmd_sweep)(spec, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
