"""CLI tests: config parsing, exit codes, CSV emission, presets.

main() is called in-process with argv lists; one subprocess test pins
the python -m entry point.
"""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hsdpa_ee import cli_report
from hsdpa_ee.cli_report import (
    EXIT_INVALID,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    PRESETS,
    _fmt,
    _write_csv,
    build_preset,
    cmd_run,
    cmd_tablegen,
    load_config,
    main,
)
from hsdpa_ee.mcs_table import load_table_file
from hsdpa_ee.sim_engine import ScenarioConfig, TtiRecord, power_model_for_mode, run
from dataclasses import replace


RUN_CONFIG = """\
[scenario]
distance_m = 435
speed_kmh = 3
strategy = SemiStatic
duration_ttis = 400
seed = 3
table = reference

[controller]
ee_smoothing = 0.01
"""

SWEEP_CONFIG = """\
[scenario]
duration_ttis = 400
table = reference

[sweep]
variable = speed
values = 3, 30
strategies = FixedBaseline, SemiStatic
repetitions = 2
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ------------------------------------------------------------------ run


def test_run_config_happy_path(tmp_path, capsys):
    cfg = write(tmp_path, "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert (out / "trace.csv").is_file()
    assert (out / "metrics.csv").is_file()
    summary = capsys.readouterr().out
    assert "SemiStatic" in summary and "bits/J" in summary
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 400
    assert rows[0]["strategy"] == "SemiStatic"


def test_failed_run_leaves_no_trace_file(tmp_path, monkeypatch, capsys):
    spec = build_preset("figure6")
    spec = replace(spec, template=replace(spec.template, duration_ttis=400))
    assert len(spec.strategies) == 2
    started = []

    def second_run_fails(sc, sink=None):
        started.append(sc.strategy)
        if len(started) < 2:
            return run(sc, sink)

        def failing_sink(r):
            if r.tti_index == 200:
                raise RuntimeError("run failed part-way")
            sink(r)

        return run(sc, failing_sink)

    monkeypatch.setattr(cli_report, "run", second_run_fails)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="part-way"):
        cmd_run(spec, str(out))
    assert started == list(spec.strategies)
    assert os.listdir(out) == []

    # the same run unpatched leaves trace.csv in place of the partial file
    monkeypatch.undo()
    cmd_run(spec, str(out))
    assert sorted(os.listdir(out)) == ["metrics.csv", "trace.csv"]
    assert f"({2 * 400} rows)" in capsys.readouterr().out


def test_malformed_config_exits_1_with_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[scenario\nduration_ttis = 5\n")
    assert main(["run", "--config", cfg]) == EXIT_PARSE
    assert "line" in capsys.readouterr().err


def test_bad_value_exits_1_with_line(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[scenario]\nspeed_kmh = fast\n")
    assert main(["run", "--config", cfg]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "[line 2]" in err and "speed_kmh" in err


def test_controller_keys_parse_to_their_field_types(tmp_path, capsys):
    # min_mcs is the one int field of ControllerConfig
    text = "[scenario]\nduration_ttis = 10\n\n[controller]\nee_smoothing = 0.02\nmin_mcs = {}\n"
    spec = load_config(write(tmp_path, "ok.ini", text.format("26")), "run")
    cfg = spec.template.controller
    assert cfg.min_mcs == 26 and type(cfg.min_mcs) is int
    assert cfg.ee_smoothing == 0.02 and type(cfg.ee_smoothing) is float
    cfg_path = write(tmp_path, "bad.ini", text.format("2.5"))
    assert main(["run", "--config", cfg_path]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "[line 6]" in err and "min_mcs" in err and "int" in err


def test_unknown_key_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "bad.ini", "[scenario]\nwarp_factor = 9\n")
    assert main(["run", "--config", cfg]) == EXIT_PARSE
    assert "warp_factor" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["feedback_delay_ttis", "max_retransmissions",
                                 "pilot_window_s", "dual_shift_factor", "pair_tol_db",
                                 "noise_figure_db"])
def test_fixed_engine_constants_are_unknown_keys(tmp_path, capsys, key):
    cfg = write(tmp_path, "bad.ini", f"[scenario]\nduration_ttis = 10\n{key} = 0.001\n")
    assert main(["run", "--config", cfg]) == EXIT_PARSE
    assert f"[line 3]: unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["tti_ms", "offset_step_up_db", "offset_step_down_db",
                                 "offset_clamp_db"])
def test_fixed_controller_constants_are_unknown_keys(tmp_path, capsys, key):
    cfg = write(tmp_path, "bad.ini", f"[scenario]\nduration_ttis = 10\n\n[controller]\n{key} = 3\n")
    assert main(["run", "--config", cfg]) == EXIT_PARSE
    assert f"[line 5]: unknown key {key!r} in [controller]" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, line, key, section", [
    # valid in [scenario], unknown in [controller]
    ("run", "[scenario]\nalpha = 0.9\n\n[controller]\nee_smoothing = 0.1\nalpha = 0.5\n",
     6, "alpha", "controller"),
    ("sweep", "[scenario]\nseed = 1\n\n[sweep]\nvariable = speed\nvalues = 3\nseed = 2\n",
     7, "seed", "sweep"),
    # configparser hands [DEFAULT]'s keys to every section
    ("run", "[DEFAULT]\nwarp = 1\n\n[scenario]\nseed = 1\n", 2, "warp", "scenario"),
], ids=["key_in_two_sections", "seed_under_sweep", "default_section"])
def test_unknown_key_is_reported_at_its_own_line(tmp_path, capsys, command, text, line, key,
                                                 section):
    # a key valid in an earlier section used to be reported at that
    # section's line
    cfg = write(tmp_path, "bad.ini", text)
    assert main([command, "--config", cfg]) == EXIT_PARSE
    assert f"bad.ini [line {line}]: unknown key {key!r} in [{section}]" in capsys.readouterr().err


def test_scenario_keys_parse_to_their_field_types(tmp_path):
    text = "[scenario]\nbaseline_power_dbm = 38\nduration_ttis = 10\ncollect_trace = off\n"
    sc = load_config(write(tmp_path, "ok.ini", text), "run").template
    assert sc.baseline_power_dbm == 38.0 and type(sc.baseline_power_dbm) is float
    assert sc.duration_ttis == 10 and sc.collect_trace is False


@pytest.mark.parametrize("word, value", [
    ("1", True), ("Yes", True), ("TRUE", True), ("on", True),
    ("0", False), ("no", False), ("False", False), ("OFF", False),
])
def test_bool_keys_read_configparsers_eight_words(tmp_path, word, value):
    # configparser's BOOLEAN_STATES, in any case
    text = f"[scenario]\ncollect_trace = {word}\n"
    assert load_config(write(tmp_path, "ok.ini", text), "run").template.collect_trace is value


@pytest.mark.parametrize("word", ["y", "t", "2", "enabled"])
def test_a_bool_key_outside_the_eight_words_exits_1(tmp_path, capsys, word):
    cfg = write(tmp_path, "bad.ini", f"[scenario]\ncollect_trace = {word}\n")
    assert main(["run", "--config", cfg]) == EXIT_PARSE
    assert f"cannot parse {word!r} as bool for key 'collect_trace'" in capsys.readouterr().err


def test_run_config_loads_as_template_and_its_strategy(tmp_path):
    text = "[scenario]\nstrategy = PerTtiOptimal\nantenna_mode = MIMO\n\n[power]\neta = 0.3\n"
    spec = load_config(write(tmp_path, "ok.ini", text), "run")
    assert spec.strategies == ("PerTtiOptimal",)
    assert spec.template.strategy == "PerTtiOptimal"
    # the chain count follows antenna_mode; [power] has no m_a key
    assert (spec.template.power_model.m_a, spec.template.power_model.eta) == (2, 0.3)


def test_invalid_scenario_exits_2(tmp_path):
    cfg = write(tmp_path, "bad.ini", "[scenario]\nduration_ttis = -1\n")
    assert main(["run", "--config", cfg]) == EXIT_INVALID


@pytest.mark.parametrize("text, key", [
    ("i_or_dbm = 4000", "i_or_dbm"),
    ("geometry_db = 4000", "geometry_db"),
    ("geometry_db = -4000", "geometry_db"),
    ("baseline_power_dbm = 4000\nstrategy = FixedBaseline", "baseline_power_dbm"),
    ("baseline_power_dbm = 4000\nstrategy = SemiStatic", "baseline_power_dbm"),
])
def test_a_power_that_overflows_exits_2_naming_it(tmp_path, capsys, text, key):
    # refused when the config is read, naming the key, before an
    # OverflowError or a division by zero deep in the run could be
    cfg = write(tmp_path, "big.ini", f"[scenario]\nduration_ttis = 50\n{text}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{key} must be finite, within +-1000 dB" in err
    assert not (tmp_path / "out").exists()


def test_a_percent_sign_is_taken_as_written(tmp_path, capsys):
    # no % interpolation: the value is a table path, which is missing
    cfg = write(tmp_path, "pct.ini", "[scenario]\ntable = 50%\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == EXIT_IO
    assert "50%" in capsys.readouterr().err


def test_missing_config_exits_3(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_IO


def test_unwritable_out_dir_exits_3(tmp_path):
    cfg = write(tmp_path, "run.ini", RUN_CONFIG)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", "--config", cfg, "--out", str(blocker / "sub")]) == EXIT_IO


def test_seed_flag_gives_byte_identical_traces(tmp_path):
    cfg = write(tmp_path, "run.ini", RUN_CONFIG)
    for d in ("a", "b"):
        assert main(["run", "--config", cfg, "--seed", "7",
                     "--out", str(tmp_path / d)]) == EXIT_OK
    a = (tmp_path / "a" / "trace.csv").read_bytes()
    b = (tmp_path / "b" / "trace.csv").read_bytes()
    assert a == b


def test_trace_floats_round_trip(tmp_path):
    cfg = write(tmp_path, "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out)])
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for col in ("p_tx_dbm", "consumed_energy_j"):
            assert repr(float(row[col])) == row[col]
    # idle rows (no report yet) carry the -inf power
    assert rows[0]["outcome"] == "idle" and rows[0]["p_tx_dbm"] == "-inf"
    assert any(row["outcome"] != "idle" for row in rows)


def test_csv_writer_matches_per_cell_formatting(tmp_path):
    # _write_csv's bytes must be what csv.writer writes for _fmt of every
    # cell of the same rows
    base = replace(build_preset("figure5").template, duration_ttis=300)
    # an int power passed through the Python API is written without a point
    trace = run(replace(base, baseline_power_dbm=40, strategy="FixedBaseline"))[1]
    semi = run(base)[1]
    odd = [
        TtiRecord(0, float("-inf"), 0, 0, "idle", 0, 0.5, False),
        TtiRecord(1, 40, 7, 3, "mixed", 1234, np.float64(0.25), True),
        TtiRecord(2, np.float64(39.5), 5, 0, "ack", 99, 1e-05, True),
        TtiRecord(3, 1e16, 5, 0, "nack", 0, 2.5e-300, False),
        TtiRecord(4, np.int64(41), 2, 0, "ack", 10, 0.125, False),
    ]
    runs = [("FixedBaseline", "SIMO", trace), ('odd, "quoted"', "MIMO", odd),
            ("SemiStatic", "SIMO", semi)]
    assert any(type(r.p_tx_dbm) is int for r in trace)
    assert any(r.p_tx_dbm == float("-inf") for r in trace)
    rows = [
        (label, mode, r.tti_index, r.p_tx_dbm, r.mcs_index, r.mcs_secondary,
         r.outcome, r.delivered_bits, r.consumed_energy_j, r.reconfigured)
        for label, mode, records in runs for r in records
    ]
    header = ["strategy", "antenna_mode", "tti_index", "p_tx_dbm", "mcs_index",
              "mcs_secondary", "outcome", "delivered_bits", "consumed_energy_j",
              "reconfigured"]

    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    _write_csv(str(new), header, iter(rows))
    with open(old, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    assert new.read_bytes() == old.read_bytes()
    assert b'"odd, ""quoted""",MIMO,1,40,7,3,mixed,1234,0.25,1' in new.read_bytes()


# floats: shared objects from a small pool, so a cell repeats by identity,
# next to values equal to them that print differently
_ZERO, _NEG_ZERO, _FORTY = 0.0, -0.0, 40.0
_FLOAT_POOL = st.lists(
    st.one_of(
        st.floats(allow_nan=False),
        st.floats(width=32).map(np.float64),
        st.sampled_from([_ZERO, _NEG_ZERO, 40, _FORTY, float("-inf"), np.int64(41)]),
    ),
    min_size=1,
    max_size=4,
)
_INTS = st.integers(0, 2**40) | st.integers(0, 2**31).map(np.int64)
_LABELS = st.sampled_from(["FixedBaseline", "SIMO", 'odd, "quoted"', "a\r\nb", ""]) | st.text()


@st.composite
def _trace_runs(draw):
    pool_p, pool_e = st.sampled_from(draw(_FLOAT_POOL)), st.sampled_from(draw(_FLOAT_POOL))
    records = [
        TtiRecord(draw(_INTS), draw(pool_p), draw(_INTS), draw(_INTS),
                  draw(st.sampled_from(["ack", "nack", "mixed", "idle"])), draw(_INTS),
                  draw(pool_e), draw(st.booleans() | st.just(np.True_)))
        for _ in range(draw(st.integers(0, 12)))
    ]
    return draw(_LABELS), draw(_LABELS), records


def _rows(*cells):
    return [TtiRecord(t, p, 5, 0, "ack", 99, e, False) for t, (p, e) in enumerate(cells)]


@given(_trace_runs())
@example(("s", "m", _rows((40, 0.5), (_FORTY, 0.5), (_ZERO, _NEG_ZERO), (_NEG_ZERO, _ZERO))))
@example(('odd, "quoted"', "MIMO", _rows((float("-inf"), _ZERO), (np.float64(1.5), 1.5))))
@settings(max_examples=300, deadline=None)
def test_trace_sink_writes_what_csv_writes(trace_run):
    # the trace sink's bytes are csv.writer's for _fmt of every cell,
    # with the reconfigured flag as an int
    label, mode, records = trace_run
    new, old = io.StringIO(newline=""), io.StringIO(newline="")
    sink = cli_report._trace_sink(label, mode, new.write)
    writer = csv.writer(old)
    for r in records:
        sink(r)
        writer.writerow([_fmt(v) for v in (
            label, mode, r.tti_index, r.p_tx_dbm, r.mcs_index, r.mcs_secondary,
            r.outcome, r.delivered_bits, r.consumed_energy_j, int(r.reconfigured))])
    assert new.getvalue() == old.getvalue()


# ---------------------------------------------------------------- sweep


def test_sweep_config_emits_series(tmp_path):
    cfg = write(tmp_path, "sw.ini", SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # 2 speeds x 2 strategies
    assert {r["strategy"] for r in rows} == {"FixedBaseline", "SemiStatic"}
    assert {float(r["value"]) for r in rows} == {3.0, 30.0}
    for r in rows:
        assert float(r["mean_ee"]) > 0.0


def test_sweep_without_block_exits_2(tmp_path):
    cfg = write(tmp_path, "run.ini", RUN_CONFIG)
    assert main(["sweep", "--config", cfg]) == EXIT_INVALID


def test_sweep_empty_values_exits_2(tmp_path):
    cfg = write(tmp_path, "sw.ini",
                "[scenario]\nduration_ttis = 100\n\n[sweep]\nvariable = speed\nvalues =\n")
    assert main(["sweep", "--config", cfg]) == EXIT_INVALID


@pytest.mark.parametrize("variable, values", [("speed", "3, fast"), ("theta_min", "2.5")])
def test_malformed_sweep_value_exits_1_with_line(tmp_path, capsys, variable, values):
    text = f"[scenario]\nduration_ttis = 100\n\n[sweep]\nvariable = {variable}\nvalues = {values}\n"
    cfg = write(tmp_path, "sw.ini", text)
    assert main(["sweep", "--config", cfg]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "sw.ini [line 6]" in err and "'values'" in err


@pytest.mark.parametrize("sweep_keys", [
    "variable = antenna_mode\nvalues = MIMO\nantenna_modes = SIMO, MIMO\n",
    "variable = speed\nvalues = 3, 3\n",
    "variable = speed\nvalues = 3\nstrategies = SemiStatic, SemiStatic\n",
    "variable = speed\nvalues = 3\nantenna_modes = SIMO, SIMO\n",
])
def test_sweep_whose_cells_collide_exits_2(tmp_path, capsys, sweep_keys):
    cfg = write(tmp_path, "sw.ini", f"[scenario]\nduration_ttis = 100\n\n[sweep]\n{sweep_keys}")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err


def test_reps_flag_overrides_config(tmp_path):
    cfg = write(tmp_path, "sw.ini", SWEEP_CONFIG)
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--reps", "1"]) == EXIT_OK
    spec = load_config(cfg, "sweep")
    assert spec.repetitions == 2  # config value, flag only touches the run


# -------------------------------------------------------------- tablegen


def test_tablegen_default_grid(tmp_path):
    out = str(tmp_path / "tab.csv")
    assert main(["tablegen", "--out", out]) == EXIT_OK
    table = load_table_file(out)
    thresholds = [e.sinr_threshold_db for e in table.entries]
    assert thresholds[0] == pytest.approx(-4.5)
    assert thresholds[-1] == pytest.approx(24.5)
    assert len(thresholds) == 30


def test_tablegen_rejects_single_entry(tmp_path):
    out = str(tmp_path / "tab.csv")
    assert main(["tablegen", "--entries", "1", "--out", out]) == EXIT_INVALID
    with pytest.raises(ValueError):
        cmd_tablegen(1.0, 1, out)


def test_tablegen_custom_step(tmp_path):
    out = str(tmp_path / "tab.csv")
    assert main(["tablegen", "--step-db", "0.5", "--entries", "10", "--out", out]) == EXIT_OK
    table = load_table_file(out)
    t = [e.sinr_threshold_db for e in table.entries]
    assert np.allclose(np.diff(t), 0.5)


# --------------------------------------------------------------- presets


def test_all_presets_exist_and_build():
    assert set(PRESETS) == {
        "figure1", "figure2", "figure5", "figure6", "figure7",
        "figure8", "figure9", "figure10", "figure11",
    }
    for name in PRESETS:
        spec = build_preset(name)
        assert spec.name == name


def test_unknown_preset_exits_2(tmp_path):
    assert main(["run", "--preset", "figure99", "--out", str(tmp_path)]) == EXIT_INVALID


def test_preset_wrong_command_exits_2(tmp_path, capsys):
    for command, preset, right in (
        ("run", "figure7", "sweep"),
        ("sweep", "figure5", "run"),
        ("sweep", "figure1", "run"),  # the analytic curves are written by run
    ):
        assert main([command, "--preset", preset, "--out", str(tmp_path)]) == EXIT_INVALID
        assert f"use the {right} command" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


# sweep checks the value; run has no repetitions, so its parser refuses the flag
REPS_REFUSAL = {
    "sweep": "reps must be >= 1, got {reps}",
    "run": "unrecognized arguments: --reps {reps}",
}


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refuses by exiting
        return exc.code


@pytest.mark.parametrize("command, preset", [("run", "figure5"), ("sweep", "figure7")])
@pytest.mark.parametrize("reps", ["0", "-2"])
def test_reps_below_one_exits_2_naming_it(tmp_path, capsys, command, preset, reps):
    argv = [command, "--preset", preset, "--reps", reps, "--out", str(tmp_path)]
    assert _exit_code(argv) == EXIT_INVALID
    assert REPS_REFUSAL[command].format(reps=reps) in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_run_refuses_reps(tmp_path, capsys):
    # a run has no repetitions to set, so run does not offer the flag
    with pytest.raises(SystemExit) as exc:
        main(["run", "--preset", "figure5", "--reps", "3", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_INVALID
    assert "--reps" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_reps_override_of_a_spec_that_is_not_a_sweep_names_it(tmp_path):
    with pytest.raises(ValueError, match="^reps applies to a sweep only, not to figure5"):
        build_preset("figure5", reps=3)
    spec = load_config(write(tmp_path, "run.ini", RUN_CONFIG), "run")
    with pytest.raises(ValueError, match="^reps applies to a sweep only"):
        cli_report._override(spec, None, 3)


def test_negative_seed_flag_exits_2_naming_the_seed(tmp_path, capsys):
    argv = ["run", "--preset", "figure6", "--seed", "-1", "--out", str(tmp_path)]
    assert main(argv) == EXIT_INVALID
    assert "seed must be >= 0" in capsys.readouterr().err


def test_negative_seed_on_the_analytic_preset_exits_2(tmp_path, capsys):
    # figure1 draws nothing, but its seed is checked all the same
    argv = ["run", "--preset", "figure1", "--seed", "-3", "--out", str(tmp_path)]
    assert main(argv) == EXIT_INVALID
    assert "seed must be >= 0, got -3" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value, text", [(np.True_, "1"), (np.False_, "0")])
def test_fmt_writes_numpy_bools_as_python_bools(value, text):
    assert _fmt(value) == text


def test_sweep_variable_is_checked_before_its_values(tmp_path, capsys):
    # antenna modes are swept with antenna_modes; the values are not
    # parsed as floats for a variable that does not exist
    text = "[scenario]\nduration_ttis = 100\n\n[sweep]\nvariable = antenna_mode\nvalues = MIMO\n"
    cfg = write(tmp_path, "sw.ini", text)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_INVALID
    assert "variable must be one of ('speed', 'distance', 'theta_min', 'fixed_power')" in (
        capsys.readouterr().err
    )


def test_figure1_writes_curves(tmp_path):
    out = tmp_path / "f1"
    assert main(["run", "--preset", "figure1", "--out", str(out)]) == EXIT_OK
    with open(out / "curves.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 100
    ee = np.array([float(r["ee_m1_bits_per_joule"]) for r in rows])
    # unimodal curve: strictly interior peak
    k = int(np.argmax(ee))
    assert 0 < k < len(ee) - 1


def test_figure7_row_shape(tmp_path):
    out = tmp_path / "f7"
    assert main(["sweep", "--preset", "figure7", "--out", str(out),
                 "--reps", "1"]) == EXIT_OK
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    # one row per (speed, strategy)
    assert len(rows) == 6
    assert {(r["value"], r["strategy"]) for r in rows} == {
        (v, s) for v in ("3.0", "30.0", "120.0")
        for s in ("FixedBaseline", "SemiStatic")
    }


def test_figure10_matches_direct_run(tmp_path):
    out = tmp_path / "f10"
    assert main(["sweep", "--preset", "figure10", "--out", str(out),
                 "--reps", "1"]) == EXIT_OK
    with open(out / "series.csv") as fh:
        rows = list(csv.DictReader(fh))
    spec = build_preset("figure10", reps=1)
    seed = int(np.random.SeedSequence(spec.template.seed).generate_state(1)[0])
    # re-derive one cell with a direct engine call
    row = next(r for r in rows if r["value"] == "33.0" and r["strategy"].endswith("MIMO"))
    sc = replace(
        spec.template,
        baseline_power_dbm=33.0,
        antenna_mode="MIMO",
        power_model=power_model_for_mode("MIMO", spec.template.power_model),
        strategy="FixedBaseline",
        seed=seed,
        collect_trace=False,
    )
    direct = run(sc)[0]
    assert float(row["mean_ee"]) == pytest.approx(direct.avg_ee_bits_per_joule, rel=1e-9)


SRC = Path(__file__).resolve().parents[1] / "src"


def test_module_entry_point(tmp_path):
    # the subprocess finds the package in this checkout's src, installed
    # or not
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run(
        [sys.executable, "-m", "hsdpa_ee", "tablegen",
         "--out", str(tmp_path / "t.csv")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert r.returncode == 0
    assert (tmp_path / "t.csv").is_file()
