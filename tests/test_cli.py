import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tlsrf
from tlsrf import PAPER_QD, DrivePulse, bloch, cli, lamp
from tlsrf.core import ConfigError, stream


MALFORMED = st.sampled_from([-1, 0, "x", None, True, False, 2.5, [], {}, math.nan, math.inf, -math.inf])

# a config on which each command runs in well under a second
SMALL = {
    "saturation": {"s_points": 5},
    "linewidth": {"s_points": 5},
    "rabi": {"omegas": [5.2], "samples": 100, "t_end_ns": 0.5},
    "mollow": {"omegas": [5.2], "grid_points": 101},
    "g2": {"duration_ns": 2000.0, "max_lag_ns": 3.0, "lag_step_ns": 0.05},
    "lamp": {"n": 4096, "field_rows": 10},
    "tags": {"duration_ns": 1000.0},
    "validate": {},
}
KEYS = [(command, key) for command, schema in cli._SCHEMA.items() for key in schema]


def run(args):
    return cli.main(args)


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestConfigHandling:
    def test_unknown_config_key_is_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        assert run(["saturation", "--config", str(cfg)]) == 2

    def test_malformed_json_is_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        assert run(["saturation", "--config", str(cfg)]) == 2

    def test_unknown_preset_is_exit_2(self):
        assert run(["saturation", "--preset", "fig9"]) == 2

    def test_unknown_parameter_set_is_exit_2(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"params": "no-such-qd"}))
        assert run(["saturation", "--config", str(cfg)]) == 2

    def test_numerical_guard_is_exit_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dt_ns": 0.2, "omegas": [7.2]}))
        assert run(["rabi", "--config", str(cfg), "--samples", "100", "--out", str(tmp_path / "x.csv")]) == 3

    def test_checked_dt_is_the_one_used(self, tmp_path):
        # dt_ns is converted once at the config boundary, so a numeric
        # string reaches the same guard as the number
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"dt_ns": "0.2", "omegas": [7.2]}))
        assert run(["rabi", "--config", str(cfg), "--samples", "100", "--out", str(tmp_path / "x.csv")]) == 3

    @pytest.mark.parametrize(
        "command, options",
        [
            ("mollow", {"quad_order": 0}),
            ("g2", {"lag_step_ns": 0}),
            ("g2", {"lag_step_ns": -0.01}),
            ("g2", {"max_lag_ns": -1}),
            ("g2", {"max_lag_ns": 0}),
            ("g2", {"bin_ns": 0}),
            ("g2", {"duration_ns": 1}),
            ("lamp", {"max_lag_ns": -1}),
            ("lamp", {"tau_corr_ns": 0}),
            ("rabi", {"dt_ns": -0.01}),
            ("rabi", {"pulse_ns": -1}),
            ("rabi", {"t_end_ns": 0}),
            ("tags", {"duration_ns": -5}),
            ("tags", {"efficiency": 0}),
            ("tags", {"statistics": "bogus"}),
            ("tags", {"blinking_beta": 0, "blinking_tau_ns": 405.0}),
            ("tags", {"blinking_beta": 0.5, "blinking_tau_ns": 0}),
            ("saturation", {"s_min": 0}),
            ("tags", {"omega": "abc"}),
            ("rabi", {"omegas": [-1]}),
            ("lamp", {"dt_ns": -1}),
            ("lamp", {"n": 1}),
            ("g2", {"omega": -1}),
            ("mollow", {"omegas": 7.2}),
            ("lamp", {"field_rows": "all"}),
            ("saturation", {"seed": "abc"}),
            ("rabi", {"samples": 0}),
            ("g2", {"omega": 0}),
            ("g2", {"omega": 0, "statistics": "chaotic"}),
            ("mollow", {"grid_points": 0}),
            ("mollow", {"grid_points": 1}),
            ("mollow", {"grid_points": -5}),
            ("g2", {"mc": "no"}),
            ("g2", {"chaotic": 1}),
            ("mollow", {"span_ghz": -4}),
            ("mollow", {"span_ghz": 0}),
            ("saturation", {"s_points": 2.5}),
            ("mollow", {"grid_points": 2001.5}),
            ("lamp", {"n": 1e3 + 0.5}),
            ("rabi", {"samples": 100.5}),
            ("lamp", {"field_rows": float("inf")}),
            ("tags", {"seed": -1}),
            ("rabi", {"seed": -1}),
            ("lamp", {"seed": -1}),
            ("g2", {"seed": -1}),
            ("g2", {"max_lag_ns": float("nan")}),
            ("g2", {"omega": True}),
            ("lamp", {"max_lag_ns": 2.5}),
            # a falsy value is not read as unset
            ("lamp", {"max_lag_ns": 0}),
            ("lamp", {"max_lag_ns": False}),
            ("lamp", {"dt_ns": 0}),
            ("rabi", {"dt_ns": 0}),
            ("rabi", {"samples": False}),
            ("rabi", {"pulse_ns": None}),
            # every key is checked, also where the command leaves it unused
            ("g2", {"mc": False, "statistics": "bogus"}),
            ("g2", {"mc": False, "efficiency": 0}),
            ("g2", {"mc": False, "duration_ns": -1}),
            ("g2", {"mc": False, "samples": -1}),
            ("tags", {"samples": -1}),
            ("lamp", {"field_rows": -1}),
            ("saturation", {"samples": "x"}),
            ("linewidth", {"samples": "x"}),
            ("mollow", {"samples": "x"}),
            ("validate", {"samples": 2.5}),
            ("saturation", {"preset": []}),
            ("saturation", {"out": []}),
            ("saturation", {"params_file": 1}),
            ("saturation", {"params_file": "no-such-registry.json"}),
            # samples sets the record length by the expected rate, which
            # is zero without a drive
            ("tags", {"omega": 0, "samples": 10}),
            ("tags", {"omega": 0, "statistics": "chaotic", "samples": 10}),
            # fewer than two whole histogram bins
            ("g2", {"max_lag_ns": 0.3, "bin_ns": 0.4, "lag_step_ns": 0.05}),
        ],
    )
    def test_malformed_value_is_exit_2(self, tmp_path, command, options):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(options))
        assert run([command, "--config", str(cfg)]) == 2

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=st.sampled_from(KEYS), value=MALFORMED)
    def test_every_key_is_converted_before_the_command(self, tmp_path, monkeypatch, pair, value):
        # one malformed value on a small config: no traceback, and a
        # value that is not of the key's kind exits 2 whether or not the
        # command reads the key
        command, key = pair
        monkeypatch.chdir(tmp_path)
        Path("c.json").write_text(json.dumps({**SMALL[command], key: value}))
        code = run([command, "--config", "c.json"])
        assert code in (0, 2, 3)
        default, kind = cli._SCHEMA[command][key]
        if value is not None or default is not None:
            try:
                kind(key, value)
            except ConfigError:
                assert code == 2

    @pytest.mark.parametrize(
        "command, options",
        [("saturation", {"s_points": 3}), ("g2", {**SMALL["g2"], "mc": True})],
        ids=["saturation", "g2-mc"],
    )
    def test_missing_output_directory_is_exit_2(self, tmp_path, capsys, command, options, monkeypatch):
        # refused with the config, before the command computes anything
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(options))
        ran = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda *a: ran.append(a))
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        assert not ran
        assert capsys.readouterr().err.startswith("config error: out: directory")

    @pytest.mark.parametrize(
        "command, options, blocked",
        [("saturation", {"s_points": 3}, "x.csv"), ("g2", {**SMALL["g2"], "mc": True}, "x.csv.mc.csv")],
        ids=["saturation", "g2-mc"],
    )
    def test_unwritable_output_is_exit_2(self, tmp_path, capsys, command, options, blocked):
        # a directory where an output file should go: g2 writes its CSV
        # and then fails on the Monte Carlo histogram next to it
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(options))
        (tmp_path / blocked).mkdir()
        assert run([command, "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write output:") and err.count("\n") == 1

    def test_library_value_error_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def refuse(cfg, pset):
            raise ValueError("lags must be uniformly spaced")

        monkeypatch.setitem(cli._COMMANDS, "saturation", refuse)
        assert run(["saturation", "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "invalid input: lags must be uniformly spaced\n"

    def test_negative_seed_flag_is_exit_2(self):
        assert run(["tags", "--seed", "-1"]) == 2

    def test_unconverged_quadrature_is_exit_3(self, tmp_path, monkeypatch):
        # a midpoint rule in place of the panels converges too slowly for
        # the doubling check of chaotic g2, up to its cap of 13 panels
        def midpoint(panels):
            y = (np.arange(panels) + 0.5) * (bloch._Y_SPAN / panels)
            return y, (bloch._Y_SPAN / panels) * 2.0 * y * np.exp(-y * y)

        monkeypatch.setattr(bloch, "_panel_nodes", midpoint)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"mc": False}))
        assert run(["g2", "--config", str(cfg)]) == 3

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": 1, "s_points": 5}))
        out = tmp_path / "o.csv"
        assert run(["saturation", "--config", str(cfg), "--seed", "2", "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "o.csv.json").read_text())
        assert sidecar["seed"] == 2
        assert sidecar["options"]["s_points"] == 5

    def test_inline_params(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(
            json.dumps(
                {
                    "params": {
                        "t1_ns": 1.0,
                        "t2_ns": 0.5,
                        "fpi_fwhm_ghz": 0.2,
                        "detector_fwhm_ns": 0.3,
                    },
                    "s_points": 3,
                }
            )
        )
        out = tmp_path / "o.csv"
        assert run(["linewidth", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        # zero-drive intercept 2/t2 for the inline emitter
        assert float(rows[0]["fwhm_rad_per_ns"]) == pytest.approx(4.0, rel=1e-2)

    def test_params_file_registry(self, tmp_path):
        reg = tmp_path / "reg.json"
        reg.write_text(
            json.dumps(
                {
                    "alt": {
                        "t1_ns": 0.641,
                        "t2_ns": 0.325,
                        "fpi_fwhm_ghz": 0.1754,
                        "detector_fwhm_ns": 0.351,
                    }
                }
            )
        )
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"params_file": str(reg), "params": "alt", "s_points": 3}))
        assert run(["saturation", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0


class TestSaturationCommand:
    def test_fig2_reference_row(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run(["saturation", "--preset", "fig2", "--out", str(out)]) == 0
        rows = read_rows(out)
        mid = [r for r in rows if abs(float(r["s"]) - 1.0) < 1e-12][0]
        assert float(mid["coherent"]) == 0.25
        assert float(mid["chaotic"]) == pytest.approx(0.2018263, abs=1e-6)

    def test_zero_limit_and_monotonicity(self, tmp_path):
        out = tmp_path / "sat.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"s_min": 1e-6, "s_max": 10.0, "s_points": 25}))
        assert run(["saturation", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        coh = np.array([float(r["coherent"]) for r in rows])
        cha = np.array([float(r["chaotic"]) for r in rows])
        assert np.all(np.diff(coh) > 0) and np.all(np.diff(cha) > 0)
        assert np.all(cha < coh)
        # curves converge toward weak drive
        assert cha[0] / coh[0] == pytest.approx(1.0, abs=1e-3)


class TestLinewidthCommand:
    def test_intercept_and_growth(self, tmp_path):
        out = tmp_path / "lw.csv"
        assert run(["linewidth", "--preset", "figS2", "--out", str(out)]) == 0
        rows = read_rows(out)
        s = np.array([float(r["s"]) for r in rows])
        ghz = np.array([float(r["fwhm_ghz"]) for r in rows])
        assert ghz[0] == pytest.approx(2.0 / 0.325 / (2 * math.pi), rel=1e-3)
        assert np.all(np.diff(ghz) > 0)
        # exact square-root law against the intercept
        rad = np.array([float(r["fwhm_rad_per_ns"]) for r in rows])
        assert np.allclose(rad, (2.0 / 0.325) * np.sqrt(1.0 + s), rtol=1e-12)


class TestRabiCommand:
    def test_undriven_emitter_stays_in_ground_state(self, tmp_path):
        # the default step is set by t2 alone when there is no Rabi period
        out = tmp_path / "rabi0.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"omegas": [0]}))
        assert run(["rabi", "--config", str(cfg), "--samples", "100", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) > 50
        assert all(float(r["coherent"]) == 0.0 and float(r["chaotic_mean"]) == 0.0 for r in rows)

    def test_fig3_traces(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run(["rabi", "--preset", "fig3", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "omega,t_ns,coherent,chaotic_mean"
        rows = read_rows(out)
        omegas = sorted({float(r["omega"]) for r in rows})
        assert omegas == [5.2, 6.6, 7.2]
        sub = [r for r in rows if float(r["omega"]) == 7.2]
        t = np.array([float(r["t_ns"]) for r in sub])
        coh = np.array([float(r["coherent"]) for r in sub])
        cha = np.array([float(r["chaotic_mean"]) for r in sub])
        peaks = np.where((coh[1:-1] > coh[:-2]) & (coh[1:-1] > coh[2:]))[0] + 1
        assert len(peaks[(t[peaks] > 0) & (t[peaks] < 2.0)]) >= 2
        # the chaotic column is the exact mean, written to the last bit
        qd = PAPER_QD.tls
        dt = min(qd.t2, math.pi / 7.2) / 50.0
        mean = bloch.chaotic_mean_transient(qd, DrivePulse.square(7.2, 0.0, 2.0), 3.5, dt)
        assert np.array_equal(cha, mean.rho11)
        assert cha.max() < coh.max()

    def test_output_ignores_seed_and_samples(self, tmp_path):
        # nothing in rabi is sampled; `samples` is checked and unused
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(SMALL["rabi"]))
        assert run(["rabi", "--config", str(cfg), "--seed", "1", "--out", str(a)]) == 0
        assert run(["rabi", "--config", str(cfg), "--seed", "2", "--samples", "7", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_long_pulse_beyond_trace_is_silent(self, tmp_path):
        # the 500 ns pulse outlasts the 0.5 ns trace, which alone is
        # averaged quasi-statically
        out, cfg = tmp_path / "long.csv", tmp_path / "c.json"
        cfg.write_text(json.dumps(dict(SMALL["rabi"], pulse_ns=500)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["rabi", "--config", str(cfg), "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []

    def test_strong_drives_run(self, tmp_path):
        # drives whose Rabi phase over the fig3 pulse 96 Gauss-Laguerre
        # nodes in x could not resolve; the composite rule in y does
        out, cfg = tmp_path / "strong.csv", tmp_path / "c.json"
        cfg.write_text(json.dumps({"omegas": [20.0, 30.0]}))
        assert run(["rabi", "--preset", "fig3", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert sorted({float(r["omega"]) for r in rows}) == [20.0, 30.0]
        cha = np.array([float(r["chaotic_mean"]) for r in rows])
        assert np.all((cha >= 0.0) & (cha < 1.0))


class TestMollowCommand:
    def test_quad_order_is_ignored(self, tmp_path):
        # the chaotic spectrum is in closed form; quad_order is still a
        # checked key, so configs that set it keep running
        outs = []
        for order in (8, 96):
            cfg, out = tmp_path / f"c{order}.json", tmp_path / f"m{order}.csv"
            cfg.write_text(json.dumps({"omegas": [5.2, 7.2], "quad_order": order}))
            assert run(["mollow", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_strong_drive_runs(self, tmp_path):
        # 96 and 192 Gauss-Laguerre nodes disagreed here by 1.7e-3, and
        # 384 overflowed
        out, cfg = tmp_path / "strong.csv", tmp_path / "c.json"
        cfg.write_text(json.dumps({"omegas": [20], "span_ghz": 8, "grid_points": 4001}))
        assert run(["mollow", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        cha = np.array([float(r["chaotic_inc"]) for r in rows])
        assert len(cha) == 4001 and np.all(np.isfinite(cha)) and np.all(cha >= 0.0)


class TestG2Command:
    def test_strong_chaotic_drive_runs(self, tmp_path):
        out, cfg = tmp_path / "strong.csv", tmp_path / "c.json"
        cfg.write_text(json.dumps({"omega": 20, "mc": False}))
        assert run(["g2", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        cha = np.array([float(r["g2_chaotic"]) for r in rows])
        assert cha[np.argmin(np.abs([float(r["lag_ns"]) for r in rows]))] == 0.0
        assert np.all(np.isfinite(cha)) and cha[-1] == pytest.approx(1.0, abs=0.05)

    def test_lag_grid_stops_at_max_lag(self, tmp_path):
        # arange(0, max_lag + step / 2, step) ran to 15.01 here
        out, cfg = tmp_path / "g2.csv", tmp_path / "c.json"
        cfg.write_text(json.dumps({"max_lag_ns": 15.006, "mc": False}))
        assert run(["g2", "--config", str(cfg), "--out", str(out)]) == 0
        lag = np.array([float(r["lag_ns"]) for r in read_rows(out)])
        assert np.abs(lag).max() <= 15.006

    def test_fig5_columns(self, tmp_path):
        out = tmp_path / "fig5.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"duration_ns": 3e4, "max_lag_ns": 10.0}))
        assert run(["g2", "--preset", "fig5", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        lag = np.array([float(r["lag_ns"]) for r in rows])
        coh = np.array([float(r["g2_coherent"]) for r in rows])
        irf = np.array([float(r["g2_coherent_irf"]) for r in rows])
        cha = np.array([float(r["g2_chaotic"]) for r in rows])
        i0 = np.argmin(np.abs(lag))
        assert coh[i0] == 0.0 and cha[i0] == 0.0
        assert 0.0 < irf[i0] < 0.5
        mc = read_rows(str(out) + ".mc.csv")
        assert set(mc[0].keys()) == {"lag_ns", "counts", "c_norm"}

    def test_figS3_skips_chaotic_columns(self, tmp_path):
        out = tmp_path / "figS3.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"duration_ns": 5e4, "max_lag_ns": 1000.0, "mc": False}))
        assert run(["g2", "--preset", "figS3", "--config", str(cfg), "--out", str(out)]) == 0
        rows = read_rows(out)
        assert "g2_chaotic" not in rows[0]
        # blinking envelope raises the near-zero plateau toward 2
        lag = np.array([float(r["lag_ns"]) for r in rows])
        coh = np.array([float(r["g2_coherent"]) for r in rows])
        near = np.abs(lag - 20.0).argmin()
        assert coh[near] == pytest.approx(1.95, abs=0.1)

    @pytest.mark.parametrize("preset_in_config", [False, True])
    def test_config_overrides_preset(self, tmp_path, preset_in_config):
        # defaults < preset < config file < flags: figS3 sets
        # max_lag_ns 2000, the config file wins with 1000
        out = tmp_path / "figS3.csv"
        cfg = tmp_path / "c.json"
        doc = {"max_lag_ns": 1000, "mc": False}
        args = ["g2", "--config", str(cfg), "--seed", "9", "--out", str(out)]
        if preset_in_config:
            doc["preset"] = "figS3"
        else:
            args += ["--preset", "figS3"]
        cfg.write_text(json.dumps(doc))
        assert run(args) == 0
        lag = np.array([float(r["lag_ns"]) for r in read_rows(out)])
        assert lag[0] == -1000.0 and lag[-1] == 1000.0
        sidecar = json.loads((tmp_path / "figS3.csv.json").read_text())
        assert sidecar["preset"] == "figS3"
        assert sidecar["options"]["max_lag_ns"] == 1000
        assert sidecar["options"]["lag_step_ns"] == 2.0
        assert sidecar["seed"] == 9


class TestTagsCommand:
    def test_writes_sorted_tags_and_sidecar(self, tmp_path):
        out = tmp_path / "tags.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"duration_ns": 2e4}))
        assert run(["tags", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
        rows = read_rows(out)
        t = np.array([float(r["time_ns"]) for r in rows])
        assert np.all(np.diff(t) >= 0)
        assert set(int(r["channel"]) for r in rows) <= {1, 2}
        sidecar = json.loads((tmp_path / "tags.csv.json").read_text())
        assert sidecar["seed"] == 3
        assert sidecar["parameter_set"]["t1_ns"] == 0.641


class TestLampCommand:
    def test_fit_sidecar(self, tmp_path):
        out = tmp_path / "lamp.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 1 << 18}))
        assert run(["lamp", "--preset", "fig1c", "--config", str(cfg), "--out", str(out)]) == 0
        fit = json.loads((tmp_path / "lamp.csv.fit.json").read_text())
        assert fit["identifiable"]
        assert fit["tau_corr_ns"] == pytest.approx(901.8, rel=0.05)
        field_rows = read_rows(str(out) + ".field.csv")
        assert set(field_rows[0]) == {"t_ns", "re", "im", "intensity"}
        assert set(read_rows(str(out))[0]) == {"lag_ns", "value"}

    def test_field_rows_match_trace(self, tmp_path):
        # the CLI squares only the rows it writes; they must equal the
        # head of the trace's own intensity to the last digit
        out = tmp_path / "lamp.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 1 << 17, "field_rows": 300}))
        assert run(["lamp", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        tau_corr = cli._SCHEMA["lamp"]["tau_corr_ns"][0]
        trace = lamp.synthesize_field(tau_corr, tau_corr / 20.0, 1 << 17, stream(9))
        rows = read_rows(str(out) + ".field.csv")
        assert len(rows) == 300
        assert np.array_equal([float(r["intensity"]) for r in rows], trace.intensity[:300])
        assert np.array_equal([float(r["re"]) for r in rows], trace.amplitudes[:300].real)

    @pytest.mark.parametrize("max_lag_ns", [300.0, 1500.0])
    def test_unresolved_decay_is_exit_3(self, tmp_path, capsys, max_lag_ns):
        # at 300 ns the curve never falls to half its zero-lag excess;
        # it is refused like the longer range that resolves the decay
        # but spans too few correlation times
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"max_lag_ns": max_lag_ns, "n": 262144}))
        assert run(["lamp", "--config", str(cfg), "--seed", "4", "--out", str(tmp_path / "x.csv")]) == 3
        assert "curve must span at least three correlation-time guesses" in capsys.readouterr().err


class TestValidateCommand:
    def test_validate_passes(self, capsys):
        assert run(["validate", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5


def _rerun_bytes(tmp_path, name, args):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{name}_{tag}.csv"
        assert run(args + ["--out", str(out)]) == 0
        paths.append(out.read_bytes())
    return paths


class TestDeterminism:
    def test_saturation_rerun_identical(self, tmp_path):
        a, b = _rerun_bytes(tmp_path, "sat", ["saturation", "--preset", "fig2", "--seed", "5"])
        assert a == b

    def test_rabi_rerun_identical(self, tmp_path):
        a, b = _rerun_bytes(
            tmp_path, "rabi", ["rabi", "--preset", "fig3", "--seed", "5", "--samples", "200"]
        )
        assert a == b

    def test_g2_rerun_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"duration_ns": 2e4, "max_lag_ns": 5.0}))
        a, b = _rerun_bytes(
            tmp_path, "g2", ["g2", "--preset", "fig5", "--config", str(cfg), "--seed", "5"]
        )
        assert a == b

    def test_lamp_rerun_identical(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 1 << 17}))
        a, b = _rerun_bytes(
            tmp_path, "lamp", ["lamp", "--preset", "fig1c", "--config", str(cfg), "--seed", "5"]
        )
        assert a == b


def test_import_leaves_optional_scipy_modules_out():
    # start-up imports no scipy module at all, and nothing imports
    # concurrent.futures
    src = str(Path(tlsrf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tlsrf, tlsrf.cli; "
        "print(sorted(m for m in sys.modules "
        "if m == 'concurrent.futures' or (m + '.').startswith('scipy.')))"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_chaotic_presets_load_no_scipy(tmp_path):
    # the chaotic spectrum is in closed form, chaotic g2 averages on
    # Gauss-Legendre panels and validate's oracles use the same panels
    # and numpy's FFT, so with scipy installed none of them loads it
    src = str(Path(tlsrf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "short.json"
    cfg.write_text(json.dumps({"duration_ns": 2e4}))
    cases = [
        ["mollow", "--preset", "fig4"],
        ["g2", "--preset", "fig5", "--config", str(cfg)],
        ["validate"],
    ]
    for args in cases:
        code = (
            "import sys; from tlsrf import cli; "
            f"code = cli.main({args + ['--out', str(tmp_path / 'x.csv')]!r}); "
            "print(code, sorted(m for m in sys.modules if (m + '.').startswith('scipy.')))"
        )
        res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip().splitlines()[-1] == "0 []", args


def test_every_preset_runs_without_scipy(tmp_path):
    # numpy is the only runtime dependency: with every scipy import made
    # to fail, each preset, tags and validate exit 0; start-up imports
    # no concurrent.futures either
    src = str(Path(tlsrf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"duration_ns": 2e4}))
    runs = [
        ["saturation", "--preset", "fig2"],
        ["linewidth", "--preset", "figS2"],
        ["rabi", "--preset", "fig3"],
        ["mollow", "--preset", "fig4"],
        ["g2", "--preset", "fig5", "--config", str(short)],
        ["g2", "--preset", "figS3", "--config", str(short)],
        ["lamp", "--preset", "fig1c"],
        ["tags"],
        ["validate"],
    ]
    runs = [args + ["--out", str(tmp_path / f"{k}.csv")] for k, args in enumerate(runs)]
    code = (
        "import sys; sys.modules['scipy'] = None; "
        "import tlsrf, tlsrf.cli; "
        "print('concurrent.futures' in sys.modules); "
        f"print([tlsrf.cli.main(args) for args in {runs!r}])"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    lines = res.stdout.strip().splitlines()
    assert lines[0] == "False"
    assert lines[-1] == str([0] * len(runs)), res.stderr
