import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tlsrf
from tlsrf import cli, lamp
from tlsrf.core import stream


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
            ("rabi", {"samples": 10}),
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
        ],
    )
    def test_malformed_value_is_exit_2(self, tmp_path, command, options):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(options))
        assert run([command, "--config", str(cfg)]) == 2

    def test_unconverged_quadrature_is_exit_3(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"quad_order": 8}))
        assert run(["mollow", "--config", str(cfg)]) == 3

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
        assert run(["rabi", "--preset", "fig3", "--out", str(out), "--samples", "400"]) == 0
        rows = read_rows(out)
        omegas = sorted({float(r["omega"]) for r in rows})
        assert omegas == [5.2, 6.6, 7.2]
        sub = [r for r in rows if float(r["omega"]) == 7.2]
        t = np.array([float(r["t_ns"]) for r in sub])
        coh = np.array([float(r["coherent"]) for r in sub])
        cha = np.array([float(r["chaotic_mean"]) for r in sub])
        se = np.array([float(r["chaotic_se"]) for r in sub])
        peaks = np.where((coh[1:-1] > coh[:-2]) & (coh[1:-1] > coh[2:]))[0] + 1
        assert len(peaks[(t[peaks] > 0) & (t[peaks] < 2.0)]) >= 2
        assert np.all(se[1:] > 0)
        assert cha.max() < coh.max()


class TestG2Command:
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

    def test_field_rows_match_trace(self, tmp_path):
        # the CLI squares only the rows it writes; they must equal the
        # head of the trace's own intensity to the last digit
        out = tmp_path / "lamp.csv"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n": 1 << 17, "field_rows": 300}))
        assert run(["lamp", "--config", str(cfg), "--seed", "9", "--out", str(out)]) == 0
        tau_corr = cli._DEFAULTS["lamp"]["tau_corr_ns"]
        trace = lamp.synthesize_field(tau_corr, tau_corr / 20.0, 1 << 17, stream(9))
        rows = read_rows(str(out) + ".field.csv")
        assert len(rows) == 300
        assert np.array_equal([float(r["intensity"]) for r in rows], trace.intensity[:300])
        assert np.array_equal([float(r["re"]) for r in rows], trace.amplitudes[:300].real)


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
    # scipy.integrate, scipy.linalg, scipy.optimize and scipy.special
    # (which scipy.fft pulls in), and concurrent.futures for the leg
    # solver's threads, are imported by the functions that call them,
    # not at start-up
    src = str(Path(tlsrf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, tlsrf, tlsrf.cli; "
        "print(sorted(m for m in ('scipy.integrate', 'scipy.linalg', 'scipy.optimize', 'scipy.special', "
        "'concurrent.futures') "
        "if m in sys.modules))"
    )
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
