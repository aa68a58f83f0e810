import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsrf import core


class TestSaturationParameter:
    def test_paper_qd_values(self, qd):
        # the GHz-quoted drive values only reproduce the published
        # saturation parameters when read as angular rad/ns
        assert core.saturation_parameter(1.7, qd) == pytest.approx(0.602059, abs=1e-6)
        assert core.saturation_parameter(7.1, qd) == pytest.approx(10.50166, abs=1e-4)

    def test_zero_drive(self, qd):
        assert core.saturation_parameter(0.0, qd) == 0.0

    def test_negative_rejected(self, qd):
        with pytest.raises(ValueError):
            core.saturation_parameter(-1.0, qd)


class TestOmegaFromSaturation:
    def test_inverts_known_values(self, qd):
        assert core.omega_from_saturation(0.602059, qd) == pytest.approx(1.7, abs=2e-6)
        assert core.omega_from_saturation(10.50166, qd) == pytest.approx(7.1, abs=2e-5)

    def test_zero(self, qd):
        assert core.omega_from_saturation(0.0, qd) == 0.0

    @settings(deadline=None, max_examples=60)
    @given(st.floats(min_value=1e-6, max_value=1e4))
    def test_round_trip(self, s):
        qd = core.PAPER_QD.tls
        om = core.omega_from_saturation(s, qd)
        assert core.saturation_parameter(om, qd) == pytest.approx(s, rel=1e-12)


class TestPowerLinewidth:
    def test_zero_drive_limit(self, qd):
        fw = core.power_linewidth(0.0, qd)
        assert fw == 2.0 / qd.t2
        assert core.angular_to_ordinary(fw) == pytest.approx(0.97942, abs=1e-5)

    def test_at_unit_saturation(self, qd):
        om = core.omega_from_saturation(1.0, qd)
        assert core.power_linewidth(om, qd) == pytest.approx(
            (2.0 / qd.t2) * math.sqrt(2.0), rel=1e-12
        )

    def test_strong_drive(self, qd):
        assert core.power_linewidth(7.1, qd) == pytest.approx(20.8702, abs=1e-3)

    @settings(deadline=None, max_examples=40)
    @given(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_monotone_in_omega(self, om, extra):
        qd = core.PAPER_QD.tls
        assert core.power_linewidth(om + extra, qd) > core.power_linewidth(om, qd)


class TestTlsParams:
    def test_rejects_unphysical_t2(self):
        with pytest.raises(ValueError):
            core.TlsParams(t1=1.0, t2=2.5)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            core.TlsParams(t1=0.0, t2=0.3)


class TestDrivePulse:
    def test_cw_default_envelope(self):
        p = core.DrivePulse.cw(2.0)
        assert p.envelope == ((0.0, math.inf, 1.0),)

    def test_square_window(self):
        p = core.DrivePulse.square(2.0, 1.0, 3.0)
        assert p.envelope == ((1.0, 3.0, 1.0),)

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            core.DrivePulse(rabi=1.0, envelope=((0.0, 2.0, 1.0), (1.0, 3.0, 1.0)))

    def test_rejects_negative_rabi(self):
        with pytest.raises(ValueError):
            core.DrivePulse(rabi=-1.0)


class TestParameterRegistry:
    def test_builtin_paper_qd(self):
        pset = core.BUILTIN_SETS["paper-qd"]
        assert pset.tls.t1 == 0.641
        assert pset.tls.t2 == 0.325
        assert pset.instrument.fpi_fwhm_ghz == 0.1754
        assert pset.instrument.detector_fwhm_ns == 0.351

    def test_load_registry(self, tmp_path):
        doc = {
            "lab-qd": {
                "t1_ns": 1.0,
                "t2_ns": 0.5,
                "fpi_fwhm_ghz": 0.2,
                "detector_fwhm_ns": 0.4,
            }
        }
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(doc))
        reg = core.load_registry(path)
        assert "paper-qd" in reg
        assert reg["lab-qd"].tls.t1 == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"x": {"t1_ns": 1, "t2_ns": 0.5, "fpi_fwhm_ghz": 1, "detector_fwhm_ns": 1, "bogus": 2}}))
        with pytest.raises(core.ConfigError):
            core.load_registry(path)

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "registry.json"
        path.write_text(json.dumps({"x": {"t1_ns": 1}}))
        with pytest.raises(core.ConfigError):
            core.load_registry(path)


def test_stream_is_reproducible():
    a = core.stream(99).random(5)
    b = core.stream(99).random(5)
    assert np.array_equal(a, b)


class TestWriteCsv:
    def test_formats_and_empty_column(self, tmp_path):
        path = tmp_path / "out.csv"
        ret = core.write_csv(path, "a,b,c", [np.array([0.1, 1e-20]), np.array([3, -4], dtype=np.int8), None])
        assert ret == str(path)
        assert path.read_text() == "a,b,c\n0.1,3,\n1e-20,-4,\n"

    def test_stdout(self, capsys):
        assert core.write_csv(None, "x", [[2.5]]) is None
        assert capsys.readouterr().out == "x\n2.5\n"

    def test_rejects_unequal_columns(self, tmp_path):
        with pytest.raises(ValueError):
            core.write_csv(tmp_path / "bad.csv", "a,b", [[1.0, 2.0], [1.0]])
