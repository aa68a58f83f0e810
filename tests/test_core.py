import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsrf import bloch, core, emission, lamp


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


class TestCheckedGrid:
    @pytest.mark.parametrize(
        "points, uniform",
        [([0.0, 0.01, 0.02, 0.03], True), (np.linspace(-4.0, 4.0, 4001), True), ([0.0, 0.1, 0.3], False)],
    )
    def test_step_is_first_difference(self, points, uniform):
        grid, step = core.checked_grid(points, "lags", 3, uniform=uniform)
        assert grid.dtype == float and np.array_equal(grid, points)
        assert step == grid[1] - grid[0]

    def test_one_point_has_no_step(self):
        grid, step = core.checked_grid([0.5], "lags")
        assert grid.tolist() == [0.5] and math.isnan(step)

    def test_uniform_to_rounding_far_from_zero(self):
        # the tail of the 1e5 ns lag grid at the 0.01 ns step, whose
        # steps round at ulp(1e5), above 1e-9 of the step
        grid = 0.01 * np.arange(10_000_001 - 200, 10_000_001)
        core.checked_grid(grid, "lags", uniform=True)
        grid[100:] += 1e-6 * 0.01
        with pytest.raises(ValueError, match="uniformly spaced"):
            core.checked_grid(grid, "lags", uniform=True)

    @pytest.mark.parametrize(
        "points, message",
        [
            ([[0.0, 1.0]], "1-d"),
            (0.0, "1-d"),
            ([0.0, math.nan], "finite"),
            ([0.0, 1.0], "too short: 2 of at least 3"),
            ([-1.0, 0.0, 1.0], ">= 0"),
            ([0.0, 1.0, 1.0], "strictly ascending"),
            ([0.0, 1.0, 3.0], "uniformly spaced"),
        ],
    )
    def test_refusals(self, points, message):
        with pytest.raises(ValueError, match=message) as err:
            core.checked_grid(points, "lags", 3, lower=0.0, uniform=True)
        assert not isinstance(err.value, core.NumericalGuardError)


def _no_work(*args, **kwargs):
    raise AssertionError("a malformed grid reached the kernel")


# every function and container that takes frequencies or lags, with the
# grid it requires: (call, min_len, lower, uniform)
_QD = core.PAPER_QD.tls
_GRID_ENTRIES = {
    "qrt_spectrum": (lambda f: emission.qrt_spectrum(_QD, 7.2, 0.0, f), 3, None, True),
    "chaotic_spectrum-zero": (lambda f: emission.chaotic_spectrum(_QD, 0.0, f), 3, None, True),
    "chaotic_spectrum": (lambda f: emission.chaotic_spectrum(_QD, 7.2, f), 3, None, True),
    "Spectrum": (lambda f: emission.Spectrum(f, np.zeros(np.shape(f)), 1.0, 0.0), 3, None, True),
    "qrt_g2": (lambda x: emission.qrt_g2(_QD, 7.2, 0.0, x), 1, 0.0, True),
    "chaotic_g2": (lambda x: emission.chaotic_g2(_QD, 7.2, x), 1, 0.0, True),
    "EmissionG2": (lambda x: emission.EmissionG2(x, np.ones(np.shape(x))), 1, None, False),
    "convolve_gaussian": (
        lambda x: emission.convolve_gaussian(emission.EmissionG2(x, np.ones(np.shape(x))), 0.351),
        2,
        None,
        True,
    ),
    "CorrelationCurve": (lambda x: lamp.CorrelationCurve(x, np.ones(np.shape(x))), 1, None, False),
    "fit_gaussian_g2": (
        lambda x: lamp.fit_gaussian_g2(lamp.CorrelationCurve(x, np.ones(np.shape(x)))),
        3,
        None,
        False,
    ),
}
# what the entries above compute with once their grid is accepted
_KERNELS = [
    (emission, "_spectrum_rows"),
    (emission, "_conditional_population"),
    (bloch, "_mean_inverse_saturation"),
    (bloch, "_scaled_moments"),
    (np, "convolve"),
    (lamp, "_gaussian_residual"),
]


def _malformed_grid(draw, min_len, lower, uniform):
    """A grid that the entry's rule refuses, built from a good one."""
    kinds = ["short", "descending", "repeated", "non-finite", "2-d", "scalar"]
    kinds += ["non-uniform"] * uniform + ["negative"] * (lower is not None)
    kind = draw(st.sampled_from(kinds))
    start = draw(st.floats(0.0, 5.0))
    step = draw(st.floats(0.01, 1.0))
    n = draw(st.integers(max(min_len, 2), 12))
    grid = start + step * np.arange(n)
    if kind == "short":
        grid = grid[: draw(st.integers(0, min_len - 1))]
    elif kind == "descending":
        grid = grid[::-1]
    elif kind == "repeated":
        k = draw(st.integers(0, n - 1))
        grid = np.insert(grid, k, grid[k])
    elif kind == "non-uniform":
        grid = np.append(grid, grid[-1] + step * draw(st.floats(1.01, 3.0)))
    elif kind == "negative":
        grid -= start + draw(st.floats(0.01, 5.0))
    elif kind == "non-finite":
        grid[draw(st.integers(0, n - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "2-d":
        grid = np.stack([grid] * draw(st.integers(1, 2)))
    else:
        grid = np.float64(start)
    return grid


@pytest.mark.parametrize("entry", sorted(_GRID_ENTRIES))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_malformed_grid_refused_before_work(entry, data):
    # one rule for every grid: a plain ValueError (exit 2), never a
    # numerical guard (exit 3), an IndexError, an OverflowError, a
    # TypeError, a LinAlgError or a computed result
    call, min_len, lower, uniform = _GRID_ENTRIES[entry]
    grid = _malformed_grid(data.draw, min_len, lower, uniform)
    with pytest.MonkeyPatch.context() as mp:
        for module, name in _KERNELS:
            mp.setattr(module, name, _no_work)
        with pytest.raises(ValueError) as err:
            call(grid)
    assert not isinstance(err.value, (core.NumericalGuardError, np.linalg.LinAlgError))


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


_NON_FINITE = {
    "t1-inf": lambda: core.TlsParams(math.inf, 1.0),
    "t1-t2-inf": lambda: core.TlsParams(math.inf, math.inf),
    "rabi-nan": lambda: core.DrivePulse(math.nan),
    "rabi-inf": lambda: core.DrivePulse(math.inf),
    "detuning-nan": lambda: core.DrivePulse(1.0, math.nan),
    "detuning-inf": lambda: core.DrivePulse(1.0, -math.inf),
    "envelope-start-nan": lambda: core.DrivePulse(1.0, envelope=((math.nan, 1.0, 1.0),)),
    "envelope-stop-nan": lambda: core.DrivePulse(1.0, envelope=((0.0, math.nan, 1.0),)),
    "amplitude-nan": lambda: core.DrivePulse(1.0, envelope=((0.0, 1.0, math.nan),)),
    "amplitude-inf": lambda: core.DrivePulse(1.0, envelope=((0.0, 1.0, math.inf),)),
    "EmissionG2-nan": lambda: emission.EmissionG2(np.arange(3.0), np.array([1.0, math.nan, 1.0])),
    "Spectrum-nan": lambda: emission.Spectrum(np.arange(3.0), np.array([0.0, math.nan, 0.0]), 1.0, 0.0),
    "CorrelationCurve-nan": lambda: lamp.CorrelationCurve(np.arange(3.0), np.array([1.0, math.nan, 1.0])),
}


@pytest.mark.parametrize("build", sorted(_NON_FINITE))
def test_non_finite_value_refused(build):
    with pytest.raises(ValueError):
        _NON_FINITE[build]()


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
