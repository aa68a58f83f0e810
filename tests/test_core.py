import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlsrf import bloch, core, emission, lamp, trajectory


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


class TestStepRatio:
    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 1_000_000), st.floats(1e-6, 1e6))
    def test_whole_ratio_is_whole(self, k, step):
        # a span of k steps, computed in floats: no step dropped by floor
        # and none added by ceil, whatever the rounding of k * step
        r = core.step_ratio(k * step, step)
        assert math.floor(r) == math.ceil(r) == k

    @pytest.mark.parametrize(
        "span, step, fit, cover",
        [(3 * 0.4509, 0.4509 / 20, 60, 60), (101.19600000000001, 0.8433, 120, 120), (2.5, 1.0, 2, 3), (1.0, 3.0, 0, 1)],
    )
    def test_floor_fits_and_ceil_covers(self, span, step, fit, cover):
        r = core.step_ratio(span, step)
        assert (math.floor(r), math.ceil(r)) == (fit, cover)


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
    raise AssertionError("a refused input reached the kernel")


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
# what the entries above and below compute with once their input is
# accepted; steady_state's only work is the state it builds
_KERNELS = [
    (emission, "_spectrum_rows"),
    (emission, "_conditional_population"),
    (bloch, "_mean_inverse_saturation"),
    (bloch, "_scaled_moments"),
    (bloch, "exp1_scaled_complex"),
    (bloch, "_chaotic_average"),
    (bloch, "_orbits"),
    (bloch, "BlochState"),
    (np, "convolve"),
    (lamp, "_gaussian_residual"),
    (lamp, "_fast_len"),
    (lamp, "_lag_sums"),
    (trajectory, "_drive_segments"),
    (trajectory, "_jump_times"),
    (trajectory, "_telegraph_gate"),
    (trajectory, "_corr_window"),
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


_PULSE = core.DrivePulse.square(5.0, 0.0, 1.0, statistics=core.Statistics.CHAOTIC)
_LAGS = np.arange(0.0, 1.0, 0.01)
_FREQS = np.linspace(-4.0, 4.0, 401)
_CHAOTIC_CW = core.DrivePulse.cw(5.0, statistics=core.Statistics.CHAOTIC)
_TAGS = trajectory.TagStream(np.arange(1.0, 201.0), np.tile(np.array([1, 2], dtype=np.int8), 100), 2000.0)
_TRACE = lamp.FieldTrace(1.0, np.ones(100, dtype=complex))
# every scalar drive, detuning, trace end, step, duration, width and
# lag of the Bloch, emission, trajectory and lamp entry points, as a
# function of the value put in its place
_SCALAR_ENTRIES = {
    "steady_state-omega": lambda x: bloch.steady_state(_QD, x),
    "chaotic_steady_state-mean_omega": lambda x: bloch.chaotic_steady_state(_QD, x),
    "chaotic_steady_state-array": lambda x: bloch.chaotic_steady_state(_QD, np.array([1.0, x])),
    "chaotic_steady_state_quadrature-mean_omega": lambda x: bloch.chaotic_steady_state_quadrature(_QD, x),
    "sample_chaotic_intensity-mean_omega_sq": lambda x: bloch.sample_chaotic_intensity(core.stream(1), x, 3),
    "integrate-t_end": lambda x: bloch.integrate(_QD, _PULSE, x, 0.005),
    "integrate-dt": lambda x: bloch.integrate(_QD, _PULSE, 1.5, x),
    "chaotic_mean_transient-t_end": lambda x: bloch.chaotic_mean_transient(_QD, _PULSE, x, 0.005),
    "chaotic_mean_transient-dt": lambda x: bloch.chaotic_mean_transient(_QD, _PULSE, 1.5, x),
    "chaotic_transient-t_end": lambda x: bloch.chaotic_transient(_QD, _PULSE, x, 0.005, 100, core.stream(1)),
    "chaotic_transient-dt": lambda x: bloch.chaotic_transient(_QD, _PULSE, 1.5, x, 100, core.stream(1)),
    "qrt_spectrum-omega": lambda x: emission.qrt_spectrum(_QD, x, 0.0, _FREQS),
    "qrt_spectrum-detuning": lambda x: emission.qrt_spectrum(_QD, 7.2, x, _FREQS),
    "chaotic_spectrum-mean_omega": lambda x: emission.chaotic_spectrum(_QD, x, _FREQS),
    "qrt_g2-omega": lambda x: emission.qrt_g2(_QD, x, 0.0, _LAGS),
    "qrt_g2-detuning": lambda x: emission.qrt_g2(_QD, 7.2, x, _LAGS),
    "chaotic_g2-mean_omega": lambda x: emission.chaotic_g2(_QD, x, _LAGS),
    "simulate_tags-duration": lambda x: trajectory.simulate_tags(_QD, _CHAOTIC_CW, x, 1.0, core.stream(1)),
    "simulate_tags-efficiency": lambda x: trajectory.simulate_tags(_QD, _CHAOTIC_CW, 100.0, x, core.stream(1)),
    "simulate_tags-tau_blink": lambda x: trajectory.simulate_tags(_QD, _CHAOTIC_CW, 100.0, 1.0, core.stream(1), (0.5, x)),
    "simulate_tags-tau_corr": lambda x: trajectory.simulate_tags(_QD, _CHAOTIC_CW, 100.0, 1.0, core.stream(1), tau_corr=x),
    "apply_detector-jitter_fwhm": lambda x: trajectory.apply_detector(_TAGS, x, core.stream(1)),
    "correlate-bin_w": lambda x: trajectory.correlate(_TAGS, x, 10.0),
    "correlate-max_lag": lambda x: trajectory.correlate(_TAGS, 1.0, x),
    "synthesize_field-tau_corr": lambda x: lamp.synthesize_field(x, 0.01, 10_000, core.stream(1)),
    "synthesize_field-dt": lambda x: lamp.synthesize_field(1.0, x, 10_000, core.stream(1)),
    "FieldTrace-dt": lambda x: lamp.FieldTrace(x, np.ones(10, dtype=complex)),
    "estimate_g1-max_lag": lambda x: lamp.estimate_g1(_TRACE, x),
    "estimate_g2-max_lag": lambda x: lamp.estimate_g2(_TRACE, x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRIES))
def test_non_finite_scalar_refused_before_work(entry, value):
    # the same rule as for grids: a plain ValueError that names the
    # rule, before any kernel runs; not a numerical guard, a late
    # "cannot convert float NaN to integer" or a NaN result
    with pytest.MonkeyPatch.context() as mp:
        for module, name in _KERNELS:
            mp.setattr(module, name, _no_work)
        with pytest.raises(ValueError, match="must be") as err:
            _SCALAR_ENTRIES[entry](value)
    assert not isinstance(err.value, core.NumericalGuardError)


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
