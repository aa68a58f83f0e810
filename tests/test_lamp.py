import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from scipy.optimize import curve_fit
from scipy.stats import kstest

from tlsrf import core, lamp
from tlsrf.core import FitError, NumericalGuardError

TAU = 901.8


@pytest.fixture(scope="module")
def field():
    return lamp.synthesize_field(TAU, TAU / 20.0, 1 << 20, core.stream(7))


@pytest.fixture(scope="module")
def g1_curve(field):
    return lamp.estimate_g1(field, 3.2 * TAU)


@pytest.fixture(scope="module")
def g2_curve(field):
    return lamp.estimate_g2(field, 3.2 * TAU)


class TestSynthesizeField:
    def test_intensity_is_exponential(self, field):
        stat = kstest(field.intensity, "expon", args=(0.0, field.intensity.mean())).statistic
        assert stat < 0.01

    def test_mean_intensity_near_one(self, field):
        assert field.intensity.mean() == pytest.approx(1.0, abs=0.02)

    def test_zero_lag_bunching(self, g2_curve):
        assert g2_curve.values[0] == pytest.approx(2.0, abs=0.05)

    def test_fit_recovers_correlation_time(self, g2_curve):
        fit = lamp.fit_gaussian_g2(g2_curve)
        assert fit.identifiable
        assert fit.tau_corr == pytest.approx(TAU, rel=0.05)
        assert fit.amplitude == pytest.approx(1.0, abs=0.1)

    def test_resolution_guard(self):
        with pytest.raises(NumericalGuardError):
            lamp.synthesize_field(TAU, TAU / 5.0, 1 << 16, core.stream(1))

    def test_length_guard(self):
        with pytest.raises(NumericalGuardError):
            lamp.synthesize_field(TAU, TAU / 20.0, 256, core.stream(1))

    def test_spectral_width_is_fourier_pair(self, field):
        # Welch-style averaged periodogram, Gaussian fit; the spectrum
        # paired with the Gaussian coherence decay has an ordinary-
        # frequency FWHM of 0.664 / tau_corr
        x = field.amplitudes
        nseg = 64
        seg = len(x) // nseg
        psd = np.zeros(seg)
        for k in range(nseg):
            psd += np.abs(np.fft.fft(x[k * seg : (k + 1) * seg])) ** 2
        f = np.fft.fftfreq(seg, field.dt)
        order = np.argsort(f)
        f, psd = f[order], psd[order]
        win = np.abs(f) < 20.0 / TAU

        def model(nu, a, sig):
            return a * np.exp(-0.5 * (nu / sig) ** 2)

        popt, _ = curve_fit(model, f[win], psd[win], p0=(psd.max(), 0.3 / TAU))
        fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * abs(popt[1])
        assert fwhm == pytest.approx(0.664 / TAU, rel=0.10)


def reference_field(tau_corr, dt, n, rng):
    """The out-of-place synthesis: every intermediate array held at
    once, transformed by the same inverse FFT."""
    discard = int(math.ceil(5.0 * tau_corr / dt))
    total = scipy.fft.next_fast_len(n + discard)
    freqs = np.fft.fftfreq(total, d=dt)
    psd = tau_corr * math.sqrt(2.0) * np.exp(-2.0 * math.pi * (freqs * tau_corr) ** 2)
    white = (rng.standard_normal(total) + 1j * rng.standard_normal(total)) / math.sqrt(2.0)
    return scipy.fft.ifft(white * np.sqrt(psd * total / dt))[discard : discard + n], total


class TestInPlaceSynthesis:
    """The in-place synthesis, transformed by numpy's inverse FFT, gives
    the bits of the out-of-place one transformed by scipy's."""

    @pytest.mark.parametrize(
        "tau_corr, dt, n, seed, odd",
        [
            # n + discard = 1125 = 3^2 5^3, an odd FFT length
            (1.0, 0.05, 1025, 3, True),
            (TAU, TAU / 20.0, 1 << 14, 7, False),
            (TAU, TAU / 37.0, 30001, 11, False),
            (2.5, 0.1, 4096, 12345, False),
        ],
    )
    def test_bit_equal_to_out_of_place(self, tau_corr, dt, n, seed, odd):
        ref, total = reference_field(tau_corr, dt, n, core.stream(seed))
        assert total % 2 == odd
        field = lamp.synthesize_field(tau_corr, dt, n, core.stream(seed))
        assert np.array_equal(field.amplitudes, ref)

    def test_peak_allocation_per_sample(self):
        tau_corr, dt, n = 1.0, 0.05, 1 << 17
        total = scipy.fft.next_fast_len(n + int(math.ceil(5.0 * tau_corr / dt)))
        rng = core.stream(5)
        tracemalloc.start()
        try:
            lamp.synthesize_field(tau_corr, dt, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one complex and one real buffer of the FFT length, plus the
        # integer ramps of the frequency grid
        assert peak <= 32 * total


class TestFastLen:
    def test_matches_scipy(self):
        assert all(lamp._fast_len(n) == scipy.fft.next_fast_len(n) for n in range(1, 5001))

    def test_fig1c_length(self):
        # n + discard of the fig1c preset
        target = (1 << 21) + math.ceil(5.0 * TAU / (TAU / 20.0))
        assert lamp._fast_len(target) == scipy.fft.next_fast_len(target) == 2**6 * 3**8 * 5


class TestEstimateG1:
    def test_zero_lag_normalization(self, g1_curve):
        assert g1_curve.values[0] == 1.0

    def test_white_noise_decorrelates(self):
        rng = core.stream(11)
        amps = (rng.standard_normal(40_000) + 1j * rng.standard_normal(40_000)) / math.sqrt(2.0)
        trace = lamp.FieldTrace(1.0, amps)
        g1 = lamp.estimate_g1(trace, 10.0)
        assert g1.values[1] < 0.1

    def test_gaussian_decay_at_tau_corr(self, g1_curve):
        i = int(round(TAU / (TAU / 20.0)))
        assert g1_curve.values[i] == pytest.approx(math.exp(-math.pi / 2.0), abs=0.02)

    def test_lag_guard(self, field):
        with pytest.raises(NumericalGuardError):
            lamp.estimate_g1(field, field.dt * len(field.amplitudes) / 2.0)

    @pytest.mark.parametrize("estimate", [lamp.estimate_g1, lamp.estimate_g2], ids=["g1", "g2"])
    @pytest.mark.parametrize("max_lag", [-5.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_bad_max_lag_rejected(self, field, estimate, max_lag):
        # once an IndexError, an empty curve, numpy's NaN conversion
        # error or an OverflowError
        with pytest.raises(ValueError, match="max_lag") as err:
            estimate(field, max_lag)
        assert not isinstance(err.value, NumericalGuardError)

    @pytest.mark.parametrize("estimate", [lamp.estimate_g1, lamp.estimate_g2], ids=["g1", "g2"])
    def test_whole_max_lag_is_the_last_lag(self, estimate):
        # 3 tau / (tau / 20) is 59.99999999999999 at this tau; a plain
        # floor dropped the lag at 3 tau
        tau = 0.4509
        curve = estimate(lamp.synthesize_field(tau, tau / 20.0, 4000, core.stream(3)), 3.0 * tau)
        assert len(curve.lags) == 61
        assert curve.lags[-1] == pytest.approx(3.0 * tau, rel=0.0, abs=1e-12)


class TestEstimateG2:
    def test_constant_intensity(self):
        trace = lamp.FieldTrace(1.0, np.ones(5000, dtype=complex))
        g2 = lamp.estimate_g2(trace, 100.0)
        assert np.allclose(g2.values, 1.0, atol=1e-12)

    def test_siegert_relation(self, g1_curve, g2_curve):
        resid = np.abs(g2_curve.values - 1.0 - g1_curve.values**2)
        assert resid.max() < 0.05

    def test_long_lag_decorrelation(self, field):
        g2 = lamp.estimate_g2(field, 5.5 * TAU)
        far = g2.values[g2.lags > 5.0 * TAU]
        assert np.all(np.abs(far - 1.0) < 0.05)


class TestCorrelationCurve:
    @pytest.mark.parametrize("n_values", [2, 4])
    def test_values_as_long_as_lags(self, n_values):
        with pytest.raises(ValueError, match="equal length"):
            lamp.CorrelationCurve(np.arange(3.0), np.ones(n_values))


class TestFitGaussianG2:
    def test_exact_model_recovery(self):
        lags = np.linspace(0.0, 4.0 * TAU, 400)
        vals = 1.0 + 1.0 * np.exp(-math.pi * (lags / TAU) ** 2)
        fit = lamp.fit_gaussian_g2(lamp.CorrelationCurve(lags, vals))
        assert fit.amplitude == pytest.approx(1.0, abs=1e-6)
        assert fit.tau_corr == pytest.approx(TAU, rel=1e-6)

    def test_flat_curve_unidentifiable(self):
        lags = np.linspace(0.0, 1000.0, 300)
        fit = lamp.fit_gaussian_g2(lamp.CorrelationCurve(lags, np.ones_like(lags)))
        assert abs(fit.amplitude) < 1e-3 or not fit.identifiable
        assert not fit.identifiable
        assert fit.amplitude_err == fit.tau_corr_err == math.inf

    def test_step_bound_is_fit_error(self, monkeypatch):
        monkeypatch.setattr(lamp, "_FIT_STEPS", 1)
        lags = np.linspace(0.0, 4.0 * TAU, 400)
        vals = 1.0 + np.exp(-math.pi * (lags / (1.2 * TAU)) ** 2)
        with pytest.raises(FitError):
            lamp.fit_gaussian_g2(lamp.CorrelationCurve(lags, vals))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_curve_fit_on_fig1c_curves(self, seed):
        trace = lamp.synthesize_field(TAU, TAU / 20.0, 1 << 21, core.stream(seed))
        curve = lamp.estimate_g2(trace, 3.0 * TAU)
        fit = lamp.fit_gaussian_g2(curve)
        amp, tc, amp_err, tc_err = curve_fit_reference(curve)
        assert fit.amplitude == pytest.approx(amp, rel=1e-8)
        assert fit.tau_corr == pytest.approx(tc, rel=1e-8)
        assert fit.amplitude_err == pytest.approx(amp_err, rel=1e-6)
        assert fit.tau_corr_err == pytest.approx(tc_err, rel=1e-6)

    def test_near_flat_curve_errors_match_curve_fit(self):
        # an excess of 1e-4 under noise of 1e-4: the Jacobian's tau
        # column is ~1e-7 of its A column, so a covariance that drops
        # small singular values reports a tau error of ~1e-13 ns; the
        # full inverse agrees with curve_fit's ~1.6 us
        lags = np.arange(61) * (TAU / 20.0)
        noise = np.random.default_rng(8).standard_normal(len(lags))
        vals = 1.0 + 1e-4 * np.exp(-math.pi * (lags / TAU) ** 2) + 1e-4 * noise
        curve = lamp.CorrelationCurve(lags, vals)
        fit = lamp.fit_gaussian_g2(curve)
        amp, tc, amp_err, tc_err = curve_fit_reference(curve)
        assert not fit.identifiable
        assert fit.amplitude_err == pytest.approx(amp_err, rel=1e-3)
        assert fit.tau_corr_err == pytest.approx(tc_err, rel=1e-3)
        assert fit.tau_corr_err > fit.tau_corr / 2.0

    def test_stderr_scaling_with_length(self):
        # sqrt-N convergence: doubling the trace length contracts the
        # spread of the zero-lag estimate by about sqrt(2)
        def spread(n, seeds):
            vals = []
            for s in seeds:
                tr = lamp.synthesize_field(TAU, TAU / 20.0, n, core.stream(s))
                vals.append(lamp.estimate_g2(tr, 5 * TAU).values[0])
            return np.std(vals, ddof=1)

        seeds = range(100, 116)
        ratio = spread(1 << 16, seeds) / spread(1 << 17, [s + 50 for s in seeds])
        assert math.sqrt(2.0) * 0.65 < ratio < math.sqrt(2.0) * 1.45


def curve_fit_reference(curve):
    """(A, tau_corr, A_err, tau_corr_err) by scipy's curve_fit from the
    half-decay guess that fit_gaussian_g2 starts from."""
    lags, vals = curve.lags, curve.values
    a0 = vals[0] - 1.0
    i = np.flatnonzero(vals - 1.0 < 0.5 * a0)[0]
    frac = (vals[i - 1] - 1.0 - 0.5 * a0) / (vals[i - 1] - vals[i])
    tau_half = lags[i - 1] + frac * (lags[i] - lags[i - 1])
    tc0 = max(tau_half / math.sqrt(math.log(2.0) / math.pi), lags[1])

    def model(tau, a, tc):
        return 1.0 + a * np.exp(-math.pi * (tau / tc) ** 2)

    popt, pcov = curve_fit(model, lags, vals, p0=(a0, tc0), maxfev=20000)
    return popt[0], abs(popt[1]), *np.sqrt(np.diag(pcov))
