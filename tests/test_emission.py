import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.signal import argrelmax

from tlsrf import bloch, core, emission
from tlsrf.core import NumericalGuardError, QuadratureError, TWO_PI


def fine_grid(span=4.0, n=4001):
    return np.linspace(-span, span, n)


def local_maxima(values, floor_frac=1e-6):
    idx = argrelmax(np.asarray(values))[0]
    vmax = np.max(values)
    return idx[values[idx] > floor_frac * vmax]


def exceptional_drive(params):
    """Rabi frequency at which two eigenvalues of the resonant Bloch
    generator coalesce."""
    return abs(1.0 / params.t1 - 1.0 / params.t2) / 2.0


def weak_drive_g2(tau, params):
    """Closed-form zero-drive limit of the conditional correlation: the
    coherence builds on t2 before the population relaxes on t1."""
    k = 1.0 / params.t1 - 1.0 / params.t2
    return (
        1.0
        - np.exp(-tau / params.t1)
        - (np.exp(-tau / params.t2) - np.exp(-tau / params.t1)) / (params.t1 * k)
    )


class TestQrtSpectrum:
    def test_power_conservation(self, qd):
        for s in (0.1, 0.6, 10.5):
            om = core.omega_from_saturation(s, qd)
            sp = emission.qrt_spectrum(qd, om, 0.0, fine_grid())
            assert sp.total_power() == pytest.approx(
                bloch.steady_state_population(qd, om) / qd.t1, rel=1e-6
            )

    def test_symmetric_on_resonance(self, qd):
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid())
        assert np.abs(sp.incoherent - sp.incoherent[::-1]).max() < 1e-8 * sp.incoherent.max()

    def test_sidebands_near_drive_frequency(self, qd):
        # raw incoherent spectrum at the strongest bundled drive: the
        # apparent sidebands sit within 5% of the drive's Rabi offset
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid(4.0, 8001))
        peaks = local_maxima(sp.incoherent)
        pos = sp.freqs[peaks]
        side = pos[pos > 0.1]
        assert len(side) == 1
        assert abs(side[0] - 7.2 / TWO_PI) / (7.2 / TWO_PI) < 0.05

    def test_weak_drive_rayleigh_dominated(self, radiative):
        # without pure dephasing nearly all weak-drive scattering is
        # elastic
        om = core.omega_from_saturation(0.01, radiative)
        sp = emission.qrt_spectrum(radiative, om, 0.0, fine_grid())
        assert sp.coherent_weight / sp.total_power() >= 0.9

    def test_weak_drive_inelastic_fraction_from_dephasing(self, qd):
        # pure dephasing redistributes scattered light incoherently even
        # at vanishing drive: the elastic fraction tends to t2/(2 t1)
        om = core.omega_from_saturation(1e-4, qd)
        sp = emission.qrt_spectrum(qd, om, 0.0, fine_grid())
        assert sp.coherent_weight / sp.total_power() == pytest.approx(
            qd.t2 / (2.0 * qd.t1), rel=1e-3
        )

    def test_matches_strong_drive_three_lorentzian_form(self, radiative):
        # radiative-only strong drive: central line of half width G/2
        # plus sidebands of half width 3G/4, with 1/2 : 1/4 : 1/4
        # weights; dispersive admixtures decay as G/om, so the drive
        # must sit deep in the asymptotic regime
        g = 1.0 / radiative.t1
        om = 200.0
        freqs = np.linspace(-3.0 * om / TWO_PI, 3.0 * om / TWO_PI, 24001)
        sp = emission.qrt_spectrum(radiative, om, 0.0, freqs)
        r11 = bloch.steady_state_population(radiative, om)

        def lor(x, hw):
            return (hw / math.pi) / (hw * hw + x * x)

        w = TWO_PI * freqs
        oracle = (r11 / radiative.t1) * TWO_PI * (
            0.5 * lor(w, g / 2.0)
            + 0.25 * lor(w - om, 3.0 * g / 4.0)
            + 0.25 * lor(w + om, 3.0 * g / 4.0)
        )
        l2 = np.linalg.norm(sp.incoherent - oracle) / np.linalg.norm(oracle)
        assert l2 < 0.01

    def test_matches_ode_fourier_oracle(self, qd):
        # independent route: step the regression system with RK4 and
        # Fourier transform the correlation numerically
        om = 7.2
        ss = bloch.steady_state(qd, om)
        g, g0 = emission.regression_generator(qd, om, 0.0)
        s_tr = complex(ss.rho01_re, -ss.rho01_im)
        y = np.array([0.0, ss.rho11, 0.0], dtype=complex)
        yfix = -np.linalg.solve(g, s_tr * g0)
        dt = 2e-4
        n = int(40.0 / dt)
        corr = np.empty(n + 1, dtype=complex)
        w = y - yfix
        corr[0] = w[1]
        for i in range(n):
            k1 = g @ w
            k2 = g @ (w + 0.5 * dt * k1)
            k3 = g @ (w + 0.5 * dt * k2)
            k4 = g @ (w + dt * k3)
            w = w + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            corr[i + 1] = w[1]
        taus = dt * np.arange(n + 1)
        freqs = np.linspace(-3.0, 3.0, 601)
        # the trapezoid sum over tau chunks of 8192, so the kernel is not
        # held whole (601 x 200001 complex, 1.9 GB)
        corr[0] *= 0.5
        corr[-1] *= 0.5
        total = np.zeros(len(freqs), dtype=complex)
        for a in range(0, n + 1, 8192):
            total += np.exp(1j * TWO_PI * np.outer(freqs, taus[a : a + 8192])) @ corr[a : a + 8192]
        oracle = 2.0 * np.real(total) * dt / qd.t1
        sp = emission.qrt_spectrum(qd, om, 0.0, freqs)
        assert np.abs(sp.incoherent - oracle).max() < 1e-4 * oracle.max()

    @pytest.mark.parametrize("det", [0.0, 0.5])
    def test_exceptional_point_matches_resolvent_solve(self, qd, det):
        # one linear solve of (G + 2 pi i nu) w per frequency, with no
        # eigenvectors to lose digits where they coalesce
        om = exceptional_drive(qd)
        ss = bloch.steady_state(qd, om, det)
        g, g0 = emission.regression_generator(qd, om, det)
        s_tr = complex(ss.rho01_re, -ss.rho01_im)
        w = np.array([0.0, ss.rho11, 0.0], dtype=complex) + np.linalg.solve(g, s_tr * g0)
        freqs = fine_grid()
        shifted = g + 1j * TWO_PI * freqs[:, None, None] * np.eye(3)
        rhs = np.broadcast_to(w[:, None], (len(freqs), 3, 1))
        oracle = 2.0 * np.real(-np.linalg.solve(shifted, rhs)[:, 1, 0]) / qd.t1
        sp = emission.qrt_spectrum(qd, om, det, freqs)
        assert np.abs(sp.incoherent - oracle).max() < 1e-12 * oracle.max()

    def test_grid_guard(self, qd):
        with pytest.raises(NumericalGuardError):
            emission.qrt_spectrum(qd, 7.2, 0.0, np.linspace(-4, 4, 21))


class TestChaoticSpectrum:
    def test_no_sidebands(self, qd):
        sp = emission.chaotic_spectrum(qd, 7.2, fine_grid())
        peaks = local_maxima(sp.incoherent)
        assert np.all(np.abs(sp.freqs[peaks]) < 0.25)

    def test_single_peak_after_instrument(self, qd, instrument):
        sp = emission.chaotic_spectrum(qd, 7.2, fine_grid())
        tot = emission.convolve_lorentzian(sp, instrument.fpi_fwhm_ghz)
        assert len(local_maxima(tot.incoherent)) == 1

    def test_coherent_triplet_contrast(self, qd, instrument):
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid())
        tot = emission.convolve_lorentzian(sp, instrument.fpi_fwhm_ghz)
        assert len(local_maxima(tot.incoherent)) == 3

    def test_zero_mean_drive_degenerates(self, qd):
        a = emission.chaotic_spectrum(qd, 1e-6, fine_grid(2.0, 2001))
        b = emission.qrt_spectrum(qd, 1e-6, 0.0, fine_grid(2.0, 2001))
        assert np.abs(a.incoherent - b.incoherent).max() < 1e-12

    def test_power_matches_chaotic_average(self, qd):
        sp = emission.chaotic_spectrum(qd, 7.2, fine_grid())
        assert sp.total_power() == pytest.approx(
            bloch.chaotic_steady_state(qd, 7.2) / qd.t1, rel=1e-4
        )

    def test_convergence_check_runs(self, qd):
        emission.chaotic_spectrum(qd, 5.2, fine_grid(3.0, 2001), order=96)

    def test_low_order_fails_convergence_check(self, qd):
        with pytest.raises(QuadratureError, match="not converged at order 8"):
            emission.chaotic_spectrum(qd, 7.2, fine_grid(3.0, 2001), order=8)


class TestConvolveLorentzian:
    def test_delta_becomes_instrument_line(self, qd, instrument):
        freqs = fine_grid(3.0, 6001)
        sp = emission.Spectrum(freqs, np.zeros_like(freqs), 1.0, 0.0)
        out = emission.convolve_lorentzian(sp, instrument.fpi_fwhm_ghz)
        half = out.incoherent.max() / 2.0
        above = np.where(out.incoherent >= half)[0]
        fwhm = freqs[above[-1]] - freqs[above[0]]
        assert fwhm == pytest.approx(0.1754, abs=0.002)

    def test_power_preserved(self, qd, instrument):
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid())
        out = emission.convolve_lorentzian(sp, instrument.fpi_fwhm_ghz)
        assert np.sum(out.incoherent) * out.df == pytest.approx(
            np.sum(sp.incoherent) * sp.df + sp.coherent_weight, rel=1e-6
        )
        assert out.total_power() == pytest.approx(sp.total_power(), rel=1e-12)

    def test_zero_width_identity(self, qd):
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid())
        out = emission.convolve_lorentzian(sp, 0.0)
        j0 = int(np.argmin(np.abs(sp.freqs)))
        mask = np.arange(len(sp.freqs)) != j0
        assert np.array_equal(out.incoherent[mask], sp.incoherent[mask])
        # the coherent delta lands in the zero-frequency bin
        assert out.incoherent[j0] == pytest.approx(
            sp.incoherent[j0] + sp.coherent_weight / sp.df, rel=1e-12
        )

    def test_two_deltas_resolve_symmetrically(self):
        freqs = fine_grid(5.0, 10001)
        dens = np.zeros_like(freqs)
        df = freqs[1] - freqs[0]
        for nu0 in (-1.0, 1.0):
            dens[np.argmin(np.abs(freqs - nu0))] = 1.0 / df
        sp = emission.Spectrum(freqs, dens, 0.0, 2.0)
        out = emission.convolve_lorentzian(sp, 0.1754)
        peaks = local_maxima(out.incoherent, floor_frac=1e-3)
        assert len(peaks) == 2
        assert np.allclose(np.abs(freqs[peaks]), 1.0, atol=0.01)
        assert out.incoherent[peaks[0]] == pytest.approx(out.incoherent[peaks[1]], rel=1e-9)

    def test_span_guard(self, qd):
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid(0.5, 501))
        with pytest.raises(NumericalGuardError):
            emission.convolve_lorentzian(sp, 0.1754)


class TestQrtG2:
    def test_zero_lag_antibunching(self, qd):
        for s in (0.01, 0.6, 10.5):
            om = core.omega_from_saturation(s, qd)
            g2 = emission.qrt_g2(qd, om, 0.0, np.arange(0.0, 5.0, 0.01))
            assert g2.values[len(g2.values) // 2] == 0.0

    def test_weak_drive_closed_form(self, qd):
        lags = np.linspace(0.0, 5.0 * qd.t1, 501)
        om = core.omega_from_saturation(1e-5, qd)
        g2 = emission.qrt_g2(qd, om, 0.0, lags)
        vals = g2.values[len(lags) - 1 :]
        assert np.abs(vals - weak_drive_g2(lags, qd)).max() < 1e-4

    def test_weak_drive_saturation_correction_is_small(self, qd):
        # at S = 0.01 the conditional recovery rate is (1 + S)/t1, so
        # the deviation from the zero-drive curve is of relative order S
        lags = np.linspace(0.0, 5.0 * qd.t1, 501)
        om = core.omega_from_saturation(0.01, qd)
        g2 = emission.qrt_g2(qd, om, 0.0, lags)
        vals = g2.values[len(lags) - 1 :]
        assert np.abs(vals - weak_drive_g2(lags, qd)).max() < 0.01

    def test_radiative_textbook_formula(self, radiative):
        g = 1.0 / radiative.t1
        for om in (3.0, 8.0):
            wp = math.sqrt(om * om - (g / 4.0) ** 2)
            lags = np.linspace(0.0, 6.0, 601)
            g2 = emission.qrt_g2(radiative, om, 0.0, lags)
            vals = g2.values[len(lags) - 1 :]
            oracle = 1.0 - np.exp(-3.0 * g * lags / 4.0) * (
                np.cos(wp * lags) + 3.0 * g / (4.0 * wp) * np.sin(wp * lags)
            )
            assert np.abs(vals - oracle).max() < 1e-12

    def test_strong_drive_oscillation(self, qd):
        g2 = emission.qrt_g2(qd, 7.1, 0.0, np.arange(0.0, 10.0, 0.005))
        assert g2.values.max() > 1.0

    def test_long_lag_limit(self, qd):
        g2 = emission.qrt_g2(qd, 1.7, 0.0, np.array([0.0, 25.0]))
        assert g2.values[-1] == pytest.approx(1.0, abs=1e-4)

    def test_matches_rk4_integration(self, qd):
        # the conditional repopulation stepped by RK4 from the ground
        # state, on a fine grid that hits every lag
        om = 1.7
        lags = np.arange(0.0, 5.0, 0.01)
        sub = math.ceil(0.01 / (min(qd.t2, TWO_PI / om) / 50.0))
        fine = 0.01 / sub
        trace = bloch.integrate(qd, core.DrivePulse.cw(om, 0.0), lags[-1] + fine, fine)
        rk4 = trace.rho11[np.round(lags / fine).astype(int)] / bloch.steady_state_population(qd, om)
        g2 = emission.qrt_g2(qd, om, 0.0, lags)
        assert np.abs(g2.values[len(lags) - 1 :] - rk4).max() < 1e-8

    def test_exceptional_point_matches_per_lag_expm(self, qd):
        om = exceptional_drive(qd)
        lags = np.arange(0.0, 5.0, 0.01)
        m = bloch.augmented_generator(qd, om)[0]
        r11 = np.array([expm(m * tau)[0, 3] for tau in lags])
        oracle = r11 / bloch.steady_state_population(qd, om)
        g2 = emission.qrt_g2(qd, om, 0.0, lags)
        assert np.abs(g2.values[len(lags) - 1 :] - oracle).max() < 1e-12

    def test_non_uniform_lags_rejected(self, qd):
        lags = np.array([0.0, 0.1, 0.3, 0.4])
        with pytest.raises(ValueError, match="uniform"):
            emission.qrt_g2(qd, 1.7, 0.0, lags)
        with pytest.raises(ValueError, match="uniform"):
            emission.chaotic_g2(qd, 1.7, lags)

    def test_output_symmetrized(self, qd):
        g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 2.0, 0.01))
        assert np.array_equal(g2.values, g2.values[::-1])
        assert g2.lags[0] == -g2.lags[-1]


class TestChaoticG2:
    def test_zero_lag_antibunching_survives(self, qd):
        g2 = emission.chaotic_g2(qd, 1.7, np.arange(0.0, 5.0, 0.01))
        assert g2.values[len(g2.values) // 2] == 0.0

    def test_weak_drive_plateau(self, qd):
        om = core.omega_from_saturation(0.01, qd)
        lags = np.linspace(8.6 * qd.t1, 10.0 * qd.t1, 29)
        g2 = emission.chaotic_g2(qd, om, lags)
        plateau = g2.values[len(lags) - 1 :].mean()
        assert plateau == pytest.approx(2.0, abs=0.05)

    def test_saturated_plateau_collapses_to_one(self, qd):
        om = core.omega_from_saturation(1e4, qd)
        lags = np.array([8.0 * qd.t1, 10.0 * qd.t1])
        g2 = emission.chaotic_g2(qd, om, lags)
        assert g2.values[-1] == pytest.approx(1.0, abs=1e-3)

    def test_validity_warning_beyond_correlation_time(self, qd):
        with pytest.warns(UserWarning, match="quasi-static"):
            emission.chaotic_g2(qd, 1.7, np.linspace(0.0, 500.0, 50))


class TestBlinkingEnvelope:
    def test_no_blinking_identity(self, qd):
        g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 2.0, 0.01))
        out = emission.blinking_envelope(g2, 1.0, 405.0)
        assert np.array_equal(out.values, g2.values)

    def test_decorrelates_at_long_lag(self):
        g2 = emission.EmissionG2(np.array([0.0, 40500.0]), np.array([1.0, 1.0]))
        out = emission.blinking_envelope(g2, 0.5, 405.0)
        assert out.values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_half_duty_doubles_zero_lag(self):
        g2 = emission.EmissionG2(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        out = emission.blinking_envelope(g2, 0.5, 405.0)
        assert out.values[0] == 2.0

    def test_bunching_bracket_with_chaotic_plateau(self, qd):
        # half-duty blinking on top of the chaotic plateau pushes the
        # intermediate-lag correlation into the 3..4 band
        om = core.omega_from_saturation(0.01, qd)
        lags = np.linspace(3.0 * qd.t1, 10.0 * qd.t1, 50)
        g2 = emission.chaotic_g2(qd, om, lags)
        out = emission.blinking_envelope(g2, 0.5, 405.0)
        mid = out.values[len(lags) - 1 :]
        assert 3.0 < mid.max() < 4.0

    def test_invalid_params(self, qd):
        g2 = emission.EmissionG2(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            emission.blinking_envelope(g2, 0.0, 405.0)
        with pytest.raises(ValueError):
            emission.blinking_envelope(g2, 0.5, -1.0)


def full_kernel_gaussian(g2, fwhm):
    """convolve_gaussian with the kernel of all 2n - 1 lag offsets."""
    n, step = len(g2.lags), g2.lags[1] - g2.lags[0]
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    kern = np.exp(-0.5 * (np.arange(-(n - 1), n) * step / sigma) ** 2)
    rowsum = np.convolve(np.ones(n), kern, mode="valid")
    return np.maximum(np.convolve(g2.values, kern, mode="valid") / rowsum, 0.0)


class TestConvolveGaussian:
    # the fig5 grid, 3001 lags, and one of 159 lags, shorter than the
    # kernel's cut at 12 sigma (2 x 179 + 1 offsets at 0.01 ns)
    @pytest.mark.parametrize("max_lag, n", [(15.0, 3001), (0.79, 159)])
    def test_matches_full_kernel(self, qd, instrument, max_lag, n):
        lags = np.arange(0.0, max_lag + 0.005, 0.01)
        for g2 in (emission.qrt_g2(qd, 1.7, 0.0, lags), emission.chaotic_g2(qd, 1.7, lags)):
            assert len(g2.lags) == n
            out = emission.convolve_gaussian(g2, instrument.detector_fwhm_ns)
            assert np.abs(out.values - full_kernel_gaussian(g2, instrument.detector_fwhm_ns)).max() <= 1e-15

    def test_constant_stays_constant(self):
        lags = np.arange(-5.0, 5.001, 0.01)
        g2 = emission.EmissionG2(lags, np.ones_like(lags))
        out = emission.convolve_gaussian(g2, 0.351)
        assert np.allclose(out.values, 1.0, atol=1e-12)

    def test_zero_width_identity(self, qd):
        g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 2.0, 0.01))
        out = emission.convolve_gaussian(g2, 0.0)
        assert np.array_equal(out.values, g2.values)

    def test_symmetry_preserved(self, qd):
        g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 6.0, 0.01))
        out = emission.convolve_gaussian(g2, 0.351)
        assert np.abs(out.values - out.values[::-1]).max() < 1e-12

    def test_detector_fills_the_dip(self, qd, instrument):
        g2 = emission.qrt_g2(qd, core.omega_from_saturation(0.6, qd), 0.0, np.arange(0.0, 12.0, 0.01))
        out = emission.convolve_gaussian(g2, instrument.detector_fwhm_ns)
        dip = out.values.min()
        assert 0.0 < dip < 0.5

    def test_resolution_guard(self, qd):
        g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 5.0, 0.2))
        with pytest.raises(NumericalGuardError):
            emission.convolve_gaussian(g2, 0.351)


def test_g2_csv(tmp_path, qd):
    g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 1.0, 0.01))
    path = tmp_path / "g2.csv"
    g2.to_csv(path)
    assert path.read_text().splitlines()[0] == "lag_ns,g2"


def test_spectrum_csv(tmp_path, qd, instrument):
    sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid(3.0, 3001))
    conv = emission.convolve_lorentzian(sp, instrument.fpi_fwhm_ghz)
    path = tmp_path / "spec.csv"
    sp.to_csv(path, after_irf=conv)
    lines = path.read_text().splitlines()
    assert lines[0] == "freq_ghz,incoherent,total_after_irf"
    assert len(lines) == len(sp.freqs) + 1
    assert len(lines[1].split(",")) == 3
