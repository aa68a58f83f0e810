import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy.linalg import expm
from scipy.signal import argrelmax

from tlsrf import bloch, core, emission
from tlsrf.core import NumericalGuardError, TWO_PI


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


def dipole_generator(params, om, det):
    """The Bloch generator in the dipole basis (rho11, rho01, rho10),
    written out from the Bloch equations, with rho01 driven by
    -i om rho11 + i om / 2: the 3x3 block and the coupling vector."""
    it1, it2 = 1.0 / params.t1, 1.0 / params.t2
    g = np.array(
        [
            [-it1, -0.5j * om, 0.5j * om],
            [-1j * om, -(it2 + 1j * det), 0.0],
            [1j * om, 0.0, -(it2 - 1j * det)],
        ]
    )
    return g, np.array([0.0, 0.5j * om, -0.5j * om])


def _cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _det3(m):
    """Determinant of a 3x3 matrix of complex numbers held as pairs of
    Fractions, by cofactors of the first row."""
    out = (Fraction(0), Fraction(0))
    for j, sign in ((0, 1), (1, -1), (2, 1)):
        k, l = (c for c in range(3) if c != j)
        x, y = _cmul(m[1][k], m[2][l]), _cmul(m[1][l], m[2][k])
        t = _cmul(m[0][j], (x[0] - y[0], x[1] - y[1]))
        out = (out[0] + sign * t[0], out[1] + sign * t[1])
    return out


def exact_spectrum(params, om, det, freqs):
    """Incoherent density and power of the coherent-drive spectrum in
    exact rational arithmetic at the float inputs, in the dipole basis
    of `dipole_generator`: the steady state y = (rho11, rho01, rho10),
    the zero-lag vector w = -rho10 y + (0, rho11, 0) and one resolvent
    solve (G + s) z = w per frequency, at the float s = 2 pi i nu, all
    by Cramer's rule."""
    zero = Fraction(0)
    it1, it2, om, det = 1 / Fraction(params.t1), 1 / Fraction(params.t2), Fraction(om), Fraction(det)
    g = [
        [(-it1, zero), (zero, -om / 2), (zero, om / 2)],
        [(zero, -om), (-it2, -det), (zero, zero)],
        [(zero, om), (zero, zero), (-it2, det)],
    ]
    rhs = [(zero, zero), (zero, -om / 2), (zero, om / 2)]  # -g0

    def cramer(m, b, j):
        """Component j of the solution of m z = b."""
        n = _det3([[b[i] if k == j else m[i][k] for k in range(3)] for i in range(3)])
        d = _det3(m)
        q = d[0] ** 2 + d[1] ** 2
        return ((n[0] * d[0] + n[1] * d[1]) / q, (n[1] * d[0] - n[0] * d[1]) / q)

    y = [cramer(g, rhs, j) for j in range(3)]
    r11 = y[0][0]
    w = [_cmul((-y[2][0], -y[2][1]), yi) for yi in y]
    w[1] = (w[1][0] + r11, w[1][1])
    dens = []
    for nu in TWO_PI * np.asarray(freqs):
        s = Fraction(float(nu))
        shifted = [[(g[i][k][0], g[i][k][1] + s) if i == k else g[i][k] for k in range(3)] for i in range(3)]
        dens.append(float(-2 * cramer(shifted, w, 1)[0] * it1))
    return np.array(dens), float(w[1][0] * it1)


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
        # independent route: step the regression system with scipy's
        # expm of one step and Fourier transform the correlation
        # numerically
        om = 7.2
        ss = bloch.steady_state(qd, om)
        g, g0 = dipole_generator(qd, om, 0.0)
        s_tr = complex(ss.rho01_re, -ss.rho01_im)
        y = np.array([0.0, ss.rho11, 0.0], dtype=complex)
        yfix = -np.linalg.solve(g, s_tr * g0)
        dt = 2e-4
        n = int(40.0 / dt)
        corr = np.empty(n + 1, dtype=complex)
        w = y - yfix
        corr[0] = w[1]
        step = expm(g * dt)
        for i in range(n):
            w = step @ w
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
        g, g0 = dipole_generator(qd, om, det)
        s_tr = complex(ss.rho01_re, -ss.rho01_im)
        w = np.array([0.0, ss.rho11, 0.0], dtype=complex) + np.linalg.solve(g, s_tr * g0)
        freqs = fine_grid()
        shifted = g + 1j * TWO_PI * freqs[:, None, None] * np.eye(3)
        rhs = np.broadcast_to(w[:, None], (len(freqs), 3, 1))
        oracle = 2.0 * np.real(-np.linalg.solve(shifted, rhs)[:, 1, 0]) / qd.t1
        sp = emission.qrt_spectrum(qd, om, det, freqs)
        assert np.abs(sp.incoherent - oracle).max() < 1e-12 * oracle.max()

    @pytest.mark.parametrize("om", [1e-4, 1e-3, 0.05, 1.7])
    @pytest.mark.parametrize("det", [0.0, 1.3, -4.0])
    def test_weak_drive_matches_exact_resolvent(self, det, om):
        # (t1, t2) = (1, 2) ns keeps the generator's entries exact; the
        # cancellation in rho11 - |rho01|^2 costs ~log10(1/S_eff) digits
        params = core.TlsParams(1.0, 2.0)
        freqs = np.linspace(-1.0, 1.0, 81)
        exact, power = exact_spectrum(params, om, det, freqs)
        sp = emission.qrt_spectrum(params, om, det, freqs)
        s_eff = om * om * params.t1 * params.t2 / (1.0 + (det * params.t2) ** 2)
        bound = 1e-13 + 10.0 * np.finfo(float).eps / s_eff
        assert np.abs(sp.incoherent - exact).max() <= bound * exact.max()
        assert abs(sp.incoherent_power - power) <= bound * power

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
            bloch.chaotic_steady_state(qd, 7.2) / qd.t1, rel=1e-12
        )

    @pytest.mark.parametrize("t1, t2", [(0.641, 0.325), (1.0, 2.0), (0.641, 0.1), (5.0, 10.0)])
    @pytest.mark.parametrize("mean_omega", [0.05, 1.0, 5.2, 7.2, 20.0, 50.0])
    def test_matches_adaptive_quadrature(self, t1, t2, mean_omega):
        # per-frequency adaptive quadrature of the coherent-drive density
        # over the exponential law of x = drive^2 / mean^2, at nu = 0, its
        # neighbours (where the closed form switches to its series) and
        # across the span; and the coherent weight and incoherent power
        params = core.TlsParams(t1, t2)
        span = max(4.0, 3.0 * mean_omega / TWO_PI)
        linewidth = 2.0 / t2 / TWO_PI
        freqs = fine_grid(span, max(4001, 2 * math.ceil(5.0 * span / linewidth) + 1))
        sp = emission.chaotic_spectrum(params, mean_omega, freqs)
        peak = sp.incoherent.max()

        def average(row, grid, scale):
            # _spectrum_rows at one drive, on the shortest grid, three
            # points from grid[0]
            def f(x):
                dens, cw, ip = emission._spectrum_rows(params, np.array([mean_omega * math.sqrt(x)]), 0.0, grid)
                return (dens[0, 0], cw[0], ip[0])[row] * math.exp(-x)

            # the Mollow sidebands pass grid[0] where the drive is 2 pi |nu|;
            # beyond x = 60 the law holds e^-60 of its mass
            x_s = (TWO_PI * grid[0] / mean_omega) ** 2
            points = [x_s] if 0.0 < x_s < 60.0 else None
            val, _ = scipy_integrate.quad(f, 0.0, 60.0, points=points, limit=400, epsabs=1e-12 * scale, epsrel=1e-10)
            return val

        mid = len(freqs) // 2
        for j in (mid, mid + 1, mid - 1, mid + 7, mid + 400, mid + 1100, 0):
            assert abs(sp.incoherent[j] - average(0, freqs[j : j + 3], peak)) <= 1e-10 * peak, freqs[j]
        power = sp.total_power()
        assert sp.coherent_weight == pytest.approx(average(1, freqs[:3], power), rel=1e-10, abs=1e-12 * power)
        assert sp.incoherent_power == pytest.approx(average(2, freqs[:3], power), rel=1e-10, abs=1e-12 * power)


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

    def test_coherent_line_centred_on_even_grid(self, instrument):
        # 2000 points on +-4 GHz have no node at nu = 0; the line must
        # still be symmetric about it and keep its power
        freqs = fine_grid(4.0, 2000)
        sp = emission.Spectrum(freqs, np.zeros_like(freqs), 1.0, 0.0)
        out = emission.convolve_lorentzian(sp, instrument.fpi_fwhm_ghz).incoherent
        assert np.abs(out - out[::-1]).max() <= 1e-14 * out.max()
        assert np.sum(out) * sp.df == pytest.approx(1.0, rel=1e-12)

    def test_span_guard(self, qd):
        sp = emission.qrt_spectrum(qd, 7.2, 0.0, fine_grid(0.5, 501))
        with pytest.raises(NumericalGuardError):
            emission.convolve_lorentzian(sp, 0.1754)


@pytest.mark.parametrize(
    "build",
    [
        lambda p, f: emission.qrt_spectrum(p, 7.2, 0.0, f),
        lambda p, f: emission.chaotic_spectrum(p, 7.2, f),
        lambda p, f: emission.Spectrum(f, np.zeros_like(f), 1.0, 0.0),
    ],
    ids=["qrt", "chaotic", "Spectrum"],
)
@pytest.mark.parametrize(
    "freqs, message",
    [(np.zeros(1), "too short"), (fine_grid()[::-1], "ascending")],
    ids=["one-point", "descending"],
)
def test_grid_checked_before_use(qd, build, freqs, message):
    with pytest.raises(ValueError, match=message):
        build(qd, freqs)


@pytest.mark.parametrize(
    "build",
    [lambda p, lags: emission.qrt_g2(p, 7.2, 0.0, lags), lambda p, lags: emission.chaotic_g2(p, 7.2, lags)],
    ids=["qrt", "chaotic"],
)
@pytest.mark.parametrize(
    "lags",
    [[2.0, 1.0, 0.0], [20.0, 10.0, 0.0], [1.0, 1.0, 1.0]],
    ids=["descending", "descending-wide", "repeated"],
)
def test_lags_checked_before_use(qd, monkeypatch, build, lags):
    # a malformed grid is a ValueError before any map is taken, not a
    # QuadratureError from a panel cap read off the last lag
    def no_work(*args):
        raise AssertionError("lags reached the propagator")

    monkeypatch.setattr(emission, "_conditional_population", no_work)
    with pytest.raises(ValueError, match="strictly ascending"):
        build(qd, lags)


@pytest.mark.parametrize(
    "build",
    [lambda p, lags: emission.qrt_g2(p, 7.2, 0.0, lags), lambda p, lags: emission.chaotic_g2(p, 7.2, lags)],
    ids=["qrt", "chaotic"],
)
def test_empty_lags_rejected(qd, monkeypatch, build):
    # no lag has no step to refuse; the grid check still refuses it
    # before any map, not an IndexError or a reduction error later
    def no_work(*args):
        raise AssertionError("lags reached the propagator")

    monkeypatch.setattr(emission, "_conditional_population", no_work)
    with pytest.raises(ValueError, match="too short"):
        build(qd, [])



def _g2_curve(lags):
    return emission.EmissionG2(np.asarray(lags), np.ones(np.shape(lags)))


@pytest.mark.parametrize(
    "build",
    [
        lambda p, lags: emission.qrt_g2(p, 7.2, 0.0, lags),
        lambda p, lags: emission.chaotic_g2(p, 7.2, lags),
        lambda p, lags: _g2_curve(lags),
        lambda p, lags: emission.convolve_gaussian(_g2_curve(lags), 0.351),
    ],
    ids=["qrt", "chaotic", "EmissionG2", "convolve_gaussian"],
)
@pytest.mark.parametrize(
    "lags, message",
    [([0.0, math.inf], "finite"), ([math.nan], "finite"), ([[0.0, 0.1], [0.2, 0.3]], "1-d")],
    ids=["inf", "nan", "2-d"],
)
def test_non_finite_or_2d_lags_rejected(qd, build, lags, message):
    # NaN and inf lags once gave NaN curves, an OverflowError or a
    # numerical guard (exit 3); 2-d lags an IndexError or a TypeError
    with pytest.raises(ValueError, match=message) as err:
        build(qd, lags)
    assert not isinstance(err.value, NumericalGuardError)


def _smear(qd, kind, width):
    if kind == "lorentzian":
        return emission.convolve_lorentzian(emission.qrt_spectrum(qd, 1.7, 0.0, fine_grid()), width)
    g2 = emission.qrt_g2(qd, 1.7, 0.0, np.arange(0.0, 5.0, 0.01))
    if kind == "gaussian":
        return emission.convolve_gaussian(g2, width)
    return emission.blinking_envelope(g2, 0.5, width)


@pytest.mark.parametrize(
    "kind, width, message",
    [
        ("lorentzian", math.nan, "fwhm"),
        ("lorentzian", math.inf, "fwhm"),
        ("gaussian", math.nan, "fwhm"),
        ("gaussian", math.inf, "fwhm"),
        ("blinking", math.nan, "tau_blink"),
    ],
)
def test_width_not_a_number_rejected(qd, kind, width, message):
    # a NaN width once gave an all-NaN curve or an error from math.ceil
    with pytest.raises(ValueError, match=message) as err:
        _smear(qd, kind, width)
    assert not isinstance(err.value, NumericalGuardError)


@pytest.mark.parametrize(
    "build",
    [
        lambda: emission.Spectrum(fine_grid(), np.zeros(4000), 1.0, 0.0),
        lambda: emission.Spectrum(fine_grid(), np.zeros(4002), 1.0, 0.0),
        lambda: emission.EmissionG2(np.arange(3.0), np.ones(2)),
        lambda: emission.EmissionG2(np.arange(3.0), np.ones(4)),
    ],
    ids=["Spectrum-short", "Spectrum-long", "EmissionG2-short", "EmissionG2-long"],
)
def test_values_as_long_as_grid(build):
    with pytest.raises(ValueError, match="equal length"):
        build()


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

    def test_matches_integrate(self, qd):
        # the conditional repopulation traced by `integrate` from the
        # ground state, on a fine grid that hits every lag
        om = 1.7
        lags = np.arange(0.0, 5.0, 0.01)
        sub = math.ceil(0.01 / (min(qd.t2, TWO_PI / om) / 50.0))
        fine = 0.01 / sub
        trace = bloch.integrate(qd, core.DrivePulse.cw(om, 0.0), lags[-1] + fine, fine)
        traced = trace.rho11[np.round(lags / fine).astype(int)] / bloch.steady_state_population(qd, om)
        g2 = emission.qrt_g2(qd, om, 0.0, lags)
        assert np.abs(g2.values[len(lags) - 1 :] - traced).max() < 1e-13

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

    def test_one_lag_curve_rejected(self, qd):
        # a single lag has no step to convolve on
        g2 = emission.qrt_g2(qd, 7.2, 0.0, [0.0])
        assert len(g2.lags) == 1
        with pytest.raises(ValueError, match="at least 2"):
            emission.convolve_gaussian(g2, 0.351)

    def test_non_uniform_grid_rejected(self):
        # a malformed grid is an input fault (exit 2), not a numerical
        # guard (exit 3)
        lags = np.array([-1.0, -0.5, 0.0, 0.5, 1.5])
        g2 = emission.EmissionG2(lags, np.ones_like(lags))
        with pytest.raises(ValueError, match="uniform") as err:
            emission.convolve_gaussian(g2, 10.0)
        assert not isinstance(err.value, NumericalGuardError)
