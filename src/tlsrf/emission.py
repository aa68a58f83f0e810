"""Emission observables of the driven emitter.

The power spectrum and the intensity correlation follow from two-time
averages of the dipole operators, which the regression theorem reduces
to evolutions under the Bloch generator `bloch.augmented_generator`.
The spectrum is the resolvent of the generator's Bloch block, read in
its own real (rho11, u, v) basis, a rational function of frequency
evaluated on the grid; g2 is propagated over the uniform lag
grid by exact maps expm(M dtau).  Neither needs an eigendecomposition.
Under chaotic drive the spectrum's average over the exponential
intensity law is in closed form, and g2's kernel takes an array of
drives, so its average runs it on chunks of the nodes of a composite
rule in drive / mean drive and adds the nodes in order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bloch
from .core import NumericalGuardError, TlsParams, TWO_PI, checked_grid


@dataclass
class Spectrum:
    """Emission spectrum on a uniform ordinary-frequency grid [GHz].

    incoherent is a spectral density (photon rate per GHz) relative to
    the emitter frequency; coherent_weight is the integrated photon
    rate of the elastically scattered line, carried as a delta weight
    until an instrument convolution materializes it on the grid.
    incoherent_power is the exact integral of the incoherent part over
    the whole axis (the grid integral approaches it as the span grows).
    """

    freqs: np.ndarray
    incoherent: np.ndarray
    coherent_weight: float
    incoherent_power: float

    def __post_init__(self):
        checked_grid(self.freqs, "frequency grid", 3, uniform=True)
        if np.shape(self.incoherent) != np.shape(self.freqs):
            raise ValueError("incoherent and freqs must have equal length")
        if not np.all(np.asarray(self.incoherent) >= 0):
            raise ValueError("incoherent spectrum must be non-negative")

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

    def total_power(self) -> float:
        return self.incoherent_power + self.coherent_weight


@dataclass
class EmissionG2:
    """Normalized intensity correlation on a lag grid [ns]."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        checked_grid(self.lags, "lags")
        if np.shape(self.values) != np.shape(self.lags):
            raise ValueError("values and lags must have equal length")
        if not np.all(np.asarray(self.values) >= 0):
            raise ValueError("g2 values must be >= 0")


def _fixed_point(m: np.ndarray) -> np.ndarray:
    """Steady Bloch vector (n, 3) of a stack of augmented generators."""
    return -np.linalg.solve(m[:, :3, :3], m[:, :3, 3:])[..., 0]


def _grid_guard(params: TlsParams, freqs) -> np.ndarray:
    """The frequency grid as a float array, once it is a uniform grid
    [GHz] of at least 3 points that resolves the linewidth."""
    freqs, df = checked_grid(freqs, "frequency grid", 3, uniform=True)
    linewidth = (2.0 / params.t2) / TWO_PI
    if df > linewidth / 4.0:
        raise NumericalGuardError(f"grid spacing {df} GHz cannot resolve the linewidth {linewidth:.4f} GHz")
    return freqs


def _check_drive(omega: float, detuning: float = 0.0):
    """Refuse a drive that is not finite and >= 0, or a detuning that is
    not finite, before any kernel sees them."""
    if not 0 <= omega < math.inf:
        raise ValueError(f"drive {omega} must be finite and >= 0")
    if not abs(detuning) < math.inf:
        raise ValueError(f"detuning {detuning} must be finite")


def _spectrum_rows(params: TlsParams, omegas: np.ndarray, detuning: float, freqs: np.ndarray):
    """Incoherent density (n, len(freqs)), coherent weight (n,) and
    incoherent power (n,) for n drives.

    The mean-subtracted dipole correlation evolves under the Bloch block
    A = M[:3, :3] of `bloch.augmented_generator`, in its own real basis
    (rho11, u, v), where the dipole component of a vector y is
    [y]_01 = y_u + i y_v.  At zero lag it is w = -conj(rho01) x_ss
    + (rho11/2) (0, 1, -i), from the fixed point x_ss, so
    [w]_01 = rho11 - |rho01|^2, the incoherent power times t1.  The
    one-sided transform at s = 2 pi i nu is -[(A + s)^-1 w]_01, and by
    Cayley-Hamilton (A + s)^-1 = (s^2 - s (A - tr A) + A^2 - tr A A + c1)
    / (s^3 + tr A s^2 + c1 s + det A), c1 = (tr^2 A - tr A^2)/2.
    """
    m = bloch.augmented_generator(params, omegas, detuning)
    a = m[:, :3, :3].astype(complex)  # tr, c1 and det meet complex s on the grid
    xss = _fixed_point(m)
    r11 = xss[:, 0]
    r01 = xss[:, 1] + 1j * xss[:, 2]
    w = -np.conj(r01)[:, None] * xss + 0.5 * r11[:, None] * np.array([0.0, 1.0, -1j])
    aw = np.einsum("nij,nj->ni", a, w)
    aaw = np.einsum("nij,nj->ni", a, aw)
    # [.]_01 per drive as columns (n, 1), broadcast over the grid
    w1, aw1, aaw1 = (v[:, 1:2] + 1j * v[:, 2:3] for v in (w, aw, aaw))
    tr = np.trace(a, axis1=1, axis2=2)[:, None]
    c1 = 0.5 * (tr * tr - np.einsum("nij,nji->n", a, a)[:, None])
    det = np.linalg.det(a)[:, None]
    s = 1j * TWO_PI * freqs
    num = (w1 * s + (tr * w1 - aw1)) * s + (aaw1 - tr * aw1 + c1 * w1)
    den = ((s + tr) * s + c1) * s + det
    dens = 2.0 * np.real(-num / den) / params.t1
    peak = np.maximum(dens.max(axis=1, keepdims=True), 1e-300)
    dens = np.where((dens < 0) & (dens > -1e-9 * peak), 0.0, dens)
    return dens, np.abs(r01) ** 2 / params.t1, np.real(w1[:, 0]) / params.t1


def qrt_spectrum(params: TlsParams, omega: float, detuning: float, freqs: np.ndarray) -> Spectrum:
    """Steady-state emission spectrum by the regression theorem.

    The mean-subtracted two-time dipole correlation evolves under the
    Bloch generator; its one-sided Fourier transform is the
    generator's resolvent, a rational function of frequency evaluated
    exactly on the grid (`_spectrum_rows`).  Spectral density carries
    the radiative rate so that the total power (incoherent integral
    plus coherent weight) equals the steady population divided by t1.
    """
    freqs = _grid_guard(params, freqs)
    _check_drive(omega, detuning)
    dens, cw, ip = _spectrum_rows(params, np.array([omega], dtype=float), detuning, freqs)
    return Spectrum(freqs, dens[0], float(cw[0]), float(ip[0]))


# Terms of the series in t of the chaotic spectrum where |t| <= 1/4:
# 4^-28 is below rounding, and beyond 1/4 the divided differences lose
# at most 16x to cancellation.
_NEAR_TERMS = 28


def chaotic_spectrum(params: TlsParams, mean_omega: float, freqs: np.ndarray) -> Spectrum:
    """Emission spectrum averaged over chaotic intensity fluctuations, in
    closed form (on resonance).

    With x = drive^2 / mean_omega^2, exponential under the intensity
    law, and s = 2 pi i nu, the resolvent -[(A + s)^-1 w]_01 of
    `_spectrum_rows` at one drive is, on resonance,
    -P(x) / (4 (s - 1/t2) (x + a)^2 (x + a (1 + t))): the Cayley-Hamilton
    numerator with the resonant w, A w and A^2 w (w holds the (x + a)^-2)
    is the cubic P = x^3 + a (4 + 2 t - s t2) x^2 + a^2 (2 - t2/t1) (1 + t) x,
    and det(A + s) is linear in x.  Here a = 1/(mean_omega^2 t1 t2) is
    the saturation pole and t = s (s - 1/t1 - 1/t2) t1 t2.  In u = x/a,
    P / ((x + a)^2 (x + a (1 + t))) = 1 + r2 / (1 + u + t)
    + r1 / ((1 + u) (1 + u + t)) + r0 / ((1 + u)^2 (1 + u + t)), where
    r0, r1 and r2 depend on nu, t1 and t2 alone.  The averages of the
    three fractions are divided differences of e^z E1(z) at z = a (1 + t)
    (`bloch.exp1_scaled_complex`; Abramowitz & Stegun 5.1) and of the
    moments m_n = E[(1 + u)^-n] (`bloch._scaled_moments`).  Where
    |t| <= 1/4, at nu = 0 and its neighbours, the differences would
    cancel, and the fractions with the double and the triple pole are
    instead the series sum_k (-t)^k m_(k+2) and sum_k (-t)^k m_(k+3).
    Nothing is sampled in x.

    The coherent weight is t2/(4 t1^2) (m_1 - m_2), the average of
    |rho01|^2 / t1, and the incoherent power the rest of the total
    0.5 m_2 / (a t1), which is `bloch.chaotic_steady_state` / t1 taken
    from the same moments.  At weak drive the terms of the
    density cancel to O(1/a) of their size, so ~log10(a) digits are
    lost there.
    """
    freqs = _grid_guard(params, freqs)
    _check_drive(mean_omega)
    if mean_omega == 0.0:
        return qrt_spectrum(params, 0.0, 0.0, freqs)
    t1, t2 = params.t1, params.t2
    a = bloch._mean_inverse_saturation(params, mean_omega, 0.0)
    m = bloch._scaled_moments(a, _NEAR_TERMS + 2)[0]
    s = 1j * TWO_PI * freqs
    t = s * (s - 1.0 / t1 - 1.0 / t2) * (t1 * t2)
    q = (2.0 - t2 / t1) * (1.0 + t)
    r2 = 1.0 + t - s * t2
    r1 = 2.0 * s * t2 - 5.0 - 4.0 * t + q
    r0 = 3.0 + 2.0 * t - s * t2 - q
    # E[1 / (1 + u + t)], E[1 / ((1 + u) (1 + u + t))], E[1 / ((1 + u)^2 (1 + u + t))]
    f1 = a * bloch.exp1_scaled_complex(a * (1.0 + t))
    near = np.abs(t) <= 0.25
    with np.errstate(divide="ignore", invalid="ignore"):
        f2 = (m[0] - f1) / t
        f3 = (m[1] - f2) / t
    powers = (-t[near, None]) ** np.arange(_NEAR_TERMS)
    f2[near] = powers @ m[1:-1]
    f3[near] = powers @ m[2:]
    mean = 1.0 + r0 * f3 + r1 * f2 + r2 * f1
    dens = np.maximum(-0.5 / t1 * np.real(mean / (s - 1.0 / t2)), 0.0)
    coherent = t2 / (4.0 * t1 * t1) * (m[0] - m[1])
    total = 0.5 * m[1] / (a * t1)
    return Spectrum(freqs, dens, coherent, total - coherent)


def convolve_lorentzian(spec: Spectrum, fwhm: float) -> Spectrum:
    """Apply a Lorentzian instrument response of the given FWHM [GHz].

    The coherent delta weight is materialized as a Lorentzian line
    centred on nu = 0 and evaluated at the grid's own frequencies, so it
    stays symmetric on a grid with no node at zero; at zero width the
    delta goes into the bin nearest nu = 0.  Kernel columns, and the
    line, are renormalized over the grid so the total power is
    preserved exactly despite the slow Lorentzian tails.
    """
    if not 0.0 <= fwhm < math.inf:
        raise ValueError("fwhm must be finite and >= 0")
    freqs = spec.freqs
    if fwhm == 0.0:
        out = spec.incoherent.copy()
        j0 = int(np.argmin(np.abs(freqs)))
        if spec.coherent_weight:
            out[j0] += spec.coherent_weight / spec.df
        return Spectrum(freqs, out, 0.0, spec.total_power())
    span = freqs[-1] - freqs[0]
    if span < 10.0 * fwhm:
        raise NumericalGuardError(f"grid span {span} GHz must be >= 10 x fwhm ({fwhm} GHz)")
    n = len(freqs)
    df = spec.df
    offsets = np.arange(-(n - 1), n) * df
    half = 0.5 * fwhm
    kern = (half / math.pi) / (half * half + offsets * offsets)
    colsum = np.convolve(np.ones(n), kern, mode="valid")
    out = np.convolve(spec.incoherent / colsum, kern, mode="valid")
    if spec.coherent_weight:
        line = (half / math.pi) / (half * half + freqs * freqs)
        out = out + spec.coherent_weight * line / (line.sum() * df)
    return Spectrum(freqs, np.maximum(out, 0.0), 0.0, spec.total_power())


def _mirrored(lags: np.ndarray, vals: np.ndarray) -> EmissionG2:
    """g2 on lags >= 0 extended to negative lags.  A zero lag is not
    repeated and reads 0: the detection has just emptied the emitter."""
    at_zero = lags[0] == 0.0
    if at_zero:
        vals[0] = 0.0
    back = slice(None, 0 if at_zero else None, -1)
    return EmissionG2(np.concatenate([-lags[back], lags]), np.concatenate([vals[back], vals]))


def _conditional_population(params: TlsParams, omegas: np.ndarray, detuning: float, lags: np.ndarray):
    """rho11 from the ground state on the uniform lag grid (n, len(lags))
    and its steady value (n,), for n drives.

    The state at the first lag is expm(M lags[0]) applied to the ground
    state, and `bloch.orbit` fills the rest with the exact map over one
    lag step, in increment form: two `bloch.expm_increment` maps and
    log2(len(lags)) batched matmuls.
    """
    m = bloch.augmented_generator(params, omegas, detuning)
    n_lags = len(lags)
    x0 = bloch.expm_increment(m, lags[0])[:, :, 3]
    x0[:, 3] += 1.0
    step = bloch.expm_increment(m, (lags[-1] - lags[0]) / max(n_lags - 1, 1))
    x = bloch.orbit(step, x0, n_lags)
    return x[:, 0], _fixed_point(m)[:, 0]


def qrt_g2(params: TlsParams, omega: float, detuning: float, lags: np.ndarray) -> EmissionG2:
    """Emission intensity correlation for constant coherent drive.

    After a detection the emitter is projected to the ground state, so
    g2(tau) is the conditional repopulation divided by its steady
    value; g2(0) = 0 identically.  The repopulation is propagated with
    exact maps of the Bloch equations (`_conditional_population`), so
    lags must be non-negative, ascending and uniformly spaced; the
    returned curve is symmetrized around zero.
    """
    lags, _ = checked_grid(lags, "lags", lower=0.0, uniform=True)
    _check_drive(omega, detuning)
    if omega == 0.0:
        raise ValueError("no emission at zero drive")
    r11, rss = _conditional_population(params, np.array([omega], dtype=float), detuning, lags)
    return _mirrored(lags, np.maximum(r11[0] / rss[0], 0.0))


def chaotic_g2(params: TlsParams, mean_omega: float, lags: np.ndarray) -> EmissionG2:
    """Intensity correlation under quasi-static chaotic drive.

    Pair rates weight each intensity twice, so the average is
    <I(om)^2 g2_om(tau)> / <I(om)>^2 over the exponential intensity
    law.  <I> is `bloch.chaotic_steady_state`, in closed form.  The
    numerator is taken with the composite rule in y = drive / mean
    drive of `bloch.chaotic_mean_transient`: from 4 panels, the count
    doubles until two counts agree to 1e-10 of the largest value,
    at most to the count whose panels each span two periods of the
    undamped Rabi phase mean_omega * y * tau at the largest lag.  The
    count that passes is the one returned, and the convergence is
    exponential: at 1.7 rad/ns on paper-qd, 2 panels are off by 3e-10,
    close enough to pass against 4, and 4 panels agree with a converged
    rule to 2e-14, so the count starts at 4.  Lags must be non-negative,
    ascending and uniformly spaced.  Valid only for lags well below the source
    correlation time `bloch.LAMP_TAU_CORR` (beyond it the drive
    decorrelates and the true curve relaxes to one, which this average
    does not describe).
    """
    lags, _ = checked_grid(lags, "lags", lower=0.0, uniform=True)
    _check_drive(mean_omega)
    if mean_omega == 0.0:
        raise ValueError("no emission at zero mean drive")
    tau_corr = bloch.LAMP_TAU_CORR
    if lags.max() > tau_corr / 5.0:
        warnings.warn(
            f"lags extend to {lags.max()} ns, not small against the source "
            f"correlation time {tau_corr} ns; values there are not quasi-static",
            stacklevel=2,
        )

    def rows(oms):
        r11, rss = _conditional_population(params, oms, 0.0, lags)
        # intensity rss times the conditional population
        return rss[:, None] * np.maximum(r11, 0.0)

    resolved = math.ceil(mean_omega * lags[-1] * bloch._Y_SPAN / (4.0 * math.pi))
    # the orbits behind each row hold 4 coordinates per lag
    avg = bloch._chaotic_average(rows, mean_omega, 4, 1e-10, 4 * len(lags), resolved)
    return _mirrored(lags, np.maximum(avg, 0.0) / bloch.chaotic_steady_state(params, mean_omega) ** 2)


def blinking_envelope(g2: EmissionG2, on_fraction: float, tau_blink: float) -> EmissionG2:
    """Multiply by the two-state (on/off) telegraph bunching factor
    1 + ((1-beta)/beta) exp(-|tau|/tau_blink)."""
    if not 0.0 < on_fraction <= 1.0:
        raise ValueError("on_fraction must be in (0, 1]")
    if not tau_blink > 0:
        raise ValueError("tau_blink must be positive")
    factor = 1.0 + (1.0 - on_fraction) / on_fraction * np.exp(-np.abs(g2.lags) / tau_blink)
    return EmissionG2(g2.lags.copy(), g2.values * factor)


def convolve_gaussian(g2: EmissionG2, fwhm: float) -> EmissionG2:
    """Smear a correlation curve with a Gaussian detector response.

    Kernel rows are renormalized over the grid, so a constant curve
    stays exactly constant and symmetric input stays symmetric.
    """
    lags, step = checked_grid(g2.lags, "lags", 2, uniform=True)
    if not 0.0 <= fwhm < math.inf:
        raise ValueError("fwhm must be finite and >= 0")
    if fwhm == 0.0:
        return EmissionG2(lags.copy(), g2.values.copy())
    if step > fwhm / 5.0:
        raise NumericalGuardError(f"lag grid step {step} ns must be <= fwhm/5 ({fwhm/5.0} ns)")
    n = len(lags)
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = min(n - 1, math.ceil(12.0 * sigma / step))  # beyond 12 sigma the kernel is below exp(-72)
    kern = np.exp(-0.5 * (np.arange(-half, half + 1) * step / sigma) ** 2)
    rowsum = np.convolve(np.ones(n), kern)[half : half + n]
    out = np.convolve(g2.values, kern)[half : half + n] / rowsum
    return EmissionG2(lags.copy(), np.maximum(out, 0.0))
