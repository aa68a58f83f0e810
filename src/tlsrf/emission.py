"""Emission observables of the driven emitter.

The power spectrum and the intensity correlation follow from two-time
averages of the dipole operators, which the regression theorem reduces
to evolutions under the Bloch generator `bloch.augmented_generator`.
The spectrum is the generator's resolvent, a rational function of
frequency evaluated on the grid; g2 is propagated over the uniform lag
grid by exact maps expm(M dtau).  Neither needs an eigendecomposition,
and both kernels take an array of drives, so chaotic drive (a
Gauss-Laguerre average over the exponential intensity law) runs them
on chunks of nodes.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import bloch
from .core import NumericalGuardError, QuadratureError, TlsParams, TWO_PI, write_csv


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
        f = np.asarray(self.freqs, dtype=float)
        if len(f) < 3:
            raise ValueError("frequency grid too short")
        df = np.diff(f)
        if not np.allclose(df, df[0], rtol=1e-9, atol=1e-12):
            raise ValueError("frequency grid must be uniform")
        if np.any(np.asarray(self.incoherent) < 0):
            raise ValueError("incoherent spectrum must be non-negative")

    @property
    def df(self) -> float:
        return float(self.freqs[1] - self.freqs[0])

    def total_power(self) -> float:
        return self.incoherent_power + self.coherent_weight

    def to_csv(self, path, after_irf: "Spectrum | None" = None):
        """Write `freq_ghz,incoherent,total_after_irf`; the last column
        is empty unless a convolved companion spectrum is given."""
        total = after_irf.incoherent if after_irf is not None else None
        return write_csv(path, "freq_ghz,incoherent,total_after_irf", [self.freqs, self.incoherent, total])


@dataclass
class EmissionG2:
    """Normalized intensity correlation on a lag grid [ns]."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.lags) <= 0):
            raise ValueError("lags must be strictly ascending")
        if np.any(np.asarray(self.values) < 0):
            raise ValueError("g2 values must be >= 0")

    def to_csv(self, path):
        return write_csv(path, "lag_ns,g2", [self.lags, self.values])


# (rho11, u, v, 1) -> (rho11, rho01, rho10, 1) with rho01 = u + i v, and back
_TO_DIPOLE = np.array([[1, 0, 0, 0], [0, 1, 1j, 0], [0, 1, -1j, 0], [0, 0, 0, 1]])
_FROM_DIPOLE = np.array([[1, 0, 0, 0], [0, 0.5, 0.5, 0], [0, -0.5j, 0.5j, 0], [0, 0, 0, 1]])


def regression_generator(params: TlsParams, omega, detuning: float = 0.0):
    """Complex 3x3 generator for (M11, M01, M10) of a traceless-shifted
    operator under the master equation, plus the trace coupling vector:
    the Bloch generator in the dipole basis.  A scalar drive gives
    shapes (3, 3) and (3,); an array of n drives (n, 3, 3) and (n, 3)."""
    m = bloch.augmented_generator(params, omega, detuning)
    m = _TO_DIPOLE @ m @ _FROM_DIPOLE
    if np.ndim(omega) == 0:
        m = m[0]
    return m[..., :3, :3], m[..., :3, 3]


def _fixed_point(m: np.ndarray) -> np.ndarray:
    """Steady Bloch vector (n, 3) of a stack of augmented generators."""
    return -np.linalg.solve(m[:, :3, :3], m[:, :3, 3:])[..., 0]


def _spectrum_rows(params: TlsParams, omegas: np.ndarray, detuning: float, freqs: np.ndarray):
    """Incoherent density (n, len(freqs)), coherent weight (n,) and
    incoherent power (n,) for n drives.

    With w = y0 - yfix the mean-subtracted dipole state at zero lag,
    the one-sided transform at s = 2 pi i nu is -[(G + s)^-1 w]_1, and
    by Cayley-Hamilton (G + s)^-1 = (s^2 - s (G - tr G) + G^2 - tr G G
    + c1) / (s^3 + tr G s^2 + c1 s + det G), c1 = (tr^2 G - tr G^2)/2.
    """
    df = freqs[1] - freqs[0]
    linewidth = (2.0 / params.t2) / TWO_PI
    if df > linewidth / 4.0:
        raise NumericalGuardError(f"grid spacing {df} GHz cannot resolve the linewidth {linewidth:.4f} GHz")
    xss = _fixed_point(bloch.augmented_generator(params, omegas, detuning))
    r11 = xss[:, 0]
    r01 = xss[:, 1] + 1j * xss[:, 2]
    g, g0 = regression_generator(params, omegas, detuning)
    s_tr = np.conj(r01)  # trace of sigma_minus . rho_ss
    w = np.linalg.solve(g, (s_tr[:, None] * g0)[..., None])  # -yfix, (n, 3, 1)
    w[:, 1, 0] += r11
    gw = g @ w
    ggw = g @ gw
    # per-drive columns (n, 1), broadcast over the grid
    w1, gw1, ggw1 = w[:, 1], gw[:, 1], ggw[:, 1]
    tr = np.trace(g, axis1=1, axis2=2)[:, None]
    c1 = 0.5 * (tr * tr - np.einsum("nij,nji->n", g, g)[:, None])
    det = np.linalg.det(g)[:, None]
    s = 1j * TWO_PI * freqs
    num = (w1 * s + (tr * w1 - gw1)) * s + (ggw1 - tr * gw1 + c1 * w1)
    den = ((s + tr) * s + c1) * s + det
    dens = 2.0 * np.real(-num / den) / params.t1
    peak = np.maximum(dens.max(axis=1, keepdims=True), 1e-300)
    dens = np.where((dens < 0) & (dens > -1e-9 * peak), 0.0, dens)
    return dens, np.abs(r01) ** 2 / params.t1, np.real(w1[:, 0]) / params.t1


def qrt_spectrum(params: TlsParams, omega: float, detuning: float, freqs: np.ndarray) -> Spectrum:
    """Steady-state emission spectrum by the regression theorem.

    The mean-subtracted two-time dipole correlation evolves under the
    regression generator; its one-sided Fourier transform is the
    generator's resolvent, a rational function of frequency evaluated
    exactly on the grid (`_spectrum_rows`).  Spectral density carries
    the radiative rate so that the total power (incoherent integral
    plus coherent weight) equals the steady population divided by t1.
    """
    freqs = np.asarray(freqs, dtype=float)
    dens, cw, ip = _spectrum_rows(params, np.array([omega], dtype=float), detuning, freqs)
    return Spectrum(freqs, dens[0], float(cw[0]), float(ip[0]))


# Laguerre nodes per kernel call: bounds the (nodes, grid) arrays.
_NODE_CHUNK = 32


@functools.lru_cache(maxsize=None)
def _laguerre_nodes(order: int):
    # imported on first use, to keep it out of `import tlsrf`
    from scipy.special import roots_laguerre

    x, w = roots_laguerre(order)
    keep = w > 0.0
    return x[keep], w[keep]


def _chaotic_average(f, mean_omega: float, order: int, rtol: float) -> np.ndarray:
    """Gauss-Laguerre expectation of f over the exponential intensity
    law, where f maps an array of drives to one row per drive.

    The average is taken at order and at 2*order; QuadratureError is
    raised when the two differ anywhere by more than rtol times the
    largest magnitude of the 2*order result.
    """

    def run(n):
        xs, ws = _laguerre_nodes(n)
        oms = np.sqrt(xs) * mean_omega
        chunks = [slice(i, i + _NODE_CHUNK) for i in range(0, len(xs), _NODE_CHUNK)]
        return sum(ws[c] @ f(oms[c]) for c in chunks)

    result, refined = run(order), run(2 * order)
    scale = float(np.max(np.abs(refined))) or 1.0
    worst = float(np.max(np.abs(result - refined)))
    if worst > rtol * scale:
        raise QuadratureError(
            f"Gauss-Laguerre average not converged at order {order} "
            f"(vs {2*order}: {worst/scale:.2e} relative)"
        )
    return result


def chaotic_spectrum(params: TlsParams, mean_omega: float, freqs: np.ndarray, order: int = 96) -> Spectrum:
    """Emission spectrum averaged over chaotic intensity fluctuations."""
    freqs = np.asarray(freqs, dtype=float)
    if mean_omega == 0.0:
        return qrt_spectrum(params, 0.0, 0.0, freqs)

    def rows(oms):
        dens, cw, ip = _spectrum_rows(params, oms, 0.0, freqs)
        return np.column_stack([dens, cw, ip])

    avg = _chaotic_average(rows, mean_omega, order, rtol=1e-4)
    return Spectrum(freqs, np.maximum(avg[:-2], 0.0), float(avg[-2]), float(avg[-1]))


def convolve_lorentzian(spec: Spectrum, fwhm: float) -> Spectrum:
    """Apply a Lorentzian instrument response of the given FWHM [GHz].

    The coherent delta weight is materialized as a Lorentzian line.
    Kernel columns are renormalized over the grid so the total power is
    preserved exactly despite the slow Lorentzian tails.
    """
    if fwhm < 0:
        raise ValueError("fwhm must be >= 0")
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
        j0 = int(np.argmin(np.abs(freqs)))
        col = kern[n - 1 - j0 : 2 * n - 1 - j0]
        out = out + spec.coherent_weight * col / (colsum[j0] * df)
    return Spectrum(freqs, np.maximum(out, 0.0), 0.0, spec.total_power())


def _mirrored(lags: np.ndarray, vals: np.ndarray) -> EmissionG2:
    """g2 on lags >= 0 extended to negative lags.  A zero lag is not
    repeated and reads 0: the detection has just emptied the emitter."""
    at_zero = lags[0] == 0.0
    if at_zero:
        vals[0] = 0.0
    back = slice(None, 0 if at_zero else None, -1)
    return EmissionG2(np.concatenate([-lags[back], lags]), np.concatenate([vals[back], vals]))


def _uniform_lags(lags) -> np.ndarray:
    lags = np.asarray(lags, dtype=float)
    if np.any(lags < 0):
        raise ValueError("lags must be >= 0")
    steps = np.diff(lags)
    if steps.size and not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("lags must form a uniform grid")
    return lags


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
    x = bloch.orbit(step, x0, n_lags, increments=True)
    return x[:, 0], _fixed_point(m)[:, 0]


def qrt_g2(params: TlsParams, omega: float, detuning: float, lags: np.ndarray) -> EmissionG2:
    """Emission intensity correlation for constant coherent drive.

    After a detection the emitter is projected to the ground state, so
    g2(tau) is the conditional repopulation divided by its steady
    value; g2(0) = 0 identically.  The repopulation is propagated with
    exact maps of the Bloch equations (`_conditional_population`), so
    lags must be non-negative and uniformly spaced; the returned curve
    is symmetrized around zero.
    """
    lags = _uniform_lags(lags)
    if omega <= 0:
        raise ValueError("no emission at zero drive")
    r11, rss = _conditional_population(params, np.array([omega], dtype=float), detuning, lags)
    return _mirrored(lags, np.maximum(r11[0] / rss[0], 0.0))


def chaotic_g2(
    params: TlsParams,
    mean_omega: float,
    lags: np.ndarray,
    order: int = 96,
    tau_corr: float = bloch.LAMP_TAU_CORR,
) -> EmissionG2:
    """Intensity correlation under quasi-static chaotic drive.

    Pair rates weight each intensity twice, so the average is
    <I(om)^2 g2_om(tau)> / <I(om)>^2 over the exponential intensity
    law.  Lags must be non-negative and uniformly spaced.  Valid only
    for lags well below the source correlation time tau_corr (beyond it
    the drive decorrelates and the true curve relaxes to one, which
    this average does not describe).
    """
    lags = _uniform_lags(lags)
    if mean_omega <= 0:
        raise ValueError("no emission at zero mean drive")
    if lags.max() > tau_corr / 5.0:
        warnings.warn(
            f"lags extend to {lags.max()} ns, not small against the source "
            f"correlation time {tau_corr} ns; values there are not quasi-static",
            stacklevel=2,
        )

    def rows(oms):
        r11, rss = _conditional_population(params, oms, 0.0, lags)
        # intensity rss times the conditional population, then intensity
        return np.column_stack([rss[:, None] * np.maximum(r11, 0.0), rss])

    avg = _chaotic_average(rows, mean_omega, order, rtol=1e-4)
    return _mirrored(lags, np.maximum(avg[:-1], 0.0) / avg[-1] ** 2)


def blinking_envelope(g2: EmissionG2, on_fraction: float, tau_blink: float) -> EmissionG2:
    """Multiply by the two-state (on/off) telegraph bunching factor
    1 + ((1-beta)/beta) exp(-|tau|/tau_blink)."""
    if not 0.0 < on_fraction <= 1.0:
        raise ValueError("on_fraction must be in (0, 1]")
    if tau_blink <= 0:
        raise ValueError("tau_blink must be positive")
    factor = 1.0 + (1.0 - on_fraction) / on_fraction * np.exp(-np.abs(g2.lags) / tau_blink)
    return EmissionG2(g2.lags.copy(), g2.values * factor)


def convolve_gaussian(g2: EmissionG2, fwhm: float) -> EmissionG2:
    """Smear a correlation curve with a Gaussian detector response.

    Kernel rows are renormalized over the grid, so a constant curve
    stays exactly constant and symmetric input stays symmetric.
    """
    if fwhm < 0:
        raise ValueError("fwhm must be >= 0")
    if fwhm == 0.0:
        return EmissionG2(g2.lags.copy(), g2.values.copy())
    lags = g2.lags
    step = lags[1] - lags[0]
    if not np.allclose(np.diff(lags), step, rtol=1e-9, atol=1e-12):
        raise NumericalGuardError("convolution requires a uniform lag grid")
    if step > fwhm / 5.0:
        raise NumericalGuardError(f"lag grid step {step} ns must be <= fwhm/5 ({fwhm/5.0} ns)")
    n = len(lags)
    sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    half = min(n - 1, math.ceil(12.0 * sigma / step))  # beyond 12 sigma the kernel is below exp(-72)
    kern = np.exp(-0.5 * (np.arange(-half, half + 1) * step / sigma) ** 2)
    rowsum = np.convolve(np.ones(n), kern)[half : half + n]
    out = np.convolve(g2.values, kern)[half : half + n] / rowsum
    return EmissionG2(lags.copy(), np.maximum(out, 0.0))
