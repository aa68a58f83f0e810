"""Emission observables of the driven emitter.

The power spectrum and the intensity correlation follow from two-time
averages of the dipole operators, which the regression theorem reduces
to evolutions under the same generator as the single-time Bloch
equations.  Both are evaluated through the eigendecomposition of that
3x3 generator, so lag and frequency grids are computed exactly instead
of being stepped; the RK4 integrator serves as an independent check.

Chaotic drive replaces a fixed Rabi frequency with a Gauss-Laguerre
average over the exponential intensity distribution.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_laguerre

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


def regression_generator(params: TlsParams, omega: float, detuning: float = 0.0):
    """Complex 3x3 generator for (M11, M01, M10) of a traceless-shifted
    operator under the master equation, plus the trace coupling vector."""
    g = np.array(
        [
            [-1.0 / params.t1, -0.5j * omega, 0.5j * omega],
            [-1j * omega, -(1j * detuning + 1.0 / params.t2), 0.0],
            [1j * omega, 0.0, (1j * detuning - 1.0 / params.t2)],
        ],
        dtype=complex,
    )
    g0 = np.array([0.0, 0.5j * omega, -0.5j * omega], dtype=complex)
    return g, g0


def bloch_matrix(params: TlsParams, omega: float, detuning: float = 0.0):
    """Real affine form x' = A x + b for x = (rho11, Re rho01, Im rho01)."""
    a = np.array(
        [
            [-1.0 / params.t1, 0.0, omega],
            [0.0, -1.0 / params.t2, detuning],
            [-omega, -detuning, -1.0 / params.t2],
        ]
    )
    b = np.array([0.0, 0.0, 0.5 * omega])
    return a, b


def _linewidth_ghz(params: TlsParams) -> float:
    return (2.0 / params.t2) / TWO_PI


def qrt_spectrum(params: TlsParams, omega: float, detuning: float, freqs: np.ndarray) -> Spectrum:
    """Steady-state emission spectrum by the regression theorem.

    The two-time dipole correlation, mean subtracted, is a sum of three
    complex exponentials obtained from the generator eigensystem; its
    one-sided Fourier transform is evaluated in closed form on the
    grid.  Spectral density carries the radiative rate so that the
    total power (incoherent integral plus coherent weight) equals the
    steady population divided by t1.
    """
    freqs = np.asarray(freqs, dtype=float)
    df = freqs[1] - freqs[0]
    if df > _linewidth_ghz(params) / 4.0:
        raise NumericalGuardError(
            f"grid spacing {df} GHz cannot resolve the linewidth {_linewidth_ghz(params):.4f} GHz"
        )
    ss = bloch.steady_state(params, omega, detuning)
    r11 = ss.rho11
    r01 = complex(ss.rho01_re, ss.rho01_im)
    coherent_weight = abs(r01) ** 2 / params.t1
    if omega == 0.0:
        return Spectrum(freqs, np.zeros_like(freqs), 0.0, 0.0)
    g, g0 = regression_generator(params, omega, detuning)
    s_tr = np.conj(r01)  # trace of sigma_minus . rho_ss
    y0 = np.array([0.0, r11, 0.0], dtype=complex)
    yfix = -np.linalg.solve(g, s_tr * g0)
    lam, vec = np.linalg.eig(g)
    coef = vec[1, :] * np.linalg.solve(vec, y0 - yfix)
    # one-sided FT of sum_k coef_k exp(lam_k tau) against exp(i 2 pi nu tau)
    dens = np.zeros_like(freqs)
    for ck, lk in zip(coef, lam):
        dens += 2.0 * np.real(-ck / (lk + 1j * TWO_PI * freqs))
    dens /= params.t1
    peak = dens.max() if dens.size else 0.0
    dens = np.where((dens < 0) & (dens > -1e-9 * max(peak, 1e-300)), 0.0, dens)
    incoherent_power = float(np.real(coef.sum())) / params.t1
    return Spectrum(freqs, dens, coherent_weight, incoherent_power)


_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _laguerre_nodes(order: int):
    if order not in _NODE_CACHE:
        x, w = roots_laguerre(order)
        keep = w > 0.0
        _NODE_CACHE[order] = (x[keep], w[keep])
    return _NODE_CACHE[order]


def _chaotic_average(evaluate, mean_omega: float, order: int, check: bool, rtol: float):
    """Gauss-Laguerre expectation of evaluate(omega) over the exponential
    intensity law, with a doubled-order convergence check."""

    def run(n):
        xs, ws = _laguerre_nodes(n)
        acc = None
        for x, w in zip(xs, ws):
            val = evaluate(math.sqrt(x) * mean_omega)
            acc = [w * v for v in val] if acc is None else [a + w * v for a, v in zip(acc, val)]
        return acc

    result = run(order)
    if check:
        refined = run(2 * order)
        scale = max(float(np.max(np.abs(np.asarray(b)))) for b in refined) or 1.0
        worst = max(float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) for a, b in zip(result, refined))
        if worst > rtol * scale:
            raise QuadratureError(
                f"Gauss-Laguerre average not converged at order {order} "
                f"(vs {2*order}: {worst/scale:.2e} relative)"
            )
    return result


def chaotic_spectrum(
    params: TlsParams,
    mean_omega: float,
    freqs: np.ndarray,
    order: int = 96,
    check: bool = True,
) -> Spectrum:
    """Emission spectrum averaged over chaotic intensity fluctuations."""
    freqs = np.asarray(freqs, dtype=float)
    if mean_omega == 0.0:
        return qrt_spectrum(params, 0.0, 0.0, freqs)

    def evaluate(om):
        sp = qrt_spectrum(params, om, 0.0, freqs)
        return sp.incoherent, np.array([sp.coherent_weight]), np.array([sp.incoherent_power])

    dens, cw, ip = _chaotic_average(evaluate, mean_omega, order, check, rtol=1e-4)
    dens = np.maximum(dens, 0.0)
    return Spectrum(freqs, dens, float(cw[0]), float(ip[0]))


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


def _symmetrize(lags: np.ndarray, values: np.ndarray):
    lags = np.asarray(lags, dtype=float)
    if lags[0] == 0.0:
        full_l = np.concatenate([-lags[:0:-1], lags])
        full_v = np.concatenate([values[:0:-1], values])
    else:
        full_l = np.concatenate([-lags[::-1], lags])
        full_v = np.concatenate([values[::-1], values])
    return full_l, full_v


def _conditional_population(params: TlsParams, omega: float, detuning: float, lags: np.ndarray):
    """rho11(tau) starting from the ground state, via the eigensystem of
    the affine Bloch generator (exact for constant drive)."""
    a, b = bloch_matrix(params, omega, detuning)
    xss = -np.linalg.solve(a, b)
    lam, vec = np.linalg.eig(a.astype(complex))
    coef = vec[0, :] * np.linalg.solve(vec, (-xss).astype(complex))
    r11 = xss[0] + np.real(coef @ np.exp(np.outer(lam, lags)))
    return r11, xss[0]


def qrt_g2(
    params: TlsParams,
    omega: float,
    detuning: float,
    lags: np.ndarray,
    method: str = "eig",
    dt: float | None = None,
) -> EmissionG2:
    """Emission intensity correlation for constant coherent drive.

    After a detection the emitter is projected to the ground state, so
    g2(tau) is the conditional repopulation divided by its steady
    value; g2(0) = 0 identically.  Lags must be non-negative; the
    returned curve is symmetrized around zero.  method="rk4" integrates
    the Bloch equations instead of using the eigensystem (cross-check
    path; requires a uniform lag grid).
    """
    lags = np.asarray(lags, dtype=float)
    if np.any(lags < 0):
        raise ValueError("lags must be >= 0")
    if omega <= 0:
        raise ValueError("no emission at zero drive")
    if method == "eig":
        r11, rss = _conditional_population(params, omega, detuning, lags)
    elif method == "rk4":
        steps = np.diff(lags)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise ValueError("rk4 method requires a uniform lag grid")
        lag_dt = steps[0]
        limit = min(params.t2, TWO_PI / omega) / 50.0 if dt is None else dt
        sub = max(1, int(math.ceil(lag_dt / limit - 1e-12)))
        fine = lag_dt / sub
        from .core import DrivePulse

        trace = bloch.integrate(params, DrivePulse.cw(omega, detuning), lags[-1] + fine, fine)
        idx = np.round(lags / fine).astype(int)
        r11 = trace.rho11[idx]
        rss = bloch.steady_state_population(params, omega, detuning)
    else:
        raise ValueError(f"unknown method {method!r}")
    vals = np.maximum(r11 / rss, 0.0)
    if lags[0] == 0.0:
        vals[0] = 0.0
    full_l, full_v = _symmetrize(lags, vals)
    return EmissionG2(full_l, full_v)


def chaotic_g2(
    params: TlsParams,
    mean_omega: float,
    lags: np.ndarray,
    order: int = 96,
    check: bool = True,
    tau_corr: float = bloch.LAMP_TAU_CORR,
) -> EmissionG2:
    """Intensity correlation under quasi-static chaotic drive.

    Pair rates weight each intensity twice, so the average is
    <I(om)^2 g2_om(tau)> / <I(om)>^2 over the exponential intensity
    law.  Valid only for lags well below the source correlation time
    tau_corr (beyond it the drive decorrelates and the true curve
    relaxes to one, which this average does not describe).
    """
    lags = np.asarray(lags, dtype=float)
    if np.any(lags < 0):
        raise ValueError("lags must be >= 0")
    if mean_omega <= 0:
        raise ValueError("no emission at zero mean drive")
    if lags.max() > tau_corr / 5.0:
        warnings.warn(
            f"lags extend to {lags.max()} ns, not small against the source "
            f"correlation time {tau_corr} ns; values there are not quasi-static",
            stacklevel=2,
        )

    def evaluate(om):
        if om == 0.0:
            return np.zeros_like(lags), np.array([0.0])
        r11, rss = _conditional_population(params, om, 0.0, lags)
        intensity = rss
        return intensity * np.maximum(r11, 0.0), np.array([intensity])

    num, den = _chaotic_average(evaluate, mean_omega, order, check, rtol=1e-4)
    vals = np.maximum(num, 0.0) / float(den[0]) ** 2
    if lags[0] == 0.0:
        vals[0] = 0.0
    full_l, full_v = _symmetrize(lags, vals)
    return EmissionG2(full_l, full_v)


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
    offsets = np.arange(-(n - 1), n) * step
    kern = np.exp(-0.5 * (offsets / sigma) ** 2)
    rowsum = np.convolve(np.ones(n), kern, mode="valid")
    out = np.convolve(g2.values, kern, mode="valid") / rowsum
    return EmissionG2(lags.copy(), np.maximum(out, 0.0))
