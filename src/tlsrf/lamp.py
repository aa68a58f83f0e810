"""Synthetic chaotic light source with a Gaussian spectrum.

The field is a circular complex Gaussian process built by spectral
filtering of white noise, the numerical analogue of a laser beam
scattered off a moving diffuser.  It is parameterized by the
correlation time tau_corr of the intensity autocorrelation fit
1 + A exp(-pi (tau/tau_corr)^2), i.e. |g1(tau)|^2 = exp(-pi
(tau/tau_corr)^2) for the ideal source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import FitError, NumericalGuardError, checked_grid, step_ratio


@dataclass
class FieldTrace:
    """Complex field samples on a uniform time grid."""

    dt: float
    amplitudes: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if len(self.amplitudes) < 2:
            raise ValueError("need at least two samples")

    @property
    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class CorrelationCurve:
    """Correlation values against time lag [ns]."""

    lags: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        checked_grid(self.lags, "lags")
        if np.shape(self.values) != np.shape(self.lags):
            raise ValueError("values and lags must have equal length")
        if not np.all(np.asarray(self.values) >= 0):
            raise ValueError("correlation values must be >= 0")


def _fast_len(n: int) -> int:
    """The smallest 11-smooth integer >= n: the next length at which a
    complex FFT factors into radices of at most 11."""
    best = 1 << (n - 1).bit_length()
    p11 = 1
    while p11 < best:
        p7 = p11
        while p7 < best:
            p5 = p7
            while p5 < best:
                p3 = p5
                while p3 < best:
                    # the least p3 * 2^k >= n
                    best = min(best, p3 << ((n - 1) // p3).bit_length())
                    p3 *= 3
                p5 *= 5
            p7 *= 7
        p11 *= 11
    return best


def synthesize_field(tau_corr: float, dt: float, n: int, rng: np.random.Generator) -> FieldTrace:
    """Generate a chaotic field with |g1(tau)|^2 = exp(-pi (tau/tau_corr)^2).

    White complex Gaussian noise is shaped in the frequency domain by
    the square root of the Gaussian power spectral density that is the
    Fourier pair of the target g1; the mean intensity is one by
    construction.  The synthesis is periodic, so the first 5 tau_corr
    of samples are discarded to remove wrap-around correlation, and it
    runs on the next FFT-friendly length, whose surplus tail is dropped.

    The spectrum is built in place in two buffers of that length, one
    complex (the noise, then the shaped spectrum, then the field) and
    one real (each normal draw in turn, then the frequencies, then the
    spectral amplitude); the real one is freed before the inverse
    transform, which overwrites the complex one.  The returned trace
    is a view into the complex buffer.
    """
    if not (0 < tau_corr < math.inf and 0 < dt < math.inf):
        raise ValueError("tau_corr and dt must be positive and finite")
    if dt > tau_corr / 20.0:
        raise NumericalGuardError(f"dt={dt} must be <= tau_corr/20 ({tau_corr/20.0})")
    if n * dt < 50.0 * tau_corr:
        raise NumericalGuardError("trace must span at least 50 correlation times")
    discard = int(math.ceil(5.0 * tau_corr / dt))
    total = _fast_len(n + discard)
    buf = np.empty(total, dtype=complex)
    tmp = np.empty(total)
    # white noise (re + i im) / sqrt(2), the real draws first
    rng.standard_normal(out=tmp)
    buf.real = tmp
    rng.standard_normal(out=tmp)
    buf.imag = tmp
    buf *= 1.0 / math.sqrt(2.0)
    # the frequencies of np.fft.fftfreq(total, dt)
    half = (total - 1) // 2 + 1
    tmp[:half] = np.arange(half)
    tmp[half:] = np.arange(-(total // 2), 0)
    tmp *= 1.0 / (total * dt)
    # PSD of g1(tau) = exp(-pi tau^2 / (2 tau_corr^2)):
    #   S(nu) = tau_corr sqrt(2) exp(-2 pi nu^2 tau_corr^2),
    # and the amplitude sqrt(S total / dt) that shapes the noise
    tmp *= tau_corr
    np.square(tmp, out=tmp)
    tmp *= -2.0 * math.pi
    np.exp(tmp, out=tmp)
    tmp *= tau_corr * math.sqrt(2.0)
    tmp *= total
    tmp /= dt
    np.sqrt(tmp, out=tmp)
    buf *= tmp
    del tmp
    np.fft.ifft(buf, out=buf)
    return FieldTrace(dt, buf[discard : discard + n])


def _lag_sums(x: np.ndarray, y: np.ndarray, n_lags: int) -> np.ndarray:
    """sum_i x[i] y[i + m] for each lag m < n_lags."""
    n = len(y)
    return np.array([np.dot(x[: n - m], y[m:]) for m in range(n_lags)])


def _lag_count(trace: FieldTrace, max_lag: float) -> int:
    """Lag 0 and the whole steps of trace.dt that fit max_lag
    (`core.step_ratio`): the last lag is max_lag or short of it."""
    if not 0.0 <= max_lag < math.inf:
        raise ValueError(f"max_lag must be finite and >= 0, got {max_lag}")
    n_lags = math.floor(step_ratio(max_lag, trace.dt)) + 1
    if n_lags > len(trace.amplitudes) // 10:
        raise NumericalGuardError("max_lag must not exceed a tenth of the trace length")
    return n_lags


def estimate_g1(trace: FieldTrace, max_lag: float) -> CorrelationCurve:
    """|g1| by the biased autocorrelation estimator on the lags of
    `_lag_count`, up to max_lag; |g1(0)| = 1 exactly."""
    n_lags = _lag_count(trace, max_lag)
    z = trace.amplitudes
    corr = _lag_sums(np.conj(z), z, n_lags) / len(z)
    g1 = np.abs(corr) / np.abs(corr[0])
    g1[0] = 1.0
    return CorrelationCurve(np.arange(n_lags) * trace.dt, g1)


def estimate_g2(trace: FieldTrace, max_lag: float) -> CorrelationCurve:
    """Classical intensity correlation <I(0) I(tau)> / <I>^2 on the lags
    of `_lag_count`, up to max_lag."""
    n_lags = _lag_count(trace, max_lag)
    ii = trace.intensity
    out = _lag_sums(ii, ii, n_lags) / (len(ii) - np.arange(n_lags))
    g2 = out / np.mean(ii) ** 2
    return CorrelationCurve(np.arange(n_lags) * trace.dt, g2)


@dataclass(frozen=True)
class GaussianG2Fit:
    amplitude: float
    tau_corr: float
    amplitude_err: float
    tau_corr_err: float
    identifiable: bool


# Gauss-Newton stops when every step is below this fraction of its
# parameter (curve_fit's default xtol), or fails after _FIT_STEPS steps
_FIT_XTOL = 1.5e-8
_FIT_STEPS = 100


def _gaussian_residual(lags: np.ndarray, vals: np.ndarray, p: np.ndarray):
    """Residual vals - model and the model's Jacobian in (A, tau_corr),
    [g, A g 2 pi tau^2 / tau_corr^3] with g = exp(-pi (tau/tau_corr)^2)."""
    amp, tc = p
    x = lags / tc
    g = np.exp(-math.pi * x * x)
    jac = np.column_stack([g, amp * g * (2.0 * math.pi) * x * x / tc])
    return vals - 1.0 - amp * g, jac


def fit_gaussian_g2(curve: CorrelationCurve) -> GaussianG2Fit:
    """Least-squares fit of 1 + A exp(-pi (tau/tau_corr)^2).

    Gauss-Newton on (A, tau_corr) from the half-decay guess, each step
    halved while it raises the squared residual, stopped when no
    parameter moves by more than 1.5e-8 of itself.  The errors are the
    square roots of the diagonal of (R^T R)^-1 SSR / (n - 2), with R
    from the QR of the Jacobian at the optimum; they are inf when R is
    singular, as for a flat curve.  A flat curve (A indistinguishable
    from zero) is reported with identifiable=False since tau_corr then
    carries no information.
    """
    lags, _ = checked_grid(curve.lags, "lags", 3)
    vals = np.asarray(curve.values, dtype=float)
    a0 = max(vals[0] - 1.0, 1e-6)
    below = np.flatnonzero(vals - 1.0 < 0.5 * a0)
    span_error = "curve must span at least three correlation-time guesses"
    if len(below) == 0:
        # never falls to half its zero-lag excess within the lags
        raise NumericalGuardError(span_error)
    i = below[0]
    if i > 0:
        # interpolate the half-decay crossing, then invert the model;
        # a curve must cover three correlation-time guesses to pin tau
        frac = (vals[i - 1] - 1.0 - 0.5 * a0) / max(vals[i - 1] - vals[i], 1e-300)
        tau_half = lags[i - 1] + frac * (lags[i] - lags[i - 1])
        tc0 = max(tau_half / math.sqrt(math.log(2.0) / math.pi), lags[1])
        if lags[-1] < 2.85 * tc0:
            raise NumericalGuardError(span_error)
    else:
        # already flat at the first lag: degenerate, fit still reports
        tc0 = lags[-1] / 4.0
    p = np.array([a0, tc0])
    resid, jac = _gaussian_residual(lags, vals, p)
    for _ in range(_FIT_STEPS):
        step = np.linalg.lstsq(jac, resid, rcond=None)[0]
        ssr = resid @ resid
        while True:
            # halve a step that raises the squared residual; a full
            # step can fall into a two-cycle on a near-flat curve
            trial = p + step
            converged = np.all(np.abs(step) <= _FIT_XTOL * np.abs(trial))
            trial_resid, trial_jac = _gaussian_residual(lags, vals, trial)
            if converged or trial_resid @ trial_resid <= ssr:
                break
            step *= 0.5
        p, resid, jac = trial, trial_resid, trial_jac
        if converged:
            break
    else:
        far = np.abs(vals - 1.0).max()
        raise FitError(f"correlation fit did not converge (max residual from flat: {far:.3g})")
    dof = len(vals) - 2
    r = np.linalg.qr(jac, mode="r")
    try:
        cov = np.linalg.inv(r.T @ r) * (resid @ resid / dof) if dof > 0 else None
    except np.linalg.LinAlgError:
        cov = None
    perr = np.full(2, math.inf) if cov is None else np.sqrt(np.abs(np.diag(cov)))
    amp, tc = float(p[0]), float(abs(p[1]))
    amp_err, tc_err = float(perr[0]), float(perr[1])
    identifiable = amp > 5.0 * max(amp_err, 1e-12) and amp > 1e-3
    return GaussianG2Fit(amp, tc, amp_err, tc_err, identifiable)

