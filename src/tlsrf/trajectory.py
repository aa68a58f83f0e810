"""Photon time-tag Monte Carlo and coincidence analysis.

Trajectories are unraveled with two jump channels: a radiative jump at
rate 1/t1 (resetting the emitter to the ground state and producing a
tag) and a dephasing jump at rate 2*gamma_phi (projecting onto the
excited state, no tag).  Both rates are proportional to the excited
amplitude, so between jumps the wave function evolves under the
non-Hermitian Hamiltonian with total decay 2/t2 on the excited level
and the ensemble average reproduces the Bloch equations exactly.

Waiting times are sampled exactly by inverting the closed-form no-jump
survival with bisection; there is no time-step discretization.  Given
a jump, it is radiative with the constant probability t2/(2 t1), and
the chain of (start state, waiting time) pairs within a segment of
constant drive is therefore i.i.d., which the vectorized leg solver
exploits.  Partially elapsed legs are carried across segment
boundaries by evolving the unnormalized state and keeping the target
uniform, so piecewise drives (pulse envelopes, quasi-static chaotic
blocks) are handled without bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .core import DrivePulse, NumericalGuardError, Statistics, TlsParams, write_csv
from .photonstat import sample_chaotic_intensity

_BISECT_ITERS = 64


@dataclass
class TagStream:
    """Channel-stamped photon arrival times, sorted ascending."""

    times: np.ndarray
    channels: np.ndarray
    duration: float

    def __post_init__(self):
        t = np.asarray(self.times)
        if len(t) != len(self.channels):
            raise ValueError("times and channels must have equal length")
        if len(t) and (t[0] <= 0.0 or t[-1] >= self.duration):
            raise ValueError("tag times must lie strictly inside (0, duration)")
        if np.any(np.diff(t) < 0):
            raise ValueError("tags must be sorted ascending")

    def channel_times(self, channel: int) -> np.ndarray:
        return self.times[self.channels == channel]

    def to_csv(self, path):
        return write_csv(path, "time_ns,channel", [self.times, self.channels])


@dataclass
class CoincidenceHistogram:
    """Cross-channel coincidences per lag bin with the rate-product
    normalization c(tau) * T / (N1 * N2 * w)."""

    bin_width: float
    lags: np.ndarray
    counts: np.ndarray
    c_norm: np.ndarray
    stderr: np.ndarray

    def to_csv(self, path):
        return write_csv(path, "lag_ns,counts,c_norm", [self.lags, self.counts, self.c_norm])


# ---------------------------------------------------------------------------
# No-jump propagator.  In the (ground, excited) basis the effective
# Hamiltonian is [[0, om/2], [om/2, -det - i/t2]]; exp(-i H tau) is
# evaluated from the 2x2 closed form with exponents exp(m +/- q) that
# are individually bounded by one (the evolution is contractive), so
# nothing overflows at any tau.


def _prop_entries(om, det, it2, tau):
    tau = np.asarray(tau, dtype=float)
    m = 0.5 * (1j * det - it2) * tau
    q = np.sqrt(m * m - 0.25 * om * om * tau * tau + 0j)
    g1 = np.exp(m + q)
    g2 = np.exp(m - q)
    cosht = 0.5 * (g1 + g2)
    small = np.abs(q) < 1e-8
    qs = np.where(small, 1.0, q)
    sinhc = np.where(small, np.exp(m) * (1.0 + q * q / 6.0), 0.5 * (g1 - g2) / qs)
    e00 = cosht - m * sinhc
    eoff = (-0.5j * om * tau) * sinhc
    e11 = cosht + m * sinhc
    return e00, eoff, e11


def _survival_state(psi_g, psi_e, om, det, it2, tau):
    """Squared norm of U(tau) psi for a general (unnormalized) state."""
    e00, eoff, e11 = _prop_entries(om, det, it2, tau)
    a = e00 * psi_g + eoff * psi_e
    b = eoff * psi_g + e11 * psi_e
    return np.abs(a) ** 2 + np.abs(b) ** 2


def _evolve_state(psi_g, psi_e, om, det, it2, tau):
    e00, eoff, e11 = _prop_entries(om, det, it2, tau)
    return e00 * psi_g + eoff * psi_e, eoff * psi_g + e11 * psi_e


def _solve_legs(u, starts, om, det, it2, bracket):
    """Waiting times from fresh ground (0) / excited (1) starts; inf when
    the leg survives past the bracket."""
    n = len(u)
    tau_b = np.full(n, float(bracket))
    e00, eoff, e11 = _prop_entries(om, det, it2, tau_b)
    s_end = np.where(
        starts == 1,
        np.abs(eoff) ** 2 + np.abs(e11) ** 2,
        np.abs(e00) ** 2 + np.abs(eoff) ** 2,
    )
    has_root = s_end <= u
    lo = np.zeros(n)
    hi = tau_b.copy()
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        e00, eoff, e11 = _prop_entries(om, det, it2, mid)
        s = np.where(
            starts == 1,
            np.abs(eoff) ** 2 + np.abs(e11) ** 2,
            np.abs(e00) ** 2 + np.abs(eoff) ** 2,
        )
        above = s > u
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(has_root, 0.5 * (lo + hi), np.inf)


def _drive_segments(pulse: DrivePulse, duration: float, tau_corr: float, rng) -> list[tuple[float, float, float]]:
    """Piecewise-constant (start, stop, omega) segments over [0, duration].

    Chaotic drive resamples the squared Rabi frequency on every block
    of length tau_corr (quasi-static regime)."""
    edges = {0.0, duration}
    for start, stop, _ in pulse.envelope:
        if 0.0 < start < duration:
            edges.add(start)
        if 0.0 < stop < duration:
            edges.add(stop)
    if pulse.statistics is Statistics.CHAOTIC:
        n_blocks = int(math.ceil(duration / tau_corr))
        draws = np.sqrt(sample_chaotic_intensity(rng, pulse.rabi**2, size=n_blocks))
        for k in range(1, n_blocks):
            edges.add(k * tau_corr)
    else:
        draws = None
    cuts = sorted(edges)
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        amp = pulse.amplitude_at(mid)
        if draws is None:
            om = pulse.rabi * amp
        else:
            om = float(draws[min(int(mid / tau_corr), len(draws) - 1)]) * amp
        segments.append((a, b, om))
    return segments


def _bisect_state_leg(psi_g, psi_e, r, om, det, it2, bracket):
    """Jump time for a carried (unnormalized) state, or None if it
    survives the whole bracket."""
    if _survival_state(psi_g, psi_e, om, det, it2, bracket) > r:
        return None
    lo, hi = 0.0, float(bracket)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        if _survival_state(psi_g, psi_e, om, det, it2, mid) > r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def simulate_tags(
    params: TlsParams,
    pulse: DrivePulse,
    duration: float,
    efficiency: float,
    rng: np.random.Generator,
    blinking: tuple[float, float] | None = None,
    tau_corr: float = bloch.LAMP_TAU_CORR,
) -> TagStream:
    """Generate detected photon tags over [0, duration].

    Radiative jump times are exact samples of the unraveled dynamics
    starting from the ground state; detection keeps each with the given
    efficiency, an optional (on_fraction, tau_blink) telegraph gates
    the emission on and off, and kept tags split 50:50 between the two
    channels.
    """
    if duration < 10.0 * params.t1:
        raise ValueError("duration must be long against t1")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    p_rad = params.t2 / (2.0 * params.t1)
    it2 = 1.0 / params.t2
    det = pulse.detuning
    segments = _drive_segments(pulse, duration, tau_corr, rng)

    emissions: list[np.ndarray] = []
    psi_g, psi_e = 1.0 + 0.0j, 0.0j  # state at the last jump (normalized)
    pending_r = None  # target uniform of the leg in progress
    fresh_state = 0  # 0 ground / 1 excited, for fresh legs

    for seg_start, seg_end, om in segments:
        t = seg_start
        # finish a leg carried over from the previous segment
        if pending_r is not None:
            w = _bisect_state_leg(psi_g, psi_e, pending_r, om, det, it2, seg_end - t)
            if w is None:
                psi_g, psi_e = _evolve_state(psi_g, psi_e, om, det, it2, seg_end - t)
                continue
            t = t + w
            if rng.random() < p_rad:
                emissions.append(np.array([t]))
                fresh_state = 0
            else:
                fresh_state = 1
            pending_r = None
        # i.i.d. legs within the constant segment
        jump_rate = (2.0 / params.t2) * bloch.steady_state_population(params, om, det)
        while pending_r is None and t < seg_end:
            n_est = int(min(max(64, 1.4 * (seg_end - t) * jump_rate + 32), float(1 << 17)))
            u = rng.random(n_est)
            coins = rng.random(n_est)
            rad = coins < p_rad
            starts = np.empty(n_est, dtype=np.int8)
            starts[0] = fresh_state
            starts[1:] = (~rad[:-1]).astype(np.int8)
            waits = _solve_legs(u, starts, om, det, it2, seg_end - t)
            jump_t = t + np.cumsum(waits)
            inside = jump_t < seg_end
            stop = int(np.argmin(inside)) if not inside.all() else n_est
            if stop > 0:
                kept = jump_t[:stop]
                emissions.append(kept[rad[:stop]])
                t = float(kept[-1])
                fresh_state = 0 if rad[stop - 1] else 1
            if stop < n_est:
                # leg `stop` is in progress at seg_end: carry it
                psi0 = (1.0 + 0.0j, 0.0j) if starts[stop] == 0 else (0.0j, 1.0 + 0.0j)
                psi_g, psi_e = _evolve_state(psi0[0], psi0[1], om, det, it2, seg_end - t)
                pending_r = float(u[stop])
                t = seg_end

    times = np.concatenate(emissions) if emissions else np.empty(0)
    if len(times):
        if efficiency < 1.0:
            times = times[rng.random(len(times)) < efficiency]
    if blinking is not None and len(times):
        beta, tau_blink = blinking
        if not 0.0 < beta <= 1.0 or tau_blink <= 0:
            raise ValueError("blinking requires on_fraction in (0, 1] and tau_blink > 0")
        if beta < 1.0:
            gate_on = _telegraph_gate(times, duration, beta, tau_blink, rng)
            times = times[gate_on]
    channels = np.where(rng.random(len(times)) < 0.5, 1, 2).astype(np.int8)
    return TagStream(times, channels, duration)


def _telegraph_gate(times, duration, beta, tau_blink, rng):
    """Boolean mask of tags falling into ON periods of a stationary
    two-state telegraph with P(on) = beta and correlation time tau_blink."""
    mean_on = tau_blink / (1.0 - beta)
    mean_off = tau_blink / beta
    start_on = bool(rng.random() < beta)
    switches = []
    t = 0.0
    state_on = start_on
    block = 256
    while t < duration:
        draws_on = rng.exponential(mean_on, size=block)
        draws_off = rng.exponential(mean_off, size=block)
        for k in range(block):
            t += draws_on[k] if state_on else draws_off[k]
            switches.append(t)
            state_on = not state_on
            if t >= duration:
                break
    sw = np.asarray(switches)
    idx = np.searchsorted(sw, times, side="right")
    on = (idx % 2 == 0) == start_on
    return on


def apply_detector(stream: TagStream, jitter_fwhm: float, rng: np.random.Generator) -> TagStream:
    """Add Gaussian timing jitter per tag, re-sort, and drop tags that
    leave the observation window."""
    if jitter_fwhm < 0:
        raise ValueError("jitter_fwhm must be >= 0")
    if jitter_fwhm == 0.0 or len(stream.times) == 0:
        return TagStream(stream.times.copy(), stream.channels.copy(), stream.duration)
    sigma = jitter_fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    t = stream.times + sigma * rng.standard_normal(len(stream.times))
    order = np.argsort(t, kind="stable")
    t = t[order]
    ch = stream.channels[order]
    keep = (t > 0.0) & (t < stream.duration)
    return TagStream(t[keep], ch[keep], stream.duration)


def _corr_window(t1, t2, max_lag, bin_w, counts, chunk=100_000):
    """Add every lag d = t2[j] - t1[i] with -max_lag <= d < max_lag to
    bin floor((d + max_lag) / bin_w) of counts; bins at or beyond
    len(counts) are dropped.  Both inputs must be sorted."""
    nb = len(counts)
    for a in range(0, len(t1), chunk):
        t1c = t1[a : a + chunk]
        lo = np.searchsorted(t2, t1c - max_lag, side="left")
        hi = np.searchsorted(t2, t1c + max_lag, side="left")
        sizes = hi - lo
        total = int(sizes.sum())
        if total == 0:
            continue
        offsets = np.repeat(np.cumsum(sizes) - sizes, sizes)
        idx = np.repeat(lo, sizes) + (np.arange(total) - offsets)
        diffs = t2[idx] - np.repeat(t1c, sizes)
        bins = ((diffs + max_lag) / bin_w).astype(np.int64)
        good = bins < nb
        counts += np.bincount(bins[good], minlength=nb).astype(counts.dtype)


def correlate(stream: TagStream, bin_w: float, max_lag: float) -> CoincidenceHistogram:
    """Cross-correlate channel 1 starts against channel 2 stops.

    Counts c(tau) over lag bins in [-max_lag, max_lag) are normalized
    by the channel rate product, c * T / (N1 * N2 * w), which is one
    for uncorrelated Poisson streams.
    """
    if bin_w <= 0:
        raise ValueError("bin_w must be positive")
    if max_lag > stream.duration / 10.0:
        raise NumericalGuardError("max_lag must not exceed a tenth of the stream duration")
    t1 = stream.channel_times(1)
    t2 = stream.channel_times(2)
    if len(t1) == 0 or len(t2) == 0:
        raise ValueError("both channels need at least one tag")
    nb = int(round(2.0 * max_lag / bin_w))
    if nb < 2:
        raise ValueError("fewer than two lag bins")
    counts = np.zeros(nb, dtype=np.int64)
    _corr_window(t1, t2, float(max_lag), float(bin_w), counts)
    norm = stream.duration / (len(t1) * len(t2) * bin_w)
    lags = -max_lag + bin_w * (np.arange(nb) + 0.5)
    c_norm = counts * norm
    stderr = np.sqrt(np.maximum(counts, 1)) * norm
    return CoincidenceHistogram(bin_w, lags, counts, c_norm, stderr)
