"""Photon time-tag Monte Carlo and coincidence analysis.

A radiative jump leaves the emitter in its ground state, so within a
segment of constant drive the photon-to-photon intervals are i.i.d.:
the tags form a renewal process.  An interval survives to tau with the
delay function P(tau), the trace of the density matrix evolved by the
master equation without its radiative refill (Cohen-Tannoudji &
Dalibard, Europhys. Lett. 1, 441 (1986); Plenio & Knight, Rev. Mod.
Phys. 70, 101 (1998)); dephasing is averaged over, not sampled.  In the
coordinates of `bloch.augmented_generator` this is the generator M'
with M'[3, 0] = -1/t1, whose last coordinate is P, started from
(0, 0, 0, 1).

Each interval draws one uniform target and ends where P falls to it,
with no time-step discretization: a per-segment table of the orbit of
M' brackets the root to one node, and a safeguarded Newton iteration on
that node's Taylor polynomial of P finds it to 1e-14 ns, or to the
rounding of P where that is coarser.  An interval in progress at a
segment edge keeps its unnormalized state and its target, and that
state is a second row of the next segment's table, so piecewise drives
(pulse envelopes, quasi-static chaotic blocks) are handled without
bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .core import DrivePulse, NumericalGuardError, Statistics, TlsParams, write_csv
from .photonstat import sample_chaotic_intensity

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
    """Cross-channel coincidences per lag bin, normalized by the
    coincidences that uncorrelated streams of the same rates would give
    in that bin, c(tau) * T^2 / (N1 * N2 * w * (T - |tau|)), with
    T - |tau| the overlap of the two streams averaged over the bin."""

    bin_width: float
    lags: np.ndarray
    counts: np.ndarray
    c_norm: np.ndarray
    stderr: np.ndarray

    def to_csv(self, path):
        return write_csv(path, "lag_ns,counts,c_norm", [self.lags, self.counts, self.c_norm])


# ---------------------------------------------------------------------------
# Waiting times.  An interval survives to tau with the delay function
# P(tau), the last component of the orbit of the conditional generator
# M' from its start state: (0, 0, 0, 1) after a jump, the unnormalized
# state of an interval carried over a segment edge.  A table of the
# orbit on a uniform grid of nodes, one row per start state, brackets
# each target u to one node, where P is the degree-9 Taylor polynomial
# with coefficients (M'^j x)[3] / j! of the node's state x, and a
# safeguarded Newton iteration on that polynomial finds the root.

_GROUND = np.array([0.0, 0.0, 0.0, 1.0])  # the state after a jump
_MAP_DEGREE = 12  # Taylor degree of the table's step map
_STEP_NORM = 0.11  # ||M' h||_1 of a step: the map matches expm to rounding
_P_DEGREE = 9  # degree of P's polynomial on a node
_EXTRA_NODES = 512  # added to a table's estimated length for the transient
_MAX_NODES = 1 << 16  # nodes per table; an interval past them is carried
_XTOL = 1e-14  # ns, absolute tolerance of a waiting time
_EPS = np.finfo(float).eps


def _conditional_generator(params: TlsParams, om: float, det: float) -> np.ndarray:
    """M' of the Bloch equations without the radiative refill of the
    ground state: its last coordinate, the trace, falls at rho11/t1."""
    m = bloch.augmented_generator(params, om, det)[0]
    m[3, 0] = -1.0 / params.t1
    return m


def _table(m, states, h, u_min, n_max):
    """The orbit (k, 4, n) of each start state in states (k, 4) on nodes
    j h, until every P is below u_min at the last node or the table has
    n_max nodes.  The first length comes from the slowest decay rate of
    M', and a table that falls short is doubled."""
    d = bloch.taylor_increment(m, h, _MAP_DEGREE)
    rate = -np.linalg.eigvals(m).real.max()
    n = n_max
    if rate > 0.0 and u_min > 0.0:
        n = int(1.25 * math.log(1.0 / u_min) / (rate * h)) + _EXTRA_NODES
    while True:
        table = bloch.orbit(d, states, min(n, n_max), increments=True)
        if n >= n_max or (table[:, 3, -1] < u_min).all():
            return table
        n *= 2


def _waits(u, starts, m, table, h, t, seg_end):
    """Waiting times of intervals started back to back at t from the
    states table[starts, :, 0], for the targets u: inf past the table.

    Every interval is bracketed first; only those up to the first whose
    running sum of lower bracket ends reaches seg_end are polished, and
    the rest are left inf, since they start past seg_end."""
    n = table.shape[2]
    surv = np.minimum.accumulate(table[:, 3], axis=1)  # monotone against rounding
    k = np.empty(len(u), dtype=np.int64)
    for state, p in enumerate(surv):
        sel = starts == state
        # the first node with P <= u; the one before it has P > u
        k[sel] = np.searchsorted(-p, -u[sel], side="left")
    lower = np.maximum(k - 1, 0) * h
    keep = int(np.searchsorted(t + np.cumsum(lower), seg_end, side="left")) + 1
    k, starts = k[:keep], starts[:keep]
    # k = 0 is P(0) <= u: an interval that had ended before the segment
    # edge, carried by rounding in t + cumsum(waits); it ends at once
    waits = np.full(len(u), np.inf)
    waits[:keep] = np.where(k > 0, np.inf, 0.0)
    inner = np.flatnonzero((k > 0) & (k < n))
    if len(inner):
        j, st = k[inner] - 1, starts[inner]
        rows = np.empty((_P_DEGREE + 1, 4))  # e3 M'^q / q!
        rows[0] = _GROUND
        for q in range(1, _P_DEGREE + 1):
            rows[q] = rows[q - 1] @ m / q
        coef = rows @ table[st, :, j].T
        waits[inner] = j * h + _newton(coef, u[inner], surv[st, j], surv[st, j + 1], h, j * h)
    return waits


def _newton(coef, u, p_lo, p_hi, h, tau0):
    """s in [0, h] with sum_q coef[q] s^q = u, given p_lo > u >= p_hi at
    the ends.  Safeguarded Newton (rtsafe, Numerical Recipes 9.4): a
    step that leaves the bracket, or does not halve the one before it,
    bisects instead, since P' = -rho11/t1 is flat twice per Rabi cycle
    under strong drive.  A root is kept at the first step below
    _XTOL + 4 eps tau (a zero step, f = 0, included); the working arrays
    drop the kept roots once they are at least half of them."""
    out = np.empty(len(u))
    idx = np.arange(len(u))
    open_ = np.ones(len(u), dtype=bool)  # no root kept yet
    lo, hi = np.zeros(len(u)), np.full(len(u), h)
    s = h * (p_lo - u) / (p_lo - p_hi)  # the chord
    dx = np.full(len(u), h)
    tol = _XTOL + 4.0 * _EPS * (tau0 + h)
    while True:
        p, dp = coef[-1].copy(), np.zeros(len(idx))  # Horner's rule for P and P'
        for c in coef[-2::-1]:
            dp *= s
            dp += p
            p *= s
            p += c
        f = p - u
        above = f > 0.0
        lo, hi = np.where(above, s, lo), np.where(above, hi, s)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / dp
        new = s - step
        step = np.abs(step)
        bisect = ~((new >= lo) & (new <= hi) & (step <= 0.5 * dx))
        dx = np.where(bisect, 0.5 * (hi - lo), step)
        s = np.where(bisect, 0.5 * (lo + hi), new)
        done = dx <= tol
        first = done & open_
        out[idx[first]] = s[first]
        open_ &= ~done
        n_open = np.count_nonzero(open_)
        if n_open == 0:
            return out
        if 2 * n_open <= len(idx):
            keep = open_
            idx, coef, u, s, lo, hi, dx, tol, open_ = (
                idx[keep], coef[:, keep], u[keep], s[keep], lo[keep], hi[keep], dx[keep], tol[keep], open_[keep]
            )


def _state_at(m, table, h, tau):
    """The state (4,) of a table row (4, n) at tau within its nodes."""
    j = min(int(tau / h), table.shape[1] - 1)
    return table[:, j] + bloch.taylor_increment(m, tau - j * h, _MAP_DEGREE) @ table[:, j]


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
    envelope = pulse.envelope
    k = 0  # the envelope is sorted, so one walk finds the interval of each mid
    for a, b in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (a + b)
        while k < len(envelope) and envelope[k][1] <= mid:
            k += 1
        amp = envelope[k][2] if k < len(envelope) and envelope[k][0] <= mid else 0.0
        if draws is None:
            om = pulse.rabi * amp
        else:
            om = float(draws[min(int(mid / tau_corr), len(draws) - 1)]) * amp
        segments.append((a, b, om))
    return segments


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

    Photon times are exact samples of the renewal process of radiative
    jumps, starting from the ground state; detection keeps each with
    the given efficiency, an optional (on_fraction, tau_blink) telegraph
    gates the emission on and off, and kept tags split 50:50 between the
    two channels.
    """
    if duration < 10.0 * params.t1:
        raise ValueError("duration must be long against t1")
    if not 0.0 < efficiency <= 1.0:
        raise ValueError("efficiency must be in (0, 1]")
    det = pulse.detuning
    segments = _drive_segments(pulse, duration, tau_corr, rng)

    emissions: list[np.ndarray] = []
    carried = None  # (state, target) of an interval in progress at a segment edge

    for seg_start, seg_end, om in segments:
        m = _conditional_generator(params, om, det)
        h = _STEP_NORM / np.abs(m).sum(axis=0).max()
        rate = bloch.steady_state_population(params, om, det) / params.t1
        t = seg_start
        while t < seg_end:
            n_est = int(min(max(64, 1.4 * (seg_end - t) * rate + 32), float(1 << 17)))
            u = rng.random(n_est)
            starts = np.zeros(n_est, dtype=np.int8)
            states = _GROUND[None]
            if carried is not None:
                # the carried interval is the first, with its own start state
                states = np.vstack([_GROUND, carried[0]])
                starts[0], u[0] = 1, carried[1]
                carried = None
            n_max = min(_MAX_NODES, int((seg_end - t) / h) + 2)
            table = _table(m, states, h, float(u.min()), n_max)
            jump_t = t + np.cumsum(_waits(u, starts, m, table, h, t, seg_end))
            inside = jump_t < seg_end
            stop = int(np.argmin(inside)) if not inside.all() else n_est
            if stop > 0:
                emissions.append(jump_t[:stop])
                t = float(jump_t[stop - 1])
            if stop < n_est:
                # interval `stop` is in progress at seg_end, or at the end
                # of its table: carry it from there
                row = table[starts[stop]]
                edge = min(seg_end, t + (table.shape[2] - 1) * h)
                carried = (_state_at(m, row, h, edge - t), u[stop])
                if edge < seg_end and (row[:, -1] == row[:, -2]).all():
                    edge = seg_end  # an orbit at rest (no drive, nothing left to decay) holds its state
                t = edge

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
    len(counts) are dropped.  Both inputs must be sorted.

    The stops of a start form one run t2[lo:hi], so the kernel walks
    the offset m into that run: one vectorized pass per m over the
    starts whose run is longer than m, with no pair array.  Passes are
    binned together once they hold as many lags as there are bins.  The
    time is O(pairs), plus O(bins) and a sort per chunk of starts; the
    memory is O(chunk + bins), whatever the pair density."""
    nb = len(counts)
    pending, held = [], 0
    for a in range(0, len(t1), chunk):
        t1c = t1[a : a + chunk]
        lo = np.searchsorted(t2, t1c - max_lag, side="left")
        sizes = np.searchsorted(t2, t1c + max_lag, side="left") - lo
        # longest runs first, so the starts with more than m stops are
        # a prefix of length n_m; the integer counts do not depend on
        # the order of the starts, so the sort need not be stable
        order = np.argsort(-sizes)
        t1c, lo = t1c[order], lo[order]
        n_m = np.cumsum(np.bincount(sizes)[::-1])[::-1][1:]
        for m, n in enumerate(n_m):
            pending.append(((t2[lo[:n] + m] - t1c[:n] + max_lag) / bin_w).astype(np.int64))
            held += n
            if held >= nb:
                _add_bins(counts, pending)
                pending, held = [], 0
    if pending:
        _add_bins(counts, pending)


def _add_bins(counts, pieces):
    """Count the bin indices in pieces into counts; indices at or beyond
    len(counts) are dropped."""
    nb = len(counts)
    counts += np.bincount(np.concatenate(pieces), minlength=nb + 1)[:nb]


def correlate(stream: TagStream, bin_w: float, max_lag: float) -> CoincidenceHistogram:
    """Cross-correlate channel 1 starts against channel 2 stops.

    Counts c(tau) over lag bins in [-max_lag, max_lag) are normalized
    by the channel rate product and by the overlap T - |tau| over which
    a lag tau can be seen, c * T^2 / (N1 * N2 * w * (T - |tau|)), so
    that uncorrelated Poisson streams read one at every lag.

    Costs O(pairs) time and O(chunk + bins) memory, with chunk = 100k
    start tags, so dense wide windows need no pair array.
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
    edges = -max_lag + bin_w * np.arange(nb + 1)
    a, b = edges[:-1], edges[1:]
    overlap = stream.duration - (b * np.abs(b) - a * np.abs(a)) / (2.0 * bin_w)
    norm = stream.duration**2 / (len(t1) * len(t2) * bin_w * overlap)
    lags = -max_lag + bin_w * (np.arange(nb) + 0.5)
    c_norm = counts * norm
    stderr = np.sqrt(np.maximum(counts, 1)) * norm
    return CoincidenceHistogram(bin_w, lags, counts, c_norm, stderr)
