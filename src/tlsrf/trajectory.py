"""Photon time-tag Monte Carlo and coincidence analysis.

Trajectories are unraveled with two jump channels: a radiative jump at
rate 1/t1 (resetting the emitter to the ground state and producing a
tag) and a dephasing jump at rate 2*gamma_phi (projecting onto the
excited state, no tag).  Both rates are proportional to the excited
amplitude, so between jumps the wave function evolves under the
non-Hermitian Hamiltonian with total decay 2/t2 on the excited level
and the ensemble average reproduces the Bloch equations exactly.

Waiting times are sampled exactly by inverting the closed-form no-jump
survival; there is no time-step discretization.  Within a segment of
constant drive every fresh leg starts from the ground or the excited
state, so a table of those two survival curves brackets each root to
one grid step, and Chandrupatla's bracketed iteration polishes it to
1e-14 ns, or to the rounding of the survival where that is coarser.
Given a jump, it is radiative with the constant probability
t2/(2 t1), and the chain of (start state, waiting time) pairs within a
segment of constant drive is therefore i.i.d., which the vectorized
leg solver exploits.  Partially elapsed legs are carried across
segment boundaries by evolving the unnormalized state and keeping the
target uniform, so piecewise drives (pulse envelopes, quasi-static
chaotic blocks) are handled without bias; a carried leg is leg 0 of
its new segment's first batch, and its state joins the table as a
third survival curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bloch
from .core import DrivePulse, NumericalGuardError, Statistics, TlsParams, write_csv
from .photonstat import sample_chaotic_intensity

_TABLE_POINTS = 256  # survival-table points per doubling of its spacing
_XTOL = 1e-14  # ns, absolute tolerance of a waiting time
_MAX_ITERS = 200
_CHUNK = 1 << 13  # legs per pass of the root iteration
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


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
# No-jump propagator.  In the (ground, excited) basis the effective
# Hamiltonian is [[0, om/2], [om/2, -det - i/t2]]; exp(-i H tau) is
# evaluated from the 2x2 closed form with exponents exp((m0 +/- q0) tau)
# that are individually bounded by one (the evolution is contractive),
# so nothing overflows at any tau.  m0 and q0 are per unit tau, so the
# square root is taken once per call.


def _prop_entries(om, det, it2, tau):
    tau = np.asarray(tau, dtype=float)
    m0 = 0.5 * (1j * det - it2)
    q0 = np.sqrt(m0 * m0 - 0.25 * om * om + 0j)
    g1 = np.exp((m0 + q0) * tau)
    g2 = np.exp((m0 - q0) * tau)
    cosht = 0.5 * (g1 + g2)
    # tau sinh(q0 tau) / (q0 tau) exp(m0 tau), from its series where
    # q0 tau is too small for the difference g1 - g2
    tsinhc = 0.5 * (g1 - g2) / (q0 if q0 else 1.0)
    small = abs(q0) * tau < 1e-8
    if small.any():
        tsinhc = np.where(small, tau * np.exp(m0 * tau) * (1.0 + (q0 * tau) ** 2 / 6.0), tsinhc)
    e00 = cosht - m0 * tsinhc
    eoff = (-0.5j * om) * tsinhc
    e11 = cosht + m0 * tsinhc
    return e00, eoff, e11


def _evolve_state(psi_g, psi_e, om, det, it2, tau):
    """U(tau) psi for a general (unnormalized) state (psi_g, psi_e)."""
    e00, eoff, e11 = _prop_entries(om, det, it2, tau)
    return e00 * psi_g + eoff * psi_e, eoff * psi_g + e11 * psi_e


def _survival_state(psi_g, psi_e, om, det, it2, tau):
    """Squared norm of U(tau) psi."""
    a, b = _evolve_state(psi_g, psi_e, om, det, it2, tau)
    return np.abs(a) ** 2 + np.abs(b) ** 2


# ---------------------------------------------------------------------------
# Waiting times.  A leg ends where its no-jump survival S(tau) = |U psi|^2
# falls to its uniform target u.  Within a segment every leg starts from
# one of a few states: ground, excited, and the state of a leg carried
# over the segment's start edge.  S is then one of a few fixed curves:
# they are tabulated once per batch, and searchsorted gives each leg a
# bracket one grid step wide.
# Chandrupatla's method (Adv. Eng. Softw. 28, 145 (1997)) then polishes
# log S - log u inside the bracket; it interpolates where the curve is
# smooth and bisects across the near-flat steps of a strongly driven
# S, where psi_e passes through zero twice per Rabi cycle.

_FRESH = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)  # ground, excited


def _survival_table(states, om, det, it2, u_min, bracket):
    """Grid tau from 0 and the survival S_k(tau) of each start state
    (psi_g, psi_e) = states[k], one row per state.

    The spacing starts at 1/32 of the faster of the Rabi period and t2
    and doubles every _TABLE_POINTS points, until every curve is below
    u_min or the grid reaches the bracket, which is its last point."""
    scale = 1.0 / it2
    if om or det:
        scale = min(scale, 2.0 * math.pi / math.hypot(om, det))
    step = scale / 32.0
    # state columns (k, 1), broadcast against the tau grid
    psi_g, psi_e = states[:, :1], states[:, 1:]
    taus, surv = [np.zeros(1)], [(np.abs(states) ** 2).sum(axis=1, keepdims=True)]
    while taus[-1][-1] < bracket and (surv[-1][:, -1] >= u_min).any():
        tau = taus[-1][-1] + step * np.arange(1, _TABLE_POINTS + 1)
        if tau[-1] >= bracket:
            tau = np.append(tau[tau < bracket], bracket)
        taus.append(tau)
        surv.append(_survival_state(psi_g, psi_e, om, det, it2, tau))
        step *= 2.0
    # rounding can lift S by an ulp on a flat step; searchsorted needs
    # the curves monotone
    return np.concatenate(taus), np.minimum.accumulate(np.concatenate(surv, axis=1), axis=1)


def _log(s):
    return np.log(np.maximum(s, _TINY))


def _find_roots(surv, u, lo, hi, s_lo, s_hi):
    """tau in [lo, hi] with surv(tau, i) = u[i] for every leg i, given
    s_lo = surv(lo) > u >= surv(hi) = s_hi.

    Chandrupatla's bracketed iteration on f = log S - log u, run only on
    the legs not yet converged; a root is kept once its bracket is
    narrower than _XTOL + 4 eps tau."""
    log_u = _log(u)
    roots = np.empty(len(u))
    idx = np.arange(len(u))
    # x1 is the newest point, x2 the end of the bracket across the root,
    # x3 the point x1 or x2 displaced last
    # S(lo) > u, but log S(lo) can round to log u (a carried leg whose
    # target is its norm); f1 = 0 would put lo on the wrong side
    x1, f1 = lo, np.maximum(_log(s_lo) - log_u, _TINY)
    x2, f2 = hi, _log(s_hi) - log_u
    t = f1 / np.maximum(f1 - f2, _TINY)  # secant step into the bracket
    # the smallest step, as a fraction of the bracket, that still
    # resolves a new point; kept at most 0.5 once converged legs leave
    tl = np.minimum((2.0 * _EPS * np.abs(x2) + 0.5 * _XTOL) / (x2 - x1), 0.5)
    for _ in range(_MAX_ITERS):
        t = np.clip(t, tl, 1.0 - tl)
        x = x1 + t * (x2 - x1)
        f = _log(surv(x, idx)) - log_u[idx]
        same = (f > 0.0) == (f1 > 0.0)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, f
        near = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(near, x1, x2), np.where(near, f1, f2)
        tl = (2.0 * _EPS * np.abs(xm) + 0.5 * _XTOL) / np.abs(x2 - x1)
        done = (tl > 0.5) | (fm == 0.0)
        roots[idx[done]] = xm[done]
        if done.all():
            return roots
        keep = ~done
        idx, tl = idx[keep], tl[keep]
        x1, x2, x3, f1, f2, f3 = x1[keep], x2[keep], x3[keep], f1[keep], f2[keep], f3[keep]
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = (x1 - x2) / (x3 - x2)
            phi = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            iqi = (1.0 - np.sqrt(1.0 - xi) < phi) & (phi < np.sqrt(xi))
            t = np.where(
                iqi,
                f1 / (f1 - f2) * f3 / (f3 - f2) - alpha * f1 / (f3 - f1) * f2 / (f2 - f3),
                0.5,
            )
    roots[idx] = 0.5 * (x1 + x2)
    return roots


def _solve_legs(u, starts, states, om, det, it2, bracket):
    """Waiting times of legs that start from states[starts], rows
    (psi_g, psi_e) that a carried leg leaves unnormalized; inf when the
    leg survives past the bracket.  The table of one survival curve per
    state is built per call, down to the smallest target of the batch;
    a segment seldom needs more than one batch."""
    tau, surv = _survival_table(states, om, det, it2, float(u.min()), bracket)
    waits = np.empty(len(u))
    # chunks keep the working arrays of a 2^17-leg batch to a few MB
    for a in range(0, len(u), _CHUNK):
        b = slice(a, a + _CHUNK)
        waits[b] = _table_legs(u[b], starts[b], states, tau, surv, om, det, it2)
    return waits


def _table_legs(u, starts, states, tau, surv, om, det, it2):
    """_solve_legs on one chunk, given the survival table."""
    k = np.empty(len(u), dtype=np.int64)
    s_lo, s_hi = np.empty(len(u)), np.empty(len(u))
    for state, s_tab in enumerate(surv):
        sel = starts == state
        # first grid point with S <= u; the one before it has S > u
        ks = np.searchsorted(-s_tab, -u[sel], side="left")
        k[sel] = ks
        s_lo[sel] = s_tab[ks - 1]
        s_hi[sel] = s_tab[np.minimum(ks, len(tau) - 1)]
    # k = 0 is S(0) <= u: a leg that had ended before the segment edge,
    # carried by rounding in t + cumsum(waits); it ends at once
    waits = np.where(k > 0, np.inf, 0.0)
    has_root = (k > 0) & (k < len(tau))
    if has_root.any():
        k = k[has_root]
        psi = states[starts[has_root]]
        waits[has_root] = _find_roots(
            lambda x, i: _survival_state(psi[i, 0], psi[i, 1], om, det, it2, x),
            u[has_root], tau[k - 1], tau[k], s_lo[has_root], s_hi[has_root],
        )
    return waits


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
    fresh_state = 0  # 0 ground / 1 excited, for the next fresh leg
    carried = None  # (state, target) of a leg in progress at a segment edge

    for seg_start, seg_end, om in segments:
        t = seg_start
        # i.i.d. legs within the constant segment
        jump_rate = (2.0 / params.t2) * bloch.steady_state_population(params, om, det)
        while t < seg_end:
            n_est = int(min(max(64, 1.4 * (seg_end - t) * jump_rate + 32), float(1 << 17)))
            u = rng.random(n_est)
            coins = rng.random(n_est)
            rad = coins < p_rad
            starts = np.empty(n_est, dtype=np.int8)
            starts[0] = fresh_state
            starts[1:] = (~rad[:-1]).astype(np.int8)
            states = _FRESH
            if carried is not None:
                # the carried leg is leg 0, with its own start state
                states = np.vstack([_FRESH, carried[0]])
                starts[0], u[0] = 2, carried[1]
                carried = None
            waits = _solve_legs(u, starts, states, om, det, it2, seg_end - t)
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
                psi = _evolve_state(*states[starts[stop]], om, det, it2, seg_end - t)
                carried = (psi, u[stop])
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
