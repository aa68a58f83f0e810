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
with no time-step discretization: a table of the orbit of M' on a
uniform grid of nodes brackets the root to one node, and a safeguarded
Newton iteration on that node's Taylor polynomial of P finds it to
1e-14 ns, or to the rounding of P where that is coarser.

Intervals that start in the ground state do not depend on what came
before them, so the sampler works in batch-then-walk order.  A batch of
consecutive segments draws its targets in segment order, fills the
ground-state tables of all its segments together, brackets every fresh
interval and polishes them all in one Newton pass.  A walk over the
segment edges, in order, then solves the one interval in progress at
each edge: it keeps its unnormalized state and its target, gets a table
of its own under the new segment's step maps, and the segment's fresh
waits follow it.  The walk is sequential, since each edge state depends
on where the interval before it ended, and an edge costs a few numpy
calls and scalar arithmetic.  Piecewise drives (pulse envelopes,
quasi-static chaotic blocks) are so handled without bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import bloch
from .bloch import _MAP_DEGREE, _STEP_NORM
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
# orbit on a uniform grid of nodes brackets each target u to one node,
# where P is the degree-9 Taylor polynomial with coefficients
# (M'^j x)[3] / j! of the node's state x, and a safeguarded Newton
# iteration on that polynomial finds the root.  Segments are solved in
# batches, then walked edge by edge (see the module docstring).

_GROUND = np.array([0.0, 0.0, 0.0, 1.0])  # the state after a jump
_P_DEGREE = 9  # degree of P's polynomial on a node
_EXTRA_NODES = 512  # added to a table's estimated length for the transient
_MAX_NODES = 1 << 16  # nodes per table; an interval past them is carried
_MAX_TARGETS = 1 << 17  # targets a segment draws at a time
_BATCH_TARGETS = 1 << 13  # targets of the segments solved as one batch
_BATCH_NODES = 1 << 16  # estimated table nodes of the segments solved as one batch
_XTOL = 1e-14  # ns, absolute tolerance of a waiting time
_EPS = float(np.finfo(float).eps)


def _conditional_generator(params: TlsParams, om, det: float) -> np.ndarray:
    """M' of the Bloch equations without the radiative refill of the
    ground state: its last coordinate, the trace, falls at rho11/t1.
    One (4, 4) for a drive om, a stack (n, 4, 4) for an array of n."""
    m = bloch.augmented_generator(params, om, det)
    m[:, 3, 0] = -1.0 / params.t1
    return m if np.ndim(om) else m[0]


class _Segments(NamedTuple):
    """Stacked data of consecutive drive segments: M', the node spacing
    h with ||M' h||_1 = _STEP_NORM, the slowest decay rate of M', and
    the rows e3 M'^q / q!, q = 0 .. _P_DEGREE, that take a node's state
    to the Taylor coefficients of P there."""

    m: np.ndarray
    h: np.ndarray
    decay: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, m):
        rows = np.empty((len(m), _P_DEGREE + 1, 4))
        rows[:, 0] = _GROUND
        for q in range(1, _P_DEGREE + 1):
            rows[:, q] = (rows[:, q - 1, None] @ m)[:, 0] / q
        h = _STEP_NORM / np.abs(m).sum(axis=1).max(axis=1)
        return cls(m, h, -np.linalg.eigvals(m).real.max(axis=1), rows)

    def part(self, a, b):
        return _Segments(*(x[a:b] for x in self))


def _ground_tables(maps, segs, u_min, n_max):
    """Orbit tables (4, n) from the ground state, one per segment of
    segs, as a list, under the doubled step maps of the segments
    (`bloch.doublings` of the stack D = T - I): each to where P at its
    last node is below u_min, or to n_max nodes.

    A table's first length comes from the slowest decay rate of M', and
    a table that falls short is doubled.  Tables of about one length
    (the same power of two) are filled together."""
    with np.errstate(divide="ignore", invalid="ignore"):
        est = 1.25 * np.log(1.0 / u_min) / (segs.decay * segs.h) + _EXTRA_NODES
    n = np.where((segs.decay > 0.0) & (u_min > 0.0), np.minimum(est, n_max), n_max).astype(np.int64)
    tables = [None] * len(n)
    sizes = np.frexp(n)[1]
    for size in np.unique(sizes):
        rows = np.flatnonzero(sizes == size)
        sub = maps if len(rows) == len(n) else [e[rows] for e in maps]
        orbit = bloch.orbit(sub, np.tile(_GROUND, (len(rows), 1)), int(n[rows].max()), increments=True)
        for i, r in enumerate(rows):
            table = orbit[i, :, : n[r]]
            while table.shape[1] < n_max[r] and table[3, -1] >= u_min[r]:
                n[r] *= 2
                table = bloch.orbit([e[r : r + 1] for e in maps], _GROUND[None], min(n[r], n_max[r]), increments=True)[0]
            tables[r] = table
    return tables


def _carried_table(maps, x, u, n_max, out):
    """The orbit table (4, n) of the state x of an interval carried into
    a segment, under the segment's doubled step maps, as a view of the
    buffer out (4, >= n_max): filled as `bloch.orbit` fills one, node
    count by node count doubled, until P at the last node is below the
    interval's target u, or to n_max nodes."""
    out[:, 0] = x
    k = 1
    for e in maps:
        if k >= n_max or out[3, k - 1] < u:
            break
        fill = min(k, n_max - k)
        new = out[:, k : k + fill]
        np.matmul(e, out[:, :fill], out=new)
        new += out[:, :fill]
        k += fill
    return out[:, :k]


def _bracket(table, u, h, t, seg_end):
    """Bracket intervals started back to back at t from the state
    table[:, 0] of an orbit table (4, n), for the targets u.

    Node k of a target is the first where P, made monotone against
    rounding, is at or below it (n past the table).  Every interval is
    bracketed; only those up to the first whose running sum of lower
    bracket ends (k - 1) h reaches seg_end are kept, since the rest
    start past seg_end.  Returns k of the kept intervals, the indices of
    those with 0 < k < n, and their `_waits` inputs: the node j = k - 1,
    the state there and P at j and j + 1."""
    p = np.minimum.accumulate(table[3])
    k = np.searchsorted(-p, -u, side="left")
    lower = np.maximum(k - 1, 0) * h
    k = k[: int(np.searchsorted(t + np.cumsum(lower), seg_end, side="left")) + 1]
    inner = np.flatnonzero((k > 0) & (k < len(p)))
    j = k[inner] - 1
    return k, inner, (j, table.T[j], p[j], p[j + 1])


def _waits(u, j, x, p_lo, p_hi, segs, counts):
    """Waiting times of intervals bracketed between the nodes j and
    j + 1 of their table, for the targets u: j h + s, with s the root of
    P's Taylor polynomial at the node state x (n, 4), where P falls from
    p_lo to p_hi.  The intervals come in runs of counts[i], one run per
    segment of segs; each run's coefficients are one matrix product, as
    a batch of that run alone would have them."""
    coef = np.empty((_P_DEGREE + 1, len(u)))
    a = 0
    for rows, c in zip(segs.rows, counts):
        coef[:, a : a + c] = rows @ x[a : a + c].T
        a += c
    h = np.repeat(segs.h, counts)
    tau0 = j * h
    return tau0 + _newton(coef, u, p_lo, p_hi, h, tau0)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            p, dp = coef[-1].copy(), np.zeros(len(idx))  # Horner's rule for P and P'
            for c in coef[-2::-1]:
                dp *= s
                dp += p
                p *= s
                p += c
            f = p - u
            above = f > 0.0
            np.copyto(lo, s, where=above)
            np.copyto(hi, s, where=~above)
            step = f / dp
            new = s - step
            step = np.abs(step)
            bisect = ~((new >= lo) & (new <= hi) & (step <= 0.5 * dx))
            np.copyto(step, 0.5 * (hi - lo), where=bisect)
            np.copyto(new, 0.5 * (lo + hi), where=bisect)
            dx, s = step, new
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


def _polish(coef, u, p_lo, p_hi, h, tau0):
    """`_newton` for one interval on Python floats: the same operations in
    the same order, so the same root to the bit.  P' = 0 steps to inf."""
    lo, hi, dx = 0.0, h, h
    s = h * (p_lo - u) / (p_lo - p_hi)
    tol = _XTOL + 4.0 * _EPS * (tau0 + h)
    while True:
        p, dp = coef[-1], 0.0
        for c in coef[-2::-1]:
            dp = dp * s + p
            p = p * s + c
        f = p - u
        lo, hi = (s, hi) if f > 0.0 else (lo, s)
        step = f / dp if dp else math.inf
        new, step = s - step, abs(step)
        if not (lo <= new <= hi and step <= 0.5 * dx):
            step, new = 0.5 * (hi - lo), 0.5 * (lo + hi)
        dx, s = step, new
        if dx <= tol:
            return s


def _edge_waits(u, j, x, p_lo, p_hi, segs, g):
    """`_waits` of the one or two intervals polished at an edge into
    segment g of segs, by `_polish`: each argument a sequence over them."""
    h = float(segs.h[g])
    coef = (segs.rows[g] @ np.array(x).T).T.tolist()
    u, j, p_lo, p_hi = (np.array(a).tolist() for a in (u, j, p_lo, p_hi))
    return [k * h + _polish(c, v, a, b, h, k * h) for c, v, k, a, b in zip(coef, u, j, p_lo, p_hi)]


def _map_terms(m):
    """M'^q / q!, q = 1 .. _MAP_DEGREE, of a stack m (k, 4, 4) on axis 1,
    for `_state_at`.  Their row 3 is not `_Segments.rows`, since a
    row-vector product rounds unlike a matrix product."""
    terms = [m]
    for q in range(2, _MAP_DEGREE + 1):
        terms.append(terms[-1] @ m / q)
    return np.stack(terms, axis=1)


def _state_at(terms, table, h, tau):
    """The state (4,) of a table row (4, n) at tau within its nodes: the
    node state x plus sum_q r^q terms[q - 1] x over the rest r."""
    j = min(int(tau / h), table.shape[1] - 1)
    x = table[:, j]
    return x + (tau - j * h) ** np.arange(1, len(terms) + 1) @ (terms @ x)


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


def _jump_times(params: TlsParams, det: float, segments, rng) -> np.ndarray:
    """Radiative jump times over the drive segments, from the ground
    state at t = 0, in batches of consecutive segments (`_batch`)."""
    drive = (
        np.array([a for a, _, _ in segments]),
        np.array([b for _, b, _ in segments]),
        [bloch.steady_state_population(params, om, det) / params.t1 for _, _, om in segments],
        _Segments.of(_conditional_generator(params, np.array([om for _, _, om in segments]), det)),
    )
    emissions: list[np.ndarray] = []
    seg, t, carried = 0, 0.0, None
    while seg < len(segments):
        seg, t, carried = _batch(drive, seg, t, carried, rng, emissions)
    return np.concatenate(emissions) if emissions else np.empty(0)


def _batch(drive, first, t, carried, rng, emissions):
    """Solve the segments from first on as one batch, starting at t with
    the interval carried = (state, target) in progress, or None; append
    their jump times to emissions and return (segment, t, carried) where
    the next batch starts.

    Each segment draws one set of targets, in order: n_est = 1.4 x its
    expected photons + 32, at most _MAX_TARGETS.  A batch takes segments
    up to _BATCH_TARGETS targets or _BATCH_NODES estimated table nodes.
    The fresh intervals of all of them are bracketed on their ground
    tables, cut as if the carried interval took no time, and polished
    together.  A walk over the edges then solves each carried interval
    on a table of its own and places the fresh waits after it.  A
    segment that runs out of targets, or whose interval in progress
    runs past the end of its table, rewinds rng to just after its own
    draw and goes on in the next batch."""
    starts, ends, emit, all_segs = drive
    jobs = []  # (t0, n_est, n_max) of each segment
    n_targets = nodes = 0
    while first + len(jobs) < len(starts) and n_targets < _BATCH_TARGETS and nodes < _BATCH_NODES:
        s = first + len(jobs)
        t0 = t if not jobs else starts[s]
        n_est = int(min(max(64, 1.4 * (ends[s] - t0) * emit[s] + 32), float(_MAX_TARGETS)))
        h, decay = all_segs.h[s], all_segs.decay[s]
        n_max = min(_MAX_NODES, int((ends[s] - t0) / h) + 2)
        nodes += n_max if decay <= 0.0 else min(n_max, int(1.25 * math.log(n_est + 1.0) / (decay * h)) + _EXTRA_NODES)
        n_targets += n_est
        jobs.append((t0, n_est, n_max))
    segs = all_segs.part(first, first + len(jobs))
    n_max = np.array([n for _, _, n in jobs])
    maps = bloch.doublings(
        bloch.taylor_increment(segs.m, segs.h[:, None, None], _MAP_DEGREE), int(n_max.max()), increments=True
    )
    own_maps = np.stack(maps, axis=1)  # each segment's doubled maps
    terms = _map_terms(segs.m)
    carried_buf = np.empty((4, int(n_max.max())))  # one carried table at a time

    # the fresh intervals of every segment; all but the first segment's
    # open with the interval carried over their start edge.  The targets
    # and waits of segment g are the views [o[g], o[g + 1]) of flat arrays
    rewind = rng.bit_generator.state
    o = np.cumsum([0] + [n_est for _, n_est, _ in jobs]).tolist()
    u_all = rng.random(o[-1])
    fresh = [u_all[o[g] + int(g > 0 or carried is not None) : o[g + 1]] for g in range(len(jobs))]
    tables = _ground_tables(maps, segs, np.array([f.min() for f in fresh]), n_max)
    kept = [_bracket(tables[g], fresh[g], segs.h[g], jobs[g][0], ends[first + g]) for g in range(len(jobs))]
    args = [np.concatenate(a) for a in zip(*(c for _, _, c in kept))]
    w = _waits(np.concatenate([f[inner] for f, (_, inner, _) in zip(fresh, kept)]), *args, segs, [len(i) for _, i, _ in kept])
    waits_all = np.full(o[-1], np.inf)  # made after the polish, whose temporaries set the peak memory
    waits_all[np.concatenate([o[g + 1] - len(f) + inner for g, (f, (_, inner, _)) in enumerate(zip(fresh, kept))])] = w

    for g, (row, (_, inner, args)) in enumerate(zip(tables, kept)):
        s = first + g
        h, seg_end = float(segs.h[g]), float(ends[s])
        u, waits = u_all[o[g] : o[g + 1]], waits_all[o[g] : o[g + 1]]
        carried_row = None
        if carried is not None:
            x, u[0] = carried
            carried_row = _carried_table(own_maps[g], x, u[0], n_max[g], carried_buf)
            # node k as in `_bracket`; k = 0 is P(0) <= u: an interval that
            # had ended before the edge, carried by rounding in
            # t + cumsum(waits); it ends at once
            p = np.minimum.accumulate(carried_row[3])
            k = int(np.searchsorted(-p, -u[0]))
            waits[0] = 0.0 if k == 0 else np.inf
            if 0 < k < len(p):
                # polished with the first fresh interval when the cut keeps
                # it, as a segment solved on its own: the Taylor
                # coefficients of one column round unlike those of two
                run = [(u[0], k - 1, carried_row[:, k - 1], p[k - 1], p[k])]
                if len(inner) and inner[0] == 0 and t + (k - 1) * h < seg_end:
                    run.append((u[1], *(a[0] for a in args)))
                waits[: len(run)] = _edge_waits(*zip(*run), segs, g)
        jump_t = t + np.cumsum(waits)
        stop = int(np.searchsorted(jump_t, seg_end))  # the first at or past seg_end
        if stop > 0:
            emissions.append(jump_t[:stop])
            t = float(jump_t[stop - 1])
        carried = None
        if stop < len(u):
            # interval `stop` is in progress at seg_end, or at the end of
            # its table: carry it from there
            table = carried_row if stop == 0 and carried_row is not None else row
            edge = min(seg_end, t + (table.shape[1] - 1) * h)
            carried = (_state_at(terms[g], table, h, edge - t), u[stop])
            if edge < seg_end and (table[:, -1] == table[:, -2]).all():
                edge = seg_end  # an orbit at rest (no drive, nothing left to decay) holds its state
            t = edge
        if t < seg_end:
            # out of targets or past the table: the segment goes on in
            # the next batch, with the draws that follow its own
            if g + 1 < len(jobs):
                rng.bit_generator.state = rewind
                rng.random(sum(n_est for _, n_est, _ in jobs[: g + 1]))
            return s, t, carried
    return first + len(jobs), t, carried


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
    segments = _drive_segments(pulse, duration, tau_corr, rng)
    times = _jump_times(params, pulse.detuning, segments, rng)
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
