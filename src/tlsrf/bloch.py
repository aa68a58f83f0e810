"""Optical Bloch equations for a driven two-level emitter.

State variables are the excited-state population rho11 and the
coherence rho01 = u + i v.  On resonance the rotating-frame equations
reduce to

    d(rho11)/dt = omega * v - rho11/t1
    du/dt       = det * v - u/t2
    dv/dt       = -det * u - v/t2 - (omega/2) * (2*rho11 - 1)

whose fixed point reproduces the standard saturation law.  Chaotic
drive enters through averages over an exponential distribution of the
squared Rabi frequency.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DrivePulse, NumericalGuardError, QuadratureError, TlsParams, step_ratio

_EULER_GAMMA = 0.5772156649015328606

# Default correlation time [ns] of the chaotic source; drives the
# quasi-static validity warning of the chaotic transients.
LAMP_TAU_CORR = 901.8


@dataclass(frozen=True)
class BlochState:
    """Population and coherence of the emitter density matrix."""

    rho11: float
    rho01_re: float = 0.0
    rho01_im: float = 0.0

    _ATOL = 1e-9

    def __post_init__(self):
        if not (-self._ATOL <= self.rho11 <= 1.0 + self._ATOL):
            raise ValueError(f"rho11={self.rho11} outside [0, 1]")
        coh2 = self.rho01_re**2 + self.rho01_im**2
        if coh2 > self.rho11 * (1.0 - self.rho11) + self._ATOL:
            raise ValueError("coherence violates density-matrix positivity")

    @classmethod
    def ground(cls) -> "BlochState":
        return cls(0.0, 0.0, 0.0)


@dataclass
class BlochTrace:
    """Uniformly sampled Bloch-state time series.

    stderr, when present, is the standard error of the mean rho11 of an
    ensemble average.
    """

    t0: float
    dt: float
    rho11: np.ndarray
    rho01_re: np.ndarray
    rho01_im: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if len(self.rho11) == 0:
            raise ValueError("trace must contain samples")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.rho11))


def steady_state_population(params: TlsParams, omega: float, detuning: float = 0.0) -> float:
    """Fixed-point excited population under constant coherent drive.

    Equals S / (2 (1 + S)) on resonance with S = omega**2 t1 t2.
    """
    return steady_state(params, omega, detuning).rho11


def steady_state_from_saturation(s):
    """Resonant steady-state population as a function of S alone, for a
    float or elementwise over an array of S."""
    if np.any(np.asarray(s) < 0):
        raise ValueError("s must be >= 0")
    return 0.5 * s / (1.0 + s)


def steady_state(params: TlsParams, omega: float, detuning: float = 0.0) -> BlochState:
    """Full steady state including the coherence."""
    if not 0 <= omega < math.inf:
        raise ValueError("omega must be finite and >= 0")
    if omega == 0.0:
        return BlochState(0.0, 0.0, 0.0)
    d = detuning**2 + 1.0 / params.t2**2
    x = omega**2 * params.t1 / params.t2
    # rho01 = -(i omega / 2) (2 rho11 - 1) / z with z = 1/t2 + i det;
    # 2 rho11 - 1 = -d / (d + x) and d / z = conj(z) give it without the
    # cancellation in 2 rho11 - 1 at strong drive
    scale = 0.5 * omega / (d + x)
    return BlochState(0.5 * x / (d + x), scale * detuning, scale / params.t2)


# e^z E1(z) of a complex array takes one of three methods per entry: the
# asymptotic series from |z| = _ASYMPTOTIC_RADIUS, where its smallest
# term is below rounding; the power series where |z| + Re z is at most
# _SERIES_LOSS, that is near 0 or near the negative real axis, where the
# continued fraction converges slowly (at -12 + 2i it is off by 1e-7
# after 200 terms) and the series terms cancel to at most e^_SERIES_LOSS
# of their sum; and the continued fraction elsewhere.
_ASYMPTOTIC_RADIUS = 40.0
_SERIES_LOSS = 4.0
_CF_TERMS = 1000


def _expn_cf_scaled(z, n) -> np.ndarray:
    """e^z E_n(z) for each entry of the 1-d arrays z and n, by the
    modified-Lentz continued fraction of Numerical Recipes' expint.
    Only the entries still short of convergence iterate."""
    n = np.broadcast_to(np.asarray(n, dtype=float), np.shape(z))
    b = z + n
    c = np.full_like(b, 1e300)
    d = 1.0 / b
    f = d.copy()
    left = np.arange(len(b))
    for k in range(1, _CF_TERMS):
        a = -k * (n[left] - 1.0 + k)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        c[c == 0.0] = 1e-300
        delta = c * d
        f[left] *= delta
        going = np.abs(delta - 1.0) >= 1e-15
        if not going.any():
            break
        left, b, c, d = left[going], b[going], c[going], d[going]
    return f


def exp1_scaled_complex(z) -> np.ndarray:
    """e^z E1(z) for an array of complex z off the negative real axis,
    the principal branch: E[1 / (x + z)] under the exponential law of x.
    On the positive real axis the result is real: this is also the
    package's real exponential integral.  Relative error is at the
    1e-14 level, ~1e-13 next to the negative real axis (see
    _SERIES_LOSS)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    r = np.abs(z)
    asymptotic = r >= _ASYMPTOTIC_RADIUS
    series = ~asymptotic & (r + z.real <= _SERIES_LOSS)
    fraction = ~(asymptotic | series)

    za = z[asymptotic]
    term = 1.0 / za
    total = term.copy()
    # sum_k (-1)^k k! / z^(k+1); its terms fall while k < |z|
    for k in range(1, int(_ASYMPTOTIC_RADIUS)):
        term *= -k / za
        total += term
        if np.all(np.abs(term) <= 1e-17 * np.abs(total)):
            break
    out[asymptotic] = total

    zs = z[series]
    minus_z = -zs
    term = np.ones_like(zs)
    total = np.zeros_like(zs)
    # E1(z) = -gamma - log z - sum_k (-z)^k / (k k!), checked every 8 terms
    for k in range(1, 200):
        term *= minus_z
        term *= 1.0 / k
        total += term * (1.0 / k)
        if k % 8 == 0 and np.all(np.abs(term) <= 1e-17 * k * np.abs(total)):
            break
    out[series] = np.exp(zs) * (-_EULER_GAMMA - np.log(zs) - total)

    out[fraction] = _expn_cf_scaled(z[fraction], 1)
    return out


def _scaled_moments(a, count: int) -> np.ndarray:
    """m_n = E[(1 + x/a)^-n] = a e^a E_n(a), n = 1..count, under the
    exponential law of x, for each entry of a float or 1-d array a > 0:
    shape (len(a), count), one row per entry.  Up to a = 2 by the
    recurrence m_(n+1) = (a/n) (1 - m_n) from m_1 = a e^a E1(a)
    (integration by parts; e^a E1(a) from the power series of
    `exp1_scaled_complex`), which amplifies the error of m_n by
    a m_n / (n m_(n+1)), at most 3x over all n there; above, where the
    recurrence loses a/n per step, each m_n from its own continued
    fraction.  Every step is elementwise, so a row does not depend on
    the other entries."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    m = np.empty((len(a), count))
    far = a > 2.0
    af = a[far]
    cf = _expn_cf_scaled(np.repeat(af, count), np.tile(np.arange(1.0, count + 1), len(af)))
    m[far] = af[:, None] * cf.reshape(len(af), count)
    an = a[~far]
    near = np.empty((len(an), count))
    near[:, 0] = an * exp1_scaled_complex(an).real
    for k in range(1, count):
        near[:, k] = (an / k) * (1.0 - near[:, k - 1])
    m[~far] = near
    return m


def _mean_inverse_saturation(params: TlsParams, mean_omega, detuning: float):
    d = detuning**2 + 1.0 / params.t2**2
    c = d * params.t2 / params.t1  # rho_ss = X / (2 (X + c)) with X = omega^2
    return c / mean_omega**2


def chaotic_steady_state(params: TlsParams, mean_omega, detuning: float = 0.0):
    """Steady population averaged over exponential intensity fluctuations,
    for a float or elementwise over a 1-d array of mean drives.

    Closed form 0.5 * (1 - a e^a E1(a)) with a = 1/S_bar on resonance;
    off resonance a generalizes to (det^2 + 1/t2^2) t2 /
    (t1 * mean_omega^2).  Since E2(a) = e^-a - a E1(a) (Abramowitz &
    Stegun 5.1.14), it equals 0.5 e^a E2(a) = 0.5 m_2 / a with the
    moment m_2 of `_scaled_moments`, which at weak drive (large a) is a
    continued fraction of its own and so keeps its digits, where
    1 - a e^a E1(a) would cancel to O(1/a).  Always below the
    coherent-drive value.  A float is an array of one entry.
    """
    w = np.atleast_1d(np.asarray(mean_omega, dtype=float))
    if not ((w >= 0) & (w < math.inf)).all():
        raise ValueError("mean_omega must be finite and >= 0")
    pop = np.zeros(len(w))
    on = w > 0.0
    a = _mean_inverse_saturation(params, w[on], detuning)
    pop[on] = 0.5 * _scaled_moments(a, 2)[:, 1] / a
    return pop if np.ndim(mean_omega) else pop[0]


def chaotic_steady_state_quadrature(params: TlsParams, mean_omega: float, detuning: float = 0.0) -> float:
    """Reference evaluation of the chaotic average with no exponential
    integral in it: the coherent population 0.5 / (1 + c / omega^2) of
    each node drive, averaged by `_chaotic_average` on the panel rule
    `_panel_nodes` from 2 panels, the count doubling until two counts
    agree to 1e-9, at most to 4096 panels."""
    if not 0 <= mean_omega < math.inf:
        raise ValueError("mean_omega must be finite and >= 0")
    if mean_omega == 0.0:
        return 0.0

    def rows(oms):
        return (0.5 / (1.0 + _mean_inverse_saturation(params, oms, detuning)))[:, None]

    return float(_chaotic_average(rows, mean_omega, 2, 1e-9, 1, 4096)[0])


def sample_chaotic_intensity(rng: np.random.Generator, mean_omega_sq: float, size=None):
    """Draw squared Rabi frequencies for a chaotic field.

    The instantaneous intensity of chaotic light is exponentially
    distributed, so the squared Rabi frequency is drawn from an
    exponential law with the given mean.
    """
    if not 0 <= mean_omega_sq < math.inf:
        raise ValueError("mean_omega_sq must be finite and >= 0")
    if mean_omega_sq == 0.0:
        return 0.0 if size is None else np.zeros(size)
    return rng.exponential(scale=mean_omega_sq, size=size)


# Nodes per call of the averaged function: as many as keep the arrays
# that it works on (row_len entries per node) within _CHUNK_BUDGET
# entries, 2 MB of float64, and at least one.  `_node_sum` adds the rows
# in node order, so the budget bounds memory and moves no output bit.
_CHUNK_BUDGET = 1 << 18

# The composite rule in y = drive / mean drive: Gauss-Legendre panels of
# _PANEL_NODES nodes over [0, _Y_SPAN], beyond which the law of y holds
# e^-36 of its mass, below rounding.
_PANEL_NODES = 16
_Y_SPAN = 6.0


@functools.lru_cache(maxsize=None)
def _panel_nodes(panels: int):
    """Composite Gauss-Legendre rule of `panels` equal panels over
    y = drive / mean in [0, _Y_SPAN], for the law of y under the
    exponential intensity law, density 2 y e^(-y^2): the drives in units
    of the mean and the weights.  A Rabi phase linear in y takes nodes in
    proportion to it here, where the Gauss-Laguerre rule in x = y^2 takes
    them in proportion to its square."""
    g, gw = np.polynomial.legendre.leggauss(_PANEL_NODES)
    h = _Y_SPAN / panels
    y = (np.arange(panels)[:, None] + 0.5 * (g + 1.0)) * h
    w = h * gw * y * np.exp(-y * y)
    return y.ravel(), w.ravel()


def _node_sum(f, drives, weights, row_len: int) -> np.ndarray:
    """sum_i weights[i] f(drives)[i], where f maps an array of drives to
    one row per drive, in an array of its own, and works on row_len
    entries per drive.  f is called on chunks of the drives so that
    memory is bounded by one chunk.  Each row is scaled in place by its
    weight and added to one running total in node order, so where a row
    of f does not depend on the chunk that computes it, as for every f
    here, neither does the sum, to the bit."""
    size = max(1, _CHUNK_BUDGET // row_len)
    total = None
    for start in range(0, len(drives), size):
        rows = f(drives[start : start + size])
        rows *= weights[start : start + size, None]
        if total is None:
            total = np.zeros(rows.shape[1])
        for row in rows:
            total += row
    return total


def _chaotic_average(f, mean_omega: float, order: int, rtol: float, row_len: int, max_order: int) -> np.ndarray:
    """Expectation of f over the exponential intensity law, where f maps
    an array of drives to one row per drive and works on row_len entries
    per drive, on the composite rule `_panel_nodes` of `order` panels,
    summed by `_node_sum`.

    The average is taken at order and at 2*order.  Where the two differ
    anywhere by more than rtol times the largest magnitude of the 2*order
    result, the order doubles while it is below max_order, and
    QuadratureError is raised once it is not.  The result is the
    average at the order that passed.
    """

    def run(n):
        ys, ws = _panel_nodes(n)
        return _node_sum(f, ys * mean_omega, ws, row_len)

    result = run(order)
    while True:
        refined = run(2 * order)
        scale = float(np.max(np.abs(refined))) or 1.0
        worst = float(np.max(np.abs(result - refined)))
        if worst <= rtol * scale:
            return result
        if order >= max_order:
            raise QuadratureError(
                f"chaotic average not converged at order {order} "
                f"(vs {2*order}: {worst/scale:.2e} relative)"
            )
        order, result = 2 * order, refined


# ---------------------------------------------------------------------------
# Propagators, all from one batched generator: the augmented matrix
# M = [[A, b], [0, 0]] of x' = A x + b acts linearly on (x, 1) (Van Loan,
# IEEE TAC 23, 395 (1978)).  expm(M t) is the exact map at constant
# drive, and every time-domain path takes it, as `expm_increment` or as
# the one Taylor polynomial inside its norm bound.  The drive is
# piecewise constant per step (envelope edges snap to the step grid), so
# each run of equal amplitude has one constant map, and `orbit` fills a
# uniform grid with it by doubling.

_MAP_DEGREE = 12  # Taylor degree of the map
_STEP_NORM = 0.11  # ||M dt||_1 up to which that map matches expm to rounding


def augmented_generator(params: TlsParams, omegas, detuning: float = 0.0) -> np.ndarray:
    """M = [[A, b], [0, 0]] for x = (rho11, Re rho01, Im rho01), one per
    drive: shape (n, 4, 4) for an array of n Rabi frequencies."""
    om = np.atleast_1d(np.asarray(omegas, dtype=float))
    it1, it2 = 1.0 / params.t1, 1.0 / params.t2
    m = np.zeros((len(om), 4, 4))
    m[:, :3, :3] = [[-it1, 0.0, 0.0], [0.0, -it2, detuning], [0.0, -detuning, -it2]]
    m[:, 0, 2], m[:, 2, 0], m[:, 2, 3] = om, -om, 0.5 * om
    return m


def taylor_increment(m, dt):
    """T - I for the degree-_MAP_DEGREE Taylor polynomial T of
    expm(M dt), for every generator in the stack m: expm(M dt) - I to
    rounding while ||M dt||_1 <= _STEP_NORM.

    Horner's rule, I + Z (I + Z/2 (I + ... (I + Z/_MAP_DEGREE))) with Z = M dt,
    stops short of its leading I: a map close to I keeps the small part
    that carries its slow modes to full relative precision.
    """
    z = m * dt
    eye = np.eye(4)
    t = eye + z / _MAP_DEGREE
    for k in range(_MAP_DEGREE - 1, 1, -1):
        t = z @ t
        t /= k
        t += eye
    return z @ t


def expm_increment(m, dt):
    """expm(M dt) - I for every generator in the stack m, to rounding.

    The degree-12 Taylor map of M dt / 2^s, with s the fewest halvings
    that bring ||M dt / 2^s||_1 to _STEP_NORM, squared back s times in
    increment form, D <- 2 D + D D (scaling and squaring; Higham, SIAM
    J. Matrix Anal. Appl. 26, 1179 (2005)), so a map close to I keeps
    its slow modes.
    """
    norm = np.abs(m).sum(axis=-2).max(axis=-1) * abs(dt)
    s = np.zeros(len(m), dtype=np.int64)
    big = norm > _STEP_NORM
    s[big] = np.ceil(np.log2(norm[big] / _STEP_NORM))
    d = taylor_increment(m, (dt / 2.0**s)[:, None, None])
    for k in range(s.max(initial=0)):
        d = np.where((s > k)[:, None, None], 2.0 * d + d @ d, d)
    return d


def doublings(maps, n):
    """The increments with which `orbit` fills n points from the
    increments maps, D = T - I, then 2 D + D D = T^2 - I, ...:
    ceil(log2(n)) of them, at least one, each of the shape of maps."""
    out = [maps]
    for _ in range((int(n) - 1).bit_length() - 1):
        e = out[-1]
        out.append(2.0 * e + e @ e)
    return out


def orbit(maps, x0, n, out=None):
    """The first n points x0, T x0, T^2 x0, ... of the orbit of each
    state x0 (k, 4) under its map T, given as the increment D = T - I in
    the stack maps (k, 4, 4), or one (4, 4) for all, as (k, 4, n),
    written into out when it is given.  maps may also be the list that
    `doublings` returns for them, so that orbits under one map share it.

    With the first j points filled and D = T^j - I, the next j are
    x + D x, then D <- 2 D + D D: log2(n) batched matmuls, and a map
    close to I does not lose its slow modes to rounding on the way to a
    long orbit.
    """
    if not isinstance(maps, list):
        maps = doublings(maps, n)
    x = np.empty((len(x0), 4, n)) if out is None else out
    x[:, :, 0] = x0
    k = 1
    for e in maps:
        if k >= n:
            break
        fill = min(k, n - k)
        new = x[:, :, k : k + fill]
        np.matmul(e, x[:, :, :fill], out=new)
        new += x[:, :, :fill]
        k += fill
    return x


def _runs(amp_steps):
    """(start, stop) of each run of equal amplitude on the step grid."""
    edges = np.concatenate(([0], np.flatnonzero(np.diff(amp_steps)) + 1, [len(amp_steps)]))
    return zip(edges[:-1], edges[1:])


def _orbits(params: TlsParams, omegas, amps, dt: float, detuning: float, x0) -> np.ndarray:
    """Traces (k, 4, n + 1) of x = (rho11, u, v, 1) from x0 for the k
    drives omegas under the per-step envelope amps (n steps), exact to
    rounding at every sample.

    Each run of equal amplitude is the `orbit` of its first state under
    the exact step map expm(M dt) in increment form, one
    `expm_increment` per run for all k drives.
    """
    x = np.empty((len(omegas), 4, len(amps) + 1))
    x[:, :, 0] = x0
    for start, stop in _runs(amps):
        d = expm_increment(augmented_generator(params, omegas * amps[start], detuning), dt)
        orbit(d, x[:, :, start], stop + 1 - start, out=x[:, :, start : stop + 1])
    return x


def _step_guard(params: TlsParams, omega_max: float, dt: float):
    """Refuse dt above min(t2, 2 pi / omega_max) / 50.  Every step map
    is exact, so dt bounds no truncation error: it is the sampling step
    of the output and of the envelope, which `_amplitudes_per_step`
    reads at step midpoints.  That moves each envelope edge by up to
    dt / 2, and so can shift a pulse's area by up to omega_max dt / 2,
    at most pi / 50 here."""
    limit = params.t2
    if omega_max > 0:
        limit = min(limit, 2.0 * math.pi / omega_max)
    limit /= 50.0
    if dt > limit * (1.0 + 1e-12):
        raise NumericalGuardError(
            f"dt={dt} too coarse for T2={params.t2} and max drive {omega_max}; use dt <= {limit:.3e}"
        )


def _check_times(t_end: float, dt: float):
    """Refuse a trace end or a step that is not positive and finite,
    before any guard or kernel sees it."""
    if not 0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")


def _amplitudes_per_step(pulse: DrivePulse, n_steps: int, dt: float, t0: float = 0.0) -> np.ndarray:
    # Evaluating at step midpoints snaps envelope edges to the grid.
    mid = t0 + dt * (np.arange(n_steps) + 0.5)
    amps = np.zeros(n_steps)
    for start, stop, amp in pulse.envelope:
        amps[(mid >= start) & (mid < stop)] = amp
    return amps


def integrate(
    params: TlsParams,
    pulse: DrivePulse,
    t_end: float,
    dt: float,
    initial: BlochState | None = None,
) -> BlochTrace:
    """Trace of the Bloch equations from t = 0 to t_end, sampled every dt.

    The envelope is piecewise constant per step, so each run of equal
    amplitude is the orbit of its first state under the exact map of
    one step, filled by doubling (`_orbits` with one drive).  The
    samples are exact to rounding for that envelope: halving dt moves
    no shared sample beyond rounding unless an envelope edge moves with
    it.  A step-size guard enforces dt <= min(t2, 2*pi/omega)/50
    (`_step_guard`).
    """
    _check_times(t_end, dt)
    om_max = pulse.rabi * pulse.max_amplitude()
    _step_guard(params, om_max, dt)
    n_steps = math.ceil(step_ratio(t_end, dt))
    state0 = initial or BlochState.ground()
    amps = _amplitudes_per_step(pulse, n_steps, dt)
    x0 = (state0.rho11, state0.rho01_re, state0.rho01_im, 1.0)
    x = _orbits(params, np.array([pulse.rabi]), amps, dt, pulse.detuning, x0)[0]
    return BlochTrace(0.0, dt, x[0], x[1], x[2])


def _warn_quasi_static(pulse: DrivePulse, t_end: float):
    """Warn when the driven span of the pulse within [0, t_end] is not
    small against the source correlation time LAMP_TAU_CORR (above a
    tenth of it), where a drive held fixed over the trace no longer
    describes the chaotic source."""
    spans = [
        (max(start, 0.0), min(stop, t_end))
        for start, stop, amp in pulse.envelope
        if amp > 0 and start < t_end and stop > 0.0
    ]
    if spans:
        span = max(s for _, s in spans) - min(s for s, _ in spans)
        if span > LAMP_TAU_CORR / 10.0:
            warnings.warn(
                f"pulse span {span} ns is not small against the source correlation "
                f"time {LAMP_TAU_CORR} ns; the quasi-static approximation degrades",
                stacklevel=3,
            )


def chaotic_mean_transient(
    params: TlsParams, pulse: DrivePulse, t_end: float, dt: float, panels: int = 2
) -> BlochTrace:
    """Exact mean transient under quasi-static chaotic drive.

    The mean of rho11, u and v over the exponential intensity law of the
    squared Rabi frequency, taken over y = drive / mean drive with the
    composite rule `_panel_nodes` through `_chaotic_average`: from
    `panels` panels, the count doubles until two counts agree to 1e-6
    of the largest value.
    The Rabi phase at a sample is linear in y, at a rate of at most the
    mean pulse area A up to t_end; panels that each span two periods of
    it, A * _Y_SPAN / (4 pi) of them, resolve it with no help from the
    damping, and the doubling stops there at the latest.  Each node is
    the trace of `integrate` at its drive, from the same kernel
    `_orbits`, exact to rounding at its samples, so the rule is the
    only source of error in the mean.  Nothing is sampled, so the trace
    has no stderr.
    `_node_sum` holds one chunk of node orbits at a time, at most
    `_CHUNK_BUDGET` entries or one node, whatever the number of steps,
    and adds the nodes in order, so the chunk size moves no bit.  Same
    step guard and quasi-static warning as `chaotic_transient`.
    """
    _check_times(t_end, dt)
    _warn_quasi_static(pulse, t_end)
    _step_guard(params, 2.0 * pulse.rabi * pulse.max_amplitude(), dt)
    n = math.ceil(step_ratio(t_end, dt)) + 1
    if pulse.rabi == 0.0:
        return BlochTrace(0.0, dt, np.zeros(n), np.zeros(n), np.zeros(n))
    amps = _amplitudes_per_step(pulse, n - 1, dt)
    area = pulse.rabi * dt * float(np.abs(amps).sum())

    def rows(oms):
        # the affine row is left out: its weight sum, ~1, would become the
        # scale of the doubling check
        x = _orbits(params, oms, amps, dt, pulse.detuning, (0.0, 0.0, 0.0, 1.0))
        return x[:, :3].reshape(len(oms), 3 * n)

    resolved = math.ceil(area * _Y_SPAN / (4.0 * math.pi))
    mean = _chaotic_average(rows, pulse.rabi, panels, 1e-6, 4 * n, resolved)
    return BlochTrace(0.0, dt, mean[:n], mean[n : 2 * n], mean[2 * n :])


def chaotic_transient(
    params: TlsParams,
    pulse: DrivePulse,
    t_end: float,
    dt: float,
    n_samples: int,
    rng: np.random.Generator,
) -> BlochTrace:
    """Ensemble-averaged transient under quasi-static chaotic drive: the
    stochastic path to the mean that `chaotic_mean_transient` takes
    exactly.

    Each member draws a squared Rabi frequency from the exponential
    intensity law and is integrated with the shared envelope; the
    returned trace is the pointwise mean with the standard error of
    rho11.  The members are the orbits of `integrate`'s kernel
    `_orbits` at the drawn drives, summed with unit weights by
    `_node_sum` in draw order, so memory is O(n_samples + one chunk of
    orbits) and the chunk size moves no bit.
    Valid while the pulse is much shorter than the source correlation
    time (warned above LAMP_TAU_CORR/10).
    """
    _check_times(t_end, dt)
    if n_samples < 100:
        raise ValueError("n_samples must be >= 100")
    _warn_quasi_static(pulse, t_end)
    om_max = pulse.rabi * pulse.max_amplitude()
    # drawn intensities can exceed the mean; guard with a factor that
    # covers all but the exponential tail, whose members stay exact at
    # their samples but see the envelope edges snapped coarsely against
    # their Rabi period, and are statistically negligible
    _step_guard(params, 2.0 * om_max, dt)
    n = math.ceil(step_ratio(t_end, dt)) + 1
    w2 = sample_chaotic_intensity(rng, pulse.rabi**2, size=n_samples)
    omegas = np.sqrt(np.asarray(w2, dtype=float))
    amps = _amplitudes_per_step(pulse, n - 1, dt)

    def rows(oms):
        # rho11^2 takes the affine coordinate's slot, and the reshape of
        # the contiguous orbits makes no copy
        x = _orbits(params, oms, amps, dt, pulse.detuning, (0.0, 0.0, 0.0, 1.0))
        np.square(x[:, 0], out=x[:, 3])
        return x.reshape(len(oms), 4 * n)

    sums = _node_sum(rows, omegas, np.ones(n_samples), 4 * n)
    mean, coh_re, coh_im, meansq = sums.reshape(4, n) / n_samples
    var = np.maximum(meansq - mean**2, 0.0) * n_samples / (n_samples - 1)
    stderr = np.sqrt(var / n_samples)
    return BlochTrace(0.0, dt, mean, coh_re, coh_im, stderr=stderr)
