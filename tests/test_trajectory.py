import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.optimize import curve_fit
from scipy.stats import kstest

from tlsrf import bloch, core, emission, photonstat, trajectory
from tlsrf.core import DrivePulse, NumericalGuardError, Statistics


def poisson_stream(rate, duration, rng, channel):
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.3) + 100)
    t = np.cumsum(gaps)
    t = t[t < duration]
    return t, np.full(len(t), channel, dtype=np.int8)


def expm_increments(m, taus):
    """expm(m tau) - I for taus that halve along the array.  Where
    ||m tau||_1 <= 1 it is m times the top right block of expm([[m, I],
    [0, 0]] tau), the integral of expm(m s) over [0, tau] (Van Loan), so
    a map close to I keeps its slow modes; above, (I + D)^2 - I = 2 D + D D
    from the next smaller tau."""
    small = np.abs(m).sum(axis=0).max() * taus <= 1.0
    blocks = np.zeros((np.count_nonzero(small), 8, 8))
    blocks[:, :4, :4] = m * taus[small, None, None]
    blocks[:, :4, 4:] = np.eye(4) * taus[small, None, None]
    d = np.empty((len(taus), 4, 4))
    d[small] = m @ expm(blocks)[:, :4, 4:]
    for k in np.flatnonzero(~small)[::-1]:
        d[k] = 2.0 * d[k + 1] + d[k + 1] @ d[k + 1]
    return d


def bisect_from(u, x0, m, span):
    """Reference waiting times: 64 bisection steps on P(tau) > u over
    [0, span], P the last component of expm(M' tau) x0; inf where P
    stays above u.  Each midpoint is expm(M' span / 2^k) applied to the
    state at the lower end."""
    taus = span / 2.0 ** np.arange(65)
    d = expm_increments(m, taus)
    x = np.tile(x0, (len(u), 1))
    end = x + x @ d[0].T
    lo = np.zeros(len(u))
    for k in range(1, 65):
        mid = x + x @ d[k].T
        above = mid[:, 3] > u
        x[above] = mid[above]
        lo[above] += taus[k]
    return np.where(end[:, 3] <= u, lo, np.inf)


def bisect_waits(u, j, x, p_lo, p_hi, segs, counts):
    """Drop-in for trajectory._waits: 64 bisection steps on P over each
    interval's node step [j h, (j + 1) h], from the node state x by expm
    of M'; p_lo and p_hi are not used."""
    out = np.empty(len(u))
    a = 0
    for m, h, c in zip(segs.m, segs.h, counts):
        taus = h / 2.0 ** np.arange(65)
        d = expm_increments(m, taus)
        xs, lo = x[a : a + c].copy(), np.zeros(c)
        for k in range(1, 65):
            mid = xs + xs @ d[k].T
            above = mid[:, 3] > u[a : a + c]
            xs[above] = mid[above]
            lo[above] += taus[k]
        out[a : a + c] = j[a : a + c] * h + lo
        a += c
    return out


def bisect_edge_waits(u, j, x, p_lo, p_hi, segs, g):
    """Drop-in for trajectory._edge_waits, by `bisect_waits`."""
    return bisect_waits(np.array(u), np.array(j), np.array(x), p_lo, p_hi, segs.part(g, g + 1), [len(u)])


def carried_state(rng):
    """A state carried over an edge: an unnormalized density matrix that
    has lost trace on its way there."""
    norm = rng.random()
    r11 = norm * rng.random()
    coh = math.sqrt(r11 * (norm - r11)) * rng.random() * np.exp(2j * math.pi * rng.random())
    return np.array([r11, coh.real, coh.imag, norm])


def one_segment(m):
    """The sampler's data of one drive segment with generator m: its
    stacked `_Segments` and the doubled step maps of its tables."""
    segs = trajectory._Segments.of(m[None])
    d = bloch.taylor_increment(segs.m, segs.h[:, None, None], bloch._MAP_DEGREE)
    return segs, bloch.doublings(d, trajectory._MAX_NODES, increments=True)


def solve(segs, maps, x0, u, n_max, seg_end=np.inf):
    """The table of x0 and the waiting times of intervals started back to
    back from it, through the sampler's table (a ground table, or the
    table of an interval carried in), bracket and polish: inf past the
    table and past the cut at seg_end."""
    if x0 is trajectory._GROUND:
        table = trajectory._ground_tables(maps, segs, np.array([u.min()]), np.array([n_max]))[0]
    else:
        table = trajectory._carried_table([e[0] for e in maps], x0, u.min(), n_max, np.empty((4, n_max)))
    k, inner, args = trajectory._bracket(table, u, segs.h[0], 0.0, seg_end)
    waits = np.full(len(u), np.inf)
    waits[: len(k)][k == 0] = 0.0
    waits[inner] = trajectory._waits(u[inner], *args, segs, [len(inner)])
    return table, waits


def conditional(log_s, ratio, det):
    """M' and its table step for S = 10^log_s, t2 = ratio t1."""
    params = core.TlsParams(t1=0.641, t2=0.641 * ratio)
    m = trajectory._conditional_generator(params, core.omega_from_saturation(10.0**log_s, params), det)
    return m, trajectory._STEP_NORM / np.abs(m).sum(axis=0).max()


def interval_cdf(params, det, segments, times):
    """1 - P of each interval between consecutive tags, the first from
    t = 0, with P the last component of the orbit of M' from (0, 0, 0, 1)
    taken by expm across the drive segments it spans."""
    edges = np.array([a for a, _, _ in segments])
    starts = np.concatenate(([0.0], times[:-1]))
    out = np.empty(len(times))
    for i, (a, b) in enumerate(zip(starts, times)):
        x = np.array([0.0, 0.0, 0.0, 1.0])
        k = int(np.searchsorted(edges, a, side="right")) - 1
        while True:
            stop = min(b, segments[k][1])
            x = expm(trajectory._conditional_generator(params, segments[k][2], det) * (stop - a)) @ x
            if stop == b:
                break
            a, k = stop, k + 1
        out[i] = 1.0 - x[3]
    return out


@pytest.fixture(scope="module")
def cw_tags():
    qd = core.PAPER_QD.tls
    om = core.omega_from_saturation(0.6, qd)
    return trajectory.simulate_tags(qd, DrivePulse.cw(om), 2e5, 1.0, core.stream(42))


class TestSimulateTags:
    def test_dark_emitter(self, qd):
        tags = trajectory.simulate_tags(qd, DrivePulse.cw(0.0), 1e3, 1.0, core.stream(1))
        assert len(tags.times) == 0

    def test_rate_matches_steady_state(self, qd, cw_tags):
        om = core.omega_from_saturation(0.6, qd)
        expect = bloch.steady_state_population(qd, om) / qd.t1
        n = len(cw_tags.times)
        rate = n / cw_tags.duration
        assert abs(rate - expect) < 3.0 * math.sqrt(n) / cw_tags.duration

    def test_rate_strong_drive(self, qd):
        # the steady rate at S = 10.5 is sensitive to the dephasing
        # unraveling through the t1/t2 competition
        tags = trajectory.simulate_tags(qd, DrivePulse.cw(7.1), 1e5, 1.0, core.stream(43))
        expect = bloch.steady_state_population(qd, 7.1) / qd.t1
        n = len(tags.times)
        assert abs(n / 1e5 - expect) < 3.0 * math.sqrt(n) / 1e5

    def test_chaotic_rate(self, qd):
        pulse = DrivePulse.cw(7.2, statistics=Statistics.CHAOTIC)
        duration = 4e5
        tags = trajectory.simulate_tags(qd, pulse, duration, 1.0, core.stream(44))
        expect = bloch.chaotic_steady_state(qd, 7.2) / qd.t1
        # the error budget is dominated by block-to-block intensity
        # fluctuations, estimated from the empirical block rates
        edges = np.arange(0.0, duration + 1.0, 901.8)
        counts, _ = np.histogram(tags.times, bins=edges)
        block_rates = counts / np.diff(edges)
        se = block_rates.std(ddof=1) / math.sqrt(len(block_rates))
        assert abs(len(tags.times) / duration - expect) < 3.0 * se

    def test_efficiency_thins_rate(self, qd):
        om = core.omega_from_saturation(0.6, qd)
        full = trajectory.simulate_tags(qd, DrivePulse.cw(om), 5e4, 1.0, core.stream(7))
        half = trajectory.simulate_tags(qd, DrivePulse.cw(om), 5e4, 0.5, core.stream(7))
        ratio = len(half.times) / len(full.times)
        assert ratio == pytest.approx(0.5, abs=3.0 / math.sqrt(len(half.times)))

    def test_antibunched_waiting_times(self, cw_tags):
        qd = core.PAPER_QD.tls
        gaps = np.diff(cw_tags.times)
        assert gaps.min() > 0.0
        # waiting-time density vanishes at zero: far fewer short gaps
        # than a Poisson process of the same rate would produce
        rate = len(cw_tags.times) / cw_tags.duration
        cutoff = 0.05 * qd.t1
        poisson_frac = 1.0 - math.exp(-rate * cutoff)
        observed = (gaps < cutoff).mean()
        assert observed < 0.2 * poisson_frac

    def test_fair_channel_split(self, cw_tags):
        n1 = int((cw_tags.channels == 1).sum())
        n2 = int((cw_tags.channels == 2).sum())
        n = n1 + n2
        assert abs(n1 - n2) < 4.0 * math.sqrt(n)

    def test_blinking_reduces_rate(self, qd):
        om = 7.1
        on = trajectory.simulate_tags(qd, DrivePulse.cw(om), 2e5, 1.0, core.stream(9))
        blk = trajectory.simulate_tags(
            qd, DrivePulse.cw(om), 2e5, 1.0, core.stream(9), blinking=(0.5, 405.0)
        )
        ratio = len(blk.times) / len(on.times)
        # on-fraction 0.5 with ~250 telegraph correlation times of
        # averaging
        assert ratio == pytest.approx(0.5, abs=0.1)

    def test_duration_guard(self, qd):
        with pytest.raises(ValueError):
            trajectory.simulate_tags(qd, DrivePulse.cw(1.0), 1.0, 1.0, core.stream(1))

    def test_efficiency_guard(self, qd):
        with pytest.raises(ValueError):
            trajectory.simulate_tags(qd, DrivePulse.cw(1.0), 1e3, 0.0, core.stream(1))

    def test_reproducible(self, qd):
        om = core.omega_from_saturation(0.6, qd)
        a = trajectory.simulate_tags(qd, DrivePulse.cw(om), 1e4, 1.0, core.stream(11))
        b = trajectory.simulate_tags(qd, DrivePulse.cw(om), 1e4, 1.0, core.stream(11))
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.channels, b.channels)

    def test_pulsed_envelope_confines_emission(self, qd):
        # 2 ns pulses at a 50 ns period: tags cluster in/near the pulses.
        # After a pulse the population rho11(2 ns) decays freely, so each
        # pulse leaves rho11(2 ns) e^-5 tags later than 5 t1 past its end
        # (~0.6 over the run) and 200 rho11(2 ns) e^-20 (~2e-7) later
        # than 20 t1
        envelope = tuple((50.0 * k, 50.0 * k + 2.0, 1.0) for k in range(200))
        pulse = DrivePulse(rabi=7.2, envelope=envelope)
        tags = trajectory.simulate_tags(qd, pulse, 1e4, 1.0, core.stream(13))
        phase = tags.times % 50.0
        assert np.all(phase < 2.0 + 20.0 * qd.t1)
        rho11_end = bloch.integrate(qd, DrivePulse.square(7.2, 0.0, 2.0), 2.0, 0.002).rho11[-1]
        expect = 200.0 * rho11_end * math.exp(-5.0)
        late = int((phase >= 2.0 + 5.0 * qd.t1).sum())
        assert abs(late - expect) <= 3.0 * math.sqrt(expect)

    def test_csv_export(self, qd, tmp_path, cw_tags):
        path = tmp_path / "tags.csv"
        cw_tags.to_csv(path)
        assert path.read_text().splitlines()[0] == "time_ns,channel"

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux VmHWM")
    def test_repeated_calls_hold_no_memory(self):
        # the same seed repeats the same work, so memory that a call
        # keeps shows as a rising peak RSS over the later calls: keeping
        # one tag array per call adds ~1.5 MB over calls 3-10, where the
        # kernel's batched RSS counters alone move the peak by up to
        # ~0.15 MB.  The calls run in a fresh interpreter and read its
        # VmHWM: ru_maxrss would start from this process's peak, which
        # a child inherits.  The peak also depends on the heap layout, so
        # ten more calls under tracemalloc count the bytes still held
        # after each, in blocks of 1 KB or more: numpy keeps freed
        # buffers below 1 KB in a cache of its own, which moves the
        # total by ~1 KB from call to call
        script = (
            "import gc, tracemalloc\n"
            "from tlsrf import core, trajectory\n"
            "qd = core.PAPER_QD.tls\n"
            "pulse = core.DrivePulse.cw(core.omega_from_saturation(0.6, qd), statistics=core.Statistics.CHAOTIC)\n"
            "for _ in range(10):\n"
            "    trajectory.simulate_tags(qd, pulse, 1e5, 1.0, core.stream(100))\n"
            "    status = open('/proc/self/status').read()\n"
            "    print(status.split('VmHWM:')[1].split()[0])\n"
            "tracemalloc.start()\n"
            "for _ in range(10):\n"
            "    trajectory.simulate_tags(qd, pulse, 1e5, 1.0, core.stream(100))\n"
            "    gc.collect()\n"
            "    print(sum(t.size for t in tracemalloc.take_snapshot().traces if t.size >= 1024))\n"
        )
        src = os.path.dirname(os.path.dirname(trajectory.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        lines = [int(line) for line in out.stdout.split()]
        assert len(lines) == 20
        peak_kb, traced = lines[:10], lines[10:]
        assert max(peak_kb[2:]) - peak_kb[2] <= 0.5 * 1024
        assert max(traced[2:]) <= traced[2]


# S = omega^2 t1 t2 over [0.01, 100], t2/t1 over (0.05, 2], detuning over
# [-5, 5] rad/ns; brackets from under one t2 to a chaotic block
leg_cases = st.tuples(
    st.floats(-2.0, 2.0),
    st.floats(0.05, 2.0, exclude_min=True),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 1000.0),
    st.integers(0, 2**32 - 1),
)


def polish_case(case, carried):
    """The `_newton` inputs (coef, u, p_lo, p_hi, h, tau0) of the
    intervals bracketed on a table of the sampler: 400 from the ground
    state, or 20 from a carried one."""
    log_s, ratio, det, bracket, seed = case
    m, _ = conditional(log_s, ratio, det)
    segs, maps = one_segment(m)
    rng = np.random.default_rng(seed)
    n_max = min(trajectory._MAX_NODES, int(bracket / segs.h[0]) + 2)
    if carried:
        x0 = carried_state(rng)
        u = rng.random(20) * x0[3]
        table = trajectory._carried_table([e[0] for e in maps], x0, u.min(), n_max, np.empty((4, n_max)))
    else:
        u = rng.random(400)
        table = trajectory._ground_tables(maps, segs, np.array([u.min()]), np.array([n_max]))[0]
    _, inner, (j, x, p_lo, p_hi) = trajectory._bracket(table, u, segs.h[0], 0.0, np.inf)
    h = np.full(len(inner), segs.h[0])
    return segs.rows[0] @ x.T, u[inner], p_lo, p_hi, h, j * h


def poly_case(coefs, u, p_lo, p_hi, h, tau0):
    """`_newton` inputs for given polynomials, one coefficient list per
    interval, on one node step h at tau0."""
    coef = np.zeros((trajectory._P_DEGREE + 1, len(coefs)))
    for i, c in enumerate(coefs):
        coef[: len(c), i] = c
    n = len(coefs)
    return coef, np.array(u), np.array(p_lo), np.array(p_hi), np.full(n, h), np.full(n, tau0)


polish_cases = st.builds(polish_case, leg_cases, st.booleans())


class TestLegSolver:
    @settings(max_examples=60, deadline=None)
    @given(leg_cases)
    # weak detuned drive over a long bracket: P decays at ~2e-4 /ns over
    # ~7e4 steps, so a step map that loses eps of its slow decay to the
    # I in front moves the roots by ~3e-9 ns
    @example((-2.0, 2.0, 5.0, 1000.0, 1))
    def test_fresh_legs_match_bisection(self, case):
        log_s, ratio, det, bracket, seed = case
        m, h = conditional(log_s, ratio, det)
        segs, maps = one_segment(m)
        rng = np.random.default_rng(seed)
        u = rng.random(400)
        n_max = min(trajectory._MAX_NODES, int(bracket / h) + 2)
        table, got = solve(segs, maps, trajectory._GROUND, u, n_max)
        ref = bisect_from(u, trajectory._GROUND, m, (table.shape[1] - 1) * h)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-10)
        # with the bracket as the segment end, every interval up to the
        # first that ends at or past it is solved, to the same bits
        _, cut = solve(segs, maps, trajectory._GROUND, u, n_max, seg_end=bracket)
        need = int(np.searchsorted(np.cumsum(ref), bracket)) + 1
        assert np.array_equal(cut[:need], got[:need])
        assert np.all(np.isinf(cut[need:]) | (cut[need:] == got[need:]))

    @settings(max_examples=60, deadline=None)
    @given(leg_cases, st.booleans())
    # the target at the norm: rounding in t + cumsum(waits) can carry an
    # interval that has already ended, and it must end at once
    @example((1.0, 0.5, 0.0, 100.0, 3), True)
    def test_carried_legs_match_bisection(self, case, at_norm):
        # a carried state is an unnormalized density matrix that has lost
        # trace on its way to the edge, and its target lies below that
        # trace; it is solved on a table of its own, and each example
        # checks five of them
        log_s, ratio, det, bracket, seed = case
        m, h = conditional(log_s, ratio, det)
        segs, maps = one_segment(m)
        rng = np.random.default_rng(seed)
        n_max = min(trajectory._MAX_NODES, int(bracket / h) + 2)
        for batch in range(5):
            state = carried_state(rng)
            norm = state[3]
            u = np.array([norm if at_norm and batch == 0 else rng.random() * norm])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                table, got = solve(segs, maps, state, u, n_max)
            ref = bisect_from(u, state, m, (table.shape[1] - 1) * h)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-10)
            if u[0] == norm:
                assert 0.0 <= got[0] <= h

    @settings(max_examples=60, deadline=None)
    @given(polish_cases)
    @example(poly_case([[1.0, -4.0]], [0.5], [1.0], [0.0], 0.25, 0.0))  # f = 0 at the chord
    # P = 1 - s^3: P' = -3e-6 at the chord, and Newton leaves the bracket
    @example(poly_case([[1.0, 0.0, 0.0, -1.0]], [0.999], [1.0], [0.0], 1.0, 0.0))
    # P' = 0 at the chord s = 1/2, with f < 0 and f = 0: numpy divides
    # to -inf and nan, and both bisect
    @example(
        poly_case(
            [[0.8125, -2.0, 4.5, -4.0, 1.0], [0.625, -0.75, 1.5, -1.0]],
            [0.5625, 0.5], [0.8125, 0.625], [0.3125, 0.375], 1.0, 0.0,
        )
    )
    # exp(-s) 1e7 ns into a table: the tolerance is 4 eps tau, ~9e-9 ns
    @example(poly_case([[(-1.0) ** q / math.factorial(q) for q in range(10)]], [0.97], [1.0], [math.exp(-0.05)], 0.05, 1e7))
    def test_polish_matches_newton(self, case):
        # the walk polishes the one or two intervals at an edge on Python
        # floats, and must find the roots of the batch polish to the bit
        coef, u, p_lo, p_hi, h, tau0 = case
        ref = trajectory._newton(coef, u, p_lo, p_hi, h, tau0)
        got = [
            trajectory._polish(c, *a)
            for c, *a in zip(coef.T.tolist(), u.tolist(), p_lo.tolist(), p_hi.tolist(), h.tolist(), tau0.tolist())
        ]
        assert np.array(got).tobytes() == ref.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(leg_cases, st.booleans())
    def test_state_at_matches_expm(self, case, carried):
        # the state carried over an edge, at a random tau inside a table,
        # on a node and at the last node.  segment_loop_tags calls the
        # same _state_at, so TestBatches cannot see a wrong edge state.
        # expm(M' tau) x is taken in the Van Loan increment form of the
        # bisection reference: plain expm is itself off by up to ~4e-14
        # of x over a 1000 ns table (against 40-digit arithmetic)
        log_s, ratio, det, bracket, seed = case
        m, _ = conditional(log_s, ratio, det)
        segs, maps = one_segment(m)
        h = segs.h[0]
        rng = np.random.default_rng(seed)
        x0 = carried_state(rng) if carried else trajectory._GROUND
        table, _ = solve(segs, maps, x0, np.array([1e-6 * x0[3]]), min(trajectory._MAX_NODES, int(bracket / h) + 2))
        n = table.shape[1]
        for tau in (rng.random() * (n - 1) * h, rng.integers(n) * h, (n - 1) * h):
            got = trajectory._state_at(trajectory._map_terms(segs.m)[0], table, h, tau)
            ref = x0 + expm_increments(m, tau / 2.0 ** np.arange(65))[0] @ x0
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(x0).max()

    @pytest.mark.parametrize(
        "pulse, blinking",
        [
            (
                DrivePulse.cw(core.omega_from_saturation(0.6, core.PAPER_QD.tls), statistics=Statistics.CHAOTIC),
                None,
            ),
            (DrivePulse.cw(7.1), (0.5, 405.0)),
        ],
        ids=["chaotic", "blinking-high-s"],
    )
    def test_simulate_tags_matches_bisection(self, qd, monkeypatch, pulse, blinking):
        # the same seed must give the same intervals as the bisection
        # solver; 2e4 ns keeps the drift small that a carried interval
        # amplifies when its new segment decays much slower than the old
        new = trajectory.simulate_tags(qd, pulse, 2e4, 1.0, core.stream(2024), blinking=blinking)
        monkeypatch.setattr(trajectory, "_waits", bisect_waits)
        monkeypatch.setattr(trajectory, "_edge_waits", bisect_edge_waits)
        ref = trajectory.simulate_tags(qd, pulse, 2e4, 1.0, core.stream(2024), blinking=blinking)
        assert len(new.times) == len(ref.times) > 1000
        assert np.array_equal(new.channels, ref.channels)
        assert np.max(np.abs(new.times - ref.times)) <= 1e-8


class TestRenewal:
    # the intervals between tags follow 1 - P(tau): under cw drive
    # directly, and across segment edges through the transform
    # 1 - P(interval), which is uniform for the right law

    @pytest.mark.parametrize("omega", [1.7, 7.1])
    def test_cw_intervals_follow_delay_function(self, qd, omega):
        tags = trajectory.simulate_tags(qd, DrivePulse.cw(omega), 1e4, 1.0, core.stream(71))
        m = trajectory._conditional_generator(qd, omega, 0.0)

        def cdf(tau):
            return 1.0 - (expm(m * np.asarray(tau)[:, None, None]) @ trajectory._GROUND)[:, 3]

        assert len(tags.times) > 2000
        assert kstest(np.diff(tags.times, prepend=0.0), cdf).pvalue > 0.05

    @pytest.mark.parametrize(
        "pulse, duration, max_nodes",
        [
            (DrivePulse.cw(1.7, statistics=Statistics.CHAOTIC), 1e4, None),
            (DrivePulse(rabi=7.2, envelope=tuple((10.0 * k, 10.0 * k + 2.0, 1.0) for k in range(800))), 8e3, None),
            # weak drive with tables of 2000 nodes, 64 ns: intervals
            # (65 ns on average) are carried at the end of their table
            (DrivePulse.cw(0.3), 1e5, 2000),
            # 998 ns dark gaps and tables of 15000 nodes, 530 ns: an
            # interval left from a pulse comes to rest at ~480 ns, at the
            # end of its table, and is carried straight to the next pulse
            (DrivePulse(rabi=7.2, envelope=tuple((1000.0 * k, 1000.0 * k + 2.0, 1.0) for k in range(600))), 6e5, 15000),
        ],
        ids=["chaotic", "pulsed", "table-end", "dark-rest"],
    )
    def test_intervals_across_segments(self, qd, monkeypatch, pulse, duration, max_nodes):
        if max_nodes is not None:
            monkeypatch.setattr(trajectory, "_MAX_NODES", max_nodes)
        tags = trajectory.simulate_tags(qd, pulse, duration, 1.0, core.stream(72))
        segments = trajectory._drive_segments(pulse, duration, bloch.LAMP_TAU_CORR, core.stream(72))
        assert len(tags.times) > 1000
        cdf = interval_cdf(qd, pulse.detuning, segments, tags.times)
        assert kstest(cdf, "uniform").pvalue > 0.05


# Test-side oracle: the segment-at-a-time sampler.  Each segment draws
# its targets in batches; a batch tabulates the ground state and the
# interval carried into it as two rows of one table, brackets and
# polishes all of its intervals at once, and carries the one in progress
# at the segment end.  simulate_tags solves the fresh intervals of many
# segments in one batch and must reproduce it to the bit.


def _loop_table(m, states, h, u_min, n_max):
    d = bloch.taylor_increment(m, h, bloch._MAP_DEGREE)
    rate = -np.linalg.eigvals(m).real.max()
    n = n_max
    if rate > 0.0 and u_min > 0.0:
        n = int(1.25 * math.log(1.0 / u_min) / (rate * h)) + trajectory._EXTRA_NODES
    while True:
        table = bloch.orbit(d, states, min(n, n_max), increments=True)
        if n >= n_max or (table[:, 3, -1] < u_min).all():
            return table
        n *= 2


def _loop_waits(u, starts, m, table, h, t, seg_end):
    n = table.shape[2]
    surv = np.minimum.accumulate(table[:, 3], axis=1)
    k = np.empty(len(u), dtype=np.int64)
    for state, p in enumerate(surv):
        sel = starts == state
        k[sel] = np.searchsorted(-p, -u[sel], side="left")
    lower = np.maximum(k - 1, 0) * h
    keep = int(np.searchsorted(t + np.cumsum(lower), seg_end, side="left")) + 1
    k, starts = k[:keep], starts[:keep]
    waits = np.full(len(u), np.inf)
    waits[:keep] = np.where(k > 0, np.inf, 0.0)
    inner = np.flatnonzero((k > 0) & (k < n))
    if len(inner):
        j, st = k[inner] - 1, starts[inner]
        rows = np.empty((trajectory._P_DEGREE + 1, 4))
        rows[0] = trajectory._GROUND
        for q in range(1, trajectory._P_DEGREE + 1):
            rows[q] = rows[q - 1] @ m / q
        coef = rows @ table[st, :, j].T
        waits[inner] = j * h + trajectory._newton(coef, u[inner], surv[st, j], surv[st, j + 1], h, j * h)
    return waits


def segment_loop_tags(params, pulse, duration, rng):
    """Tag times and channels of simulate_tags at efficiency 1, without
    blinking, from the segment-at-a-time sampler."""
    emissions, carried = [], None
    for seg_start, seg_end, om in trajectory._drive_segments(pulse, duration, bloch.LAMP_TAU_CORR, rng):
        m = trajectory._conditional_generator(params, om, pulse.detuning)
        h = trajectory._STEP_NORM / np.abs(m).sum(axis=0).max()
        terms = trajectory._map_terms(m[None])[0]
        rate = bloch.steady_state_population(params, om, pulse.detuning) / params.t1
        t = seg_start
        while t < seg_end:
            n_est = int(min(max(64, 1.4 * (seg_end - t) * rate + 32), float(1 << 17)))
            u = rng.random(n_est)
            starts = np.zeros(n_est, dtype=np.int8)
            states = trajectory._GROUND[None]
            if carried is not None:
                states = np.vstack([trajectory._GROUND, carried[0]])
                starts[0], u[0] = 1, carried[1]
                carried = None
            n_max = min(trajectory._MAX_NODES, int((seg_end - t) / h) + 2)
            table = _loop_table(m, states, h, float(u.min()), n_max)
            jump_t = t + np.cumsum(_loop_waits(u, starts, m, table, h, t, seg_end))
            inside = jump_t < seg_end
            stop = int(np.argmin(inside)) if not inside.all() else n_est
            if stop > 0:
                emissions.append(jump_t[:stop])
                t = float(jump_t[stop - 1])
            if stop < n_est:
                row = table[starts[stop]]
                edge = min(seg_end, t + (table.shape[2] - 1) * h)
                carried = (trajectory._state_at(terms, row, h, edge - t), u[stop])
                if edge < seg_end and (row[:, -1] == row[:, -2]).all():
                    edge = seg_end
                t = edge
    times = np.concatenate(emissions) if emissions else np.empty(0)
    return times, np.where(rng.random(len(times)) < 0.5, 1, 2).astype(np.int8)


class TestBatches:
    @pytest.mark.parametrize(
        "pulse, duration, max_nodes",
        [
            (DrivePulse.cw(1.7, statistics=Statistics.CHAOTIC), 1e4, None),
            (DrivePulse(rabi=7.2, envelope=tuple((10.0 * k, 10.0 * k + 2.0, 1.0) for k in range(800))), 8e3, None),
            # tables of 2000 nodes, 64 ns, against 65 ns intervals: most
            # are carried at the end of their table, and each such carry
            # rewinds the targets drawn for later segments
            (DrivePulse.cw(0.3), 1e5, 2000),
            # the interval left from the pulse comes to rest in the dark
            # and is carried straight to the end
            (DrivePulse(rabi=7.2, envelope=((0.0, 2.0, 1.0),)), 1.00002e5, None),
            # table-end carries in segments that share a batch with later
            # ones: the draws of those are rewound and made again
            (DrivePulse.cw(0.3, statistics=Statistics.CHAOTIC), 2e4, 2000),
        ],
        ids=["chaotic", "pulsed", "table-end", "dark-rest", "rewind"],
    )
    def test_matches_segment_loop(self, qd, monkeypatch, pulse, duration, max_nodes):
        if max_nodes is not None:
            monkeypatch.setattr(trajectory, "_MAX_NODES", max_nodes)
        tags = trajectory.simulate_tags(qd, pulse, duration, 1.0, core.stream(81))
        times, channels = segment_loop_tags(qd, pulse, duration, core.stream(81))
        assert np.array_equal(tags.times, times)
        assert np.array_equal(tags.channels, channels)

    def test_batches_split_long_drives(self, qd, monkeypatch):
        # small batches: every segment edge of a chaotic drive is also a
        # batch edge somewhere, and the draws still follow segment order
        monkeypatch.setattr(trajectory, "_BATCH_TARGETS", 300)
        pulse = DrivePulse.cw(1.7, statistics=Statistics.CHAOTIC)
        tags = trajectory.simulate_tags(qd, pulse, 1e4, 1.0, core.stream(82))
        times, channels = segment_loop_tags(qd, pulse, 1e4, core.stream(82))
        assert len(times) > 1000
        assert np.array_equal(tags.times, times)
        assert np.array_equal(tags.channels, channels)


class TestDriveSegments:
    @pytest.mark.parametrize("statistics", [Statistics.COHERENT, Statistics.CHAOTIC])
    def test_pulse_train_matches_amplitude_at(self, statistics):
        # 300 pulses of cycling amplitude, every seventh touching the next
        # and the last running past the end: each segment carries the
        # amplitude that amplitude_at's scan finds at its middle
        width = [37.0 if k % 7 == 0 else 5.0 for k in range(300)]
        envelope = [(37.0 * k, 37.0 * k + width[k], (0.25, 0.5, 1.0)[k % 3]) for k in range(300)]
        envelope[-1] = (envelope[-1][0], 2e4, envelope[-1][2])
        pulse = DrivePulse(rabi=3.0, envelope=tuple(envelope), statistics=statistics)
        duration, tau_corr = 37.0 * 300, bloch.LAMP_TAU_CORR
        segments = trajectory._drive_segments(pulse, duration, tau_corr, core.stream(4))
        n_blocks = math.ceil(duration / tau_corr)
        draws = np.sqrt(photonstat.sample_chaotic_intensity(core.stream(4), pulse.rabi**2, size=n_blocks))
        assert len(segments) > 500
        for a, b, om in segments:
            mid = 0.5 * (a + b)
            scale = pulse.rabi
            if statistics is Statistics.CHAOTIC:
                scale = float(draws[min(int(mid / tau_corr), n_blocks - 1)])
            assert om == scale * pulse.amplitude_at(mid)


class TestApplyDetector:
    def test_zero_jitter_identity(self, cw_tags):
        out = trajectory.apply_detector(cw_tags, 0.0, core.stream(1))
        assert np.array_equal(out.times, cw_tags.times)

    def test_jitter_magnitude(self):
        # well-separated tags so the displacement per tag is unambiguous:
        # the per-detector width is chosen as pair_fwhm / sqrt(2), and the
        # relative spread of two detectors recovers the full pair response
        times = np.linspace(100.0, 9900.0, 20001)
        stream_in = trajectory.TagStream(
            times, np.ones(len(times), dtype=np.int8), 10000.0
        )
        fwhm = 0.351 / math.sqrt(2.0)
        out = trajectory.apply_detector(stream_in, fwhm, core.stream(5))
        moved = out.times - times
        sigma = fwhm / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        assert np.std(moved) == pytest.approx(sigma, rel=0.05)
        pair_fwhm = 2.0 * math.sqrt(2.0 * math.log(2.0)) * np.std(moved) * math.sqrt(2.0)
        assert pair_fwhm == pytest.approx(0.351, rel=0.05)

    def test_jittered_poisson_stays_poisson(self):
        rng = core.stream(21)
        t, ch = poisson_stream(0.2, 5e5, rng, 1)
        stream_in = trajectory.TagStream(t, ch, 5e5)
        out = trajectory.apply_detector(stream_in, 0.351, core.stream(22))
        gaps = np.diff(out.times)
        stat = kstest(gaps, "expon", args=(0.0, gaps.mean())).statistic
        assert stat < 0.02

    def test_sorted_and_clipped(self, cw_tags):
        out = trajectory.apply_detector(cw_tags, 0.5, core.stream(6))
        assert np.all(np.diff(out.times) >= 0)
        assert out.times[0] > 0 and out.times[-1] < out.duration


def poisson_pair(rate, duration, rng):
    t1, c1 = poisson_stream(rate, duration, rng, 1)
    t2, c2 = poisson_stream(rate, duration, rng, 2)
    t = np.concatenate([t1, t2])
    ch = np.concatenate([c1, c2])
    order = np.argsort(t, kind="stable")
    return trajectory.TagStream(t[order], ch[order], duration)


class TestCorrelate:
    def test_uncorrelated_poisson_normalizes_to_one(self):
        rng = core.stream(77)
        hist = trajectory.correlate(poisson_pair(0.1, 4e6, rng), 1.0, 100.0)
        assert np.all(np.abs(hist.c_norm - 1.0) < 0.02)
        # at the edge of the guard, |tau| = T/10, a lag is seen over only
        # 0.9 T of the record; the outermost tenth of the window on each
        # side must still read one, within 3 SE of the spread over
        # independent streams
        edge = []
        for _ in range(20):
            hist = trajectory.correlate(poisson_pair(0.1, 2e4, rng), 20.0, 2e3)
            c_edge = hist.c_norm[np.abs(hist.lags) > 1.8e3]
            edge.append([c_edge[: len(c_edge) // 2].mean(), c_edge[len(c_edge) // 2 :].mean()])
        edge = np.array(edge)
        se = edge.std(axis=0, ddof=1) / math.sqrt(len(edge))
        assert np.all(np.abs(edge.mean(axis=0) - 1.0) < 3.0 * se)

    def test_matches_regression_correlation(self, qd):
        # ensemble consistency of the unraveling: the coincidence
        # histogram reproduces the conditional-evolution correlation
        om = core.omega_from_saturation(0.6, qd)
        rng = core.stream(123)
        sim_rng, det_rng = rng.spawn(2)
        tags = trajectory.simulate_tags(qd, DrivePulse.cw(om), 3e5, 1.0, sim_rng)
        tags = trajectory.apply_detector(tags, 0.351 / math.sqrt(2.0), det_rng)
        hist = trajectory.correlate(tags, 0.2, 10.0)
        ana = emission.qrt_g2(qd, om, 0.0, np.arange(0.0, 10.41, 0.02))
        ana = emission.convolve_gaussian(ana, 0.351)
        ref = np.interp(np.abs(hist.lags), ana.lags, ana.values)
        dev = np.abs(hist.c_norm - ref) / hist.stderr
        assert (dev > 3.0).mean() <= 0.02
        assert dev.max() < 5.0

    def test_matches_chaotic_regression_correlation(self, qd):
        # under chaotic drive the rate-product normalization folds the
        # block-intensity bunching into C_N, which should reproduce the
        # intensity-weighted correlation average; the overall scale
        # carries block-counting noise, so shapes are compared after
        # normalizing both curves over the settled 6-8 ns window
        duration = 4e5
        pulse = DrivePulse.cw(7.2, statistics=Statistics.CHAOTIC)
        tags = trajectory.simulate_tags(qd, pulse, duration, 1.0, core.stream(321))
        hist = trajectory.correlate(tags, 0.25, 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ana = emission.chaotic_g2(qd, 7.2, np.arange(0.0, 8.3, 0.05))
        ref = np.interp(np.abs(hist.lags), ana.lags, ana.values)
        win = np.abs(hist.lags) > 6.0
        shape_meas = hist.c_norm / hist.c_norm[win].mean()
        shape_ref = ref / ref[win].mean()
        dev = np.abs(shape_meas - shape_ref) / (hist.stderr / hist.c_norm[win].mean())
        assert (dev > 3.0).mean() <= 0.05
        assert dev.max() < 4.5

    def test_blinking_time_constant_recovered(self, qd):
        tags = trajectory.simulate_tags(
            qd, DrivePulse.cw(7.1), 6e5, 1.0, core.stream(32), blinking=(0.5, 405.0)
        )
        hist = trajectory.correlate(tags, 10.0, 2000.0)
        mask = np.abs(hist.lags) > 20.0
        popt, _ = curve_fit(
            lambda t, a, tau: 1.0 + a * np.exp(-np.abs(t) / tau),
            hist.lags[mask],
            hist.c_norm[mask],
            p0=(1.0, 300.0),
        )
        assert popt[1] == pytest.approx(405.0, rel=0.10)

    @pytest.mark.parametrize("max_lag", [10.0, 11.0])
    def test_window_kernel_matches_brute_force(self, max_lag):
        # integer times put lags exactly on +-max_lag and on bin edges;
        # bin_w does not divide 2 max_lag, so the last bin either reaches
        # past +max_lag (10 ns: +max_lag must stay out) or is a partial
        # bin that is dropped (11 ns); chunk < N crosses chunk boundaries
        rng = core.stream(5)
        bin_w, chunk = 3.0, 7
        nb = int(round(2.0 * max_lag / bin_w))
        seen = []
        for n1, n2 in ((40, 60), (1, 30), (25, 1)):
            t1 = np.sort(rng.integers(0, 120, n1)).astype(float)
            t2 = np.sort(rng.integers(0, 120, n2)).astype(float)
            counts = np.zeros(nb, dtype=np.int64)
            trajectory._corr_window(t1, t2, max_lag, bin_w, counts, chunk=chunk)
            d = np.subtract.outer(t2, t1).ravel()
            seen.append(d)
            d = d[(d >= -max_lag) & (d < max_lag)]
            bins = np.floor((d + max_lag) / bin_w).astype(np.int64)
            expected = np.bincount(bins[bins < nb], minlength=nb)
            assert np.array_equal(counts, expected)
        seen = np.concatenate(seen)
        assert np.any(seen == max_lag) and np.any(seen == -max_lag)
        assert np.any(seen == -max_lag + bin_w)  # an interior bin edge
        assert np.any((seen >= nb * bin_w - max_lag) & (seen < max_lag)) == (nb * bin_w < 2.0 * max_lag)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 300),
        st.integers(1, 600),
        st.floats(0.001, 0.45),
        st.floats(0.001, 1.0),
        st.integers(1, 400),
        st.integers(0, 2**32 - 1),
    )
    @example(300, 600, 0.45, 0.013, 37, 1)  # ~500 stops per start
    def test_window_kernel_matches_reference_on_float_streams(self, n1, n2, lag_frac, bin_frac, chunk, seed):
        # continuous times, from a single stop per window to hundreds;
        # bin_w seldom divides 2 max_lag, and chunk < n1 in most draws
        rng = np.random.default_rng(seed)
        t1 = np.sort(rng.uniform(0.0, 1000.0, n1))
        t2 = np.sort(rng.uniform(0.0, 1000.0, n2))
        max_lag = 1000.0 * lag_frac
        bin_w = max_lag * bin_frac
        nb = int(round(2.0 * max_lag / bin_w))
        counts = np.zeros(nb, dtype=np.int64)
        trajectory._corr_window(t1, t2, max_lag, bin_w, counts, chunk=chunk)
        d = np.subtract.outer(t2, t1).ravel()
        d = d[(d >= -max_lag) & (d < max_lag)]
        bins = np.floor((d + max_lag) / bin_w).astype(np.int64)
        assert np.array_equal(counts, np.bincount(bins[bins < nb], minlength=nb))

    def test_dense_window_memory_is_bounded(self):
        # ~1.9e7 pairs: a kernel that held them as arrays would need
        # hundreds of MB
        tags = poisson_pair(0.05, 2e5, core.stream(8))
        tracemalloc.start()
        try:
            hist = trajectory.correlate(tags, 10.0, 2e4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.counts.sum() > 1.5e7
        assert peak < 16e6

    def test_empty_channel_rejected(self):
        t = np.array([1.0, 2.0, 3.0])
        stream_in = trajectory.TagStream(t, np.array([1, 1, 1], dtype=np.int8), 100.0)
        with pytest.raises(ValueError):
            trajectory.correlate(stream_in, 0.5, 5.0)

    def test_max_lag_guard(self, cw_tags):
        with pytest.raises(NumericalGuardError):
            trajectory.correlate(cw_tags, 0.5, cw_tags.duration / 2.0)

    def test_histogram_csv(self, tmp_path, cw_tags):
        hist = trajectory.correlate(cw_tags, 0.5, 20.0)
        path = tmp_path / "hist.csv"
        hist.to_csv(path)
        assert path.read_text().splitlines()[0] == "lag_ns,counts,c_norm"


class TestTagStreamInvariants:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            trajectory.TagStream(np.array([2.0, 1.0]), np.array([1, 2], dtype=np.int8), 10.0)

    def test_rejects_out_of_window(self):
        with pytest.raises(ValueError):
            trajectory.TagStream(np.array([0.0, 1.0]), np.array([1, 2], dtype=np.int8), 10.0)
