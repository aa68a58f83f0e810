import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit
from scipy.stats import kstest

from tlsrf import bloch, core, emission, trajectory
from tlsrf.core import DrivePulse, NumericalGuardError, Statistics


def poisson_stream(rate, duration, rng, channel):
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.3) + 100)
    t = np.cumsum(gaps)
    t = t[t < duration]
    return t, np.full(len(t), channel, dtype=np.int8)


def bisect_legs(u, starts, states, om, det, it2, bracket):
    """Reference leg solver: 64 bisection steps on S(tau) > u over the
    whole bracket, for legs that start from states[starts]."""
    psi = states[starts]

    def surv(tau):
        return trajectory._survival_state(psi[:, 0], psi[:, 1], om, det, it2, tau)

    lo, hi = np.zeros(len(u)), np.full(len(u), float(bracket))
    s_end = surv(hi)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        above = surv(mid) > u
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return np.where(s_end <= u, 0.5 * (lo + hi), np.inf)


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
        # a child inherits
        script = (
            "from tlsrf import core, trajectory\n"
            "qd = core.PAPER_QD.tls\n"
            "pulse = core.DrivePulse.cw(core.omega_from_saturation(0.6, qd), statistics=core.Statistics.CHAOTIC)\n"
            "for _ in range(10):\n"
            "    trajectory.simulate_tags(qd, pulse, 1e5, 1.0, core.stream(100))\n"
            "    status = open('/proc/self/status').read()\n"
            "    print(status.split('VmHWM:')[1].split()[0])\n"
        )
        src = os.path.dirname(os.path.dirname(trajectory.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        peak_kb = [int(line) for line in out.stdout.split()]
        assert len(peak_kb) == 10
        assert max(peak_kb[2:]) - peak_kb[2] <= 0.5 * 1024


# S = omega^2 t1 t2 over [0.01, 100], t2/t1 over (0.05, 2], detuning over
# [-5, 5] rad/ns; brackets from under one t2 to a chaotic block
leg_cases = st.tuples(
    st.floats(-2.0, 2.0),
    st.floats(0.05, 2.0, exclude_min=True),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 1000.0),
    st.integers(0, 2**32 - 1),
)


class TestLegSolver:
    @settings(max_examples=60, deadline=None)
    @given(leg_cases)
    def test_fresh_legs_match_bisection(self, case):
        log_s, ratio, det, bracket, seed = case
        params = core.TlsParams(t1=0.641, t2=0.641 * ratio)
        om = core.omega_from_saturation(10.0**log_s, params)
        rng = np.random.default_rng(seed)
        u = rng.random(400)
        starts = (rng.random(400) < 0.5).astype(np.int8)
        got = trajectory._solve_legs(u, starts, trajectory._FRESH, om, det, 1.0 / params.t2, bracket)
        ref = bisect_legs(u, starts, trajectory._FRESH, om, det, 1.0 / params.t2, bracket)
        assert np.array_equal(np.isinf(got), np.isinf(ref))
        finite = np.isfinite(ref)
        assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-10)

    @settings(max_examples=60, deadline=None)
    @given(leg_cases, st.booleans())
    # the target at the norm: rounding in t + cumsum(waits) can carry a
    # leg that has already ended, and it must end within the first step
    @example((1.0, 0.5, 0.0, 100.0, 3), True)
    def test_carried_legs_match_bisection(self, case, at_norm):
        # a carried state has lost norm on its way to the edge, and its
        # target lies below that norm; it is leg 0 of a batch of fresh
        # legs, and each example checks five such batches
        log_s, ratio, det, bracket, seed = case
        params = core.TlsParams(t1=0.641, t2=0.641 * ratio)
        om = core.omega_from_saturation(10.0**log_s, params)
        rng = np.random.default_rng(seed)
        for batch in range(5):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi *= rng.random() / np.linalg.norm(psi)
            norm = abs(psi[0]) ** 2 + abs(psi[1]) ** 2
            states = np.vstack([trajectory._FRESH, psi])
            u = rng.random(400)
            starts = (rng.random(400) < 0.5).astype(np.int8)
            starts[0], u[0] = 2, rng.random() * norm
            if at_norm and batch == 0:
                u[0] = norm
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = trajectory._solve_legs(u, starts, states, om, det, 1.0 / params.t2, bracket)
            ref = bisect_legs(u, starts, states, om, det, 1.0 / params.t2, bracket)
            assert np.array_equal(np.isinf(got), np.isinf(ref))
            finite = np.isfinite(ref)
            assert np.all(np.abs(got[finite] - ref[finite]) <= 1e-10)
            if u[0] == norm:
                tau, _ = trajectory._survival_table(states, om, det, 1.0 / params.t2, u.min(), bracket)
                assert 0.0 <= got[0] <= tau[1]

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
        # the same seed must give the same legs as the bisection solver;
        # 2e4 ns keeps the drift small that a carried leg amplifies when
        # its new segment decays much slower than the old one
        new = trajectory.simulate_tags(qd, pulse, 2e4, 1.0, core.stream(2024), blinking=blinking)
        monkeypatch.setattr(trajectory, "_solve_legs", bisect_legs)
        ref = trajectory.simulate_tags(qd, pulse, 2e4, 1.0, core.stream(2024), blinking=blinking)
        assert len(new.times) == len(ref.times) > 1000
        assert np.array_equal(new.channels, ref.channels)
        assert np.max(np.abs(new.times - ref.times)) <= 1e-8


class TestChunkThreads:
    # the chunks of a batch run on a thread per CPU; each leg's
    # arithmetic is elementwise, so the waits must be bit-equal for any
    # number of threads, here more threads than this host has cores

    @staticmethod
    def _threaded(monkeypatch, call):
        # a fresh pool of 8 threads, switching every microsecond
        monkeypatch.setattr(trajectory, "_WORKERS", 8)
        monkeypatch.setattr(trajectory, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = call()
            assert trajectory._pool is not None
        finally:
            sys.setswitchinterval(interval)
            if trajectory._pool is not None:
                trajectory._pool.shutdown()
        monkeypatch.setattr(trajectory, "_WORKERS", 1)
        return out, call()

    def test_solve_legs(self, qd, monkeypatch):
        rng = np.random.default_rng(8)
        n = 3 * trajectory._CHUNK + 100
        u, starts = rng.random(n), (rng.random(n) < 0.5).astype(np.int8)
        psi = np.array([0.3 + 0.2j, -0.1 + 0.5j])
        states = np.vstack([trajectory._FRESH, psi])
        starts[0], u[0] = 2, 0.1
        # a bracket past the sum of the waits solves every chunk
        threaded, inline = self._threaded(
            monkeypatch, lambda: trajectory._solve_legs(u, starts, states, 7.1, 0.3, 1.0 / qd.t2, 1e9)
        )
        assert np.isfinite(inline).all()
        assert np.array_equal(threaded, inline)

    def test_simulate_tags(self, qd, monkeypatch):
        # 2e4 ns at 7.1 rad/ns is one batch of seven chunks
        threaded, inline = self._threaded(
            monkeypatch, lambda: trajectory.simulate_tags(qd, DrivePulse.cw(7.1), 2e4, 1.0, core.stream(31))
        )
        assert len(inline.times) > 10000
        assert np.array_equal(threaded.times, inline.times)
        assert np.array_equal(threaded.channels, inline.channels)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_its_own_pool(self, qd, monkeypatch):
        # a child forked after the pool started has none of its threads;
        # it must start a pool of its own, not wait on the parent's
        u = np.random.default_rng(9).random(2 * trajectory._CHUNK)
        starts = np.zeros(len(u), dtype=np.int8)

        def solve():
            return trajectory._solve_legs(u, starts, trajectory._FRESH, 7.1, 0.0, 1.0 / qd.t2, 1e9)

        monkeypatch.setattr(trajectory, "_WORKERS", 2)
        monkeypatch.setattr(trajectory, "_pool", None)
        try:
            expect = solve()
            assert trajectory._pool is not None
            pid = os.fork()
            if pid == 0:  # the child leaves through os._exit, whatever happens
                code = 1
                try:
                    code = 0 if np.array_equal(solve(), expect) else 1
                finally:
                    os._exit(code)
            for _ in range(600):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done:
                    break
                time.sleep(0.1)
            else:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("the forked child did not finish in 60 s")
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            if trajectory._pool is not None:
                trajectory._pool.shutdown()


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
