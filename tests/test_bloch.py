import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as scipy_integrate
from scipy import special as scipy_special
from scipy.linalg import expm

from tlsrf import bloch, core, emission
from tlsrf.bloch import BlochState
from tlsrf.core import DrivePulse, NumericalGuardError, Statistics

from conftest import significant_maxima


def _derivative(state, params, omega):
    """Test-side (d rho11, d u, d v) of a state: the generator applied to it."""
    x = np.array([state.rho11, state.rho01_re, state.rho01_im, 1.0])
    return (bloch.augmented_generator(params, omega)[0] @ x)[:3]


class TestDerivative:
    def test_dark_ground_state_is_stationary(self, qd):
        d = _derivative(BlochState.ground(), qd, 0.0)
        assert np.allclose(d, 0.0)

    def test_pure_decay(self, qd):
        d = _derivative(BlochState(1.0), qd, 0.0)
        assert d[0] == pytest.approx(-1.0 / qd.t1, rel=1e-14)

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_steady_state_is_fixed_point(self, qd, s):
        om = core.omega_from_saturation(s, qd)
        ss = bloch.steady_state(qd, om)
        d = _derivative(ss, qd, om)
        assert np.linalg.norm(d) < 1e-10


class TestSampleChaoticIntensity:
    def test_zero_mean_is_dark(self):
        rng = core.stream(1)
        assert bloch.sample_chaotic_intensity(rng, 0.0) == 0.0
        assert np.all(bloch.sample_chaotic_intensity(rng, 0.0, size=10) == 0.0)

    def test_exponential_law(self):
        rng = core.stream(314)
        draws = bloch.sample_chaotic_intensity(rng, 1.0, size=1_000_000)
        # analytic CDF at the mean
        assert (draws <= 1.0).mean() == pytest.approx(1.0 - math.exp(-1.0), abs=2e-3)
        assert draws.mean() == pytest.approx(1.0, rel=5e-3)

    def test_variance_law(self):
        rng = core.stream(2718)
        mean = 51.84  # mean drive 7.2 rad/ns
        draws = bloch.sample_chaotic_intensity(rng, mean, size=1_000_000)
        assert draws.var() == pytest.approx(mean**2, rel=2e-2)

    def test_saturation_mapping_ks(self):
        # squared drive values mapped through S = w2 * t1 * t2 stay
        # exponential with the matching mean (KS against the closed CDF)
        qd = core.PAPER_QD.tls
        rng = core.stream(99)
        w2 = bloch.sample_chaotic_intensity(rng, 51.84, size=1_000_000)
        s = np.sort(w2 * qd.t1 * qd.t2)
        sbar = 51.84 * qd.t1 * qd.t2
        cdf = 1.0 - np.exp(-s / sbar)
        n = len(s)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(np.abs(emp_hi - cdf).max(), np.abs(emp_lo - cdf).max())
        assert ks < 0.002


class TestSteadyState:
    def test_quarter_at_unit_saturation(self):
        assert bloch.steady_state_from_saturation(1.0) == 0.25

    def test_zero_drive(self, qd):
        assert bloch.steady_state_population(qd, 0.0) == 0.0

    def test_full_saturation_asymptote(self, qd):
        om = core.omega_from_saturation(1e6, qd)
        assert bloch.steady_state_population(qd, om) == pytest.approx(0.5, abs=1e-6)

    def test_matches_saturation_form(self, qd):
        for s in (0.01, 0.6, 3.0, 42.0):
            om = core.omega_from_saturation(s, qd)
            assert bloch.steady_state_population(qd, om) == pytest.approx(
                bloch.steady_state_from_saturation(s), rel=1e-12
            )

    def test_detuning_reduces_population(self, qd):
        assert bloch.steady_state_population(qd, 2.0, detuning=3.0) < bloch.steady_state_population(qd, 2.0)

    @pytest.mark.parametrize("omega", [0.3, 1.0, 7.2, 30.0, 300.0])
    @pytest.mark.parametrize("detuning", [0.0, 0.5, -3.0])
    def test_coherence_matches_exact_arithmetic(self, qd, omega, detuning):
        # rho01 = omega (det + i/t2) / (2 (d + x)), d = det^2 + 1/t2^2,
        # x = omega^2 t1/t2, in rational arithmetic on the float inputs;
        # 2 rho11 - 1 cancels at strong drive if it is formed explicitly
        t1, t2, om, det = (Fraction(v) for v in (qd.t1, qd.t2, omega, detuning))
        d = det**2 + 1 / t2**2
        x = om**2 * t1 / t2
        re, im = om * det / (2 * (d + x)), om / (2 * t2 * (d + x))
        ss = bloch.steady_state(qd, omega, detuning)
        got_re, got_im = Fraction(ss.rho01_re), Fraction(ss.rho01_im)
        assert abs(got_re - re) <= 1e-15 * abs(re)
        assert abs(got_im - im) <= 1e-15 * im
        assert abs(got_re**2 + got_im**2 - re**2 - im**2) <= 1e-15 * (re**2 + im**2)


class TestExp1:
    # e^x E1(x) on the positive real axis, from `exp1_scaled_complex`;
    # reference values of E1 frozen from quadrature of the defining integral
    def test_unit_argument(self):
        got = bloch.exp1_scaled_complex([1.0])[0]
        assert got.imag == 0.0
        assert math.exp(-1.0) * got.real == pytest.approx(0.21938393439552026, rel=1e-10)

    def test_small_argument(self):
        got = bloch.exp1_scaled_complex([0.1])[0]
        assert got.imag == 0.0
        assert math.exp(-0.1) * got.real == pytest.approx(1.8229239584193906, rel=1e-10)

    def test_asymptotic_law(self):
        x = 50.0
        assert x * bloch.exp1_scaled_complex([x])[0].real == pytest.approx(1.0, rel=2e-2)

    def test_against_scipy_across_domain(self):
        # every branch: the power series up to x = 2, the continued
        # fraction, and the asymptotic series from x = 40
        x = np.logspace(-4, 2.5, 60)
        got = bloch.exp1_scaled_complex(x)
        assert np.all(got.imag == 0.0)
        assert np.all(np.abs(got.real - np.exp(x) * scipy_special.exp1(x)) <= 1e-12 * got.real)


class TestExp1ScaledComplex:
    def test_against_scipy_on_polar_grid(self):
        # |a| from 1e-3 to 1e3 and arg a up to +-pi, on both sides of the
        # negative real axis; scipy's e^a E1(a) is formed where both
        # factors are finite.  Next to the negative axis the power series
        # (ours and scipy's) loses up to ~2 digits, and scipy's own series
        # is off by up to 3e-13 near |a| = 4.5
        r = np.logspace(-3, 3, 61)
        arg = np.concatenate([np.linspace(-math.pi, math.pi, 73)[1:-1], [math.pi - 1e-9, 1e-9 - math.pi]])
        a = (r[:, None] * np.exp(1j * arg[None, :])).ravel()
        a = a[np.abs(a.real) <= 600.0]
        want = np.exp(a) * scipy_special.exp1(a)
        got = bloch.exp1_scaled_complex(a)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_fig4_argument(self):
        # where the continued fraction alone is off by 1e-7 after 200 terms
        a = np.array([-12.1 + 2.2j, -12.1 - 2.2j, -23.0 + 0.5j])
        want = np.exp(a) * scipy_special.exp1(a)
        assert np.all(np.abs(bloch.exp1_scaled_complex(a) - want) <= 1e-13 * np.abs(want))

    @pytest.mark.parametrize("a", [1e-3, 0.3, 2.0, 2.5, 40.0, 6240.0])
    def test_scaled_moments_are_the_expectations(self, a):
        # m_n = E[(1 + x/a)^-n] under the exponential law, by quadrature
        m = bloch._scaled_moments(a, 30)[0]
        for n in (1, 2, 3, 10, 30):
            want, _ = scipy_integrate.quad(lambda x: math.exp(-x) * (1.0 + x / a) ** -n, 0.0, np.inf, epsabs=0.0, epsrel=1e-13)
            assert m[n - 1] == pytest.approx(want, rel=1e-12)


class TestExpmIncrement:
    @pytest.mark.parametrize("dt", [0.0, 0.003, 0.1, 2.0, 37.0, 900.0])
    def test_matches_expm(self, qd, dt):
        # drives from dark to S ~ 3e3, detuned, from no halving of M dt
        # to ~20 of them; the increment keeps the slow modes that
        # expm - I loses to the I in front, so they are compared as maps
        from scipy.linalg import expm

        m = bloch.augmented_generator(qd, np.array([0.0, 0.3, 1.7, 7.2, 30.0]), 2.5)
        d = bloch.expm_increment(m, dt)
        ref = expm(m * dt)
        assert np.all(np.abs(np.eye(4) + d - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))

    def test_slow_mode_to_full_precision(self):
        # a decay rate of 1e-9 /ns over 1 ns: expm - I is -1e-9 to full
        # relative precision, where I + D - I would keep ~7 digits
        m = np.zeros((1, 4, 4))
        m[0, 0, 0] = -1e-9
        d = bloch.expm_increment(m, 1.0)
        assert d[0, 0, 0] == pytest.approx(math.expm1(-1e-9), rel=1e-15)


def _chaotic_quadrature_oracle(params, mean_omega, detuning=0.0):
    """Test-side oracle: direct adaptive quadrature of the intensity
    average of the saturation curve."""
    w2 = mean_omega**2
    d = detuning**2 + 1.0 / params.t2**2

    def f(x):
        num = 0.5 * x * params.t1 / params.t2
        return num / (d + x * params.t1 / params.t2) * math.exp(-x / w2) / w2

    val, _ = scipy_integrate.quad(f, 0.0, np.inf, limit=400, epsabs=1e-14, epsrel=1e-13)
    return val


class TestChaoticSteadyState:
    def test_reference_value_at_unit_saturation(self, qd):
        om = core.omega_from_saturation(1.0, qd)
        assert bloch.chaotic_steady_state(qd, om) == pytest.approx(0.2018263188, abs=1e-8)

    def test_weak_drive_approaches_coherent(self, qd):
        om = core.omega_from_saturation(0.01, qd)
        assert bloch.chaotic_steady_state(qd, om) == pytest.approx(0.0049029, abs=1e-6)

    def test_zero_mean_drive(self, qd):
        assert bloch.chaotic_steady_state(qd, 0.0) == 0.0

    @pytest.mark.parametrize("sbar", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_weak_drive_keeps_its_digits(self, qd, sbar):
        # 0.5 (1 - a e^a E1(a)) cancels to O(1/a) at a = 1/S_bar; its
        # asymptotic series 0.5 sum_k (-1)^k (k+1)! / a^(k+1), summed
        # exactly until a term is below 1e-20 of the sum, is the oracle
        om = core.omega_from_saturation(sbar, qd)
        a = Fraction(bloch._mean_inverse_saturation(qd, om, 0.0))
        term = total = 1 / a
        k = 0
        while abs(term) > Fraction(1, 10**20) * total:
            k += 1
            term *= -(k + 1) / a
            total += term
        want = float(total / 2)
        assert abs(bloch.chaotic_steady_state(qd, om) - want) <= 1e-14 * want

    @pytest.mark.parametrize("sbar", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_matches_quadrature_oracle(self, qd, sbar):
        om = core.omega_from_saturation(sbar, qd)
        oracle = _chaotic_quadrature_oracle(qd, om)
        assert bloch.chaotic_steady_state(qd, om) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize(
        "sbar, det",
        [pytest.param(s, 0.0, id=str(s)) for s in (1e-4, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e4)]
        + [pytest.param(2.0, 4.0, id="2.0-detuned")],
    )
    def test_matches_package_quadrature(self, qd, sbar, det):
        # the package's oracle averages the coherent population on the
        # panel rule, with no exponential integral
        om = core.omega_from_saturation(sbar, qd)
        assert bloch.chaotic_steady_state(qd, om, det) == pytest.approx(
            bloch.chaotic_steady_state_quadrature(qd, om, det), rel=1e-8
        )

    @pytest.mark.parametrize("det", [0.0, 4.0])
    def test_array_matches_scalar_calls(self, qd, det):
        # a = 1/S_bar on resonance: the recurrence (a <= 2), the continued
        # fraction (a > 2) and zero drive, in one array
        sbar = np.array([0.0, 1e-4, 0.1, 0.5, 0.99, 1.0, 2.0, 10.0, 1e4])
        oms = np.array([core.omega_from_saturation(float(s), qd) for s in sbar])
        pops = bloch.chaotic_steady_state(qd, oms, det)
        assert isinstance(pops, np.ndarray) and pops.shape == oms.shape
        scalar = [bloch.chaotic_steady_state(qd, float(w), det) for w in oms]
        assert all(isinstance(p, float) for p in scalar)
        assert pops.tolist() == scalar
        assert pops[0] == 0.0
        coh = bloch.steady_state_from_saturation(sbar)
        assert coh.tolist() == [bloch.steady_state_from_saturation(float(s)) for s in sbar]
        with pytest.raises(ValueError):
            bloch.chaotic_steady_state(qd, -oms)
        with pytest.raises(ValueError):
            bloch.steady_state_from_saturation(-sbar)

    def test_off_resonance_closed_form(self, qd):
        om = core.omega_from_saturation(2.0, qd)
        det = 4.0
        oracle = _chaotic_quadrature_oracle(qd, om, det)
        assert bloch.chaotic_steady_state(qd, om, det) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("sbar", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_always_below_coherent(self, qd, sbar):
        om = core.omega_from_saturation(sbar, qd)
        assert bloch.chaotic_steady_state(qd, om) < bloch.steady_state_population(qd, om)

    @pytest.mark.parametrize("sbar", [0.1, 1.0, 10.0])
    def test_monte_carlo_mean(self, qd, sbar):
        # closed form vs direct sampling of the saturation curve over
        # the exponential intensity law
        rng = core.stream(500 + int(10 * sbar))
        om2 = rng.exponential(core.omega_from_saturation(sbar, qd) ** 2, size=100_000)
        pops = np.array([bloch.steady_state_population(qd, math.sqrt(x)) for x in om2])
        se = pops.std(ddof=1) / math.sqrt(len(pops))
        cf = bloch.chaotic_steady_state(qd, core.omega_from_saturation(sbar, qd))
        assert abs(pops.mean() - cf) < 3.0 * se


# Test-side oracle: the Bloch equations written out a second time as an
# affine matrix on (rho11, u, v, 1), with scipy's expm of it over one
# step for each distinct step drive, applied one step at a time:
# independent of `expm_increment` and of the doubling of `bloch.orbit`.
def _staged_exact(params, pulse, t_end, dt, initial=BlochState.ground()):
    """(n_steps + 1, 3) columns rho11, rho01_re, rho01_im of the exact
    step maps on the step grid and per-step drive of `bloch.integrate`."""
    n_steps = math.ceil(core.step_ratio(t_end, dt))
    oms = bloch._amplitudes_per_step(pulse, n_steps, dt) * pulse.rabi
    it1, it2, det = 1.0 / params.t1, 1.0 / params.t2, pulse.detuning
    maps = {
        om: expm(dt * np.array([[-it1, 0.0, om, 0.0], [0.0, -it2, det, 0.0], [-om, -det, -it2, 0.5 * om], [0.0] * 4]))
        for om in set(oms)
    }
    x = np.empty((n_steps + 1, 4))
    x[0] = initial.rho11, initial.rho01_re, initial.rho01_im, 1.0
    for j, om in enumerate(oms):
        x[j + 1] = maps[om] @ x[j]
    return x[:, :3]


def _integrate_cases():
    """(pulse, t_end, dt, initial) of the checks of `integrate` against
    the staged oracle."""
    qd = core.PAPER_QD.tls
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        # paper-qd cw drive over 25 ns with the `validate` dt
        om = core.omega_from_saturation(s, qd)
        yield DrivePulse.cw(om), 25.0, min(qd.t2, 2.0 * math.pi / om) / 50.0, BlochState.ground()
    for om in (5.2, 6.6, 7.2):
        # the fig3 square pulses with the `rabi` default dt
        yield DrivePulse.square(om, 0.0, 2.0), 3.5, min(qd.t2, math.pi / om) / 50.0, BlochState.ground()
    yield DrivePulse(5.0, 1.3, ((0.0, 1.0, 1.0),)), 1.5, 0.005, BlochState.ground()
    three_level = ((0.0, 0.5, 1.0), (0.5, 1.0, 0.4), (1.0, 1.4, 0.7))
    yield DrivePulse(5.0, 0.0, three_level), 1.5, 0.005, BlochState(0.6, 0.2, -0.3)


class TestIntegrate:
    def test_free_decay(self, qd):
        trace = bloch.integrate(qd, DrivePulse.cw(0.0), 3.0, 0.002, initial=BlochState(1.0))
        expected = np.exp(-trace.times / qd.t1)
        assert np.abs(trace.rho11 - expected).max() < 1e-8

    def test_rabi_pulse_maxima(self, qd):
        pulse = DrivePulse.square(7.2, 0.0, 2.0)
        trace = bloch.integrate(qd, pulse, 2.0, 0.0005)
        r = trace.rho11
        peaks = np.where((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:]))[0] + 1
        interior = peaks[(trace.times[peaks] > 0) & (trace.times[peaks] < 2.0)]
        assert len(interior) >= 2
        t_first = trace.times[interior[0]]
        assert abs(t_first - math.pi / 7.2) / (math.pi / 7.2) < 0.05

    @pytest.mark.parametrize("s", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_long_time_limit_matches_closed_form(self, qd, s):
        om = core.omega_from_saturation(s, qd)
        dt = min(qd.t2, 2.0 * math.pi / om) / 50.0
        trace = bloch.integrate(qd, DrivePulse.cw(om), 25.0, dt)
        assert abs(trace.rho11[-1] - bloch.steady_state_population(qd, om)) < 1e-6

    def test_step_halving_moves_no_sample(self, qd):
        # the pulse edges lie on both grids, so the envelope is the same
        # and exact maps leave the shared samples where they were
        pulse = DrivePulse.square(7.2, 0.0, 2.0)
        a = bloch.integrate(qd, pulse, 2.0, 0.004)
        b = bloch.integrate(qd, pulse, 2.0, 0.002)
        assert np.abs(a.rho11 - b.rho11[::2]).max() < 1e-13

    def test_positivity_preserved(self, qd):
        pulse = DrivePulse.square(9.0, 0.0, 2.0)
        trace = bloch.integrate(qd, pulse, 3.0, 0.001)
        coh2 = trace.rho01_re**2 + trace.rho01_im**2
        assert np.all(coh2 <= trace.rho11 * (1.0 - trace.rho11) + 1e-9)
        assert trace.rho11.min() >= -1e-12 and trace.rho11.max() <= 1.0 + 1e-12

    def test_step_guard(self, qd):
        with pytest.raises(NumericalGuardError, match="dt"):
            bloch.integrate(qd, DrivePulse.cw(7.2), 2.0, 0.05)

    # the oracle is `_staged_exact`, the exact step maps applied one step
    # at a time; the name is from the RK4 oracle it replaced, kept so that
    # the 10 test IDs stay
    @pytest.mark.parametrize("pulse, t_end, dt, initial", list(_integrate_cases()))
    def test_matches_scalar_rk4(self, qd, pulse, t_end, dt, initial):
        trace = bloch.integrate(qd, pulse, t_end, dt, initial=initial)
        ref = _staged_exact(qd, pulse, t_end, dt, initial)
        got = np.column_stack([trace.rho11, trace.rho01_re, trace.rho01_im])
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12


_TRANSIENTS = {
    "integrate": lambda qd, pulse, t_end: bloch.integrate(qd, pulse, t_end, 0.005),
    "chaotic_mean_transient": lambda qd, pulse, t_end: bloch.chaotic_mean_transient(qd, pulse, t_end, 0.005),
    "chaotic_transient": lambda qd, pulse, t_end: bloch.chaotic_transient(qd, pulse, t_end, 0.005, 100, core.stream(1)),
}


@pytest.mark.parametrize("t_end", [0.0, -1.0])
@pytest.mark.parametrize("transient", list(_TRANSIENTS))
def test_non_positive_t_end_rejected(qd, transient, t_end):
    pulse = DrivePulse.square(5.0, 0.0, 1.0, statistics=Statistics.CHAOTIC)
    with pytest.raises(ValueError, match="t_end must be positive"):
        _TRANSIENTS[transient](qd, pulse, t_end)


class TestChaoticTransient:
    def test_sample_times_match_integrate(self, qd):
        # 1.3 / 0.0065 lands a hair above 200 in floating point; both
        # traces must still stop at 1.3 ns on the same grid
        pulse = DrivePulse.square(5.2, 0.0, 1.0)
        coh = bloch.integrate(qd, pulse, 1.3, 0.0065)
        cha = bloch.chaotic_transient(qd, pulse, 1.3, 0.0065, 100, core.stream(2))
        assert np.array_equal(cha.times, coh.times)

    def test_zero_drive_stays_dark(self, qd):
        pulse = DrivePulse.square(0.0, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        trace = bloch.chaotic_transient(qd, pulse, 2.0, 0.005, 200, core.stream(1))
        assert np.all(trace.rho11 == 0.0)

    def test_plateau_matches_closed_form(self, qd):
        # long pulse so the residual transient is far below the
        # ensemble standard error; dt divides the pulse length so the
        # final sample still sits inside the drive window
        pulse = DrivePulse.square(7.2, 0.0, 6.0, statistics=Statistics.CHAOTIC)
        trace = bloch.chaotic_transient(qd, pulse, 6.0, 0.006, 10_000, core.stream(77))
        target = bloch.chaotic_steady_state(qd, 7.2)
        assert abs(trace.rho11[-1] - target) < 2.0 * trace.stderr[-1]

    def test_washout_no_oscillations(self, qd):
        # chaotic averaging leaves a single washed-out rise (with a small
        # overshoot) instead of the coherent Rabi oscillations: no
        # significant maximum after the first one
        pulse = DrivePulse.square(7.2, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        dt = min(qd.t2, 2.0 * math.pi / 14.4) / 50.0
        trace = bloch.chaotic_transient(qd, pulse, 2.0, dt, 10_000, core.stream(42))
        idx = np.where((trace.times > 0.0) & (trace.times < 2.0))[0]
        sig = significant_maxima(trace.rho11, trace.stderr, idx)
        # tolerate the washed-out first peak region; nothing after it
        if sig:
            assert trace.times[sig[-1]] < 0.8
        # coherent trace at the same drive does oscillate
        coh = bloch.integrate(qd, DrivePulse.square(7.2, 0.0, 2.0), 2.0, dt)
        r = coh.rho11
        peaks = np.where((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:]))[0] + 1
        assert len(peaks[(coh.times[peaks] > 0) & (coh.times[peaks] < 2.0)]) >= 2

    def test_quasi_static_warning(self, qd):
        pulse = DrivePulse.square(2.0, 0.0, 200.0, statistics=Statistics.CHAOTIC)
        with pytest.warns(UserWarning, match="quasi-static"):
            bloch.chaotic_transient(qd, pulse, 200.0, 0.005, 100, core.stream(3))

    def test_reproducible_for_fixed_seed(self, qd):
        pulse = DrivePulse.square(5.0, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        a = bloch.chaotic_transient(qd, pulse, 2.0, 0.004, 300, core.stream(5))
        b = bloch.chaotic_transient(qd, pulse, 2.0, 0.004, 300, core.stream(5))
        assert np.array_equal(a.rho11, b.rho11)

    def test_ensemble_is_mean_of_member_integrations(self, qd):
        # the vectorized ensemble against one staged exact run per
        # member (the test-side oracle), redrawn from the same seed; dt
        # passes the step guard for every drawn Rabi frequency (all stay
        # below 2 pi / t2).  The
        # detuned drive exercises the u-v coupling of the step map, and
        # the two-level envelope a change between two nonzero amplitudes
        n, t_end, dt = 100, 1.5, 0.005
        square = ((0.0, 1.0, 1.0),)
        two_level = ((0.0, 0.5, 1.0), (0.5, 1.0, 0.4))
        for det, envelope in ((0.0, square), (1.3, square), (0.0, two_level)):
            pulse = DrivePulse(5.0, det, envelope, Statistics.CHAOTIC)
            ens = bloch.chaotic_transient(qd, pulse, t_end, dt, n, core.stream(11))
            omegas = np.sqrt(bloch.sample_chaotic_intensity(core.stream(11), 5.0**2, size=n))
            members = np.array([_staged_exact(qd, DrivePulse(om, det, envelope), t_end, dt) for om in omegas])
            for col, name in enumerate(("rho11", "rho01_re", "rho01_im")):
                assert np.abs(getattr(ens, name) - members[:, :, col].mean(axis=0)).max() <= 1e-12
            stack = members[:, :, 0]
            stderr = stack.std(axis=0, ddof=1) / math.sqrt(n)
            assert np.abs(ens.stderr - stderr).max() <= 1e-12

    def test_staircase_memory_is_bounded(self, qd):
        # 64 amplitude levels over 10k members: the ensemble holds the
        # orbits of one chunk of members at a time, 2^18 entries (255 of
        # them here, 2 MB), where holding every member's orbit would
        # need ~80 MB
        levels = np.linspace(1.0, 0.05, 64)
        envelope = tuple((0.02 * k, 0.02 * (k + 1), float(a)) for k, a in enumerate(levels))
        pulse = DrivePulse(5.0, 0.0, envelope, Statistics.CHAOTIC)
        tracemalloc.start()
        try:
            trace = bloch.chaotic_transient(qd, pulse, 1.28, 0.005, 10_000, core.stream(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace.rho11) == 257
        assert peak < 16e6


def _chaotic_averages(qd):
    """Every average that `bloch._node_sum` takes for the figures and
    validate: the fig3 chaotic means at 5.2 and 7.2 rad/ns, the fig5
    chaotic g2, a 1,000-member ensemble and the steady-state oracle."""
    out = []
    for om in (5.2, 7.2):
        pulse = DrivePulse.square(om, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        mean = bloch.chaotic_mean_transient(qd, pulse, 3.5, min(qd.t2, math.pi / om) / 50.0)
        out += [mean.rho11, mean.rho01_re, mean.rho01_im]
    out.append(emission.chaotic_g2(qd, 1.7, np.arange(0.0, 15.005, 0.01)).values)
    pulse = DrivePulse.square(7.2, 0.0, 2.0, statistics=Statistics.CHAOTIC)
    ens = bloch.chaotic_transient(qd, pulse, 2.0, 0.005, 1_000, core.stream(3))
    out += [ens.rho11, ens.rho01_re, ens.rho01_im, ens.stderr]
    out.append(bloch.chaotic_steady_state_quadrature(qd, 1.7))
    return out


def test_chunking_moves_no_bit(qd, monkeypatch):
    # from one node per chunk up to every node in one: the rows are added
    # in node order, so the chunk budget bounds memory and nothing else
    runs = {}
    for budget in (1 << 10, 1 << 14, 1 << 18, 1 << 24):
        monkeypatch.setattr(bloch, "_CHUNK_BUDGET", budget)
        runs[budget] = _chaotic_averages(qd)
    for budget, got in runs.items():
        assert all(np.array_equal(a, b) for a, b in zip(got, runs[1 << 10])), budget


def _node_mean(qd, pulse, t_end, dt, panels):
    """Test-side oracle: the quadrature sums over `integrate` runs, one
    per node of the composite rule in y = drive / mean drive."""
    ys, ws = bloch._panel_nodes(panels)
    traces = [bloch.integrate(qd, DrivePulse(pulse.rabi * y, pulse.detuning, pulse.envelope), t_end, dt) for y in ys]
    return [ws @ np.array([getattr(tr, name) for tr in traces]) for name in ("rho11", "rho01_re", "rho01_im")]


class TestChaoticMeanTransient:
    def test_is_node_sum_of_integrations(self, qd, monkeypatch):
        # the detuned drive exercises the u-v coupling, the two-level
        # envelope a change between two nonzero amplitudes; 4 panels
        # pass the doubling check here, so they are the panels used.
        # integrate's own step guard would refuse the nodes above twice
        # the mean drive, whose weights are below e^-4
        square = ((0.0, 1.0, 1.0),)
        two_level = ((0.0, 0.5, 1.0), (0.5, 1.0, 0.4))
        shapes = ((0.0, square), (1.3, square), (0.0, two_level))
        cases = [DrivePulse(5.0, det, env, Statistics.CHAOTIC) for det, env in shapes]
        means = [bloch.chaotic_mean_transient(qd, pulse, 1.5, 0.005, panels=4) for pulse in cases]
        monkeypatch.setattr(bloch, "_step_guard", lambda *args: None)
        for pulse, mean in zip(cases, means):
            ref = _node_mean(qd, pulse, 1.5, 0.005, 4)
            for got, want in zip((mean.rho11, mean.rho01_re, mean.rho01_im), ref):
                assert np.abs(got - want).max() <= 1e-12
            assert mean.stderr is None

    def test_panel_rule_is_the_exponential_law(self):
        # weights 2 y e^-y^2 dy: total mass 1 and mean y^2 = <x> = 1 up to
        # the e^-36 beyond the span; odd moments need no special rule in y
        for panels in (2, 4, 64):
            ys, ws = bloch._panel_nodes(panels)
            assert ws.sum() == pytest.approx(1.0, abs=1e-14)
            assert ws @ ys**2 == pytest.approx(1.0, abs=1e-13)
            assert ws @ ys == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-14)

    def test_ensemble_within_4_se(self, qd):
        # the acceptance clause-4 pulse, seed and size, at every sample
        pulse = DrivePulse.square(7.2, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        dt = min(qd.t2, 2.0 * math.pi / 14.4) / 50.0
        ens = bloch.chaotic_transient(qd, pulse, 2.0, dt, 10_000, core.stream(424242))
        mean = bloch.chaotic_mean_transient(qd, pulse, 2.0, dt)
        assert ens.rho11[0] == mean.rho11[0] == 0.0
        assert np.all(np.abs(ens.rho11[1:] - mean.rho11[1:]) < 4.0 * ens.stderr[1:])

    def test_overshoot_of_the_washout(self, qd):
        # the fact behind acceptance clause 4b's strict xfail: the exact
        # mean rises past its plateau once, by 0.026, near the first
        # coherent maximum (pi / 7.2 = 0.44 ns), then settles
        pulse = DrivePulse.square(7.2, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        dt = min(qd.t2, 2.0 * math.pi / 14.4) / 50.0
        mean = bloch.chaotic_mean_transient(qd, pulse, 2.0, dt)
        peak = int(np.argmax(mean.rho11))
        plateau = bloch.chaotic_steady_state(qd, 7.2)
        assert mean.rho11[peak] - plateau == pytest.approx(0.026, abs=1e-3)
        assert mean.times[peak] == pytest.approx(0.42, abs=0.01)
        assert mean.rho11[-1] == pytest.approx(plateau, abs=1e-4)

    def test_zero_drive_is_exactly_dark(self, qd):
        pulse = DrivePulse.square(0.0, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        mean = bloch.chaotic_mean_transient(qd, pulse, 2.0, 0.005)
        for col in (mean.rho11, mean.rho01_re, mean.rho01_im):
            assert np.all(col == 0.0)

    def test_sample_times_match_integrate(self, qd):
        # 1.3 / 0.0065 lands a hair above 200 in floating point
        pulse = DrivePulse.square(5.2, 0.0, 1.0)
        coh = bloch.integrate(qd, pulse, 1.3, 0.0065)
        mean = bloch.chaotic_mean_transient(qd, pulse, 1.3, 0.0065)
        assert np.array_equal(mean.times, coh.times)

    def test_quasi_static_warning(self, qd):
        pulse = DrivePulse.square(2.0, 0.0, 100.0, statistics=Statistics.CHAOTIC)
        with pytest.warns(UserWarning, match="quasi-static"):
            bloch.chaotic_mean_transient(qd, pulse, 100.0, 0.005)

    @pytest.mark.parametrize("pulse", [DrivePulse.cw(5.2), DrivePulse.square(5.2, 0.0, 500.0)])
    def test_no_warning_for_drive_beyond_t_end(self, qd, pulse):
        # only the drive within [0, t_end] reaches the trace: 3.5 ns here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bloch.chaotic_mean_transient(qd, pulse, 3.5, 0.005)
            bloch.chaotic_transient(qd, pulse, 3.5, 0.005, 100, core.stream(4))

    @pytest.mark.parametrize("omega", [20.0, 30.0, 50.0])
    def test_strong_drive_converges(self, qd, omega):
        # the Rabi phase over the fig3 pulse at drives where 96 and 192
        # Gauss-Laguerre nodes in x disagree (by 1.0e-2 at 20 rad/ns)
        pulse = DrivePulse.square(omega, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        dt = min(qd.t2, math.pi / omega) / 50.0
        mean = bloch.chaotic_mean_transient(qd, pulse, 3.5, dt)
        fine = bloch.chaotic_mean_transient(qd, pulse, 3.5, dt, panels=128)
        for got, want in zip((mean.rho11, mean.rho01_re, mean.rho01_im), (fine.rho11, fine.rho01_re, fine.rho01_im)):
            assert np.abs(got - want).max() < 1e-6

    def test_long_lived_emitter_converges(self):
        # t2 = 2 t1 = 10 ns: the Rabi oscillation outlasts a 5 ns pulse at
        # 20 rad/ns, so the panels double to 32 and 64, far past fig3's 4
        params = core.TlsParams(t1=5.0, t2=10.0)
        pulse = DrivePulse.square(20.0, 0.0, 5.0, statistics=Statistics.CHAOTIC)
        dt = math.pi / 20.0 / 50.0
        mean = bloch.chaotic_mean_transient(params, pulse, 5.0, dt)
        fine = bloch.chaotic_mean_transient(params, pulse, 5.0, dt, panels=128)
        assert np.abs(mean.rho11 - fine.rho11).max() < 1e-6

    def test_unresolved_average_raises(self):
        # cos(40 y) over y in [0, 6] is ~38 periods: 2 and 4 panels of
        # 16 nodes cannot follow it, and with no doubling left the check
        # says so
        ys, ws = bloch._panel_nodes(64)
        exact = ws @ np.cos(40.0 * ys)
        with pytest.raises(core.QuadratureError, match="not converged at order 2"):
            bloch._chaotic_average(lambda y: np.cos(40.0 * y)[:, None], 1.0, 2, 1e-6, 1, 2)
        got = bloch._chaotic_average(lambda y: np.cos(40.0 * y)[:, None], 1.0, 2, 1e-6, 1, 64)
        assert got[0] == pytest.approx(exact, abs=1e-10)

    def test_long_trace_memory_is_bounded(self, qd):
        # 2e5 steps: 32 nodes of (4, 2e5 + 1) orbits would take 205 MB;
        # the chunks are sized so that the orbits of one hold at most
        # 2^18 entries, here one node of 8e5 entries (6.4 MB) at a time
        pulse = DrivePulse.square(2.0, 0.0, 2.0, statistics=Statistics.CHAOTIC)
        for panels in (2, 4, 8):
            bloch._panel_nodes(panels)  # numpy.polynomial's import stays out of the peak
        tracemalloc.start()
        try:
            mean = bloch.chaotic_mean_transient(qd, pulse, 1000.0, 0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(mean.rho11) == 200_001
        assert peak < 40e6
