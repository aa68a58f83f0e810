"""Acceptance criteria, one test per criterion (split into lettered
clauses where a criterion bundles several checks).  Each test prints a
PASS/FAIL line so the suite doubles as a report:

    pytest tests/test_acceptance.py -v -s

Three clauses encode approximate laws as if they were exact and cannot
pass with the model's exact dynamics; they are implemented faithfully
and marked strict-xfail, with companion clauses checking the correct
behavior against independent closed forms:

  4b  the intensity-averaged transient keeps a small washed-out
      overshoot of the first oscillation (8-9 standard errors at the
      stated ensemble size), so "zero significant interior maxima" is
      unattainable, while "no oscillations" (no significant maximum
      after the washout) holds and is tested in 4c.
  5a  with the default emitter's strong pure dephasing the spectral
      lines overlap enough to pull the apparent sideband maxima inward
      by 6-15% at the stated drives (and the instrument convolution
      removes the weakest pair entirely), so the 5% position tolerance
      cannot hold; the underlying oscillation frequencies do match, and
      clauses 5b-5e verify the spectrum against exact references.
  6a  the weak-drive correlation approaches the single-exponential
      recovery law only as both the drive and the coherence time
      vanish; at S = 0.01 the recovery rate is already (1 + S)/t1 and
      the coherence buildup adds a lag of relative size ~t2/t1, leaving
      a 0.25 deviation at the default emitter (and a 3.7e-3 floor even
      for extreme dephasing), far above the 1e-3 tolerance.  The exact
      weak-drive law is verified to 1e-4 in 6b.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import curve_fit
from scipy.signal import argrelmax

from tlsrf import bloch, cli, core, emission, lamp, trajectory
from tlsrf.core import DrivePulse, Statistics, TWO_PI

from conftest import significant_maxima

QD = core.PAPER_QD.tls
INSTR = core.PAPER_QD.instrument


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


# --- 1. unit-convention lock -------------------------------------------------


def test_criterion_01_unit_lock():
    s_low = core.saturation_parameter(1.7, QD)
    s_high = core.saturation_parameter(7.1, QD)
    ok = abs(s_low - 0.602) < 1e-3 and abs(s_high - 10.6) / 10.6 < 0.02
    assert report("01 unit lock", ok, f"S(1.7)={s_low:.6f}, S(7.1)={s_high:.5f}")


# --- 2. steady-state consistency ---------------------------------------------


def test_criterion_02_steady_state():
    worst = 0.0
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        om = core.omega_from_saturation(s, QD)
        dt = min(QD.t2, TWO_PI / om) / 50.0
        trace = bloch.integrate(QD, DrivePulse.cw(om), 25.0, dt)
        worst = max(worst, abs(trace.rho11[-1] - bloch.steady_state_population(QD, om)))
    exact = bloch.steady_state_from_saturation(1.0)
    ok = worst < 1e-6 and exact == 0.25
    assert report("02 steady state", ok, f"max |rk4 - closed| = {worst:.2e}, S=1 -> {exact}")


# --- 3. chaotic reduction ----------------------------------------------------


def test_criterion_03_chaotic_reduction():
    worst_rel = 0.0
    below = True
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        om = core.omega_from_saturation(s, QD)
        cf = bloch.chaotic_steady_state(QD, om)
        quad = bloch.chaotic_steady_state_quadrature(QD, om)
        worst_rel = max(worst_rel, abs(cf - quad) / quad)
        below &= cf < bloch.steady_state_population(QD, om)
    ref = bloch.chaotic_steady_state(QD, core.omega_from_saturation(1.0, QD))
    ok = worst_rel < 1e-6 and below and abs(ref - 0.20183) < 1e-5
    assert report(
        "03 chaotic reduction",
        ok,
        f"closed vs quad rel {worst_rel:.2e}, below coherent: {below}, value(1) = {ref:.6f}",
    )


# --- 4. Rabi wash-out ----------------------------------------------------------

_RABI_DT = min(QD.t2, TWO_PI / (2.0 * 7.2)) / 50.0


def _chaotic_rabi_trace():
    pulse = DrivePulse.square(7.2, 0.0, 2.0, statistics=Statistics.CHAOTIC)
    return bloch.chaotic_transient(QD, pulse, 2.0, _RABI_DT, 10_000, core.stream(424242))


def test_criterion_04a_coherent_oscillations():
    trace = bloch.integrate(QD, DrivePulse.square(7.2, 0.0, 2.0), 2.0, _RABI_DT)
    r = trace.rho11
    peaks = np.where((r[1:-1] > r[:-2]) & (r[1:-1] > r[2:]))[0] + 1
    interior = peaks[(trace.times[peaks] > 0) & (trace.times[peaks] < 2.0)]
    t_first = trace.times[interior[0]] if len(interior) else math.nan
    rel = abs(t_first - math.pi / 7.2) / (math.pi / 7.2)
    ok = len(interior) >= 2 and rel < 0.05
    assert report(
        "04a coherent Rabi",
        ok,
        f"{len(interior)} maxima, first at {t_first:.4f} ns ({rel*100:.2f}% from pi/omega)",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the exact intensity-averaged transient overshoots its plateau by "
    "~0.026 (8-9 SE at 1e4 members) before settling, a washed-out remnant of "
    "the first oscillation; zero significant maxima is unattainable (see module docstring)",
)
def test_criterion_04b_chaotic_washout_literal():
    trace = _chaotic_rabi_trace()
    idx = np.where((trace.times > 0.0) & (trace.times < 2.0))[0]
    sig = significant_maxima(trace.rho11, trace.stderr, idx)
    assert report("04b chaotic wash-out (literal)", len(sig) == 0, f"{len(sig)} significant maxima")


def test_criterion_04c_chaotic_washout_no_oscillation():
    trace = _chaotic_rabi_trace()
    idx = np.where((trace.times > 0.0) & (trace.times < 2.0))[0]
    sig = significant_maxima(trace.rho11, trace.stderr, idx)
    # any significant structure is confined to the single washed-out
    # bump near the first coherent maximum; nothing oscillates after it
    latest = trace.times[sig[-1]] if sig else 0.0
    ok = latest < 0.8
    assert report("04c chaotic wash-out (no oscillation)", ok, f"last significant max at {latest:.3f} ns")


# --- 5. Mollow triplet ----------------------------------------------------------


def _grid(span=4.0, n=8001):
    return np.linspace(-span, span, n)


def _positive_peaks(freqs, dens):
    idx = argrelmax(dens)[0]
    idx = idx[dens[idx] > 1e-6 * dens.max()]
    return freqs[idx][freqs[idx] > 0.05]


@pytest.mark.xfail(
    strict=True,
    reason="with the default emitter's pure dephasing the overlapping lines "
    "pull the apparent sidebands 6-15% inward at these drives and the 5.2 "
    "sidebands do not survive the instrument convolution; the 5% position "
    "tolerance is unattainable (see module docstring)",
)
def test_criterion_05a_sideband_positions_literal():
    worst = 0.0
    detail = []
    for om in (5.2, 6.6, 7.2):
        sp = emission.qrt_spectrum(QD, om, 0.0, _grid())
        tot = emission.convolve_lorentzian(sp, INSTR.fpi_fwhm_ghz)
        side = _positive_peaks(tot.freqs, tot.incoherent)
        if len(side) == 0:
            worst = math.inf
            detail.append(f"om={om}: sideband absent")
            continue
        rel = abs(side[0] - om / TWO_PI) / (om / TWO_PI)
        worst = max(worst, rel)
        detail.append(f"om={om}: {rel*100:.1f}% off")
    assert report("05a sidebands after IRF (literal)", worst < 0.05, "; ".join(detail))


def test_criterion_05b_sideband_position_raw_strongest_drive():
    sp = emission.qrt_spectrum(QD, 7.2, 0.0, _grid())
    side = _positive_peaks(sp.freqs, sp.incoherent)
    rel = abs(side[0] - 7.2 / TWO_PI) / (7.2 / TWO_PI)
    assert report("05b raw sideband at 7.2", rel < 0.05, f"{side[0]:.4f} GHz vs {7.2/TWO_PI:.4f} ({rel*100:.2f}%)")


def test_criterion_05c_radiative_mollow_closed_form(radiative):
    # the three-Lorentzian reference neglects dispersive terms of order
    # (1/t1)/omega, so the check drives far above the decay rate
    g = 1.0 / radiative.t1
    om = 200.0
    freqs = np.linspace(-3.0 * om / TWO_PI, 3.0 * om / TWO_PI, 24001)
    sp = emission.qrt_spectrum(radiative, om, 0.0, freqs)
    r11 = bloch.steady_state_population(radiative, om)

    def lor(x, hw):
        return (hw / math.pi) / (hw * hw + x * x)

    w = TWO_PI * freqs
    oracle = (r11 / radiative.t1) * TWO_PI * (
        0.5 * lor(w, g / 2.0) + 0.25 * lor(w - om, 0.75 * g) + 0.25 * lor(w + om, 0.75 * g)
    )
    l2 = np.linalg.norm(sp.incoherent - oracle) / np.linalg.norm(oracle)
    assert report("05c radiative Mollow closed form", l2 < 0.01, f"L2 error {l2*100:.3f}%")


def test_criterion_05d_chaotic_sidebands_vanish():
    ok = True
    detail = []
    for om in (5.2, 6.6, 7.2):
        sp = emission.chaotic_spectrum(QD, om, _grid(4.0, 4001))
        tot = emission.convolve_lorentzian(sp, INSTR.fpi_fwhm_ghz)
        idx = argrelmax(tot.incoherent)[0]
        idx = idx[tot.incoherent[idx] > 1e-6 * tot.incoherent.max()]
        ok &= len(idx) == 1
        detail.append(f"om={om}: {len(idx)} max")
    assert report("05d chaotic spectrum single line", ok, "; ".join(detail))


def test_criterion_05e_coherent_triplet_contrast():
    sp = emission.qrt_spectrum(QD, 7.2, 0.0, _grid(4.0, 4001))
    tot = emission.convolve_lorentzian(sp, INSTR.fpi_fwhm_ghz)
    idx = argrelmax(tot.incoherent)[0]
    idx = idx[tot.incoherent[idx] > 1e-6 * tot.incoherent.max()]
    assert report("05e coherent triplet contrast", len(idx) == 3, f"{len(idx)} maxima after IRF")


# --- 6. emission g2 ---------------------------------------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="the single-exponential recovery law is the t2 -> 0, S -> 0 limit; "
    "at S = 0.01 with the default emitter the exact correlation deviates by "
    "0.25 (and by >= 3.7e-3 in any dephasing regime), above the 1e-3 "
    "tolerance (see module docstring)",
)
def test_criterion_06a_weak_drive_single_exponential_literal():
    om = core.omega_from_saturation(0.01, QD)
    lags = np.linspace(0.0, 5.0 * QD.t1, 501)
    g2 = emission.qrt_g2(QD, om, 0.0, lags)
    vals = g2.values[len(lags) - 1 :]
    dev = np.abs(vals - (1.0 - np.exp(-lags / QD.t1))).max()
    assert report("06a weak-drive single-exponential (literal)", dev < 1e-3, f"max dev {dev:.3f}")


def test_criterion_06b_weak_drive_exact_law():
    # exact zero-drive limit: coherence builds on t2, population on t1
    om = core.omega_from_saturation(1e-5, QD)
    lags = np.linspace(0.0, 5.0 * QD.t1, 501)
    g2 = emission.qrt_g2(QD, om, 0.0, lags)
    vals = g2.values[len(lags) - 1 :]
    k = 1.0 / QD.t1 - 1.0 / QD.t2
    oracle = (
        1.0
        - np.exp(-lags / QD.t1)
        - (np.exp(-lags / QD.t2) - np.exp(-lags / QD.t1)) / (QD.t1 * k)
    )
    dev = np.abs(vals - oracle).max()
    assert report("06b weak-drive exact law", dev < 1e-4, f"max dev {dev:.2e}")


def test_criterion_06c_zero_lag_and_instrument_dip():
    oks = []
    for s in (0.01, 0.6, 10.5):
        om = core.omega_from_saturation(s, QD)
        g2 = emission.qrt_g2(QD, om, 0.0, np.arange(0.0, 12.0, 0.01))
        oks.append(g2.values[len(g2.values) // 2] == 0.0)
    om = core.omega_from_saturation(0.6, QD)
    g2 = emission.qrt_g2(QD, om, 0.0, np.arange(0.0, 12.0, 0.01))
    dip = emission.convolve_gaussian(g2, INSTR.detector_fwhm_ns).values.min()
    ok = all(oks) and 0.0 < dip < 0.5
    assert report("06c antibunching and IRF dip", ok, f"g2(0)=0: {all(oks)}, dip after IRF {dip:.3f}")


def test_criterion_06d_chaotic_plateau():
    om = core.omega_from_saturation(0.01, QD)
    lags = np.linspace(8.6 * QD.t1, 10.0 * QD.t1, 29)
    g2 = emission.chaotic_g2(QD, om, lags)
    plateau = g2.values[len(lags) - 1 :].mean()
    ok = abs(plateau - 2.0) <= 0.05
    assert report("06d chaotic weak-drive plateau", ok, f"settled value {plateau:.4f}")


# --- 7. blinking ------------------------------------------------------------------


def test_criterion_07_blinking_time_constant():
    tags = trajectory.simulate_tags(
        QD, DrivePulse.cw(7.1), 1.5e6, 1.0, core.stream(9090), blinking=(0.5, 405.0)
    )
    hist = trajectory.correlate(tags, 10.0, 2000.0)
    mask = np.abs(hist.lags) > 20.0
    popt, _ = curve_fit(
        lambda t, a, tau: 1.0 + a * np.exp(-np.abs(t) / tau),
        hist.lags[mask],
        hist.c_norm[mask],
        p0=(1.0, 300.0),
    )
    rel = abs(popt[1] - 405.0) / 405.0
    assert report("07 blinking envelope", rel < 0.10, f"fitted tau {popt[1]:.1f} ns ({rel*100:.1f}% off 405)")


# --- 8. lamp ----------------------------------------------------------------------


def test_criterion_08_lamp():
    tau = 901.8
    trace = lamp.synthesize_field(tau, tau / 20.0, 1 << 21, core.stream(808))
    g1 = lamp.estimate_g1(trace, 3.2 * tau)
    g2 = lamp.estimate_g2(trace, 3.2 * tau)
    zero_lag = g2.values[0]
    siegert = np.abs(g2.values - 1.0 - g1.values**2).max()
    fit = lamp.fit_gaussian_g2(g2)
    rel = abs(fit.tau_corr - tau) / tau
    ok = abs(zero_lag - 2.0) <= 0.05 and siegert < 0.05 and rel < 0.05
    assert report(
        "08 lamp",
        ok,
        f"g2(0)={zero_lag:.3f}, Siegert residual {siegert:.3f}, tau_corr {fit.tau_corr:.1f} ns",
    )


# --- 9. trajectory vs regression --------------------------------------------------


def test_criterion_09_tags_match_analytic():
    om = core.omega_from_saturation(0.6, QD)
    rng = core.stream(616)
    sim_rng, det_rng = rng.spawn(2)
    duration = 3.5e6
    tags = trajectory.simulate_tags(QD, DrivePulse.cw(om), duration, 1.0, sim_rng)
    n_tags = len(tags.times)
    tags = trajectory.apply_detector(tags, INSTR.detector_fwhm_ns / math.sqrt(2.0), det_rng)
    hist = trajectory.correlate(tags, 0.1, 20.0)
    ana = emission.qrt_g2(QD, om, 0.0, np.arange(0.0, 20.51, 0.02))
    ana = emission.convolve_gaussian(ana, INSTR.detector_fwhm_ns)
    ref = np.interp(np.abs(hist.lags), ana.lags, ana.values)
    dev = np.abs(hist.c_norm - ref) / hist.stderr
    frac3 = float((dev > 3.0).mean())

    rngp = core.stream(617)
    t1 = np.cumsum(rngp.exponential(10.0, size=500_000))
    t2 = np.cumsum(rngp.exponential(10.0, size=500_000))
    stop = min(t1[-1], t2[-1]) * 0.999
    t = np.concatenate([t1[t1 < stop], t2[t2 < stop]])
    ch = np.concatenate(
        [np.ones((t1 < stop).sum(), np.int8), np.full((t2 < stop).sum(), 2, np.int8)]
    )
    order = np.argsort(t, kind="stable")
    pois = trajectory.correlate(trajectory.TagStream(t[order], ch[order], stop), 1.0, 100.0)
    pois_dev = np.abs(pois.c_norm - 1.0).max()

    ok = n_tags >= 1_000_000 and frac3 <= 0.01 and dev.max() < 5.0 and pois_dev < 0.02
    assert report(
        "09 tag correlator",
        ok,
        f"{n_tags} tags, frac>3SE {frac3:.4f}, max {dev.max():.2f} SE, Poisson max |C-1| {pois_dev:.4f}",
    )


# --- 10. linewidth law -------------------------------------------------------------


def test_criterion_10_linewidth_law():
    fw0 = core.power_linewidth(0.0, QD)
    intercept_ghz = core.angular_to_ordinary(fw0)
    ratios = []
    for s in (0.5, 1.0, 4.0, 25.0):
        om = core.omega_from_saturation(s, QD)
        ratios.append(core.power_linewidth(om, QD) / fw0 / math.sqrt(1.0 + s))
    ok = fw0 == 2.0 / QD.t2 and abs(intercept_ghz - 0.979) < 1e-3
    ok &= all(abs(r - 1.0) < 1e-12 for r in ratios)
    assert report("10 linewidth law", ok, f"intercept {intercept_ghz:.4f} GHz, sqrt-law exact")


# --- 11. determinism ---------------------------------------------------------------


def _run_cli(tmp_path, name, args):
    out = tmp_path / name
    assert cli.main(args + ["--out", str(out)]) == 0
    return out.read_bytes()


def test_criterion_11_determinism(tmp_path):
    specs = {
        "fig2": ["saturation", "--preset", "fig2", "--seed", "7"],
        "figS2": ["linewidth", "--preset", "figS2", "--seed", "7"],
        "fig3": ["rabi", "--preset", "fig3", "--seed", "7", "--samples", "300"],
    }
    cfg = tmp_path / "g2cfg.json"
    cfg.write_text(json.dumps({"duration_ns": 2e4, "max_lag_ns": 5.0}))
    specs["fig5"] = ["g2", "--preset", "fig5", "--config", str(cfg), "--seed", "7"]
    lamp_cfg = tmp_path / "lampcfg.json"
    lamp_cfg.write_text(json.dumps({"n": 1 << 17}))
    specs["fig1c"] = ["lamp", "--preset", "fig1c", "--config", str(lamp_cfg), "--seed", "7"]
    ok = True
    detail = []
    for name, args in specs.items():
        a = _run_cli(tmp_path, f"{name}_a.csv", args)
        b = _run_cli(tmp_path, f"{name}_b.csv", args)
        same = a == b
        ok &= same
        detail.append(f"{name}: {'ok' if same else 'DIFFERS'}")
    assert report("11 determinism (rerun)", ok, "; ".join(detail))


def test_criterion_11_determinism_across_worker_counts(tmp_path):
    # thread count must not affect bytes: the BLAS and OpenMP pools that
    # numpy and scipy may use run at 1 and 2 threads; the chaotic tags
    # run carries legs across every block edge
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"duration_ns": 2e4, "max_lag_ns": 5.0}))
    tags_cfg = tmp_path / "tags.json"
    tags_cfg.write_text(json.dumps({"statistics": "chaotic", "duration_ns": 2e4}))
    blobs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        blob = b""
        for name, args in (
            ("g2", ["g2", "--preset", "fig5", "--config", str(cfg), "--seed", "7"]),
            ("tags", ["tags", "--config", str(tags_cfg), "--seed", "7"]),
        ):
            out = tmp_path / f"{name}_t{threads}.csv"
            res = subprocess.run(
                [sys.executable, "-m", "tlsrf.cli", *args, "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert res.returncode == 0, res.stderr
            blob += out.read_bytes()
        blobs.append(blob + (tmp_path / f"g2_t{threads}.csv.mc.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    assert report("11 determinism (worker count)", ok, "byte-identical across thread counts")
