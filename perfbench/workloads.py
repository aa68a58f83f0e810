"""Workload process of the benchmark.

Runs one workload as a closed loop, one operation after another, checks
the output of every operation against an oracle, and prints a one-line
JSON report.  perfbench/run.py starts it with the thread environment and
PYTHONPATH set; run that script, not this one.

An untraced run goes over a fixed number of inputs in turn, each with
its own seed derived from the workload seed, so one seed always gives
the same inputs.  With --trace 1 the operations alternate between
untraced and traced (see spans.py), which gives the per-layer numbers
and the cost of the instrument from one process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy
from scipy.special import roots_laguerre

import spans
import tlsrf
from tlsrf import bloch, cli, emission, trajectory
from tlsrf.core import BUILTIN_SETS, DrivePulse, omega_from_saturation, stream

HERE = Path(__file__).resolve().parent

# A level check (bunching scale, tag rate, fitted correlation time)
# allows this many standard errors of its own noise model.
LEVEL_SE = 5.0

# The benchmark runs on shared hosts whose speed drifts by tens of per
# cent over minutes.  Each timed operation is bracketed by the probe of
# probe.py and divided by the probe's mean time, which cancels most of
# the drift; no change to tlsrf touches the probe.  wall_norm_s is that
# ratio times PROBE_REF_S, about the probe's time on the host of the
# baseline, so it reads as seconds there.
PROBE_REF_S = 0.04


class HostProbe:
    """The probe helper process (probe.py), for the length of a with block."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return {name: data[:, k] for k, name in enumerate(names)}


def sized(doc: dict, size: str) -> dict:
    """The config of a workload document at the given size."""
    return doc["config"] | doc.get("tiny", {}) if size == "tiny" else dict(doc["config"])


# ---------------------------------------------------------------------------
# Gates.  Each returns a list of failure messages; empty means the
# output passed.


def drive_sampling_se(params, omega: float, segments: int) -> float:
    """Relative standard error of the bunching level <r^2>/<r>^2 that a
    stream with `segments` quasi-static blocks estimates, where each
    block draws its squared Rabi frequency from the exponential law and
    emits at the rate r of its steady population (delta method,
    Gauss-Laguerre moments)."""
    x, w = roots_laguerre(64)
    r = np.array([bloch.steady_state_population(params, omega * math.sqrt(xi)) for xi in x])
    m1, m2, m3, m4 = (float(w @ r**k) for k in (1, 2, 3, 4))
    var = m4 / m2**2 - 4.0 * m3 / (m1 * m2) + 4.0 * m2 / m1**2 - 1.0
    return math.sqrt(var / segments)


def check_mc_chaotic(analytic: dict, mc: dict, drive_se: float) -> list[str]:
    """Monte Carlo c_norm against the analytic g2_chaotic_irf.

    The finite number of drive blocks moves the whole histogram by a
    common factor (drive_se), so that factor is fitted and checked
    against its own standard error; the shape is then held to the rule
    of `tlsrf validate`: at most 2 % of bins beyond 3 SE and none beyond
    6 SE of Poisson noise."""
    counts, c_norm = mc["counts"], mc["c_norm"]
    ref = np.interp(np.abs(mc["lag_ns"]), analytic["lag_ns"], analytic["g2_chaotic_irf"])
    seen = counts > 0
    norm = float(np.median(c_norm[seen] / counts[seen]))
    se = np.sqrt(np.maximum(counts, 1)) * norm
    weight = float(np.sum((ref / se) ** 2))
    scale = float(np.sum(c_norm * ref / se**2)) / weight
    scale_se = math.hypot(1.0 / math.sqrt(weight), drive_se)
    failures = []
    if abs(scale - 1.0) > LEVEL_SE * scale_se:
        failures.append(f"bunching level {scale:.4f} is beyond {LEVEL_SE} SE ({scale_se:.4f}) of 1")
    dev = np.abs(c_norm - scale * ref) / se
    frac = float((dev > 3.0).mean())
    if frac > 0.02 or dev.max() >= 6.0:
        failures.append(f"shape: {frac:.3f} of bins beyond 3 SE, max {dev.max():.2f} SE")
    return failures


def count_pairs(times_1: np.ndarray, times_2: np.ndarray, max_lag: float) -> int:
    """Channel-2 tags in [t - max_lag, t + max_lag) of each channel-1 tag t."""
    hi = np.searchsorted(times_2, times_1 + max_lag)
    lo = np.searchsorted(times_2, times_1 - max_lag)
    return int(np.sum(hi - lo))


def check_blink(tags, hist, curve, cfg: dict, params) -> list[str]:
    failures = []
    pairs = count_pairs(tags.channel_times(1), tags.channel_times(2), cfg["max_lag_ns"])
    if int(hist.counts.sum()) != pairs:
        failures.append(f"histogram holds {int(hist.counts.sum())} pairs, the stream has {pairs}")
    beta, tau_blink, duration = cfg["blinking_beta"], cfg["blinking_tau_ns"], cfg["duration_ns"]
    expected = cfg["efficiency"] * beta * bloch.steady_state_population(params, cfg["omega"]) / params.t1
    # the on-fraction of a telegraph averaged over T has relative variance
    # 2 (1 - beta) tau / (beta T); the tag count adds Poisson noise
    rel_se = math.sqrt(2.0 * (1.0 - beta) * tau_blink / (beta * duration) + 1.0 / (expected * duration))
    ratio = len(tags.times) / duration / expected
    if abs(ratio - 1.0) > LEVEL_SE * rel_se:
        failures.append(f"tag rate is {ratio:.3f} of beta rho11/t1, beyond {LEVEL_SE} x {rel_se:.3f}")
    if curve.values[curve.lags == 0.0].tolist() != [0.0]:
        failures.append("analytic g2(0) is not exactly 0")
    return failures


def check_saturation(table: dict, params) -> list[str]:
    worst = 0.0
    for s, chaotic in zip(table["s"], table["chaotic"]):
        ref = bloch.chaotic_steady_state_quadrature(params, omega_from_saturation(float(s), params))
        worst = max(worst, abs(chaotic - ref) / ref)
    return [] if worst <= 1e-6 else [f"chaotic column off the quadrature by {worst:.2e} relative"]


def check_mollow(table: dict, params) -> list[str]:
    """The power on the grid of the instrument-convolved coherent-drive
    spectrum is rho11/t1 less what falls outside the grid, which the
    1/nu^2 tails put at F (S(-F) + S(F)) for a grid ending at +-F."""
    failures = []
    for om in np.unique(table["omega"]):
        rows = table["omega"] == om
        nu, dens, seen = table["freq_ghz"][rows], table["coherent_inc"][rows], table["coherent_total_irf"][rows]
        missing = bloch.steady_state_population(params, float(om)) / params.t1 - seen.sum() * (nu[1] - nu[0])
        tail = max(-nu[0], nu[-1]) * (dens[0] + dens[-1])
        if abs(missing - tail) > 0.1 * tail:
            failures.append(f"omega {om}: grid misses {missing:.5f} of rho11/t1, tails hold {tail:.5f}")
    return failures


def check_lamp(fit: dict, cfg: dict) -> list[str]:
    """The fitted correlation time must be identifiable and within
    LEVEL_SE errors of the synthesized one.  The error is the larger of
    the fit's own and the trace-length error tau sqrt(2 tau / (n dt)):
    the fit treats neighbouring lags as independent, which understates
    the seed-to-seed spread."""
    tau = cfg["tau_corr_ns"]
    span = cfg["n"] * (cfg["dt_ns"] or tau / 20.0)
    err = max(fit["tau_corr_err_ns"], tau * math.sqrt(2.0 * tau / span))
    failures = [] if fit["identifiable"] else ["fit is not identifiable"]
    if abs(fit["tau_corr_ns"] - tau) > LEVEL_SE * err:
        failures.append(f"tau_corr {fit['tau_corr_ns']:.1f} ns is beyond {LEVEL_SE} x {err:.1f} ns of {tau}")
    return failures


def check_g2_zero(table: dict) -> list[str]:
    at_zero = table["lag_ns"] == 0.0
    values = [table[col][at_zero].tolist() for col in ("g2_coherent", "g2_chaotic")]
    return [] if values == [[0.0], [0.0]] else [f"analytic g2(0) is {values}, not exactly 0"]


def check_finite(table: dict) -> list[str]:
    bad = [name for name, col in table.items() if not np.all(np.isfinite(col))]
    return [f"non-finite values in {bad}"] if bad else []


# ---------------------------------------------------------------------------
# Workloads.  run() is one timed operation; check() gates its output and
# returns the failures and the measured input properties.


class CliSteps:
    """Operations made of in-process `tlsrf <command> --config ...` calls."""

    def __init__(self, name: str, steps: list[dict], size: str, workdir: Path):
        self.steps = []
        for k, step in enumerate(steps):
            cfg = sized(step, size)
            cfg_path = workdir / f"{name}-{k}-{step['command']}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = workdir / f"{name}-{k}-{step['command']}.csv"
            self.steps.append((step["command"], cfg, cfg_path, out))

    def run(self, seed: int) -> list[int]:
        return [
            cli.main([command, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out)])
            for command, _, cfg_path, out in self.steps
        ]

    def check(self, codes: list[int]) -> tuple[list[str], dict]:
        failures, props = [], {}
        for (command, cfg, _, out), code in zip(self.steps, codes):
            if code != 0:
                failures.append(f"{command} exited with {code}")
                continue
            params = BUILTIN_SETS[cfg["params"]].tls
            found = self.check_step(command, cfg, out, params, props)
            failures += [f"{command}: {msg}" for msg in found]
        return failures, props


class McChaotic(CliSteps):
    inputs = 10  # distinct inputs of an untraced run

    def __init__(self, doc: dict, size: str, workdir: Path):
        super().__init__("mc-chaotic", [doc], size, workdir)
        cfg = self.steps[0][1]
        self.segments = math.ceil(cfg["duration_ns"] / bloch.LAMP_TAU_CORR)
        self.drive_se = drive_sampling_se(BUILTIN_SETS[cfg["params"]].tls, cfg["omega"], self.segments)

    def check_step(self, command, cfg, out, params, props):
        mc = read_csv(f"{out}.mc.csv")
        props.update(segments=self.segments, pairs=int(mc["counts"].sum()), lag_bins=len(mc["counts"]))
        return check_mc_chaotic(read_csv(out), mc, self.drive_se)


class Figures(CliSteps):
    inputs = 3

    def __init__(self, doc: dict, size: str, workdir: Path):
        super().__init__("figures", doc["steps"], size, workdir)

    def check_step(self, command, cfg, out, params, props):
        if command == "lamp":
            return check_lamp(json.loads(Path(f"{out}.fit.json").read_text()), cfg)
        table = read_csv(out)
        found = check_finite(table)
        if command == "saturation":
            found += check_saturation(table, params)
        elif command == "mollow":
            found += check_mollow(table, params)
        elif command == "g2":
            props["lag_bins"] = len(table["lag_ns"])
            found += check_g2_zero(table)
        return found


class McBlinkWide:
    """Library calls at the blinking point, so the gate sees the tag stream."""

    inputs = 10

    def __init__(self, doc: dict, size: str, workdir: Path):
        self.cfg = sized(doc, size)
        self.pset = BUILTIN_SETS[self.cfg["params"]]
        self.blink = (self.cfg["blinking_beta"], self.cfg["blinking_tau_ns"])
        step = self.cfg["lag_step_ns"]
        self.lags = np.arange(0.0, self.cfg["max_lag_ns"] + 0.5 * step, step)

    def run(self, seed: int):
        cfg, params = self.cfg, self.pset.tls
        sim_rng, det_rng = stream(seed).spawn(2)
        tags = trajectory.simulate_tags(
            params, DrivePulse.cw(cfg["omega"]), cfg["duration_ns"], cfg["efficiency"], sim_rng, blinking=self.blink
        )
        tags = trajectory.apply_detector(tags, self.pset.instrument.detector_fwhm_ns / math.sqrt(2.0), det_rng)
        hist = trajectory.correlate(tags, cfg["bin_ns"], cfg["max_lag_ns"])
        curve = emission.blinking_envelope(emission.qrt_g2(params, cfg["omega"], 0.0, self.lags), *self.blink)
        return tags, hist, curve

    def check(self, outputs) -> tuple[list[str], dict]:
        tags, hist, curve = outputs
        props = {"segments": 1, "tags": len(tags.times), "pairs": int(hist.counts.sum()), "lag_bins": len(hist.lags)}
        return check_blink(tags, hist, curve, self.cfg, self.pset.tls), props


WORKLOADS = {"mc-chaotic": McChaotic, "mc-blink-wide": McBlinkWide, "figures": Figures}


def make_workload(name: str, size: str, workdir: Path):
    doc = json.loads((HERE / "workloads" / f"{name}.json").read_text())
    return WORKLOADS[name](doc, size, workdir)


def op_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def environment(seed: int) -> dict:
    return {
        "tlsrf": tlsrf.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "use_numba": bool(tlsrf.USE_NUMBA),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_loop(workload, seed: int, seconds: float, trace: bool, probe=None) -> dict:
    """Warm-up operation, then operations until `seconds` have passed.
    With a HostProbe, each untraced operation is bracketed by probes.
    With trace, operations come in pairs on the same inputs, untraced
    then traced, so the difference is the cost of the instrument."""
    tracer = spans.Tracer() if trace else None
    walls, norms, probes, layer_rows, props_rows, failures = [], [], [], [], [], []
    untraced = {}
    attempted = failed = 0

    def operation(index: int, traced: bool):
        nonlocal attempted, failed
        attempted += 1
        if trace:
            seed_i = op_seed(seed, (index + 1) // 2)
        else:  # the warm-up is input 0, then inputs 1..n in turn
            seed_i = op_seed(seed, (index - 1) % workload.inputs + 1 if index else 0)
        try:
            if traced:
                tracer.install()
                try:
                    out = tracer.run_op(index, workload.run, seed_i)
                finally:
                    tracer.uninstall()
                row = spans.layer_metrics(tracer.spans, index)
                # 0 when the untraced twin raised; that op is counted as failed
                row["tracing_overhead_s"] = row["traced_wall_s"] - untraced.get(index - 1, row["traced_wall_s"])
                layer_rows.append(row)
            else:
                before = probe() if probe else None
                t0 = time.perf_counter()
                out = workload.run(seed_i)
                untraced[index] = time.perf_counter() - t0
                walls.append(untraced[index])
                if probe:
                    after = probe()
                    probes.extend((before, after))
                    norms.append(untraced[index] * PROBE_REF_S / (0.5 * (before + after)))
            found, props = workload.check(out)
        except Exception:  # an operation that raises counts as failed; the loop goes on
            found, props = [traceback.format_exc(limit=3)], {}
        props_rows.append(props)
        failures.extend(f"op {index}: {msg}" for msg in found)
        failed += bool(found)

    operation(0, traced=False)
    warmup_s = walls.pop() if walls else None
    norms.clear()
    probes.clear()
    # untraced, every input runs at least once, so the peak memory
    # depends on the seed and not on how many operations fit
    min_ops = 4 if trace else workload.inputs
    start = time.perf_counter()
    index = 1
    # a traced run ends on a complete untraced/traced pair
    while index <= min_ops or time.perf_counter() - start < seconds or (trace and index % 2 == 0):
        operation(index, traced=trace and index % 2 == 0)
        index += 1
    inputs = {}
    for key in sorted({k for row in props_rows for k in row}):
        inputs[key] = statistics.median(row[key] for row in props_rows if key in row)
    report = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "warmup_s": warmup_s,
        "op_wall_s": walls,
        "wall_s": statistics.median(walls) if walls else None,
        "op_wall_norm_s": norms,
        "wall_norm_s": statistics.median(norms) if norms else None,
        "probe_s": statistics.median(probes) if probes else None,
        "inputs": inputs,
    }
    if trace:
        layers = spans.median_metrics(layer_rows)
        report["layers"] = {name: {"value": layers[name], "unit": unit} for name, unit in spans.PER_LAYER_UNITS.items()}
        report["spans"] = tracer.spans
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    workdir = Path(args.out_dir) / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.size, workdir)
        if args.trace:
            report = run_loop(workload, args.seed, args.seconds, True)
        else:
            with HostProbe() as probe:
                report = run_loop(workload, args.seed, args.seconds, False, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["env"] = environment(args.seed)
    if args.trace:
        span_file = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.json"
        span_file.write_text(json.dumps(report.pop("spans")))
        report["span_file"] = str(span_file)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
