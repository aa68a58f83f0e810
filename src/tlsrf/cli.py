"""Command-line harness.

Subcommands map onto the bundled experiment presets; every run is
reproducible from its config plus seed, and randomized commands echo
the effective seed into a JSON sidecar next to the output CSV.

Exit codes: 0 success, 2 configuration error, 3 numerical-guard
failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import bloch, emission, lamp, trajectory
from .core import (
    BUILTIN_SETS,
    ConfigError,
    DrivePulse,
    NumericalGuardError,
    ParameterSet,
    Statistics,
    angular_to_ordinary,
    load_registry,
    omega_from_saturation,
    parameter_set_from_dict,
    power_linewidth,
    stream,
    write_csv,
)

# every command accepts these keys and the keys of its _DEFAULTS entry
_COMMON_KEYS = {"params", "params_file", "seed", "out", "samples", "preset"}

_PRESETS: dict[str, dict[str, dict]] = {
    "saturation": {"fig2": {}},
    "rabi": {"fig3": {}},
    "mollow": {"fig4": {}},
    "g2": {
        "fig5": {},
        "figS3": {
            "omega": 7.1,
            "max_lag_ns": 2000.0,
            "lag_step_ns": 2.0,
            "bin_ns": 10.0,
            "duration_ns": 1.5e6,
            "blinking_beta": 0.5,
            "blinking_tau_ns": 405.0,
            "chaotic": False,
        },
    },
    "lamp": {"fig1c": {}},
    "linewidth": {"figS2": {}},
    "tags": {},
}

_DEFAULTS: dict[str, dict] = {
    "saturation": {"s_min": 1e-2, "s_max": 1e2, "s_points": 81},
    "rabi": {"omegas": [5.2, 6.6, 7.2], "pulse_ns": 2.0, "t_end_ns": 3.5, "dt_ns": None, "samples": 10000},
    "mollow": {"omegas": [5.2, 6.6, 7.2], "span_ghz": 4.0, "grid_points": 2001, "quad_order": 96},
    "g2": {
        "omega": 1.7,
        "statistics": "coherent",
        "max_lag_ns": 15.0,
        "lag_step_ns": 0.01,
        "bin_ns": 0.1,
        "duration_ns": 2e5,
        "efficiency": 1.0,
        "blinking_beta": None,
        "blinking_tau_ns": None,
        "mc": True,
        "chaotic": True,
    },
    "lamp": {
        "tau_corr_ns": bloch.LAMP_TAU_CORR,
        "dt_ns": None,
        "n": 1 << 21,
        "max_lag_ns": None,
        "field_rows": 4000,
    },
    "linewidth": {"s_min": 1e-3, "s_max": 1e2, "s_points": 61},
    "tags": {
        "omega": 1.7,
        "statistics": "coherent",
        "duration_ns": 2e5,
        "efficiency": 1.0,
        "blinking_beta": None,
        "blinking_tau_ns": None,
        "tau_corr_ns": bloch.LAMP_TAU_CORR,
    },
    "validate": {},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlsrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DEFAULTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--preset", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--samples", type=int, default=None)
    return parser


def _load_config(command: str, args: argparse.Namespace) -> dict:
    """Effective options: defaults < preset < config file < flags.

    The preset is named by --preset or else by the config's `preset`
    key.
    """
    cfg = dict(_DEFAULTS[command])
    cfg.setdefault("params", "paper-qd")
    cfg.setdefault("params_file", None)
    cfg.setdefault("seed", 12345)
    cfg.setdefault("out", None)
    allowed = set(_DEFAULTS[command]) | _COMMON_KEYS
    doc = {}
    if args.config:
        try:
            with open(args.config) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config is not valid JSON (line {err.lineno}, col {err.colno})") from err
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    preset = args.preset if args.preset is not None else doc.get("preset")
    if preset is not None:
        table = _PRESETS.get(command, {})
        if preset not in table:
            raise ConfigError(
                f"preset {preset!r} is not defined for {command} (available: {sorted(table)})"
            )
        cfg.update(table[preset])
    cfg.update(doc)
    if preset is not None:
        cfg["preset"] = preset
    for key in ("seed", "out", "samples"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    cfg["seed"] = _number(cfg["seed"], "seed", int)
    return cfg


def _resolve_params(cfg: dict) -> ParameterSet:
    registry = dict(BUILTIN_SETS)
    if cfg.get("params_file"):
        registry = load_registry(cfg["params_file"])
    spec = cfg.get("params", "paper-qd")
    if isinstance(spec, str):
        if spec not in registry:
            raise ConfigError(f"unknown parameter set {spec!r}")
        return registry[spec]
    if isinstance(spec, dict):
        return parameter_set_from_dict("inline", spec)
    raise ConfigError("params must be a set name or an inline object")


def _write_sidecar(out, command: str, cfg: dict, pset: ParameterSet, outputs: list[str]):
    if out is None:
        return
    doc = {
        "command": command,
        "seed": cfg.get("seed"),
        "preset": cfg.get("preset"),
        "parameter_set": {
            "name": pset.name,
            "t1_ns": pset.tls.t1,
            "t2_ns": pset.tls.t2,
            "fpi_fwhm_ghz": pset.instrument.fpi_fwhm_ghz,
            "detector_fwhm_ns": pset.instrument.detector_fwhm_ns,
        },
        "options": {
            k: v for k, v in sorted(cfg.items()) if k not in ("params", "params_file", "out")
        },
        "outputs": outputs,
    }
    Path(str(out) + ".json").write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _number(val, key: str, kind=float):
    """A config value converted to `kind`; a value that does not
    convert, or a fractional one where an integer is expected, is a
    configuration error, not a traceback or a silent truncation."""
    try:
        if kind is int and isinstance(val, float) and not val.is_integer():
            raise ValueError(val)
        return kind(val)
    except (TypeError, ValueError) as err:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {val!r}") from err


def _positive(cfg: dict, key: str) -> float:
    val = _number(cfg[key], key)
    if not val > 0:
        raise ConfigError(f"{key} must be > 0")
    return val


def _flag(cfg: dict, key: str) -> bool:
    """A switch from the config: JSON true or false, nothing else."""
    val = cfg[key]
    if not isinstance(val, bool):
        raise ConfigError(f"{key} must be true or false, got {val!r}")
    return val


def _drive(val, key: str) -> float:
    """A Rabi frequency from the config: a number >= 0."""
    om = _number(val, key)
    if not om >= 0:
        raise ConfigError(f"{key} must be >= 0")
    return om


def _drives(cfg: dict, key: str) -> list[float]:
    vals = cfg[key]
    if not isinstance(vals, list) or not vals:
        raise ConfigError(f"{key} must be a non-empty list")
    return [_drive(v, key) for v in vals]


def _s_grid(cfg) -> np.ndarray:
    n = _number(cfg["s_points"], "s_points", int)
    if n < 2:
        raise ConfigError("s_points must be >= 2")
    return np.logspace(math.log10(_positive(cfg, "s_min")), math.log10(_positive(cfg, "s_max")), n)


def cmd_saturation(cfg: dict, pset: ParameterSet) -> list[str]:
    s_grid = _s_grid(cfg)
    coh = [bloch.steady_state_from_saturation(float(s)) for s in s_grid]
    cha = [bloch.chaotic_steady_state(pset.tls, omega_from_saturation(float(s), pset.tls)) for s in s_grid]
    out = write_csv(cfg["out"], "s,coherent,chaotic", [s_grid, coh, cha])
    return [out] if out else []


def cmd_linewidth(cfg: dict, pset: ParameterSet) -> list[str]:
    s_grid = _s_grid(cfg)
    fw = [power_linewidth(omega_from_saturation(float(s), pset.tls), pset.tls) for s in s_grid]
    fw_ghz = [angular_to_ordinary(x) for x in fw]
    out = write_csv(cfg["out"], "s,fwhm_rad_per_ns,fwhm_ghz", [s_grid, fw, fw_ghz])
    return [out] if out else []


def cmd_rabi(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    n_samples = _number(cfg.get("samples") or _DEFAULTS["rabi"]["samples"], "samples", int)
    if n_samples < 100:
        raise ConfigError("samples must be >= 100")
    omegas = _drives(cfg, "omegas")
    pulse_ns = _positive(cfg, "pulse_ns")
    t_end = _positive(cfg, "t_end_ns")
    dt_cfg = _positive(cfg, "dt_ns") if cfg["dt_ns"] else None
    blocks = []
    rng = stream(cfg["seed"])
    streams = rng.spawn(len(omegas))
    for om, sub in zip(omegas, streams):
        # a fiftieth of half a Rabi period, or of t2 for an undriven emitter
        dt = dt_cfg or min(params.t2, math.pi / om if om > 0 else math.inf) / 50.0
        pulse = DrivePulse.square(om, 0.0, pulse_ns)
        coh = bloch.integrate(params, pulse, t_end, dt)
        cha = bloch.chaotic_transient(params, pulse, t_end, dt, n_samples, sub)
        blocks.append([np.full(len(coh.times), om), coh.times, coh.rho11, cha.rho11, cha.stderr])
    columns = [np.concatenate(c) for c in zip(*blocks)]
    out = write_csv(cfg["out"], "omega,t_ns,coherent,chaotic_mean,chaotic_se", columns)
    return [out] if out else []


def cmd_mollow(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    span = _positive(cfg, "span_ghz")
    points = _number(cfg["grid_points"], "grid_points", int)
    if points < 3:
        raise ConfigError("grid_points must be >= 3")
    freqs = np.linspace(-span, span, points)
    fpi = pset.instrument.fpi_fwhm_ghz
    order = _number(cfg["quad_order"], "quad_order", int)
    if order < 1:
        raise ConfigError("quad_order must be >= 1")
    blocks = []
    for om in _drives(cfg, "omegas"):
        coh = emission.qrt_spectrum(params, om, 0.0, freqs)
        coh_irf = emission.convolve_lorentzian(coh, fpi)
        cha = emission.chaotic_spectrum(params, om, freqs, order=order)
        cha_irf = emission.convolve_lorentzian(cha, fpi)
        spectra = [coh, coh_irf, cha, cha_irf]
        blocks.append([np.full(len(freqs), om), freqs] + [sp.incoherent for sp in spectra])
    columns = [np.concatenate(c) for c in zip(*blocks)]
    out = write_csv(
        cfg["out"],
        "omega,freq_ghz,coherent_inc,coherent_total_irf,chaotic_inc,chaotic_total_irf",
        columns,
    )
    return [out] if out else []


def _blinking_from(cfg) -> tuple[float, float] | None:
    beta = cfg.get("blinking_beta")
    tau = cfg.get("blinking_tau_ns")
    if beta is None and tau is None:
        return None
    if beta is None or tau is None:
        raise ConfigError("blinking needs both blinking_beta and blinking_tau_ns")
    beta = _number(beta, "blinking_beta")
    if not 0.0 < beta <= 1.0:
        raise ConfigError("blinking_beta must be in (0, 1]")
    return beta, _positive(cfg, "blinking_tau_ns")


def cmd_g2(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    # g2 is a ratio to the steady emission, which needs a drive
    om = _positive(cfg, "omega")
    lag_max = _number(cfg["max_lag_ns"], "max_lag_ns")
    lag_step = _positive(cfg, "lag_step_ns")
    if lag_max < lag_step:
        raise ConfigError("max_lag_ns must be >= lag_step_ns")
    bin_w = _positive(cfg, "bin_ns")
    lags = np.arange(0.0, lag_max + 0.5 * lag_step, lag_step)
    det_fwhm = pset.instrument.detector_fwhm_ns
    blink = _blinking_from(cfg)
    with_mc = _flag(cfg, "mc")
    if with_mc:
        statistics = _statistics(cfg)
        duration = _tag_duration(cfg, params, om, statistics, blink)

    with_chaotic = _flag(cfg, "chaotic")
    # detector convolution needs the lag grid to resolve the response;
    # on coarse grids the response is sub-bin and the raw curve stands in
    irf_resolved = lag_step <= det_fwhm / 5.0
    analytic = emission.qrt_g2(params, om, 0.0, lags)
    analytic_irf = emission.convolve_gaussian(analytic, det_fwhm) if irf_resolved else analytic
    curves = [analytic, analytic_irf]
    header = "lag_ns,g2_coherent,g2_coherent_irf"
    if with_chaotic:
        chaotic = emission.chaotic_g2(params, om, lags)
        chaotic_irf = emission.convolve_gaussian(chaotic, det_fwhm) if irf_resolved else chaotic
        curves += [chaotic, chaotic_irf]
        header += ",g2_chaotic,g2_chaotic_irf"
    if blink:
        curves = [emission.blinking_envelope(c, *blink) for c in curves]
    outputs = []
    out = write_csv(cfg["out"], header, [curves[0].lags] + [c.values for c in curves])
    if out:
        outputs.append(out)
    if with_mc:
        rng = stream(cfg["seed"])
        sim_rng, det_rng = rng.spawn(2)
        pulse = DrivePulse.cw(om, statistics=statistics)
        tags = trajectory.simulate_tags(
            params, pulse, duration, float(cfg["efficiency"]), sim_rng, blinking=blink
        )
        tags = trajectory.apply_detector(tags, det_fwhm / math.sqrt(2.0), det_rng)
        hist = trajectory.correlate(tags, bin_w, lag_max)
        mc_out = hist.to_csv(str(cfg["out"]) + ".mc.csv" if cfg["out"] else None)
        if mc_out:
            outputs.append(mc_out)
    return outputs


def _expected_rate(params, om, statistics, efficiency, blink) -> float:
    if statistics is Statistics.CHAOTIC:
        pop = bloch.chaotic_steady_state(params, om)
    else:
        pop = bloch.steady_state_population(params, om)
    rate = efficiency * pop / params.t1
    if blink:
        rate *= blink[0]
    return max(rate, 1e-12)


def _statistics(cfg: dict) -> Statistics:
    try:
        return Statistics(cfg.get("statistics", "coherent"))
    except ValueError as err:
        raise ConfigError(f"statistics must be one of {[s.value for s in Statistics]}") from err


def _tag_duration(cfg: dict, params, om, statistics, blink) -> float:
    """Length of the tag record: duration_ns, or, when `samples` is set,
    the length that yields that many detected tags at the expected
    rate.  Checks the efficiency and the length that simulate_tags
    accepts."""
    efficiency = _number(cfg["efficiency"], "efficiency")
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError("efficiency must be in (0, 1]")
    duration = _number(cfg["duration_ns"], "duration_ns")
    if cfg.get("samples"):
        rate = _expected_rate(params, om, statistics, efficiency, blink)
        duration = max(20.0 * params.t1, _number(cfg["samples"], "samples") / rate)
    if not duration >= 10.0 * params.t1:
        raise ConfigError(f"duration_ns must be >= 10 t1 ({10.0 * params.t1:g} ns)")
    return duration


def cmd_tags(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    om = _drive(cfg["omega"], "omega")
    statistics = _statistics(cfg)
    blink = _blinking_from(cfg)
    duration = _tag_duration(cfg, params, om, statistics, blink)
    tau_corr = _positive(cfg, "tau_corr_ns")
    rng = stream(cfg["seed"])
    pulse = DrivePulse.cw(om, statistics=statistics)
    tags = trajectory.simulate_tags(
        params,
        pulse,
        duration,
        float(cfg["efficiency"]),
        rng,
        blinking=blink,
        tau_corr=tau_corr,
    )
    out = tags.to_csv(cfg["out"])
    return [out] if out else []


def cmd_lamp(cfg: dict, pset: ParameterSet) -> list[str]:
    tau_corr = _positive(cfg, "tau_corr_ns")
    dt = _positive(cfg, "dt_ns") if cfg["dt_ns"] else tau_corr / 20.0
    n_key = "samples" if cfg.get("samples") else "n"
    n = _number(cfg[n_key], n_key, int)
    if n < 2:
        raise ConfigError(f"{n_key} must be >= 2")
    max_lag = _positive(cfg, "max_lag_ns") if cfg["max_lag_ns"] else 3.0 * tau_corr
    rows = max(_number(cfg["field_rows"], "field_rows", int), 0)
    rng = stream(cfg["seed"])
    trace = lamp.synthesize_field(tau_corr, dt, n, rng)
    g2 = lamp.estimate_g2(trace, max_lag)
    fit = lamp.fit_gaussian_g2(g2)
    outputs = []
    out = g2.to_csv(cfg["out"])
    if out:
        outputs.append(out)
        # only the head of the trace is written; square just those rows
        head = trace.amplitudes[:rows]
        outputs.append(lamp._write_field_csv(str(cfg["out"]) + ".field.csv", trace.dt, head, np.abs(head) ** 2))
        fit_doc = {
            "amplitude": fit.amplitude,
            "amplitude_err": fit.amplitude_err,
            "tau_corr_ns": fit.tau_corr,
            "tau_corr_err_ns": fit.tau_corr_err,
            "identifiable": fit.identifiable,
        }
        fit_path = str(cfg["out"]) + ".fit.json"
        Path(fit_path).write_text(json.dumps(fit_doc, sort_keys=True, indent=2) + "\n")
        outputs.append(fit_path)
    else:
        sys.stdout.write(
            f"# fit: A={fit.amplitude!r} +- {fit.amplitude_err!r}, "
            f"tau_corr={fit.tau_corr!r} +- {fit.tau_corr_err!r} ns, "
            f"identifiable={fit.identifiable}\n"
        )
    return outputs


def cmd_validate(cfg: dict, pset: ParameterSet) -> list[str]:
    """Cross-module oracle suite; raises SystemExit(4) on any failure."""
    params = pset.tls
    checks: list[tuple[str, bool, str]] = []

    def record(name, ok, detail=""):
        checks.append((name, bool(ok), detail))

    # steady state law vs integrator
    worst = 0.0
    for s in (0.01, 0.1, 1.0, 10.0, 100.0):
        om = omega_from_saturation(s, params)
        dt = min(params.t2, 2.0 * math.pi / om) / 50.0
        trace = bloch.integrate(params, DrivePulse.cw(om), 25.0, dt)
        worst = max(worst, abs(trace.rho11[-1] - bloch.steady_state_population(params, om)))
    record("steady-state: integrator vs closed form", worst < 1e-6, f"max |diff| {worst:.2e}")

    # chaotic closed form vs quadrature
    worst = 0.0
    for s in (0.1, 1.0, 10.0):
        om = omega_from_saturation(s, params)
        cf = bloch.chaotic_steady_state(params, om)
        q = bloch.chaotic_steady_state_quadrature(params, om)
        worst = max(worst, abs(cf - q) / q)
    record("chaotic average: closed form vs quadrature", worst < 1e-6, f"max rel {worst:.2e}")

    # chaotic ensemble plateau vs closed form: after 10 t1 of drive the
    # transient has decayed by e^-10, far below the ensemble's SE
    om = omega_from_saturation(3.0, params)
    dt = min(params.t2, math.pi / om) / 50.0
    t_end = 10.0 * params.t1
    pulse = DrivePulse.square(om, 0.0, t_end + 1.0, statistics=Statistics.CHAOTIC)
    ens = bloch.chaotic_transient(params, pulse, t_end, dt, 4000, stream(30311 + cfg["seed"]))
    dev = abs(ens.rho11[-1] - bloch.chaotic_steady_state(params, om)) / ens.stderr[-1]
    record("chaotic ensemble: plateau vs closed form", dev < 3.0, f"{dev:.2f} SE")

    # lamp Siegert relation
    rng = stream(20240 + cfg["seed"])
    tau_corr = bloch.LAMP_TAU_CORR
    trace = lamp.synthesize_field(tau_corr, tau_corr / 20.0, 1 << 19, rng)
    g1 = lamp.estimate_g1(trace, 3.0 * tau_corr)
    g2 = lamp.estimate_g2(trace, 3.0 * tau_corr)
    resid = np.max(np.abs(g2.values - 1.0 - g1.values**2))
    record("lamp: Siegert relation", resid < 0.05, f"max residual {resid:.3f}")

    # tag correlator vs analytic correlation
    om = omega_from_saturation(0.6, params)
    rng = stream(40962 + cfg["seed"])
    sim_rng, det_rng = rng.spawn(2)
    det_fwhm = pset.instrument.detector_fwhm_ns
    tags = trajectory.simulate_tags(params, DrivePulse.cw(om), 6e4, 1.0, sim_rng)
    tags = trajectory.apply_detector(tags, det_fwhm / math.sqrt(2.0), det_rng)
    hist = trajectory.correlate(tags, 0.25, 8.0)
    ana = emission.qrt_g2(params, om, 0.0, np.arange(0.0, 8.26, 0.05))
    ana = emission.convolve_gaussian(ana, det_fwhm)
    ref = np.interp(np.abs(hist.lags), ana.lags, ana.values)
    dev = np.abs(hist.c_norm - ref) / hist.stderr
    frac = float((dev > 3.0).mean())
    record(
        "tags: correlator vs regression curve",
        frac <= 0.02 and dev.max() < 6.0,
        f"frac>3SE {frac:.3f}, max {dev.max():.2f} SE",
    )

    failed = [c for c in checks if not c[1]]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
    if failed:
        raise SystemExit(4)
    return []


_COMMANDS = {
    "saturation": cmd_saturation,
    "rabi": cmd_rabi,
    "mollow": cmd_mollow,
    "g2": cmd_g2,
    "lamp": cmd_lamp,
    "linewidth": cmd_linewidth,
    "tags": cmd_tags,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.command, args)
        pset = _resolve_params(cfg)
        outputs = _COMMANDS[args.command](cfg, pset)
        _write_sidecar(cfg.get("out"), args.command, cfg, pset, outputs)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalGuardError as err:
        print(f"numerical guard: {err}", file=sys.stderr)
        return 3
    except SystemExit as err:
        return int(err.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
