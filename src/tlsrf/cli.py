"""Command-line harness.

Subcommands map onto the bundled experiment presets; every run is
reproducible from its config plus seed, and randomized commands echo
the effective seed into a JSON sidecar next to the output CSV.

One table, _SCHEMA, declares every config key of every command with
its default and its kind.  _load_config merges defaults < preset <
config file < flags and converts every key once, before the command
runs, so a malformed value is refused even where the command does not
read it.  The commands check only the rules that tie keys together.

Exit codes: 0 success, 2 configuration error (an output that cannot
be written, or any other ValueError of an input check, included), 3
numerical-guard failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
    step_ratio,
    stream,
    write_csv,
)

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


def _number(convert, ok, what):
    """A number kind: `convert` (int or float) of the value, which must
    be finite and pass `ok`.  A bool, or a fraction where an integer is
    expected, is refused, not truncated."""

    def kind(key, val):
        try:
            if isinstance(val, bool) or (convert is int and isinstance(val, float) and not val.is_integer()):
                raise ValueError(val)
            out = convert(val)
            if not (math.isfinite(out) and ok(out)):
                raise ValueError(val)
        except (TypeError, ValueError, OverflowError) as err:
            raise ConfigError(f"{key} must be {what}, got {val!r}") from err
        return out

    return kind


def _count(lo):
    return _number(int, lambda n: n >= lo, f"an integer >= {lo}")


def _typed(types, what):
    def kind(key, val):
        if not isinstance(val, types):
            raise ConfigError(f"{key} must be {what}, got {val!r}")
        return val

    return kind


def _statistics(key, val):
    try:
        return Statistics(val)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{key} must be one of {[s.value for s in Statistics]}, got {val!r}") from err


_DRIVE = _number(float, lambda x: x >= 0, "a number >= 0")
_POSITIVE = _number(float, lambda x: x > 0, "a number > 0")
_FRACTION = _number(float, lambda x: 0 < x <= 1, "a number in (0, 1]")
_SWITCH = _typed(bool, "true or false")
_TEXT = _typed(str, "a string")


def _drives(key, val):
    if not isinstance(val, list) or not val:
        raise ConfigError(f"{key} must be a non-empty list")
    return [_DRIVE(key, v) for v in val]


# Every config key of every command as (default, kind).  A kind
# converts one merged value, or raises ConfigError when the value is
# not of that kind; a key whose default is None is optional, and null
# leaves it unset.  Every command takes the _SHARED keys; `samples` is
# unset unless a command says otherwise.
_SHARED = {
    "params": ("paper-qd", _typed((str, dict), "a set name or an inline object")),
    "params_file": (None, _TEXT),
    "seed": (12345, _count(0)),
    "out": (None, _TEXT),
    "samples": (None, _count(1)),
    "preset": (None, _TEXT),
}
_SCHEMA: dict[str, dict[str, tuple]] = {
    name: {**_SHARED, **keys}
    for name, keys in {
        "saturation": {"s_min": (1e-2, _POSITIVE), "s_max": (1e2, _POSITIVE), "s_points": (81, _count(2))},
        "rabi": {
            "omegas": ([5.2, 6.6, 7.2], _drives),
            "pulse_ns": (2.0, _POSITIVE),
            "t_end_ns": (3.5, _POSITIVE),
            "dt_ns": (None, _POSITIVE),
        },
        "mollow": {
            "omegas": ([5.2, 6.6, 7.2], _drives),
            "span_ghz": (4.0, _POSITIVE),
            "grid_points": (2001, _count(3)),
            # checked but unused: the chaotic spectrum is in closed form
            # and runs no quadrature; kept so that configs naming it run
            "quad_order": (96, _count(1)),
        },
        "g2": {
            # g2 is a ratio to the steady emission, which needs a drive
            "omega": (1.7, _POSITIVE),
            "statistics": ("coherent", _statistics),
            "max_lag_ns": (15.0, _POSITIVE),
            "lag_step_ns": (0.01, _POSITIVE),
            "bin_ns": (0.1, _POSITIVE),
            "duration_ns": (2e5, _POSITIVE),
            "efficiency": (1.0, _FRACTION),
            "blinking_beta": (None, _FRACTION),
            "blinking_tau_ns": (None, _POSITIVE),
            "mc": (True, _SWITCH),
            "chaotic": (True, _SWITCH),
        },
        "lamp": {
            "tau_corr_ns": (bloch.LAMP_TAU_CORR, _POSITIVE),
            "dt_ns": (None, _POSITIVE),
            "n": (1 << 21, _count(2)),
            "max_lag_ns": (None, _POSITIVE),
            "field_rows": (4000, _count(0)),
            # replaces n when set
            "samples": (None, _count(2)),
        },
        "linewidth": {"s_min": (1e-3, _POSITIVE), "s_max": (1e2, _POSITIVE), "s_points": (61, _count(2))},
        "tags": {
            "omega": (1.7, _DRIVE),
            "statistics": ("coherent", _statistics),
            "duration_ns": (2e5, _POSITIVE),
            "efficiency": (1.0, _FRACTION),
            "blinking_beta": (None, _FRACTION),
            "blinking_tau_ns": (None, _POSITIVE),
            "tau_corr_ns": (bloch.LAMP_TAU_CORR, _POSITIVE),
        },
        "validate": {},
    }.items()
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tlsrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SCHEMA:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--preset", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--samples", type=int, default=None)
    return parser


def _load_config(command: str, args: argparse.Namespace) -> dict:
    """Effective options: defaults < preset < config file < flags, each
    converted by its kind.

    The preset is named by --preset or else by the config's `preset`
    key.
    """
    schema = _SCHEMA[command]
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
        unknown = set(doc) - set(schema)
        if unknown:
            raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    cfg = {key: default for key, (default, _) in schema.items()}
    preset = args.preset if args.preset is not None else doc.get("preset")
    if preset is not None:
        table = _PRESETS.get(command, {})
        if not isinstance(preset, str) or preset not in table:
            raise ConfigError(f"preset {preset!r} is not defined for {command} (available: {sorted(table)})")
        cfg.update(table[preset])
    cfg.update(doc)
    cfg["preset"] = preset
    for key in ("seed", "out", "samples"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    for key, (default, kind) in schema.items():
        if cfg[key] is not None or default is not None:
            cfg[key] = kind(key, cfg[key])
    out_dir = os.path.dirname(cfg["out"] or "") or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"out: directory {out_dir!r} does not exist")
    return cfg


def _resolve_params(cfg: dict) -> ParameterSet:
    spec = cfg["params"]
    try:
        registry = BUILTIN_SETS if cfg["params_file"] is None else load_registry(cfg["params_file"])
        pset = parameter_set_from_dict("inline", spec) if isinstance(spec, dict) else registry.get(spec)
    except ConfigError:
        raise
    except (OSError, TypeError, ValueError) as err:
        raise ConfigError(f"cannot load the parameter set: {err}") from err
    if pset is None:
        raise ConfigError(f"unknown parameter set {spec!r}")
    return pset


def _write_sidecar(out, command: str, cfg: dict, pset: ParameterSet, outputs: list[str]):
    if out is None:
        return
    doc = {
        "command": command,
        "seed": cfg["seed"],
        "preset": cfg["preset"],
        "parameter_set": {
            "name": pset.name,
            "t1_ns": pset.tls.t1,
            "t2_ns": pset.tls.t2,
            "fpi_fwhm_ghz": pset.instrument.fpi_fwhm_ghz,
            "detector_fwhm_ns": pset.instrument.detector_fwhm_ns,
        },
        # every option but the paths and the shared keys left unset
        "options": {
            k: v
            for k, v in sorted(cfg.items())
            if k not in ("params", "params_file", "out") and (v is not None or k not in _SHARED)
        },
        "outputs": outputs,
    }
    text = json.dumps(doc, sort_keys=True, indent=2, default=lambda v: v.value)
    Path(out + ".json").write_text(text + "\n")


def _s_grid(cfg) -> np.ndarray:
    return np.logspace(math.log10(cfg["s_min"]), math.log10(cfg["s_max"]), cfg["s_points"])


def cmd_saturation(cfg: dict, pset: ParameterSet) -> list[str]:
    s_grid = _s_grid(cfg)
    coh = bloch.steady_state_from_saturation(s_grid)
    oms = np.array([omega_from_saturation(float(s), pset.tls) for s in s_grid])
    cha = bloch.chaotic_steady_state(pset.tls, oms)
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
    blocks = []
    for om in cfg["omegas"]:
        dt = cfg["dt_ns"]
        if dt is None:
            # a fiftieth of half a Rabi period, or of t2 for an undriven emitter
            dt = min(params.t2, math.pi / om if om > 0 else math.inf) / 50.0
        pulse = DrivePulse.square(om, 0.0, cfg["pulse_ns"])
        coh = bloch.integrate(params, pulse, cfg["t_end_ns"], dt)
        cha = bloch.chaotic_mean_transient(params, pulse, cfg["t_end_ns"], dt)
        blocks.append([np.full(len(coh.times), om), coh.times, coh.rho11, cha.rho11])
    columns = [np.concatenate(c) for c in zip(*blocks)]
    out = write_csv(cfg["out"], "omega,t_ns,coherent,chaotic_mean", columns)
    return [out] if out else []


def cmd_mollow(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    freqs = np.linspace(-cfg["span_ghz"], cfg["span_ghz"], cfg["grid_points"])
    fpi = pset.instrument.fpi_fwhm_ghz
    blocks = []
    for om in cfg["omegas"]:
        coh = emission.qrt_spectrum(params, om, 0.0, freqs)
        coh_irf = emission.convolve_lorentzian(coh, fpi)
        cha = emission.chaotic_spectrum(params, om, freqs)
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
    beta, tau = cfg["blinking_beta"], cfg["blinking_tau_ns"]
    if beta is None and tau is None:
        return None
    if beta is None or tau is None:
        raise ConfigError("blinking needs both blinking_beta and blinking_tau_ns")
    return beta, tau


def cmd_g2(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    om, lag_max, lag_step = cfg["omega"], cfg["max_lag_ns"], cfg["lag_step_ns"]
    if lag_max < lag_step:
        raise ConfigError("max_lag_ns must be >= lag_step_ns")
    if cfg["mc"] and cfg["bin_ns"] > lag_max:
        raise ConfigError("bin_ns must be <= max_lag_ns: the histogram needs two whole bins")
    lags = lag_step * np.arange(math.floor(step_ratio(lag_max, lag_step)) + 1)
    det_fwhm = pset.instrument.detector_fwhm_ns
    blink = _blinking_from(cfg)
    if cfg["mc"]:
        duration = _tag_duration(cfg, params, om, blink)

    # detector convolution needs the lag grid to resolve the response;
    # on coarse grids the response is sub-bin and the raw curve stands in
    irf_resolved = lag_step <= det_fwhm / 5.0
    analytic = emission.qrt_g2(params, om, 0.0, lags)
    analytic_irf = emission.convolve_gaussian(analytic, det_fwhm) if irf_resolved else analytic
    curves = [analytic, analytic_irf]
    header = "lag_ns,g2_coherent,g2_coherent_irf"
    if cfg["chaotic"]:
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
    if cfg["mc"]:
        rng = stream(cfg["seed"])
        sim_rng, det_rng = rng.spawn(2)
        pulse = DrivePulse.cw(om, statistics=cfg["statistics"])
        tags = trajectory.simulate_tags(params, pulse, duration, cfg["efficiency"], sim_rng, blinking=blink)
        tags = trajectory.apply_detector(tags, det_fwhm / math.sqrt(2.0), det_rng)
        hist = trajectory.correlate(tags, cfg["bin_ns"], lag_max)
        mc_path = None if cfg["out"] is None else cfg["out"] + ".mc.csv"
        mc_out = write_csv(mc_path, "lag_ns,counts,c_norm", [hist.lags, hist.counts, hist.c_norm])
        if mc_out:
            outputs.append(mc_out)
    return outputs


def _tag_duration(cfg: dict, params, om, blink) -> float:
    """Length of the tag record: duration_ns, or, when `samples` is set,
    the length that yields that many detected tags at the expected
    rate.  Checks the length that simulate_tags accepts."""
    duration = cfg["duration_ns"]
    if cfg["samples"] is not None:
        if cfg["statistics"] is Statistics.CHAOTIC:
            pop = bloch.chaotic_steady_state(params, om)
        else:
            pop = bloch.steady_state_population(params, om)
        rate = cfg["efficiency"] * pop / params.t1 * (blink[0] if blink else 1.0)
        if not rate > 0:
            raise ConfigError("samples needs a nonzero expected tag rate, so a drive omega > 0")
        duration = max(20.0 * params.t1, cfg["samples"] / rate)
    if not duration >= 10.0 * params.t1:
        raise ConfigError(f"duration_ns must be >= 10 t1 ({10.0 * params.t1:g} ns)")
    return duration


def cmd_tags(cfg: dict, pset: ParameterSet) -> list[str]:
    params = pset.tls
    om = cfg["omega"]
    blink = _blinking_from(cfg)
    duration = _tag_duration(cfg, params, om, blink)
    pulse = DrivePulse.cw(om, statistics=cfg["statistics"])
    tags = trajectory.simulate_tags(
        params,
        pulse,
        duration,
        cfg["efficiency"],
        stream(cfg["seed"]),
        blinking=blink,
        tau_corr=cfg["tau_corr_ns"],
    )
    out = write_csv(cfg["out"], "time_ns,channel", [tags.times, tags.channels])
    return [out] if out else []


def cmd_lamp(cfg: dict, pset: ParameterSet) -> list[str]:
    tau_corr = cfg["tau_corr_ns"]
    dt = tau_corr / 20.0 if cfg["dt_ns"] is None else cfg["dt_ns"]
    n = cfg["n"] if cfg["samples"] is None else cfg["samples"]
    max_lag = 3.0 * tau_corr if cfg["max_lag_ns"] is None else cfg["max_lag_ns"]
    if max_lag < 2.0 * dt:
        raise ConfigError(f"max_lag_ns must be at least two sample steps, 2 x {dt:g} ns")
    trace = lamp.synthesize_field(tau_corr, dt, n, stream(cfg["seed"]))
    g2 = lamp.estimate_g2(trace, max_lag)
    fit = lamp.fit_gaussian_g2(g2)
    outputs = []
    out = write_csv(cfg["out"], "lag_ns,value", [g2.lags, g2.values])
    if out:
        outputs.append(out)
        # only the head of the trace is written; square just those rows
        head = trace.amplitudes[: cfg["field_rows"]]
        field = [np.arange(len(head)) * trace.dt, head.real, head.imag, np.abs(head) ** 2]
        outputs.append(write_csv(out + ".field.csv", "t_ns,re,im,intensity", field))
        fit_doc = {
            "amplitude": fit.amplitude,
            "amplitude_err": fit.amplitude_err,
            "tau_corr_ns": fit.tau_corr,
            "tau_corr_err_ns": fit.tau_corr_err,
            "identifiable": fit.identifiable,
        }
        fit_path = out + ".fit.json"
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

    # chaotic transient: the ensemble against the exact mean at every
    # sample, and the exact mean's plateau, after 10 t1 of drive, against
    # the closed form
    om = omega_from_saturation(3.0, params)
    dt = min(params.t2, math.pi / om) / 50.0
    t_end = 10.0 * params.t1
    pulse = DrivePulse.square(om, 0.0, t_end + 1.0, statistics=Statistics.CHAOTIC)
    ens = bloch.chaotic_transient(params, pulse, t_end, dt, 4000, stream(30311 + cfg["seed"]))
    mean = bloch.chaotic_mean_transient(params, pulse, t_end, dt)
    # the first sample is the ground state in both, with no spread
    dev = float(np.max(np.abs(ens.rho11[1:] - mean.rho11[1:]) / ens.stderr[1:]))
    plateau = abs(mean.rho11[-1] - bloch.chaotic_steady_state(params, om))
    record(
        "chaotic transient: ensemble vs exact mean, plateau vs closed form",
        dev < 4.0 and plateau < 1e-6,
        f"max {dev:.2f} SE, plateau |diff| {plateau:.2e}",
    )

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
        _write_sidecar(cfg["out"], args.command, cfg, pset, outputs)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except NumericalGuardError as err:
        print(f"numerical guard: {err}", file=sys.stderr)
        return 3
    except ValueError as err:
        # a library input check; its subclasses above keep their codes
        print(f"invalid input: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"cannot write output: {err}", file=sys.stderr)
        return 2
    except SystemExit as err:
        return int(err.code or 0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
