"""Domain types, unit conventions, parameter conversions and the CSV
writer behind every tabular output.

Units are global to the package: times in ns, angular frequencies in
rad/ns.  Whenever an ordinary frequency is reported (suffix ``_ghz``)
it equals the angular value divided by 2*pi.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    """Invalid run configuration (bad key, missing value, wrong type)."""


class NumericalGuardError(ValueError):
    """A resolution or range guard on a numerical routine was violated."""


class QuadratureError(NumericalGuardError):
    """Quadrature failed its convergence check."""


class FitError(RuntimeError):
    """Least-squares fit did not converge."""


def stream(seed: int) -> np.random.Generator:
    """Counter-based random stream (Philox) for a given seed.

    Every stochastic operation in the package takes an explicit stream;
    independent substreams are derived with ``Generator.spawn``.
    """
    return np.random.Generator(np.random.Philox(seed))


class Statistics(enum.Enum):
    COHERENT = "coherent"
    CHAOTIC = "chaotic"


@dataclass(frozen=True)
class TlsParams:
    """Lifetimes of the two-level emitter.

    t1: population (exciton) lifetime [ns]
    t2: coherence time [ns], constrained to t2 <= 2*t1
    """

    t1: float
    t2: float

    def __post_init__(self):
        if not (0 < self.t1 < math.inf and 0 < self.t2 < math.inf):
            raise ValueError("t1 and t2 must be positive and finite")
        if self.t2 > 2.0 * self.t1 * (1.0 + 1e-12):
            raise ValueError(f"t2={self.t2} exceeds 2*t1={2*self.t1}: unphysical dephasing")


@dataclass(frozen=True)
class DrivePulse:
    """Drive field: Rabi amplitude, detuning and an on/off schedule.

    rabi: angular Rabi frequency [rad/ns].  For chaotic statistics this
        is the average value matching a coherent field of the same mean
        intensity (the instantaneous squared Rabi frequency is then
        exponentially distributed with mean rabi**2).
    detuning: drive minus emitter frequency [rad/ns], zero by default.
    envelope: sorted, non-overlapping (start_ns, stop_ns, amplitude)
        intervals; the drive is rabi*amplitude inside each interval and
        zero elsewhere.
    """

    rabi: float
    detuning: float = 0.0
    envelope: tuple[tuple[float, float, float], ...] = ((0.0, math.inf, 1.0),)
    statistics: Statistics = Statistics.COHERENT

    def __post_init__(self):
        if not 0 <= self.rabi < math.inf:
            raise ValueError("rabi must be finite and >= 0")
        if not -math.inf < self.detuning < math.inf:
            raise ValueError("detuning must be finite")
        prev_stop = -math.inf
        for start, stop, amp in self.envelope:
            if not start < stop:
                raise ValueError(f"empty envelope interval ({start}, {stop})")
            if start < prev_stop:
                raise ValueError("envelope intervals must be sorted and non-overlapping")
            if not 0 <= amp < math.inf:
                raise ValueError("envelope amplitude must be finite and >= 0")
            prev_stop = stop

    @classmethod
    def cw(cls, rabi, detuning=0.0, statistics=Statistics.COHERENT):
        return cls(rabi=rabi, detuning=detuning, statistics=statistics)

    @classmethod
    def square(cls, rabi, start, stop, detuning=0.0, statistics=Statistics.COHERENT):
        return cls(rabi=rabi, detuning=detuning, envelope=((start, stop, 1.0),), statistics=statistics)

    def max_amplitude(self) -> float:
        return max((amp for _, _, amp in self.envelope), default=0.0)


@dataclass(frozen=True)
class InstrumentResponse:
    """Measured instrument widths: Lorentzian interferometer FWHM [GHz]
    and Gaussian detector-pair timing FWHM [ns]."""

    fpi_fwhm_ghz: float
    detector_fwhm_ns: float

    def __post_init__(self):
        if not (self.fpi_fwhm_ghz > 0 and self.detector_fwhm_ns > 0):
            raise ValueError("instrument widths must be positive")


@dataclass(frozen=True)
class ParameterSet:
    name: str
    tls: TlsParams
    instrument: InstrumentResponse


# Default emitter: the quantum-dot parameter set used throughout the
# bundled presets (lifetimes from independent linewidth and correlation
# measurements, instrument widths from the reference setup).
PAPER_QD = ParameterSet(
    name="paper-qd",
    tls=TlsParams(t1=0.641, t2=0.325),
    instrument=InstrumentResponse(fpi_fwhm_ghz=0.1754, detector_fwhm_ns=0.351),
)

BUILTIN_SETS = {PAPER_QD.name: PAPER_QD}

_REGISTRY_KEYS = {"t1_ns", "t2_ns", "fpi_fwhm_ghz", "detector_fwhm_ns"}


def parameter_set_from_dict(name: str, d: dict) -> ParameterSet:
    unknown = set(d) - _REGISTRY_KEYS
    if unknown:
        raise ConfigError(f"parameter set {name!r}: unknown keys {sorted(unknown)}")
    missing = _REGISTRY_KEYS - set(d)
    if missing:
        raise ConfigError(f"parameter set {name!r}: missing keys {sorted(missing)}")
    return ParameterSet(
        name=name,
        tls=TlsParams(t1=float(d["t1_ns"]), t2=float(d["t2_ns"])),
        instrument=InstrumentResponse(
            fpi_fwhm_ghz=float(d["fpi_fwhm_ghz"]),
            detector_fwhm_ns=float(d["detector_fwhm_ns"]),
        ),
    )


def load_registry(path) -> dict[str, ParameterSet]:
    """Load named parameter sets from a JSON document.

    The document maps set names to objects with keys t1_ns, t2_ns,
    fpi_fwhm_ghz and detector_fwhm_ns.  Built-in sets are included in
    the result; file entries with the same name override them.
    """
    with open(Path(path)) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError("parameter registry must be a JSON object")
    registry = dict(BUILTIN_SETS)
    for name, entry in doc.items():
        if not isinstance(entry, dict):
            raise ConfigError(f"parameter set {name!r} must be an object")
        registry[name] = parameter_set_from_dict(name, entry)
    return registry


def checked_grid(points, name: str, min_len: int = 1, lower: float | None = None, uniform: bool = False):
    """The one check of a frequency or lag grid, made before any work.

    Returns the points as a float array and their first step (nan for a
    single point).  Raises ValueError unless the points are 1-d, finite,
    at least min_len of them, none below lower, strictly ascending and,
    if uniform is set, equally spaced to rtol 1e-9 and an atol of
    1e-12 plus 4 ulp of max|p|: each step is the difference of two
    rounded points, so far from 0 its rounding outgrows 1e-9 of a
    small step.
    """
    p = np.asarray(points, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} must be finite")
    if len(p) < min_len:
        raise ValueError(f"{name} too short: {len(p)} of at least {min_len} points")
    if lower is not None and np.any(p < lower):
        raise ValueError(f"{name} must be >= {lower}")
    steps = np.diff(p)
    if np.any(steps <= 0):
        raise ValueError(f"{name} must be strictly ascending")
    if uniform:
        atol = 1e-12 + 4.0 * np.finfo(float).eps * float(np.abs(p).max(initial=0.0))
        if not np.allclose(steps, steps[:1], rtol=1e-9, atol=atol):
            raise ValueError(f"{name} must be uniformly spaced")
    return p, float(steps[0]) if len(steps) else math.nan


def step_ratio(span: float, step: float) -> float:
    """span / step, or the whole number within 1e-9 (relative) of it: its
    floor counts the steps that fit the span and its ceil those that
    cover it, so float noise (3 tau / (tau / 20) = 59.99999999999999)
    neither drops a step nor adds one."""
    r = span / step
    k = round(r)
    return float(k) if abs(r - k) <= 1e-9 * abs(r) else r


def saturation_parameter(omega: float, params: TlsParams) -> float:
    """Dimensionless drive strength omega**2 * t1 * t2."""
    if omega < 0:
        raise ValueError("omega must be >= 0")
    return omega * omega * params.t1 * params.t2


def omega_from_saturation(s: float, params: TlsParams) -> float:
    """Angular Rabi frequency giving saturation parameter s."""
    if s < 0:
        raise ValueError("s must be >= 0")
    return math.sqrt(s / (params.t1 * params.t2))


def power_linewidth(omega: float, params: TlsParams) -> float:
    """Power-broadened emission FWHM (2/t2)*sqrt(1 + S) [rad/ns].

    Tends to 2/t2 exactly for omega -> 0 and grows with the square root
    of 1 + S at stronger drive.
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    return (2.0 / params.t2) * math.sqrt(1.0 + saturation_parameter(omega, params))


def angular_to_ordinary(value: float) -> float:
    """rad/ns -> GHz."""
    return value / TWO_PI


_CSV_BLOCK_ROWS = 1 << 16


def _csv_cells(column, start: int, stop: int) -> list[str]:
    if column is None:
        return [""] * (stop - start)
    block = np.asarray(column)[start:stop]
    if np.issubdtype(block.dtype, np.integer):
        return [str(v) for v in block.tolist()]
    return [repr(v) for v in block.astype(float).tolist()]


def write_csv(path, header: str, columns) -> str | None:
    """Write equal-length columns under a one-line comma-separated header.

    Integer columns are written as str(int) and all others as
    repr(float), the shortest text that reads back to the same double,
    so reruns are byte-identical.  A None column leaves its field empty.
    path=None writes to stdout.  Returns the path as a string, or None
    for stdout.
    """
    lengths = {len(c) for c in columns if c is not None}
    if len(lengths) != 1:
        raise ValueError(f"CSV columns must have one common length, got {sorted(lengths)}")
    n = lengths.pop()
    with contextlib.nullcontext(sys.stdout) if path is None else open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n, _CSV_BLOCK_ROWS):
            stop = min(start + _CSV_BLOCK_ROWS, n)
            cells = [_csv_cells(c, start, stop) for c in columns]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
    return None if path is None else str(path)
