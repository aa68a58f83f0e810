"""Resonance fluorescence of a single two-level emitter under coherent
or chaotic drive: Bloch dynamics, emission spectra, photon correlations
and time-tag Monte Carlo."""

from . import bloch, core, emission, lamp, trajectory
from .core import (
    BUILTIN_SETS,
    PAPER_QD,
    DrivePulse,
    InstrumentResponse,
    ParameterSet,
    Statistics,
    TlsParams,
    load_registry,
    omega_from_saturation,
    power_linewidth,
    saturation_parameter,
    stream,
)

__version__ = "0.1.0"

# Every kernel has a single numpy implementation; run records report
# this flag so that they state which kernel path produced them.
USE_NUMBA = False

__all__ = [
    "BUILTIN_SETS",
    "DrivePulse",
    "InstrumentResponse",
    "PAPER_QD",
    "ParameterSet",
    "Statistics",
    "TlsParams",
    "USE_NUMBA",
    "bloch",
    "core",
    "emission",
    "lamp",
    "load_registry",
    "omega_from_saturation",
    "power_linewidth",
    "saturation_parameter",
    "stream",
    "trajectory",
]
