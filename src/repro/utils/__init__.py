"""Shared low-level utilities used across the :mod:`repro` packages.

This package intentionally contains only dependency-free building blocks:

* :mod:`repro.utils.errors` -- the exception hierarchy.
* :mod:`repro.utils.io` -- checksummed, atomic file writes.
* :mod:`repro.utils.rng` -- hierarchical, reproducible random streams.
* :mod:`repro.utils.stats` -- rank correlation.
* :mod:`repro.utils.tables` -- plain-text table/grid rendering.
* :mod:`repro.utils.validation` -- small argument-checking helpers.
"""

from repro.utils.errors import (
    ReproError,
    ConfigurationError,
    DegradedDataWarning,
    ModelRegistryError,
    NotFittedError,
    SimulationError,
    TelemetryFaultError,
    TraceIOError,
    ValidationError,
)
from repro.utils.io import (
    atomic_write,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    sha256_bytes,
    sha256_file,
)
from repro.utils.rng import SeedSequenceFactory, child_rng
from repro.utils.stats import spearman
from repro.utils.tables import format_grid, format_table
from repro.utils.validation import (
    check_fraction,
    check_in,
    check_nonnegative,
    check_positive,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "NotFittedError",
    "SimulationError",
    "TelemetryFaultError",
    "TraceIOError",
    "ModelRegistryError",
    "DegradedDataWarning",
    "ValidationError",
    "atomic_write",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "sha256_bytes",
    "sha256_file",
    "SeedSequenceFactory",
    "child_rng",
    "spearman",
    "format_grid",
    "format_table",
    "check_fraction",
    "check_in",
    "check_nonnegative",
    "check_positive",
]
