"""Feature engineering (paper Section V).

Turns a :class:`~repro.telemetry.trace.Trace` into the model-ready sample
table: one row per ``(application, node)`` pair per run, with temporal
features (application identity and utilization, temperature/power
statistics for the current run and the 5/15/30/60-minute pre-execution
windows), spatial features (node location, CPU temperature, slot-neighbour
telemetry), and SBE-history features (node / machine / application /
allocation level, split into today / yesterday / before) — all computed
causally from information available at run start (history) or run end
(telemetry), exactly as the paper describes.

Features carry group tags so the paper's ablation experiments (feature
groups in Fig. 11, temperature/power variants in Table IV, history
variants in Fig. 12) are column selections, not re-implementations.
"""

from repro.features.builder import (
    FeatureMatrix,
    SampleTableBuilder,
    build_features,
    compute_top_apps,
)
from repro.features.history import HistoryIndex
from repro.features.schema import (
    FeatureSchema,
    GROUP_APP,
    GROUP_HIST,
    GROUP_LOCATION,
    GROUP_TP,
)
from repro.features.splits import DatasetSplit, make_paper_splits

__all__ = [
    "FeatureMatrix",
    "SampleTableBuilder",
    "build_features",
    "compute_top_apps",
    "HistoryIndex",
    "FeatureSchema",
    "GROUP_APP",
    "GROUP_HIST",
    "GROUP_LOCATION",
    "GROUP_TP",
    "DatasetSplit",
    "make_paper_splits",
]
