"""Prediction-driven dynamic ECC protection (paper Section VIII).

The Discussion section motivates the whole framework: ECC costs real
performance (up to ~10% on memory-bound GPU codes), so a good SBE
predictor lets the system keep ECC *off* for runs predicted safe and *on*
for runs predicted at risk.  :class:`EccPolicySimulator` replays a test
window's predictions and accounts for:

* core-hours saved by disabling ECC on predicted-safe runs;
* exposed SBEs — errors that occurred while ECC was off (the policy's
  risk, induced by false negatives);
* re-execution cost for exposed runs, if the operator's policy is to
  re-run them (the paper's first deployment mode).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import SplitResult
from repro.utils.errors import ValidationError
from repro.utils.validation import check_fraction

__all__ = ["EccPolicyReport", "EccPolicySimulator"]


@dataclass(frozen=True)
class EccPolicyReport:
    """Outcome of replaying one policy over a test window."""

    policy: str
    total_core_hours: float
    ecc_off_core_hours: float
    overhead_saved_core_hours: float
    exposed_sbe_samples: int
    reexecution_core_hours: float
    net_saved_core_hours: float

    @property
    def ecc_off_fraction(self) -> float:
        """Fraction of core-hours executed with ECC disabled."""
        if self.total_core_hours == 0:
            return 0.0
        return self.ecc_off_core_hours / self.total_core_hours


class EccPolicySimulator:
    """Replays ECC on/off policies against observed outcomes.

    Parameters
    ----------
    ecc_overhead:
        Fraction of performance lost with ECC enabled (paper cites up to
        ~10% for real GPU applications).
    reexecute_exposed:
        Whether runs that hit an SBE with ECC off are re-executed (with
        ECC on), charging their core-hours again times ``1 +
        ecc_overhead``.
    """

    def __init__(
        self,
        *,
        ecc_overhead: float = 0.10,
        reexecute_exposed: bool = True,
    ) -> None:
        check_fraction(ecc_overhead, "ecc_overhead")
        self.ecc_overhead = ecc_overhead
        self.reexecute_exposed = reexecute_exposed

    def replay(self, result: SplitResult, *, policy: str = "predictive") -> EccPolicyReport:
        """Account one policy over the test window of ``result``.

        Policies: ``"predictive"`` turns ECC off when the predictor says
        SBE-free; ``"always_on"`` and ``"always_off"`` are the static
        baselines the paper argues against.
        """
        if result.test_features is None:
            raise ValidationError("SplitResult carries no test feature metadata")
        meta = result.test_features.meta
        core_hours = meta["gpu_core_hours"].astype(float) / np.maximum(
            meta["n_nodes"].astype(float), 1.0
        )  # per-node share of the run
        total = float(core_hours.sum())

        if policy == "predictive":
            ecc_off = result.y_pred == 0
        elif policy == "always_on":
            ecc_off = np.zeros(core_hours.size, dtype=bool)
        elif policy == "always_off":
            ecc_off = np.ones(core_hours.size, dtype=bool)
        else:
            raise ValidationError(
                f"unknown policy {policy!r}; options: predictive, always_on, always_off"
            )

        off_hours = float(core_hours[ecc_off].sum())
        saved = self.ecc_overhead * off_hours
        exposed = ecc_off & (result.y_true == 1)
        reexec = 0.0
        if self.reexecute_exposed:
            reexec = float(core_hours[exposed].sum()) * (1.0 + self.ecc_overhead)
        return EccPolicyReport(
            policy=policy,
            total_core_hours=total,
            ecc_off_core_hours=off_hours,
            overhead_saved_core_hours=saved,
            exposed_sbe_samples=int(exposed.sum()),
            reexecution_core_hours=reexec,
            net_saved_core_hours=saved - reexec,
        )

    def compare_policies(self, result: SplitResult) -> list[EccPolicyReport]:
        """Replay all three policies for side-by-side comparison."""
        return [
            self.replay(result, policy=policy)
            for policy in ("always_on", "predictive", "always_off")
        ]
