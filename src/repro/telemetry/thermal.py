"""RC thermal model with neighbour coupling and non-uniform cooling.

Each node's GPU temperature relaxes toward a steady state set by its own
power draw and its cabinet's cooling efficiency, while being pulled toward
the mean temperature of its slot (heat exchanged with neighbouring
blades).  The cabinet cooling-efficiency map is deliberately non-uniform —
warmer toward the upper-left and lower-right corners of the floor grid —
reproducing the spatial pattern of the paper's Fig. 5(a).  CPU temperature
follows its own (faster) RC dynamics driven by CPU utilization.

The neighbour coupling is what makes the temperature profile of the *same
application on the same node* differ across runs (paper Fig. 8): the
steady state depends on what happens to be running in the rest of the
slot.

The model can be restricted to a :class:`~repro.topology.sharding.ShardSpan`
for sharded simulation: static offsets are drawn for the whole machine and
sliced (so every shard sees the same values), per-tick noise comes from
per-row streams (:class:`~repro.telemetry.noise.RowNoise`), and the slot
coupling needs no halo because spans are slot-aligned.
"""

from __future__ import annotations

import numpy as np

from repro.telemetry.config import ThermalConfig
from repro.telemetry.noise import RowNoise
from repro.topology.machine import Machine
from repro.topology.sharding import ShardSpan, full_span, validate_span
from repro.utils.rng import SeedSequenceFactory

__all__ = ["ThermalModel", "cooling_pattern"]


def cooling_pattern(grid_y: int, grid_x: int, amplitude: float) -> np.ndarray:
    """Cabinet-level static temperature offsets (deg C), shape (y, x).

    Positive values mean worse cooling (hotter cabinets).  The pattern is
    a saddle: hottest at the upper-left and lower-right corners.
    """
    ys = np.linspace(0.0, 1.0, grid_y)[:, None]
    xs = np.linspace(0.0, 1.0, grid_x)[None, :]
    corner_ul = (1.0 - xs) * ys
    corner_lr = xs * (1.0 - ys)
    pattern = corner_ul**2 + corner_lr**2
    pattern = pattern - pattern.mean()
    peak = np.abs(pattern).max()
    return amplitude * pattern / peak if peak > 0 else pattern


class ThermalModel:
    """Vectorized GPU + CPU temperature dynamics for a span of nodes."""

    def __init__(
        self,
        config: ThermalConfig,
        machine: Machine,
        seeds: SeedSequenceFactory,
        span: ShardSpan | None = None,
    ) -> None:
        self._config = config
        self._machine = machine
        self._span = span or full_span(machine.config)
        validate_span(self._span, machine.config)
        window = slice(self._span.lo, self._span.hi)
        rng = seeds.generator("thermal-offsets")
        pattern = cooling_pattern(
            machine.config.grid_y, machine.config.grid_x, config.cooling_pattern_celsius
        )
        # Static per-node draws cover the whole machine and are sliced, so
        # every shard sees the same offsets regardless of the partition.
        self._cabinet_offset = pattern[machine.cabinet_y, machine.cabinet_x][window]
        self._node_offset = rng.normal(
            0.0, config.node_offset_sigma, machine.num_nodes
        )[window]
        self._noise = RowNoise(seeds, "thermal-noise", machine.config, self._span)
        ambient = config.ambient_celsius + self._cabinet_offset + self._node_offset
        self.gpu_temp = ambient.copy()
        self.cpu_temp = ambient.copy()
        #: Scenario hook: extra ambient degrees (scalar or per-node array
        #: over the span) added to both GPU and CPU steady-state targets.
        #: ``None`` keeps the step math byte-identical to the pre-scenario
        #: model; the simulator refreshes it every tick from the compiled
        #: scenario.  Offsets act from the first step (initial temperatures
        #: stay at the unperturbed ambient).
        self.extra_offset: float | np.ndarray | None = None

    def steady_state(self, power_watts: np.ndarray) -> np.ndarray:
        """Equilibrium GPU temperature for a constant power draw."""
        cfg = self._config
        return (
            cfg.ambient_celsius
            + self._cabinet_offset
            + self._node_offset
            + cfg.degrees_per_watt * power_watts
        )

    def _slot_means(self, values: np.ndarray) -> np.ndarray:
        """Per-node slot mean over the span (spans are slot-aligned)."""
        nodes_per_slot = self._machine.config.nodes_per_slot
        per_slot = values.reshape(-1, nodes_per_slot)
        return np.repeat(per_slot.mean(axis=1), nodes_per_slot)

    def step(
        self,
        power_watts: np.ndarray,
        cpu_utilization: np.ndarray,
        dt_minutes: float,
    ) -> None:
        """Advance both temperature fields by ``dt_minutes``."""
        cfg = self._config
        target = self.steady_state(power_watts)
        if self.extra_offset is not None:
            target = target + self.extra_offset
        # First-order relaxation, exact for the step size (exp integrator),
        # so large sampler ticks stay stable.
        alpha = 1.0 - np.exp(-dt_minutes / cfg.time_constant_minutes)
        self.gpu_temp += alpha * (target - self.gpu_temp)
        # Exchange with slot neighbours.
        slot_mean = self._slot_means(self.gpu_temp)
        coupling = min(1.0, cfg.neighbor_coupling * dt_minutes)
        self.gpu_temp += coupling * (slot_mean - self.gpu_temp)
        self.gpu_temp += self._noise.normal(cfg.noise_celsius * np.sqrt(dt_minutes))

        cpu_target = (
            cfg.ambient_celsius
            + self._cabinet_offset
            + self._node_offset
            + cfg.cpu_degrees_per_util * cpu_utilization
        )
        if self.extra_offset is not None:
            cpu_target = cpu_target + self.extra_offset
        cpu_alpha = 1.0 - np.exp(-dt_minutes / cfg.cpu_time_constant_minutes)
        self.cpu_temp += cpu_alpha * (cpu_target - self.cpu_temp)
        self.cpu_temp += self._noise.normal(cfg.noise_celsius * np.sqrt(dt_minutes))
