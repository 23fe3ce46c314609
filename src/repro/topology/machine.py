"""Whole-machine topology as flat per-node arrays.

The simulator and the feature extractor ask for "the cabinet of this
node" for every node at once, so :class:`Machine` precomputes integer
arrays mapping each node id to its cabinet coordinates; those queries
are array lookups rather than object traversals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.errors import ConfigurationError

__all__ = ["MachineConfig", "Machine", "TITAN_CONFIG"]


@dataclass(frozen=True)
class MachineConfig:
    """Dimensions of the machine at every level of the hierarchy."""

    grid_x: int = 25
    grid_y: int = 8
    cages_per_cabinet: int = 3
    slots_per_cage: int = 8
    nodes_per_slot: int = 4

    def __post_init__(self) -> None:
        for field in (
            "grid_x",
            "grid_y",
            "cages_per_cabinet",
            "slots_per_cage",
            "nodes_per_slot",
        ):
            value = getattr(self, field)
            if not isinstance(value, int) or value <= 0:
                raise ConfigurationError(f"{field} must be a positive int, got {value!r}")

    @property
    def num_cabinets(self) -> int:
        """Total number of cabinets on the floor grid."""
        return self.grid_x * self.grid_y

    @property
    def nodes_per_cabinet(self) -> int:
        """Nodes contained in one cabinet."""
        return self.cages_per_cabinet * self.slots_per_cage * self.nodes_per_slot

    @property
    def num_nodes(self) -> int:
        """Total number of nodes in the machine."""
        return self.num_cabinets * self.nodes_per_cabinet

    def scaled(self, **overrides: int) -> "MachineConfig":
        """Return a copy with the given fields replaced."""
        values = {
            "grid_x": self.grid_x,
            "grid_y": self.grid_y,
            "cages_per_cabinet": self.cages_per_cabinet,
            "slots_per_cage": self.slots_per_cage,
            "nodes_per_slot": self.nodes_per_slot,
        }
        values.update(overrides)
        return MachineConfig(**values)


#: The full Titan configuration from the paper: 200 cabinets in a 25 x 8
#: grid, 3 cages x 8 slots x 4 nodes each = 18,688 GPUs... minus service
#: nodes in reality; here exactly 19,200 node positions, of which Titan
#: populated 18,688 with GPUs.  We model all positions as GPU nodes.
TITAN_CONFIG = MachineConfig()


class Machine:
    """Immutable topology with per-node cabinet index arrays.

    Node ids are dense integers ``0 .. num_nodes-1`` assigned in
    (cabinet-major, cage, slot, node) order, so all per-node state elsewhere
    in the library can live in flat numpy arrays indexed by node id.
    """

    def __init__(self, config: MachineConfig | None = None) -> None:
        self._config = config or TITAN_CONFIG
        cfg = self._config
        cabinet_linear = np.arange(cfg.num_nodes) // cfg.nodes_per_cabinet
        self._cabinet_x = cabinet_linear % cfg.grid_x
        self._cabinet_y = cabinet_linear // cfg.grid_x
        self._cabinet_linear = cabinet_linear

    @property
    def config(self) -> MachineConfig:
        """The machine dimensions."""
        return self._config

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return self._config.num_nodes

    @property
    def num_cabinets(self) -> int:
        """Total number of cabinets."""
        return self._config.num_cabinets

    # ------------------------------------------------------------------
    # Vectorized views (flat arrays indexed by node id)
    # ------------------------------------------------------------------
    @property
    def cabinet_x(self) -> np.ndarray:
        """Per-node cabinet column (read-only view)."""
        return self._readonly(self._cabinet_x)

    @property
    def cabinet_y(self) -> np.ndarray:
        """Per-node cabinet row (read-only view)."""
        return self._readonly(self._cabinet_y)

    @property
    def cabinet_linear(self) -> np.ndarray:
        """Per-node linear cabinet index ``y * grid_x + x``."""
        return self._readonly(self._cabinet_linear)

    def cabinet_grid(self, per_node_values: np.ndarray, *, reduce: str = "sum") -> np.ndarray:
        """Aggregate a per-node array onto the ``(grid_y, grid_x)`` floor grid.

        ``reduce`` is ``"sum"`` or ``"mean"``.  This is the primitive behind
        every cabinet-level figure in the paper (Figs. 1, 2, 5, 13b).
        """
        values = np.asarray(per_node_values, dtype=float)
        if values.shape != (self.num_nodes,):
            raise ValueError(
                f"expected shape ({self.num_nodes},), got {values.shape}"
            )
        cfg = self._config
        sums = np.bincount(
            self._cabinet_linear, weights=values, minlength=cfg.num_cabinets
        )
        if reduce == "mean":
            sums = sums / cfg.nodes_per_cabinet
        elif reduce != "sum":
            raise ValueError(f"unknown reduce: {reduce!r}")
        return sums.reshape(cfg.grid_y, cfg.grid_x)

    @staticmethod
    def _readonly(array: np.ndarray) -> np.ndarray:
        view = array.view()
        view.flags.writeable = False
        return view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cfg = self._config
        return (
            f"Machine({cfg.grid_x}x{cfg.grid_y} cabinets, "
            f"{cfg.cages_per_cabinet}c/{cfg.slots_per_cage}s/"
            f"{cfg.nodes_per_slot}n = {cfg.num_nodes} nodes)"
        )
