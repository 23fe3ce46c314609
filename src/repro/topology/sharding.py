"""Row-sharded partitioning of the machine for parallel simulation.

The floor grid assigns node ids cabinet-major, so one cabinet **row**
(all ``grid_x`` cabinets with the same ``y``) is a contiguous node-id
range.  Every coupling in the physics substrate is *slot-local* (the
thermal model exchanges heat only within a slot, and a slot never spans
cabinets), so a partition whose boundaries are slot-aligned decomposes
the simulation exactly: each shard can advance its nodes independently
and the merged result is bit-identical to the serial run.

Row shards are slot-aligned by construction.  The halo machinery below
still computes, for any candidate span, the set of *ghost nodes* a shard
would have to exchange each tick — nodes outside the span that share a
slot (thermal coupling) or a cage (recorded cage-average series) with a
node inside it.  For row-aligned spans both sets are provably empty;
:func:`validate_span` enforces that invariant at plan time so a future
partitioning scheme that does cut a slot fails loudly instead of
silently diverging from the serial simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topology.machine import MachineConfig
from repro.utils.errors import ValidationError

__all__ = ["ShardSpan", "plan_shards", "halo_node_ids", "validate_span"]


@dataclass(frozen=True)
class ShardSpan:
    """One shard's contiguous slice of the machine.

    ``[lo, hi)`` are global node ids; ``[row_lo, row_hi)`` are the
    cabinet rows they cover.  ``index``/``num_shards`` identify the
    shard inside its plan.
    """

    index: int
    num_shards: int
    lo: int
    hi: int
    row_lo: int
    row_hi: int

    def __post_init__(self) -> None:
        if not 0 <= self.lo < self.hi:
            raise ValidationError(f"empty or negative span: [{self.lo}, {self.hi})")
        if not 0 <= self.row_lo < self.row_hi:
            raise ValidationError(
                f"empty or negative row span: [{self.row_lo}, {self.row_hi})"
            )

    @property
    def num_nodes(self) -> int:
        """Nodes owned by this shard."""
        return self.hi - self.lo

    def to_dict(self) -> dict:
        """JSON-serializable form, for store manifests and journals."""
        return {
            "index": self.index,
            "num_shards": self.num_shards,
            "lo": self.lo,
            "hi": self.hi,
            "row_lo": self.row_lo,
            "row_hi": self.row_hi,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ShardSpan":
        """Rebuild a span from :meth:`to_dict` output (extra keys ignored)."""
        return cls(
            index=int(raw["index"]),
            num_shards=int(raw["num_shards"]),
            lo=int(raw["lo"]),
            hi=int(raw["hi"]),
            row_lo=int(raw["row_lo"]),
            row_hi=int(raw["row_hi"]),
        )


def full_span(config: MachineConfig) -> ShardSpan:
    """The degenerate one-shard plan covering the whole machine."""
    return ShardSpan(
        index=0,
        num_shards=1,
        lo=0,
        hi=config.num_nodes,
        row_lo=0,
        row_hi=config.grid_y,
    )


def plan_shards(config: MachineConfig, num_shards: int) -> list[ShardSpan]:
    """Partition the machine into up to ``num_shards`` row-aligned spans.

    The request is clamped to the number of cabinet rows (the finest
    partition that keeps every span row-aligned); rows are distributed as
    evenly as possible, earlier shards taking the remainder.
    """
    if num_shards < 1:
        raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
    effective = min(int(num_shards), config.grid_y)
    row_nodes = config.grid_x * config.nodes_per_cabinet
    base, extra = divmod(config.grid_y, effective)
    spans: list[ShardSpan] = []
    row = 0
    for index in range(effective):
        rows = base + (1 if index < extra else 0)
        span = ShardSpan(
            index=index,
            num_shards=effective,
            lo=row * row_nodes,
            hi=(row + rows) * row_nodes,
            row_lo=row,
            row_hi=row + rows,
        )
        validate_span(span, config)
        spans.append(span)
        row += rows
    return spans


def halo_node_ids(span: ShardSpan, config: MachineConfig) -> np.ndarray:
    """Ghost nodes ``span`` would need from its neighbours each tick.

    The thermal neighbour coupling averages over slots and the recorded
    cage series average over cages, so the halo is the set of nodes
    outside ``[lo, hi)`` that share a slot *or cage* with a node inside
    it.  Cages contain whole slots, so computing the straddle at cage
    granularity covers both couplings.
    """
    per_cage = config.slots_per_cage * config.nodes_per_slot
    first = (span.lo // per_cage) * per_cage
    last = ((span.hi - 1) // per_cage + 1) * per_cage
    covered = np.arange(first, min(last, config.num_nodes))
    return covered[(covered < span.lo) | (covered >= span.hi)]


def validate_span(span: ShardSpan, config: MachineConfig) -> None:
    """Reject spans whose halo is non-empty or that cut a cabinet row.

    A non-empty halo would require a per-tick ghost exchange between
    worker processes; the row-aligned planner never produces one, and the
    simulator refuses to run a span that would (bit-parity with the
    serial run could not be guaranteed by independent workers).
    """
    row_nodes = config.grid_x * config.nodes_per_cabinet
    if span.lo != span.row_lo * row_nodes or span.hi != span.row_hi * row_nodes:
        raise ValidationError(
            f"span [{span.lo}, {span.hi}) does not match rows "
            f"[{span.row_lo}, {span.row_hi}) of {row_nodes}-node cabinet rows"
        )
    if span.hi > config.num_nodes:
        raise ValidationError(
            f"span [{span.lo}, {span.hi}) exceeds machine size {config.num_nodes}"
        )
    halo = halo_node_ids(span, config)
    if halo.size:
        raise ValidationError(
            f"span [{span.lo}, {span.hi}) cuts a slot/cage; would need a "
            f"{halo.size}-node halo exchange"
        )
