"""Consistent-hash router: node id -> scorer shard, stable under resize.

The gateway partitions the fleet across N scorer shards by node id.  A
naive ``node % N`` remaps nearly every node when N changes; a consistent
hash ring moves only ~1/N of the keys when a shard joins or leaves,
which is what lets an operator scale the scoring tier without a
fleet-wide feature-history rebuild.

The ring hashes with SHA-256 (not Python's ``hash``) so placement is
independent of ``PYTHONHASHSEED`` and identical across processes — ring
placement participates in the gateway's determinism contract.  Each
shard owns ``replicas`` virtual points on the ring to even out the
partition sizes (classic Karger-style consistent hashing).
"""

from __future__ import annotations

import bisect
import hashlib

from repro.utils.errors import ValidationError

__all__ = ["ConsistentHashRing"]


def _point(label: str) -> int:
    """Ring coordinate for a label: first 8 bytes of SHA-256, big-endian."""
    return int.from_bytes(hashlib.sha256(label.encode()).digest()[:8], "big")


class ConsistentHashRing:
    """Maps integer node ids onto shard ids via a virtual-node hash ring."""

    def __init__(self, shard_ids, *, replicas: int = 64) -> None:
        if replicas < 1:
            raise ValidationError("replicas must be >= 1")
        self.replicas = int(replicas)
        self._points: list[int] = []
        self._owners: list[int] = []
        self._shards: set[int] = set()
        for shard_id in shard_ids:
            self.add_shard(int(shard_id))
        if not self._shards:
            raise ValidationError("a hash ring needs at least one shard")

    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> list[int]:
        return sorted(self._shards)

    def add_shard(self, shard_id: int) -> None:
        shard_id = int(shard_id)
        if shard_id in self._shards:
            raise ValidationError(f"shard {shard_id} already on the ring")
        self._shards.add(shard_id)
        for replica in range(self.replicas):
            point = _point(f"shard:{shard_id}:{replica}")
            at = bisect.bisect_left(self._points, point)
            self._points.insert(at, point)
            self._owners.insert(at, shard_id)

    def route(self, node_id: int) -> int:
        """Shard owning ``node_id``: first ring point clockwise of its hash."""
        point = _point(f"node:{int(node_id)}")
        at = bisect.bisect_right(self._points, point)
        if at == len(self._points):
            at = 0
        return self._owners[at]

    def assignment(self, node_ids) -> dict[int, int]:
        """Bulk route: ``{node_id: shard_id}`` for every given node."""
        return {int(n): self.route(int(n)) for n in node_ids}
