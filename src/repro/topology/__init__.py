"""Titan-style machine topology.

Titan's physical hierarchy (paper, Section II): a *node* holds one CPU and
one GPU; four nodes form a *slot*; eight slots form a *cage*; three cages
form a *cabinet*; 200 cabinets are arranged in a 25 x 8 floor grid.

:class:`MachineConfig` makes every level configurable so unit tests can use
toy machines while experiments use a full 25 x 8 grid.
"""

from repro.topology.machine import Machine, MachineConfig, TITAN_CONFIG

__all__ = ["Machine", "MachineConfig", "TITAN_CONFIG"]
