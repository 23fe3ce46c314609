"""Tests for the vectorized machine topology."""

import numpy as np
import pytest

from repro.topology.machine import Machine, MachineConfig, TITAN_CONFIG
from repro.utils.errors import ConfigurationError


@pytest.fixture(scope="module")
def small_machine() -> Machine:
    return Machine(
        MachineConfig(
            grid_x=3, grid_y=2, cages_per_cabinet=2, slots_per_cage=2, nodes_per_slot=4
        )
    )


class TestMachineConfig:
    def test_titan_dimensions(self):
        assert TITAN_CONFIG.num_cabinets == 200
        assert TITAN_CONFIG.nodes_per_cabinet == 96
        assert TITAN_CONFIG.num_nodes == 19200

    def test_invalid_dimension(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(grid_x=0)
        with pytest.raises(ConfigurationError):
            MachineConfig(nodes_per_slot=-1)

    def test_scaled(self):
        cfg = TITAN_CONFIG.scaled(nodes_per_slot=2, cages_per_cabinet=1)
        assert cfg.nodes_per_slot == 2
        assert cfg.cages_per_cabinet == 1
        assert cfg.grid_x == 25


class TestVectorizedViews:
    def test_views_are_readonly(self, small_machine):
        with pytest.raises(ValueError):
            small_machine.cabinet_x[0] = 7

    def test_cabinet_linear_consistent(self, small_machine):
        linear = small_machine.cabinet_linear
        expected = (
            small_machine.cabinet_y * small_machine.config.grid_x
            + small_machine.cabinet_x
        )
        assert np.array_equal(linear, expected)

    def test_cabinet_grid_sum(self, small_machine):
        values = np.ones(small_machine.num_nodes)
        grid = small_machine.cabinet_grid(values, reduce="sum")
        assert grid.shape == (2, 3)
        assert np.all(grid == small_machine.config.nodes_per_cabinet)

    def test_cabinet_grid_mean(self, small_machine):
        values = np.arange(small_machine.num_nodes, dtype=float)
        grid = small_machine.cabinet_grid(values, reduce="mean")
        per_cab = small_machine.config.nodes_per_cabinet
        assert grid[0, 0] == pytest.approx(np.arange(per_cab).mean())

    def test_cabinet_grid_validation(self, small_machine):
        with pytest.raises(ValueError):
            small_machine.cabinet_grid(np.ones(3))
        with pytest.raises(ValueError):
            small_machine.cabinet_grid(
                np.ones(small_machine.num_nodes), reduce="median"
            )
