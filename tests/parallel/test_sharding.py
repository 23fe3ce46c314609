"""Unit tests for the row-aligned shard planner and halo machinery."""

import numpy as np
import pytest

from repro.topology.machine import MachineConfig
from repro.topology.sharding import (
    ShardSpan,
    full_span,
    halo_node_ids,
    plan_shards,
    validate_span,
)
from repro.utils.errors import ValidationError

CONFIG = MachineConfig(grid_x=6, grid_y=4, cages_per_cabinet=1, slots_per_cage=1,
                       nodes_per_slot=4)
ROW_NODES = CONFIG.grid_x * CONFIG.nodes_per_cabinet


class TestPlanShards:
    def test_plan_tiles_the_machine(self):
        for n in (1, 2, 3, 4):
            spans = plan_shards(CONFIG, n)
            assert spans[0].lo == 0
            assert spans[-1].hi == CONFIG.num_nodes
            for prev, cur in zip(spans, spans[1:]):
                assert prev.hi == cur.lo
            assert sum(s.num_nodes for s in spans) == CONFIG.num_nodes

    def test_plan_clamps_to_row_count(self):
        spans = plan_shards(CONFIG, 100)
        assert len(spans) == CONFIG.grid_y
        assert all(s.row_hi - s.row_lo == 1 for s in spans)

    def test_uneven_rows_distributed(self):
        spans = plan_shards(CONFIG, 3)  # 4 rows over 3 shards
        rows = [s.row_hi - s.row_lo for s in spans]
        assert sorted(rows, reverse=True) == [2, 1, 1]
        assert rows[0] == 2  # earlier shards take the remainder

    def test_invalid_shard_count(self):
        with pytest.raises(ValidationError):
            plan_shards(CONFIG, 0)

    def test_full_span_covers_machine(self):
        span = full_span(CONFIG)
        assert span.lo == 0 and span.hi == CONFIG.num_nodes
        assert span.index == 0 and span.num_shards == 1


class TestHalo:
    def test_row_aligned_spans_have_empty_halo(self):
        for n in (1, 2, 4):
            for span in plan_shards(CONFIG, n):
                assert halo_node_ids(span, CONFIG).size == 0

    def test_slot_cutting_span_has_halo(self):
        # Start two nodes into a slot: the rest of that slot is the halo.
        span = ShardSpan(index=0, num_shards=2, lo=2, hi=ROW_NODES,
                         row_lo=0, row_hi=1)
        halo = halo_node_ids(span, CONFIG)
        assert np.array_equal(halo, np.array([0, 1]))

    def test_validate_rejects_unaligned_span(self):
        span = ShardSpan(index=0, num_shards=2, lo=0, hi=ROW_NODES - 2,
                         row_lo=0, row_hi=1)
        with pytest.raises(ValidationError):
            validate_span(span, CONFIG)

    def test_validate_rejects_oversized_span(self):
        span = ShardSpan(index=0, num_shards=1, lo=0,
                         hi=CONFIG.num_nodes + ROW_NODES,
                         row_lo=0, row_hi=CONFIG.grid_y + 1)
        with pytest.raises(ValidationError):
            validate_span(span, CONFIG)
