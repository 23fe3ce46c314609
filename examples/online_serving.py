"""Online serving walkthrough: registry, streaming features, live scoring.

The paper's TwoStage predictor is meant to run online: samples are
scored as their runs complete, and the model is retrained periodically
as new offender nodes appear.  This example walks the serving subsystem
end to end at a small scale:

1. simulate a trace and train the batch TwoStage oracle;
2. publish the fitted model to a versioned, checksummed registry;
3. replay the trace as a telemetry event stream through the streaming
   feature engine (bit-identical to the batch feature builder) and the
   micro-batching scorer;
4. compare online alerts against the batch predictions — they agree
   sample for sample;
5. run the same replay with a periodic-retrain loop that hot-swaps new
   registry versions as labels resolve.

Run:  python examples/online_serving.py
"""

import tempfile
from pathlib import Path

from repro import TraceConfig, simulate_trace
from repro.features.splits import make_paper_splits
from repro.serve import serve_replay
from repro.serve.registry import ModelRegistry
from repro.telemetry.config import ErrorModelConfig
from repro.topology import MachineConfig


def main() -> None:
    # A small machine with a hot error model so 16 days hold both classes.
    config = TraceConfig(
        machine=MachineConfig(
            grid_x=6, grid_y=4, cages_per_cabinet=1, slots_per_cage=1, nodes_per_slot=4
        ),
        errors=ErrorModelConfig(
            base_rate_per_hour=0.004,
            offender_node_fraction=0.25,
            offender_median_boost=2.0,
            episode_rate_per_100_days=30.0,
            episode_median_days=3.0,
            quiet_day_factor=0.01,
        ),
        duration_days=16.0,
        tick_minutes=10.0,
        seed=7,
    )
    print("simulating 16 days on a 96-node machine ...")
    trace = simulate_trace(config)
    splits = make_paper_splits(
        train_days=10.0,
        test_days=3.0,
        offsets_days=(0.0, 1.5, 3.0),
        duration_days=config.duration_days,
    )

    with tempfile.TemporaryDirectory() as tmp:
        registry_root = Path(tmp) / "registry"

        # --- frozen model: the online path must match the batch oracle ---
        print("\n=== replay with a frozen model ===")
        report = serve_replay(
            trace,
            registry_root,
            splits=splits,
            split="DS1",
            model="gbdt",
            batch_size=128,
            flush_deadline_minutes=30.0,
            fast=True,
        )
        print(report)
        assert report.agreement == 1.0, "online must reproduce batch exactly"
        assert report.f1_delta == 0.0

        # --- periodic retrain: new registry versions, hot-swapped live ---
        print("\n=== replay with retraining every simulated day ===")
        report = serve_replay(
            trace,
            registry_root,
            splits=splits,
            split="DS1",
            model="gbdt",
            batch_size=128,
            retrain_every_days=1.0,
            fast=True,
        )
        print(report)

        print("\nregistry contents:")
        for version in ModelRegistry(registry_root).list_versions():
            extra = (
                f"retrained at minute {version.metadata['retrained_at_minute']:g}"
                if "retrained_at_minute" in version.metadata
                else f"initial fit on {version.metadata.get('split', '?')}"
            )
            print(
                f"  v{version.version:04d}  {version.model_name:>5s}  "
                f"{len(version.feature_names)} features  ({extra})"
            )


if __name__ == "__main__":
    main()
