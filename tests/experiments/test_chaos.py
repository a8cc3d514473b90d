"""Integration tests for the chaos scenario (repro.experiments.chaos).

Qualitative contract of the unreliable signalling plane: admission
degrades monotonically with loss, latency grows (timeouts + backoff),
orphans appear and are collected — and no bandwidth is ever leaked,
whatever the loss rate.
"""

import dataclasses

import pytest

from repro import invariants
from repro.core.system import SystemSpec
from repro.experiments.chaos import (
    ChaosConfig,
    ChaosSimulation,
    chaos_figure,
    chaos_sweep,
    run_chaos_point,
)
from repro.experiments.config import quick_config

LOSS_GRID = (0.0, 0.05, 0.2)


def small_config():
    return dataclasses.replace(quick_config(), warmup_s=20.0, measure_s=120.0)


@pytest.fixture(scope="module")
def ed_sweep():
    """One shared ED sweep over the loss grid (module-scoped: ~seconds)."""
    was_enabled = invariants.enabled
    invariants.set_enabled(True)
    try:
        return chaos_sweep(
            SystemSpec("ED", retrials=2),
            LOSS_GRID,
            small_config(),
            ChaosConfig(),
            arrival_rate=20.0,
        )
    finally:
        invariants.set_enabled(was_enabled)


class TestQualitativeDegradation:
    def test_blocking_monotone_in_loss(self, ed_sweep):
        blocking = [r.blocking_probability for r in ed_sweep]
        # Monotone up to small sampling noise, and strictly worse at
        # the high end than under perfect signalling.
        for lo, hi in zip(blocking, blocking[1:]):
            assert hi >= lo - 0.01
        assert blocking[-1] > blocking[0]

    def test_latency_grows_with_loss(self, ed_sweep):
        latency = [r.mean_admission_latency_s for r in ed_sweep]
        for lo, hi in zip(latency, latency[1:]):
            assert hi >= lo
        assert latency[-1] > 1.5 * latency[0]

    def test_retransmissions_and_timeouts_appear(self, ed_sweep):
        perfect, lossy = ed_sweep[0], ed_sweep[-1]
        assert perfect.retransmissions == 0
        assert perfect.timeouts == 0
        assert perfect.channel_dropped == 0
        assert lossy.retransmissions > 0
        assert lossy.channel_dropped > 0

    def test_zero_leaked_bandwidth_at_every_loss_rate(self, ed_sweep):
        for result in ed_sweep:
            assert result.leaked_bps == 0.0

    def test_orphans_collected_under_loss(self, ed_sweep):
        assert ed_sweep[0].orphans_collected == 0
        assert ed_sweep[-1].orphans_collected > 0
        assert ed_sweep[-1].reclaimed_bps > 0.0


class TestDeterminism:
    def test_same_seed_same_result(self):
        def run():
            return run_chaos_point(
                SystemSpec("ED", retrials=2),
                20.0,
                small_config(),
                ChaosConfig(loss_rate=0.1),
            )

        assert run() == run()


class TestConfigValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            ChaosConfig(loss_rate=1.0)

    def test_refresh_must_beat_ttl(self):
        with pytest.raises(ValueError):
            ChaosConfig(lease_ttl_s=10.0, refresh_interval_s=10.0)

    def test_gdi_rejected(self):
        config = small_config()
        with pytest.raises(ValueError):
            ChaosSimulation(
                network_factory=config.network_factory(),
                system_spec=SystemSpec("GDI"),
                workload=config.workload(20.0),
                chaos=ChaosConfig(),
            )

    def test_single_use(self):
        config = small_config()
        simulation = ChaosSimulation(
            network_factory=config.network_factory(),
            system_spec=SystemSpec("ED", retrials=2),
            workload=config.workload(5.0),
            chaos=ChaosConfig(),
            warmup_s=1.0,
            measure_s=5.0,
        )
        simulation.run()
        with pytest.raises(RuntimeError):
            simulation.run()


class TestFigure:
    def test_figure_shape_and_render(self):
        config = dataclasses.replace(quick_config(), warmup_s=5.0, measure_s=30.0)
        result = chaos_figure(config, loss_rates=(0.0, 0.1))
        assert result.x_values == (0.0, 0.1)
        assert set(result.series) == {
            "<ED,2> blocking",
            "<ED,2> latency_ms",
            "<WD/D+B,2> blocking",
            "<WD/D+B,2> latency_ms",
        }
        for values in result.series.values():
            assert len(values) == 2
        rendered = result.render()
        assert "FIGCHAOS" in rendered
        assert "<ED,2> blocking" in rendered
