"""Heterogeneous serving integration: routing, auto-identification,
hot-swap and routed checkpoint fail-over — all over real sockets.

The acceptance bar mirrors the homogeneous gateway tests: whatever the
routing path (explicit tag, auto-identification, hot-swap boundary,
checkpoint restore), every stream's verdicts must be **bit-identical**
to offline ``detect()`` with the exact artifact that served it.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.combined import CombinedDetector, DetectorConfig
from repro.core.timeseries_detector import TimeSeriesDetectorConfig
from repro.ics.dataset import generate_dataset, generate_stream
from repro.persistence import checkpoint_meta
from repro.registry import ModelRegistry
from repro.serve.gateway import DetectionGateway, GatewayConfig, start_in_thread
from repro.serve.replay import ReplayClient, ReplayError
from repro.utils.artifact import read_meta, save_artifact


@pytest.fixture(scope="module")
def captures():
    """One deterministic live capture per plant (attacks included)."""
    return {
        name: generate_stream(name, 30, 11)
        for name in ("gas_pipeline", "water_tank", "hvac_chiller")
    }


def routed_gateway(registry, **config):
    gateway = DetectionGateway(
        config=GatewayConfig(**config), registry=registry
    )
    return start_in_thread(None, gateway=gateway)


class TestRouting:
    def test_tagged_streams_score_with_their_own_artifacts(
        self, registry, scenario_detectors, captures
    ):
        handle = routed_gateway(registry, num_shards=2)
        try:
            host, port = handle.address
            results = {}
            for name in ("gas_pipeline", "water_tank"):
                client = ReplayClient(
                    host, port, stream_key=f"site-{name}", scenario=name
                )
                results[name] = client.replay(captures[name])
            stats = handle.stats()
            for name, result in results.items():
                assert result.complete
                offline = scenario_detectors[name].detect(captures[name])
                assert np.array_equal(result.anomalies, offline.is_anomaly)
                assert np.array_equal(result.levels, offline.level)
                route = stats["routes"][f"site-{name}"]
                assert route["scenario"] == name
                assert route["version"] == 1
                assert route["packages"] == len(captures[name])
            assert stats["mode"] == "registry"
        finally:
            handle.stop()

    def test_untagged_stream_is_auto_identified(
        self, registry, scenario_detectors, captures
    ):
        handle = routed_gateway(registry)
        try:
            host, port = handle.address
            result = ReplayClient(host, port, stream_key="mystery").replay(
                captures["hvac_chiller"]
            )
            assert result.complete
            offline = scenario_detectors["hvac_chiller"].detect(
                captures["hvac_chiller"]
            )
            assert np.array_equal(result.anomalies, offline.is_anomaly)
            assert np.array_equal(result.levels, offline.level)
            stats = handle.stats()
            assert stats["identified"] == 1
            assert stats["routes"]["mystery"]["scenario"] == "hvac_chiller"
        finally:
            handle.stop()

    def test_unregistered_plant_is_refused_not_misrouted(
        self, tmp_path, scenario_detectors, captures
    ):
        # Registry without the water tank: its traffic must bounce with
        # an abstention error, and no route may be created for it.
        partial = ModelRegistry(tmp_path / "partial")
        for name in ("gas_pipeline", "hvac_chiller"):
            partial.publish(scenario_detectors[name], name)
        handle = routed_gateway(partial)
        try:
            host, port = handle.address
            with pytest.raises(ReplayError, match="cannot identify"):
                ReplayClient(host, port, stream_key="intruder").replay(
                    captures["water_tank"]
                )
            stats = handle.stats()
            assert stats["abstained"] == 1
            assert stats["routes"] == {}
        finally:
            handle.stop()

    def test_short_untagged_stream_identifies_before_the_full_window(
        self, registry, scenario_detectors
    ):
        # A capture shorter than the probe window (one polling cycle is
        # only ~4 packages) must still be identified and judged — the
        # gateway routes as soon as the probe is decisive instead of
        # waiting for a window that will never fill.
        capture = generate_stream("water_tank", 2, 17)
        assert len(capture) < 16  # genuinely shorter than probe_window
        handle = routed_gateway(registry)
        try:
            host, port = handle.address
            result = ReplayClient(host, port, stream_key="tiny").replay(capture)
            assert result.complete
            assert result.judged == len(capture)
            offline = scenario_detectors["water_tank"].detect(capture)
            assert np.array_equal(result.anomalies, offline.is_anomaly)
            assert handle.stats()["routes"]["tiny"]["scenario"] == "water_tank"
        finally:
            handle.stop()

    def test_unknown_scenario_tag_is_a_protocol_error(self, registry, captures):
        handle = routed_gateway(registry)
        try:
            host, port = handle.address
            with pytest.raises(ReplayError, match="no published versions"):
                ReplayClient(
                    host, port, stream_key="typo", scenario="steel_mill"
                ).replay(captures["gas_pipeline"])
        finally:
            handle.stop()

    def test_reconnect_resumes_on_the_same_route(self, registry, captures):
        capture = captures["water_tank"]
        handle = routed_gateway(registry)
        try:
            host, port = handle.address
            half = len(capture) // 2
            first = ReplayClient(
                host, port, stream_key="wt", scenario="water_tank"
            ).replay(capture[:half])
            assert first.complete
            # Untagged reconnect: the sticky binding routes it — no
            # re-identification, no probe stall.
            second = ReplayClient(host, port, stream_key="wt").replay(capture)
            assert second.start == half
            assert second.complete
            assert handle.stats()["identified"] == 0
        finally:
            handle.stop()


class TestHotSwap:
    @pytest.fixture(scope="class")
    def gas_v2(self):
        """A second gas-pipeline model with different weights (rng 5)."""
        from repro.scenarios import get_scenario

        dataset = generate_dataset(
            get_scenario("gas_pipeline").dataset_config(num_cycles=250), seed=3
        )
        detector, _ = CombinedDetector.train(
            dataset.train_fragments,
            dataset.validation_fragments,
            DetectorConfig(
                timeseries=TimeSeriesDetectorConfig(hidden_sizes=(8,), epochs=1)
            ),
            rng=5,
        )
        return detector

    def test_publish_swaps_at_a_deterministic_boundary(
        self, tmp_path, scenario_detectors, gas_v2, captures
    ):
        """Judge a prefix on v1, publish v2, judge the rest: the stitched
        stream must equal v1-offline on the prefix and fresh v2-offline
        on the suffix — the drain-and-swap contract, bit for bit."""
        capture = captures["gas_pipeline"]
        own = ModelRegistry(tmp_path / "swap")
        v1 = scenario_detectors["gas_pipeline"]
        own.publish(v1, "gas_pipeline")
        handle = routed_gateway(own)
        try:
            host, port = handle.address
            boundary = len(capture) // 2
            first = ReplayClient(
                host, port, stream_key="plant", scenario="gas_pipeline"
            ).replay(capture[:boundary])
            assert first.complete

            own.publish(gas_v2, "gas_pipeline")  # activates v2 -> hot-swap
            deadline = time.monotonic() + 5.0
            while handle.stats().get("swaps_applied", 0) < 1:
                assert time.monotonic() < deadline, "hot-swap never applied"
                time.sleep(0.01)

            second = ReplayClient(host, port, stream_key="plant").replay(capture)
            assert second.complete
            assert second.start == boundary  # zero packages lost or re-judged

            assert np.array_equal(
                first.anomalies, v1.detect(capture[:boundary]).is_anomaly
            )
            suffix = gas_v2.detect(capture[boundary:])
            assert np.array_equal(second.anomalies, suffix.is_anomaly)
            assert np.array_equal(second.levels, suffix.level)

            route = handle.stats()["routes"]["plant"]
            assert route["version"] == 2
            assert route["seq_base"] == boundary
            assert route["packages"] == len(capture)
        finally:
            handle.stop()

    @pytest.mark.parametrize("worker_mode", ["thread", "process"])
    def test_swap_to_an_unloadable_version_keeps_the_old_one(
        self, tmp_path, scenario_detectors, gas_v2, captures, worker_mode
    ):
        """Promote a version whose artifact does not load: the failed
        swap is reported, the stream keeps serving on v1 with nothing
        lost or re-judged, and the shard stays healthy."""
        capture = captures["gas_pipeline"]
        own = ModelRegistry(tmp_path / "bad-swap")
        v1 = scenario_detectors["gas_pipeline"]
        own.publish(v1, "gas_pipeline")
        own.publish(gas_v2, "gas_pipeline", activate=False)
        # v2's header (and so its registry entry) stays readable, but it
        # no longer holds a detector: loading it fails.
        artifact = own.artifact_path("gas_pipeline", 2)
        save_artifact(
            {}, artifact, kind="not-a-detector", meta=read_meta(artifact)["meta"]
        )
        handle = routed_gateway(own, worker_mode=worker_mode)
        reports: list[dict] = []
        handle._loop.set_exception_handler(
            lambda loop, context: reports.append(context)
        )
        try:
            host, port = handle.address
            boundary = len(capture) // 2
            first = ReplayClient(
                host, port, stream_key="plant", scenario="gas_pipeline"
            ).replay(capture[:boundary])
            assert first.complete

            own.promote("gas_pipeline", 2)  # the hot-swap cannot load v2
            deadline = time.monotonic() + 10.0
            while not reports:
                assert time.monotonic() < deadline, "failed swap not reported"
                time.sleep(0.01)
            assert "gas_pipeline" in reports[0]["message"]

            second = ReplayClient(host, port, stream_key="plant").replay(capture)
            assert second.complete
            assert second.start == boundary
            stitched = np.concatenate([first.anomalies, second.anomalies])
            assert np.array_equal(stitched, v1.detect(capture).is_anomaly)
            stats = handle.stats()
            assert "degraded" not in stats
            assert stats["swaps_applied"] == 0
            assert stats["routes"]["plant"]["version"] == 1
            assert stats["routes"]["plant"]["packages"] == len(capture)
        finally:
            handle.stop()

    def test_swap_under_live_load_drops_zero_packages(
        self, tmp_path, scenario_detectors, gas_v2
    ):
        """Publish v2 while a replay is mid-flight: every package still
        gets exactly one in-order verdict, and the stitched stream is
        v1-offline up to the reported boundary, fresh v2-offline after."""
        capture = generate_stream("gas_pipeline", 60, 13)
        own = ModelRegistry(tmp_path / "live-swap")
        v1 = scenario_detectors["gas_pipeline"]
        own.publish(v1, "gas_pipeline")
        handle = routed_gateway(own, max_pending=8)
        try:
            host, port = handle.address

            def promote_mid_flight():
                deadline = time.monotonic() + 10.0
                while handle.stats()["processed"] < len(capture) // 4:
                    if time.monotonic() > deadline:
                        return
                    time.sleep(0.002)
                own.publish(gas_v2, "gas_pipeline")

            publisher = threading.Thread(target=promote_mid_flight)
            publisher.start()
            result = ReplayClient(
                host, port, stream_key="plant", scenario="gas_pipeline", window=8
            ).replay(capture)
            publisher.join(15.0)

            assert result.complete
            assert result.judged == len(capture)  # zero dropped packages
            stats = handle.stats()
            assert stats["swaps_applied"] == 1
            boundary = stats["routes"]["plant"]["seq_base"]
            assert 0 < boundary < len(capture), "swap missed the live window"
            expected_head = v1.detect(capture[:boundary])
            expected_tail = gas_v2.detect(capture[boundary:])
            assert np.array_equal(
                result.anomalies,
                np.concatenate(
                    [expected_head.is_anomaly, expected_tail.is_anomaly]
                ),
            )
            assert np.array_equal(
                result.levels,
                np.concatenate([expected_head.level, expected_tail.level]),
            )
        finally:
            handle.stop()

    def test_cross_process_promote_is_picked_up_by_polling(
        self, tmp_path, scenario_detectors, gas_v2, captures
    ):
        """A promotion through a *different* registry handle (no shared
        subscription — the `repro registry promote` shape) must reach a
        polling gateway."""
        capture = captures["gas_pipeline"]
        root = tmp_path / "poll"
        own = ModelRegistry(root)
        own.publish(scenario_detectors["gas_pipeline"], "gas_pipeline")
        own.publish(gas_v2, "gas_pipeline", activate=False)  # dark v2
        handle = routed_gateway(
            ModelRegistry(root), registry_poll_seconds=0.05
        )
        try:
            host, port = handle.address
            ReplayClient(
                host, port, stream_key="plant", scenario="gas_pipeline"
            ).replay(capture[:40])
            # Another process flips the pin; only the poll can see it.
            ModelRegistry(root).promote("gas_pipeline", 2)
            deadline = time.monotonic() + 5.0
            while handle.stats().get("swaps_applied", 0) < 1:
                assert time.monotonic() < deadline, "poll never applied the swap"
                time.sleep(0.02)
            assert handle.stats()["routes"]["plant"]["version"] == 2
        finally:
            handle.stop()


class TestRoutedFailover:
    def test_checkpoint_preserves_route_table_and_resumes_exactly(
        self, tmp_path, registry, scenario_detectors, captures
    ):
        checkpoint = tmp_path / "routed.npz"
        capture_a = captures["gas_pipeline"]
        capture_b = captures["water_tank"]
        gateway = DetectionGateway(
            config=GatewayConfig(num_shards=2, checkpoint_path=str(checkpoint)),
            registry=registry,
        )
        handle = start_in_thread(None, gateway=gateway)
        host, port = handle.address
        half_a, half_b = len(capture_a) // 2, len(capture_b) // 3
        first_a = ReplayClient(
            host, port, stream_key="a", scenario="gas_pipeline"
        ).replay(capture_a[:half_a])
        first_b = ReplayClient(host, port, stream_key="b").replay(
            capture_b[:half_b]
        )  # auto-identified route must also survive the checkpoint
        assert first_a.complete and first_b.complete
        handle.stop(checkpoint=True)

        meta = checkpoint_meta(checkpoint)
        assert meta["routes"] == {
            "a": {"scenario": "gas_pipeline", "version": 1, "protocol": "modbus"},
            "b": {"scenario": "water_tank", "version": 1, "protocol": "modbus"},
        }

        restored = DetectionGateway.from_checkpoint(
            str(checkpoint), registry=registry
        )
        assert restored.config.num_shards == 2
        handle2 = start_in_thread(None, gateway=restored)
        try:
            host, port = handle2.address
            stats = handle2.stats()
            assert stats["routes"]["a"]["scenario"] == "gas_pipeline"
            assert stats["routes"]["b"]["scenario"] == "water_tank"
            second_a = ReplayClient(host, port, stream_key="a").replay(capture_a)
            second_b = ReplayClient(host, port, stream_key="b").replay(capture_b)
            assert second_a.start == half_a and second_b.start == half_b
            for name, first, second, capture in (
                ("gas_pipeline", first_a, second_a, capture_a),
                ("water_tank", first_b, second_b, capture_b),
            ):
                stitched = np.concatenate([first.anomalies, second.anomalies])
                offline = scenario_detectors[name].detect(capture)
                assert np.array_equal(stitched, offline.is_anomaly), name
        finally:
            handle2.stop()

    def test_routed_checkpoint_requires_a_registry(self, tmp_path, registry):
        checkpoint = tmp_path / "routed.npz"
        gateway = DetectionGateway(
            config=GatewayConfig(checkpoint_path=str(checkpoint)),
            registry=registry,
        )
        handle = start_in_thread(None, gateway=gateway)
        handle.stop(checkpoint=True)
        with pytest.raises(ValueError, match="registry"):
            DetectionGateway.from_checkpoint(str(checkpoint))

    def test_single_checkpoint_cannot_resume_under_a_registry(
        self, tmp_path, detector, registry, capture
    ):
        # The reverse mismatch: an operator resuming an old
        # single-detector checkpoint with --registry must get an error,
        # not a gateway that silently serves one embedded model.
        checkpoint = tmp_path / "single.npz"
        handle = start_in_thread(
            detector, GatewayConfig(checkpoint_path=str(checkpoint))
        )
        host, port = handle.address
        ReplayClient(host, port, stream_key="k").replay(capture[:20])
        handle.stop(checkpoint=True)
        with pytest.raises(ValueError, match="single-detector"):
            DetectionGateway.from_checkpoint(str(checkpoint), registry=registry)

    def test_single_mode_rejects_registry_state_mix(self, detector, registry):
        with pytest.raises(ValueError):
            DetectionGateway(detector, registry=registry)
        with pytest.raises(ValueError):
            DetectionGateway()
