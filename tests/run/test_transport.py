"""Tests for the shard-transport layer: wire protocol, registry, and
the serial/local transports' dynamic-queue contract.

The load-bearing properties: frames round-trip bit-exactly, a scenario
rebuilt from wire artifacts is *identical* to the client-side build
(same faults, same order — the distributed merge invariant), and every
transport produces records the runner merges into the serial result.
"""

import socket

import pytest

from repro.errors import CampaignError
from repro.run.runner import CampaignRunner, plan_windows
from repro.run.spec import CampaignSpec, scenario_from_wire
from repro.run.store import ShardRecord
from repro.run.transport import (
    available_transports,
    create_transport,
    register_transport,
)
from repro.run.transport import wire
from repro.run.transport.base import ShardTransport
from repro.run.transport.local import LocalPoolTransport, SerialTransport
from repro.netlist.textio import dumps_netlist, loads_netlist


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
class TestWireFraming:
    def roundtrip(self, kind, header=None, blob=b""):
        client, server = socket.socketpair()
        try:
            wire.send_msg(client, kind, header, blob)
            return wire.recv_msg(server)
        finally:
            client.close()
            server.close()

    def test_header_only_roundtrip(self):
        kind, header, blob = self.roundtrip("ping")
        assert (kind, header, blob) == ("ping", {}, b"")

    def test_header_and_blob_roundtrip(self):
        payload = bytes(range(256)) * 17
        kind, header, blob = self.roundtrip(
            "result", {"index": 3, "fail_bytes": 12}, payload
        )
        assert kind == "result"
        assert header == {"index": 3, "fail_bytes": 12}
        assert blob == payload

    def test_blob_may_contain_newlines(self):
        # The header/blob separator is the *first* newline only.
        _, _, blob = self.roundtrip("artifact", {}, b"line1\nline2\n")
        assert blob == b"line1\nline2\n"

    def test_multiple_frames_in_sequence(self):
        client, server = socket.socketpair()
        try:
            for index in range(5):
                wire.send_msg(client, "shard", {"index": index})
            for index in range(5):
                kind, header, _ = wire.recv_msg(server)
                assert (kind, header["index"]) == ("shard", index)
        finally:
            client.close()
            server.close()

    def test_eof_raises_peer_gone(self):
        client, server = socket.socketpair()
        client.close()
        with pytest.raises(wire.PeerGone):
            wire.recv_msg(server)
        server.close()

    def test_eof_mid_frame_raises_peer_gone(self):
        client, server = socket.socketpair()
        client.sendall(b"\x00\x00\x01\x00partial")  # announces 256 bytes
        client.close()
        with pytest.raises(wire.PeerGone):
            wire.recv_msg(server)
        server.close()

    def test_oversized_frame_refused_on_send(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 64)
        client, server = socket.socketpair()
        try:
            with pytest.raises(wire.WireError):
                wire.send_msg(client, "artifact", {}, b"x" * 128)
        finally:
            client.close()
            server.close()

    def test_oversized_frame_refused_on_receive(self):
        client, server = socket.socketpair()
        try:
            client.sendall(b"\xff\xff\xff\xff")  # ~4 GiB announcement
            with pytest.raises(wire.WireError):
                wire.recv_msg(server)
        finally:
            client.close()
            server.close()


class TestPayloadCodecs:
    def test_testbench_roundtrip(self, counter_bench):
        restored = wire.unpack_testbench(wire.pack_testbench(counter_bench))
        assert restored.input_names == counter_bench.input_names
        assert restored.vectors == counter_bench.vectors
        assert restored.stimulus_digest() == counter_bench.stimulus_digest()

    def test_garbage_stimulus_raises_wire_error(self):
        with pytest.raises(wire.WireError):
            wire.unpack_testbench(b"not json at all")


class TestParseHosts:
    def test_comma_string(self):
        assert wire.parse_hosts("a:1, b:2 ,c:3") == [
            ("a", 1), ("b", 2), ("c", 3)
        ]

    def test_iterable(self):
        assert wire.parse_hosts(["x:7400"]) == [("x", 7400)]

    @pytest.mark.parametrize(
        "bad", ["nohost", "host:", ":1234", "host:notaport", "h:99999"]
    )
    def test_bad_spellings_raise(self, bad):
        with pytest.raises(CampaignError):
            wire.parse_hosts(bad)

    def test_empty_raises(self):
        with pytest.raises(CampaignError):
            wire.parse_hosts("")


# ----------------------------------------------------------------------
# wire-side scenario rebuild
# ----------------------------------------------------------------------
class TestScenarioFromWire:
    @pytest.mark.parametrize(
        "spec",
        [
            CampaignSpec(circuit="b04", technique="mask_scan"),
            CampaignSpec(
                circuit="b04",
                technique="mask_scan",
                sample=150,
                sampling="stratified",
                seed=7,
            ),
            CampaignSpec(
                circuit="b04", technique="mask_scan", hardening="tmr"
            ),
            CampaignSpec(
                circuit="b06",
                technique="state_scan",
                fault_model="stuck_at_1",
            ),
        ],
        ids=["exhaustive", "stratified-sample", "hardened-tmr", "stuck-at"],
    )
    def test_rebuild_is_identical(self, spec):
        """The remote rebuild grades the same faults in the same order."""
        local = spec.scenario()
        rebuilt = scenario_from_wire(
            loads_netlist(dumps_netlist(local.netlist)),
            wire.unpack_testbench(wire.pack_testbench(local.testbench)),
            spec.wire_fields(),
        )
        assert len(rebuilt.faults) == len(local.faults)
        assert [
            (fault.flop_name, fault.cycle) for fault in rebuilt.faults
        ] == [(fault.flop_name, fault.cycle) for fault in local.faults]
        assert rebuilt.testbench.vectors == local.testbench.vectors

    def test_cycle_mismatch_raises(self):
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        local = spec.scenario()
        fields = dict(spec.wire_fields())
        fields["num_cycles"] = local.testbench.num_cycles + 1
        with pytest.raises(CampaignError):
            scenario_from_wire(
                loads_netlist(dumps_netlist(local.netlist)),
                local.testbench,
                fields,
            )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class TestTransportRegistry:
    def test_builtins_registered(self):
        assert {"serial", "local", "tcp"} <= set(available_transports())

    def test_unknown_name_raises(self):
        with pytest.raises(CampaignError, match="unknown transport"):
            create_transport("carrier-pigeon")

    def test_tcp_without_hosts_raises(self):
        with pytest.raises(CampaignError, match="hosts"):
            create_transport("tcp")

    def test_custom_transport_registers(self):
        class Fake(ShardTransport):
            name = "fake"

            def grade_windows(self, spec, spec_dict, windows):
                return iter(())

        register_transport("fake-test", lambda **options: Fake())
        try:
            assert isinstance(create_transport("fake-test"), Fake)
        finally:
            from repro.run.transport import _TRANSPORTS

            _TRANSPORTS.pop("fake-test", None)

    def test_runner_default_resolution(self):
        assert CampaignRunner(workers=1).transport_name == "serial"
        assert CampaignRunner(workers=2).transport_name == "local"
        assert CampaignRunner(hosts="h:1").transport_name == "tcp"
        assert (
            CampaignRunner(workers=4, transport="serial").transport_name
            == "serial"
        )


# ----------------------------------------------------------------------
# serial + local transports
# ----------------------------------------------------------------------
class TestSerialTransport:
    def test_grades_all_windows_with_provenance(self):
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        windows = plan_windows(spec.resolved_cycles(), 4)
        with SerialTransport() as transport:
            records = list(
                transport.grade_windows(spec, spec.to_dict(), windows)
            )
        assert sorted(record.index for record in records) == [0, 1, 2, 3]
        assert all(record.worker == "inline" for record in records)
        assert all(record.attempts == 1 for record in records)


class TestLocalPoolTransport:
    def test_rejects_single_worker(self):
        with pytest.raises(CampaignError):
            LocalPoolTransport(workers=1)

    def test_dynamic_queue_matches_serial(self):
        """More windows than in-flight slots: the dynamic queue drains
        them all and the merged result is bit-exact with serial."""
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        serial = CampaignRunner(workers=1).grade(spec)
        # 12 shards against 2 workers * 2 in-flight slots forces several
        # submit-on-complete rounds.
        with CampaignRunner(workers=2, shards=12) as runner:
            pooled = runner.grade(spec)
        assert list(pooled.fail_cycles) == list(serial.fail_cycles)
        assert list(pooled.vanish_cycles) == list(serial.vanish_cycles)

    def test_records_carry_pool_provenance(self):
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        windows = plan_windows(spec.resolved_cycles(), 5)
        from repro.run import worker

        worker.prewarm(spec)
        with LocalPoolTransport(workers=2) as transport:
            records = list(
                transport.grade_windows(spec, spec.to_dict(), windows)
            )
        assert sorted(record.index for record in records) == list(range(5))
        assert all(record.worker == "pool:2" for record in records)

    def test_children_run_the_single_threaded_kernel(self):
        """Pool children load the same kernel as the parent, one thread
        per call; parallelism is the pool's, and outcomes match serial."""
        from repro.sim.backends._native import native_kernel

        if native_kernel() is None:
            pytest.skip("native kernel unavailable")
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        serial = CampaignRunner(workers=1).grade(spec)
        with CampaignRunner(workers=2, shards=4) as runner:
            pooled = runner.grade(spec)
            pool = runner._ensure_transport()._pool
            widths = {pool.submit(_kernel_width).result() for _ in range(4)}
        assert widths == {1}
        assert pooled.outcome_digest() == serial.outcome_digest()


def _kernel_width() -> int:
    """Threads per native kernel call in the calling process."""
    from repro.sim.backends._native import native_kernel

    return native_kernel().threads


# ----------------------------------------------------------------------
# store provenance fields
# ----------------------------------------------------------------------
class TestShardRecordProvenance:
    def test_worker_and_attempts_roundtrip(self):
        record = ShardRecord(
            index=1,
            start_cycle=0,
            end_cycle=4,
            num_faults=2,
            fail_cycles=[3, -1],
            vanish_cycles=[-1, 2],
            engine="fused",
            elapsed_s=0.5,
            worker="10.0.0.2:7400",
            attempts=2,
        )
        restored = ShardRecord.from_json_obj(
            __import__("json").loads(record.to_json_line())
        )
        assert restored.worker == "10.0.0.2:7400"
        assert restored.attempts == 2

    def test_old_records_default_provenance(self):
        restored = ShardRecord.from_json_obj(
            {
                "index": 0,
                "start_cycle": 0,
                "end_cycle": 2,
                "num_faults": 1,
                "fail_cycles": [5],
                "vanish_cycles": [-1],
            }
        )
        assert restored.worker == ""
        assert restored.attempts == 1
