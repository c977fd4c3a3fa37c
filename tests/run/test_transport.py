"""Tests for the shard-transport layer: wire protocol, registry, and
the serial/local transports' dynamic-queue contract.

The load-bearing properties: frames round-trip bit-exactly, a scenario
rebuilt from wire artifacts is *identical* to the client-side build
(same faults, same order — the distributed merge invariant), and every
transport produces records the runner merges into the serial result.
"""

import os
import socket
import sys
import threading
import time

import pytest

from repro.errors import CampaignError
from repro.run.runner import CampaignRunner, plan_windows
from repro.run.spec import CampaignSpec, scenario_from_wire
from repro.run.store import ResultsStore, ShardRecord
from repro.run.transport import (
    available_transports,
    create_transport,
    register_transport,
)
from repro.run.transport import wire
from repro.run.transport.base import ShardTransport
from repro.run.transport.local import LocalPoolTransport, SerialTransport
from repro.netlist.textio import dumps_netlist, loads_netlist
from repro.sim.backends import get_engine
from repro.sim.backends._native import native_kernel

#: seconds a blocked shard thread waits before the test fails instead
JOIN_TIMEOUT_S = 30.0


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

    def test_kernel_grades_on_several_threads_in_this_process(
        self, monkeypatch
    ):
        """With the kernel, shard windows grade in this process, at
        least two at once, and merge bit-exact with serial."""
        if native_kernel() is None:
            pytest.skip("native kernel unavailable")
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        serial = CampaignRunner(workers=1).grade(spec)
        # the first two windows wait for each other: one thread alone
        # would break the barrier instead of passing it
        meet = threading.Barrier(2, timeout=JOIN_TIMEOUT_S)
        calls = record_grade_calls(
            monkeypatch, before=lambda index: index < 2 and meet.wait()
        )
        with CampaignRunner(workers=2, shards=8) as runner:
            pooled = runner.grade(spec)
        assert {pid for pid, _, _ in calls} == {os.getpid()}
        assert len({thread for _, thread, _ in calls}) >= 2
        assert pooled.outcome_digest() == serial.outcome_digest()

    def test_no_kernel_grades_on_one_thread(self, monkeypatch):
        """Without the kernel fused grades on bigint, which holds the
        GIL: the pool runs one thread, still in this process, and the
        shard plan still counts every worker."""
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        serial = CampaignRunner(workers=1).grade(spec)
        monkeypatch.setattr(
            "repro.sim.backends._native.native_kernel", lambda: None
        )
        monkeypatch.setattr(
            "repro.sim.backends.fused.native_kernel", lambda: None
        )
        calls = record_grade_calls(monkeypatch)
        with CampaignRunner(workers=2, shards=8) as runner:
            assert len(runner.plan(spec)) == 8
            pooled = runner.grade(spec)
        assert get_engine("fused").last_stats["native"] is False
        assert len(calls) == 8
        assert {pid for pid, _, _ in calls} == {os.getpid()}
        assert len({thread for _, thread, _ in calls}) == 1
        assert pooled.outcome_digest() == serial.outcome_digest()

    def test_more_threads_than_cores_on_a_short_switch_interval(self):
        """Shard threads share the session caches: four of them,
        switching every microsecond, over two campaigns graded in turn,
        stay bit-exact with serial."""
        if native_kernel() is None:
            pytest.skip("native kernel unavailable")
        specs = [
            CampaignSpec(circuit="b04", technique="mask_scan"),
            CampaignSpec(circuit="b06", technique="state_scan"),
        ]
        serial = [CampaignRunner(workers=1).grade(s).outcome_digest()
                  for s in specs]
        digests = []

        def grade_in_turn():
            with CampaignRunner(workers=4, shards=16) as runner:
                for _ in range(3):
                    digests.extend(
                        runner.grade(s).outcome_digest() for s in specs
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            grader = threading.Thread(target=grade_in_turn, daemon=True)
            grader.start()
            grader.join(JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not grader.is_alive()
        assert digests == serial * 3

    def test_failing_window_surfaces_and_the_pool_survives(
        self, monkeypatch
    ):
        """A shard that raises reaches the caller as itself; queued
        windows are dropped, the same runner grades on, and close()
        does not wait for the abandoned plan."""
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        other = CampaignSpec(circuit="b06", technique="state_scan")
        serial = CampaignRunner(workers=1).grade(other)

        def fail_first(index):
            if not failed:
                failed.append(index)
                raise ShardBoom(f"window {index}")

        failed = []
        calls = record_grade_calls(monkeypatch, before=fail_first)
        runner = CampaignRunner(workers=2, shards=12)
        with pytest.raises(ShardBoom):
            runner.grade(spec)
        # 12 windows, at most 2 x workers ever submitted before the error
        assert len(calls) <= 4
        assert runner.grade(other).outcome_digest() == serial.outcome_digest()
        started = time.perf_counter()
        runner.close()
        assert time.perf_counter() - started < JOIN_TIMEOUT_S

    def test_cancel_between_shards_keeps_yielded_shards_only(
        self, tmp_path, monkeypatch
    ):
        """An on_shard callback that raises after the first shard: the
        store holds that shard alone, windows not yet started are
        cancelled before the error surfaces, and a resume finishes with
        the serial digest."""
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        serial = CampaignRunner(workers=1).grade(spec)
        release = threading.Event()
        # window 0 returns at once; every other window holds its thread
        # until released, so the rest of the plan is still queued
        record_grade_calls(
            monkeypatch,
            before=lambda index: index and release.wait(JOIN_TIMEOUT_S),
        )

        def cancel(record, done, total):
            raise ShardBoom("cancelled")

        runner = CampaignRunner(
            workers=2, shards=8, store_root=str(tmp_path), on_shard=cancel
        )
        submitted = []
        pool = runner._ensure_transport()._ensure_pool()
        submit = pool.submit

        def recording_submit(*args):
            future = submit(*args)
            submitted.append(future)
            return future

        monkeypatch.setattr(pool, "submit", recording_submit)
        try:
            with pytest.raises(ShardBoom):
                runner.grade(spec)
            queued = [
                future for future in submitted
                if not future.running() and not future.done()
            ]
            assert queued == []
            assert any(future.cancelled() for future in submitted)
        finally:
            release.set()
            runner.close()
        store = ResultsStore.open(
            str(tmp_path), spec.oracle_key(), spec.campaign_id,
            [(w.start_cycle, w.end_cycle) for w in plan_windows(
                spec.resolved_cycles(), 8)],
            fault_key=spec.fault_key(),
        )
        assert len(store.completed()) == 1
        with CampaignRunner(
            workers=2, shards=8, store_root=str(tmp_path)
        ) as resumed:
            assert resumed.grade(spec).outcome_digest() == (
                serial.outcome_digest()
            )


class ShardBoom(RuntimeError):
    """A failure raised from inside one shard grade (or a callback)."""


def record_grade_calls(monkeypatch, before=None) -> list:
    """Wrap ``worker.grade_window``; each call appends ``(pid, thread,
    window index)`` and runs ``before(index)`` ahead of the grade."""
    from repro.run import worker

    calls = []
    grade = worker.grade_window

    def recording(spec_dict, index, start_cycle, end_cycle):
        calls.append((os.getpid(), threading.get_ident(), index))
        if before is not None:
            before(index)
        return grade(spec_dict, index, start_cycle, end_cycle)

    monkeypatch.setattr(worker, "grade_window", recording)
    return calls


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
