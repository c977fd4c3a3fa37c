"""Tests for the TCP worker daemon and the fault-tolerant tcp transport.

Three layers of assurance, all anchored on bit-exactness with the
serial reference path:

* **protocol** — in-thread daemons: digest-first negotiation (cold
  transfer, warm memo, disk-cache survival across a daemon restart),
  ping/status, and protocol errors that must not kill the connection.
* **fleet grading** — real ``repro worker`` subprocesses: a campaign
  fanned across two daemons merges bit-exact with serial and the local
  pool, and the dynamic queue feeds both hosts.
* **fault tolerance** — a worker SIGKILLed mid-shard, a wedged worker
  exceeding ``--shard-timeout``, and a whole fleet dying: lost shards
  re-queue (provenance records the retry), completed shards stay
  checkpointed, and the store resumes on any transport.

The kill tests trigger off the runner's own progress callback (fire
after N completed shards) rather than wall-clock timers, so they stay
deterministic on a loaded machine.
"""

import os
import re
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import CampaignError
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec
from repro.run.store import ResultsStore
from repro.run.transport import wire
from repro.run.transport.daemon import TEST_DELAY_ENV, WorkerDaemon
from repro.run.transport.tcp import TcpTransport, ping_host

SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))

SPEC = CampaignSpec(circuit="b04", technique="mask_scan")


# ----------------------------------------------------------------------
# daemons
# ----------------------------------------------------------------------
@pytest.fixture
def daemon():
    """One in-thread daemon on an ephemeral port."""
    server = WorkerDaemon(port=0, quiet=True)
    port = server.bind()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, f"127.0.0.1:{port}"
    server.shutdown()


def start_worker_process(extra_env=None):
    """A real ``repro worker`` subprocess; returns (proc, host:port)."""
    env = {**os.environ, "PYTHONPATH": SRC_ROOT}
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--listen", "127.0.0.1:0", "--quiet"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    line = proc.stdout.readline()
    match = re.search(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"worker did not announce its port: {line!r}"
    return proc, f"{match.group(1)}:{match.group(2)}"


@pytest.fixture
def worker_fleet():
    """Spawner for subprocess workers, all reaped on exit."""
    procs = []

    def spawn(extra_env=None):
        proc, address = start_worker_process(extra_env)
        procs.append(proc)
        return proc, address

    yield spawn
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


@pytest.fixture(scope="module")
def serial_oracle():
    return CampaignRunner(workers=1).grade(SPEC)


def shard_store(store_root):
    return ResultsStore(os.path.join(str(store_root), SPEC.campaign_id))


# ----------------------------------------------------------------------
# protocol: negotiation, caching, status
# ----------------------------------------------------------------------
class TestDigestNegotiation:
    def test_cold_then_warm_then_restart(
        self, daemon, serial_oracle, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        server, address = daemon

        with CampaignRunner(hosts=address) as runner:
            graded = runner.grade(SPEC)
        assert list(graded.fail_cycles) == list(serial_oracle.fail_cycles)
        assert list(graded.vanish_cycles) == list(serial_oracle.vanish_cycles)
        # Cold daemon + empty wire store: both artifacts were missing
        # and had to cross the wire.
        assert server.stats["digest_misses"] == 2
        shipped = server.stats["artifact_bytes_received"]
        assert shipped > 0

        # Warm daemon, new connection: the scenario memo answers the
        # digests; nothing is re-shipped.
        with CampaignRunner(hosts=address) as runner:
            runner.grade(SPEC)
        assert server.stats["digest_hits"] >= 2
        assert server.stats["artifact_bytes_received"] == shipped

        # "Restarted" daemon sharing the disk cache: the wire store
        # answers the digests, so a fresh process still skips transfer.
        restarted = WorkerDaemon(port=0, quiet=True)
        port = restarted.bind()
        threading.Thread(target=restarted.serve_forever, daemon=True).start()
        try:
            with CampaignRunner(hosts=f"127.0.0.1:{port}") as runner:
                regraded = runner.grade(SPEC)
            assert list(regraded.fail_cycles) == list(serial_oracle.fail_cycles)
            assert restarted.stats["digest_hits"] == 2
            assert restarted.stats["digest_misses"] == 0
            assert restarted.stats["artifact_bytes_received"] == 0
        finally:
            restarted.shutdown()

    def test_corrupt_wire_store_entry_reads_as_miss(
        self, daemon, serial_oracle, tmp_path, monkeypatch
    ):
        """A flipped bit in the on-disk wire store must make the daemon
        re-request the artifact, not grade a poisoned scenario."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        server, address = daemon
        with CampaignRunner(hosts=address) as runner:
            runner.grade(SPEC)

        wire_root = tmp_path / "artifacts" / "wire"
        entries = [p for p in wire_root.rglob("*") if p.is_file()]
        assert len(entries) == 2
        for entry in entries:
            entry.write_bytes(b"corrupted" + entry.read_bytes()[9:])

        fresh = WorkerDaemon(port=0, quiet=True)
        port = fresh.bind()
        threading.Thread(target=fresh.serve_forever, daemon=True).start()
        try:
            with CampaignRunner(hosts=f"127.0.0.1:{port}") as runner:
                regraded = runner.grade(SPEC)
            assert list(regraded.fail_cycles) == list(serial_oracle.fail_cycles)
            # Both corrupted payloads were rejected and re-shipped.
            assert fresh.stats["digest_misses"] == 2
            assert fresh.stats["artifact_bytes_received"] > 0
        finally:
            fresh.shutdown()

    def test_new_seed_reuses_the_parsed_netlist(self, daemon, monkeypatch):
        """Campaigns on one circuit differ in stimulus and faults, never
        in netlist: the daemon parses the shipped netlist once per
        digest and grades every seed bit-exact with the local path."""
        from repro.run.transport import daemon as daemon_module

        parses = []
        parse = daemon_module.loads_netlist

        def counting_parse(text):
            parses.append(len(text))
            return parse(text)

        monkeypatch.setattr(daemon_module, "loads_netlist", counting_parse)
        server, address = daemon
        specs = [
            CampaignSpec("b14", "time_multiplexed", seed=seed, sample=2000)
            for seed in (1, 2)
        ]
        with CampaignRunner(hosts=address) as runner:
            remote = [runner.grade(spec).outcome_digest() for spec in specs]
        local = [
            CampaignRunner(workers=1).grade(spec).outcome_digest()
            for spec in specs
        ]
        assert remote == local
        assert server.stats["campaigns_prepared"] == 2
        assert len(parses) == 1

    def test_records_carry_worker_provenance(self, daemon, tmp_path):
        _, address = daemon
        store_root = tmp_path / "runs"
        with CampaignRunner(hosts=address, store_root=str(store_root)) as runner:
            runner.grade(SPEC)
        records = shard_store(store_root).completed()
        assert records
        assert all(record.worker == address for record in records.values())
        assert all(record.attempts == 1 for record in records.values())

    def test_ping_reports_status(self, daemon):
        server, address = daemon
        host, port = address.rsplit(":", 1)
        status = ping_host((host, int(port)))
        assert status["alive"] is True
        assert status["protocol"] == wire.PROTOCOL_VERSION
        assert status["pid"] == os.getpid()
        assert set(status["kernel"]) == {"native"}
        assert "digest_hits" in status and "shards_graded" in status
        assert status["rtt_ms"] >= 0

    def test_workers_ping_table_names_the_kernel(self, daemon, capsys):
        from repro.run.cli import main
        from repro.sim.backends._native import native_kernel

        _, address = daemon
        assert main(["workers", "ping", "--hosts", address]) == 0
        row = next(
            line for line in capsys.readouterr().out.splitlines()
            if address in line
        )
        kind = "native" if native_kernel() is not None else "python"
        cells = [cell.strip() for cell in row.strip("|").split("|")]
        assert cells[:2] == [address, "up"]
        assert cells[3] == kind

    def test_ping_dead_host(self):
        status = ping_host(("127.0.0.1", 1), timeout=0.5)
        assert status["alive"] is False
        assert "error" in status

    def test_shard_before_prepare_is_error_not_disconnect(self, daemon):
        _, address = daemon
        host, port = address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.settimeout(5)
            wire.send_msg(sock, "shard", {"index": 0, "start_cycle": 0,
                                          "end_cycle": 1})
            kind, header, _ = wire.recv_msg(sock)
            assert kind == "error"
            assert "prepare" in header["message"]
            # The connection survives the error: ping still answers.
            wire.send_msg(sock, "ping")
            kind, _, _ = wire.recv_msg(sock)
            assert kind == "status"

    def test_protocol_version_mismatch_rejected(self, daemon):
        _, address = daemon
        host, port = address.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.settimeout(5)
            wire.send_msg(
                sock,
                "prepare",
                {"protocol": 999, "campaign_id": "x",
                 "netlist_digest": "0", "stimulus_digest": "0"},
            )
            kind, header, _ = wire.recv_msg(sock)
            assert kind == "error"
            assert "version" in header["message"]


# ----------------------------------------------------------------------
# fleet grading (subprocess daemons)
# ----------------------------------------------------------------------
class TestFleetGrading:
    def test_two_workers_bit_exact_with_serial_and_pool(
        self, worker_fleet, serial_oracle
    ):
        """The acceptance invariant: one campaign over two real TCP
        workers == serial == local pool, bit for bit."""
        _, address_a = worker_fleet()
        _, address_b = worker_fleet()

        with CampaignRunner(workers=2, shards=8) as runner:
            pooled = runner.grade(SPEC)
        with CampaignRunner(hosts=f"{address_a},{address_b}", shards=8) as runner:
            fleet = runner.grade(SPEC)

        assert list(fleet.fail_cycles) == list(serial_oracle.fail_cycles)
        assert list(fleet.vanish_cycles) == list(serial_oracle.vanish_cycles)
        assert list(fleet.fail_cycles) == list(pooled.fail_cycles)
        assert list(fleet.vanish_cycles) == list(pooled.vanish_cycles)
        assert fleet.outcome_digest() == serial_oracle.outcome_digest()

    def test_work_is_stolen_dynamically(self, worker_fleet, tmp_path):
        """Both workers contribute: the dynamic queue hands windows to
        whichever worker is idle, so neither host grades everything."""
        _, address_a = worker_fleet({TEST_DELAY_ENV: "0.15"})
        _, address_b = worker_fleet({TEST_DELAY_ENV: "0.15"})
        store_root = tmp_path / "runs"
        with CampaignRunner(
            hosts=f"{address_a},{address_b}",
            shards=8,
            store_root=str(store_root),
        ) as runner:
            runner.grade(SPEC)
        records = shard_store(store_root).completed()
        assert len(records) == 8
        workers_seen = {record.worker for record in records.values()}
        assert workers_seen == {address_a, address_b}


class TestConcurrentClients:
    def test_two_clients_on_one_worker(self, worker_fleet):
        """The daemon grades each connection on its own thread, so two
        clients sharing one worker run the native kernel concurrently.
        Both campaigns must still match their serial digests; a hang
        fails on the join timeout."""
        spec = CampaignSpec(circuit="b14", technique="time_multiplexed")
        serial = CampaignRunner(workers=1).grade(spec).outcome_digest()
        _, address = worker_fleet()
        digests = [None, None]
        errors = []

        def client(index):
            try:
                with CampaignRunner(hosts=address, shards=4) as runner:
                    digests[index] = runner.grade(spec).outcome_digest()
            except Exception as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [
            threading.Thread(target=client, args=(index,), daemon=True)
            for index in range(len(digests))
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 120
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not any(thread.is_alive() for thread in threads), (
            "a client is still waiting on the worker after 120s"
        )
        if errors:
            raise errors[0]
        assert digests == [serial, serial]


# ----------------------------------------------------------------------
# fault tolerance
# ----------------------------------------------------------------------
class TestShardLoss:
    def test_sigkill_mid_campaign_retries_bit_exact(
        self, worker_fleet, serial_oracle, tmp_path
    ):
        """Kill one of two workers mid-shard: its in-flight window is
        re-queued to the survivor, the merge is bit-exact with serial,
        and the store both records the retry and resumes cleanly."""
        # The victim holds each shard 0.8s; the survivor is quick. After
        # the survivor's third completed shard the victim is parked in
        # its first shard's sleep — SIGKILL lands mid-shard by design.
        victim, address_a = worker_fleet({TEST_DELAY_ENV: "0.8"})
        _, address_b = worker_fleet({TEST_DELAY_ENV: "0.05"})
        store_root = tmp_path / "runs"
        completed = []

        def kill_after_three(line):
            if "cycles [" in line:
                completed.append(line)
                if len(completed) == 3 and victim.poll() is None:
                    victim.kill()

        with CampaignRunner(
            hosts=f"{address_a},{address_b}",
            shards=8,
            store_root=str(store_root),
            progress=kill_after_three,
        ) as runner:
            merged = runner.grade(SPEC)

        assert victim.poll() is not None, "victim was never killed"
        assert list(merged.fail_cycles) == list(serial_oracle.fail_cycles)
        assert list(merged.vanish_cycles) == list(serial_oracle.vanish_cycles)

        records = shard_store(store_root).completed()
        assert len(records) == 8
        # The victim's in-flight shard was re-dispatched: provenance
        # shows a second attempt landing on the survivor.
        retried = [r for r in records.values() if r.attempts > 1]
        assert retried, "no shard records a retry"
        assert all(r.worker == address_b for r in retried)

        # The store resumes cleanly on a different transport.
        lines = []
        resumed = CampaignRunner(
            workers=1, store_root=str(store_root), progress=lines.append
        ).grade(SPEC)
        assert list(resumed.fail_cycles) == list(serial_oracle.fail_cycles)
        assert any("resuming: 8/8" in line for line in lines)

    def test_hung_worker_exceeds_shard_timeout(
        self, worker_fleet, serial_oracle
    ):
        """A wedged worker (heartbeating but not finishing) trips the
        per-shard deadline; its window re-queues to the healthy one."""
        _, slow = worker_fleet({TEST_DELAY_ENV: "30"})
        _, fast = worker_fleet()
        with CampaignRunner(
            hosts=f"{slow},{fast}", shards=4, shard_timeout=1.5
        ) as runner:
            started = time.perf_counter()
            merged = runner.grade(SPEC)
            elapsed = time.perf_counter() - started
        assert list(merged.fail_cycles) == list(serial_oracle.fail_cycles)
        assert list(merged.vanish_cycles) == list(serial_oracle.vanish_cycles)
        # Never waited out the 30s wedge — the deadline cut it loose.
        assert elapsed < 20

    def test_whole_fleet_dead_fails_loudly_then_resumes(
        self, worker_fleet, serial_oracle, tmp_path
    ):
        """Every worker dying mid-campaign is a hard error naming the
        situation — but completed shards survive in the store and a
        later run (any transport) picks up where the fleet died."""
        victim, address = worker_fleet({TEST_DELAY_ENV: "0.5"})
        store_root = tmp_path / "runs"

        def kill_after_first(line):
            if "cycles [" in line and victim.poll() is None:
                victim.kill()

        with pytest.raises(CampaignError, match="TCP workers lost"):
            with CampaignRunner(
                hosts=address,
                shards=4,
                store_root=str(store_root),
                progress=kill_after_first,
            ) as runner:
                runner.grade(SPEC)

        store = shard_store(store_root)
        done_before = len(store.completed())
        assert 0 < done_before < 4

        resumed = CampaignRunner(
            workers=1, store_root=str(store_root)
        ).grade(SPEC)
        assert list(resumed.fail_cycles) == list(serial_oracle.fail_cycles)
        assert list(resumed.vanish_cycles) == list(serial_oracle.vanish_cycles)
        assert len(store.completed()) == 4

    def test_unreachable_fleet_raises(self):
        with CampaignRunner(hosts="127.0.0.1:1", shards=2) as runner:
            with pytest.raises(CampaignError, match="workers lost"):
                runner.grade(SPEC)


# ----------------------------------------------------------------------
# b14 at paper scale over a fleet (the acceptance campaign)
# ----------------------------------------------------------------------
class TestPaperScaleFleet:
    def test_b14_exhaustive_two_workers_bit_exact(self, worker_fleet):
        spec = CampaignSpec(circuit="b14", technique="time_multiplexed")
        serial = CampaignRunner(workers=1).grade(spec)
        _, address_a = worker_fleet()
        _, address_b = worker_fleet()
        with CampaignRunner(
            hosts=f"{address_a},{address_b}", shards=8
        ) as runner:
            fleet = runner.grade(spec)
        assert fleet.outcome_digest() == serial.outcome_digest()
        assert list(fleet.fail_cycles) == list(serial.fail_cycles)
        assert list(fleet.vanish_cycles) == list(serial.vanish_cycles)


class TestTcpTransportUnit:
    def test_effective_workers_counts_hosts(self):
        transport = TcpTransport(["a:1", "b:2", "c:3"])
        assert transport.effective_workers() == 3
        assert "3 hosts" in transport.describe()
        transport.close()
