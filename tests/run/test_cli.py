"""Tests for the ``python -m repro`` command line."""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.run.bench import expected_fused_us, scaling_gate
from repro.run.cli import main
from repro.sim.backends import available_engines
from repro.sim.backends._native import native_kernel


class TestRun:
    def test_run_prints_summary_and_persists(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--circuit", "b04",
                "--technique", "time_multiplexed",
                "--cycles", "16",
                "--store", str(tmp_path),
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "time_multiplexed on b04" in out
        assert "us/fault" in out
        stores = list(tmp_path.iterdir())
        assert len(stores) == 1
        assert (stores[0] / "shards.jsonl").exists()

    def test_run_resumes_from_store(self, tmp_path, capsys):
        args = [
            "run",
            "--circuit", "b01",
            "--technique", "mask_scan",
            "--cycles", "12",
            "--store", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "resuming" in capsys.readouterr().out

    def test_run_json_record(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--circuit", "b01",
                "--technique", "mask_scan",
                "--cycles", "10",
                "--no-store",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # stdout is exactly one JSON document; the summary and the
        # per-shard progress lines go to stderr
        payload = json.loads(captured.out)
        assert "wall clock" in captured.err
        assert "cycles [" in captured.err
        assert payload["spec"]["circuit"] == "b01"
        assert payload["total_cycles"] > 0
        assert set(payload["classification"]) == {
            "failure", "latent", "silent"
        }

    def test_unknown_circuit_is_an_error_not_a_traceback(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b99",
                "--technique", "mask_scan",
                "--no-store", "--quiet",
            ]
        )
        assert code == 1
        assert "unknown circuit" in capsys.readouterr().err


class TestFaultModelFlags:
    def test_stuck_at_sampled_run_reports_intervals_and_resumes(
        self, tmp_path, capsys
    ):
        args = [
            "run",
            "--circuit", "b04",
            "--technique", "time_multiplexed",
            "--fault-model", "stuck_at_1",
            "--sample", "60",
            "--cycles", "16",
            "--store", str(tmp_path),
            "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "sampled 60/" in out
        for fault_class in ("failure", "latent", "silent"):
            assert fault_class in out
        assert "%" in out and "[" in out  # interval rendering
        # rerun resumes the same store rather than regrading
        assert main(args[:-1]) == 0  # drop --quiet to see shard lines
        assert "resuming" in capsys.readouterr().out

    def test_mbu_run_smoke(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b06",
                "--technique", "mask_scan",
                "--fault-model", "mbu:2",
                "--cycles", "10",
                "--no-store", "--quiet",
            ]
        )
        assert code == 0
        assert "mask_scan on b06" in capsys.readouterr().out

    def test_stratified_sampling_flag(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b06",
                "--technique", "mask_scan",
                "--sample", "40",
                "--sampling", "stratified",
                "--cycles", "12",
                "--no-store", "--quiet",
            ]
        )
        assert code == 0
        assert "stratified" in capsys.readouterr().out

    def test_adaptive_ci_target(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b01",
                "--technique", "mask_scan",
                "--cycles", "16",
                "--sample", "8",
                "--ci-target", "0.3",
                "--ci-method", "clopper_pearson",
                "--no-store", "--quiet",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "adaptive: target half-width" in captured.err
        payload = json.loads(captured.out)
        assert payload["adaptive_rounds"]
        assert payload["estimates"]["failure"]["method"] == "clopper_pearson"

    def test_unknown_fault_model_is_an_error_not_a_traceback(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b01",
                "--fault-model", "gremlins",
                "--no-store", "--quiet",
            ]
        )
        assert code == 1
        assert "unknown fault model" in capsys.readouterr().err


class TestSamplingError:
    def test_sampling_error_table(self, capsys):
        code = main(
            [
                "sampling-error",
                "--circuits", "b01",
                "--samples", "20",
                "--cycles", "16",
                "--no-store", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sampling error" in out
        assert "exhaustive" in out and "covered" in out
        assert "interval coverage" in out


class TestSweep:
    def test_sweep_renders_all_techniques(self, capsys):
        code = main(
            [
                "sweep",
                "--circuits", "b01", "b06",
                "--cycles", "12",
                "--no-store",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Sweep — ") == 2
        for technique in ("mask_scan", "state_scan", "time_multiplexed"):
            assert technique in out

    def test_multi_engine_sweep_disables_store(self, tmp_path, capsys):
        """With a store, a second engine would 'resume' from the first
        engine's shards and never grade; multi-engine sweeps grade
        fresh instead."""
        code = main(
            [
                "sweep",
                "--circuits", "b01",
                "--engines", "fused", "numpy",
                "--cycles", "8",
                "--store", str(tmp_path),
                "--quiet",
            ]
        )
        assert code == 0
        assert "store disabled" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_b14_paper_reference_only_at_paper_scale(self, capsys):
        code = main(
            [
                "sweep",
                "--circuits", "b01",
                "--cycles", "8",
                "--no-store", "--quiet",
            ]
        )
        assert code == 0
        assert "paper reference" not in capsys.readouterr().out


class TestReport:
    def test_report_small_circuit(self, capsys):
        code = main(
            [
                "report",
                "--circuit", "b03",
                "--cycles", "12",
                "--no-crossover",
                "--no-store",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "Fault classification" in out
        assert "fastest technique on b03" in out


#: a campaign whose serial fused grade takes a few hundred microseconds:
#: large enough for a steady best-of timing, small enough for Tier-1
BENCH_SPEC = ["--circuit", "b04", "--cycles", "40"]
DIGEST = re.compile(r"\b[0-9a-f]{32}\b")
SRC_ROOT = os.path.dirname(os.path.dirname(repro.__file__))
#: --check gates the native kernel and refuses to run without it
needs_kernel = pytest.mark.skipif(
    native_kernel() is None,
    reason="native kernel unavailable (no C compiler or REPRO_FUSED_NATIVE=0)",
)


def bench(*extra):
    return main(["bench", *BENCH_SPEC, "--workers", "1", *extra])


class TestBench:
    def test_bench_quick_single_worker(self, tmp_path, capsys):
        json_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--circuit", "b01",
                "--cycles", "12",
                "--workers", "1",
                "--repeats", "1",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runner workers=1" in out and "fused" in out
        (entry,) = json.loads(json_path.read_text())["history"]
        assert entry["runner_workers"] == [1]
        assert set(entry["sharded_runner"]) == {"workers=1"}
        assert entry["circuit"] == "b01" and entry["num_cycles"] == 12

    def test_json_appends_and_keeps_earlier_entries(self, tmp_path, capsys):
        path = tmp_path / "history.json"
        assert bench("--repeats", "1", "--json", str(path)) == 0
        first = json.loads(path.read_text())["history"][0]
        assert bench("--repeats", "1", "--json", str(path)) == 0
        history = json.loads(path.read_text())["history"]
        assert len(history) == 2
        assert history[0] == first
        assert set(first) == {
            "timestamp", "machine", "python", "kernel", "circuit",
            "num_faults", "num_cycles", "default_backend",
            "fused_us_per_fault", "backends", "backends_seconds",
            "sharded_runner", "runner_shards", "runner_workers",
        }
        assert set(first["backends"]) == set(available_engines())

    def test_engine_and_runner_rows_share_one_digest(self, capsys):
        assert main(["bench", *BENCH_SPEC, "--workers", "1", "2",
                     "--repeats", "1"]) == 0
        digests = DIGEST.findall(capsys.readouterr().out)
        # one per engine row, one per runner row, one in the summary line
        assert len(digests) == len(available_engines()) + 2 + 1
        assert len(set(digests)) == 1

    @needs_kernel
    def test_check_passes_against_a_fresh_baseline(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        for _ in range(3):
            assert bench("--repeats", "5", "--json", str(path)) == 0
        # One best-of-5 run can land lucky-low and fail every try below;
        # the median of three runs is the one entry the gate reads.
        payload = json.loads(path.read_text())
        runs = sorted(payload["history"], key=lambda e: e["fused_us_per_fault"])
        payload["history"] = [runs[1]]
        path.write_text(json.dumps(payload))
        before = path.read_text()
        # Same-host timings are absolute, so a burst of load from other
        # processes can slow one run; the gate must pass on one of a few
        # back-to-back runs, and never writes the baseline.
        codes = []
        for _ in range(3):
            codes.append(bench("--repeats", "5", "--check", str(path)))
            if codes[-1] == 0:
                break
        assert codes[-1] == 0, codes
        assert "regression gate" in capsys.readouterr().out
        assert path.read_text() == before

    @needs_kernel
    def test_check_fails_a_hundredfold_regression(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        assert bench("--repeats", "1", "--json", str(path)) == 0
        payload = json.loads(path.read_text())
        payload["history"][-1]["fused_us_per_fault"] /= 100
        path.write_text(json.dumps(payload))
        assert bench("--repeats", "1", "--check", str(path)) == 1
        captured = capsys.readouterr()
        assert "best prior entry for this machine" in captured.err
        assert "FAIL" in captured.err

    def test_check_refuses_another_campaign(self, tmp_path, capsys):
        path = tmp_path / "baseline.json"
        assert bench("--repeats", "1", "--json", str(path)) == 0
        capsys.readouterr()
        code = main(["bench", "--circuit", "b04", "--cycles", "41",
                     "--workers", "1", "--repeats", "1", "--check", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "'num_cycles': 40" in err and "'num_cycles': 41" in err

    def test_check_refuses_a_run_without_the_kernel(self, tmp_path):
        path = tmp_path / "baseline.json"
        assert bench("--repeats", "1", "--json", str(path)) == 0
        probe = subprocess.run(
            [sys.executable, "-m", "repro", "bench", *BENCH_SPEC,
             "--workers", "1", "--repeats", "1", "--check", str(path)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": SRC_ROOT,
                 "REPRO_FUSED_NATIVE": "0"},
        )
        assert probe.returncode == 1
        assert "native kernel" in probe.stderr

    def test_check_scales_another_machines_baseline_by_bigint(self):
        history = [{
            "machine": {"arch": "other"}, "kernel": {"native": True},
            "fused_us_per_fault": 2.0, "backends": {"bigint": 10.0},
        }]
        entry = {
            "machine": {"arch": "here"}, "circuit": "b14",
            "num_faults": 1, "num_cycles": 1, "backends": {"bigint": 20.0},
        }
        expected, basis = expected_fused_us(history, entry)
        assert expected == pytest.approx(4.0)
        assert "bigint ratio 2.00" in basis

    @pytest.mark.parametrize(
        "cpus, workers2, passed",
        [(2, 1.0, True), (2, 1.01, False), (1, 1.10, True), (1, 1.11, False)],
    )
    def test_scaling_gate_decision(self, cpus, workers2, passed):
        ratio, limit = scaling_gate({1: 1.0, 2: workers2}, cpus)
        assert ratio == pytest.approx(workers2)
        assert limit == pytest.approx(1.0 if cpus >= 2 else 1.10)
        assert (ratio <= limit) is passed

    def test_scaling_gate_needs_workers_one_and_two(self):
        assert scaling_gate({1: 1.0, 4: 0.5}, cpus=4) is None

    def test_cli_import_leaves_bench_module_unloaded(self):
        """`repro serve` starts through repro.run.cli, so the bench
        module must stay out of the CLI's import cost."""
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.run.cli; "
             "print('repro.run.bench' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": SRC_ROOT},
        )
        assert probe.stdout.strip() == "False"


class TestHelpText:
    def test_workers_ping_help_documents_contract(self, capsys):
        """`workers ping --help` must spell out the exit-code contract
        and the --json schema — fleet scripts are written against it."""
        with pytest.raises(SystemExit) as excinfo:
            main(["workers", "ping", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out
        assert "every probed worker answered" in out
        assert "at least one worker was unreachable" in out
        for key in ("alive", "rtt_ms", "protocol", "uptime_s",
                    "campaigns_cached", "shards_graded"):
            assert key in out, f"--json schema key {key!r} missing from help"

    def test_serve_rejects_no_store(self, capsys):
        code = main(["serve", "--no-store"])
        assert code == 1
        assert "--no-store" in capsys.readouterr().err
