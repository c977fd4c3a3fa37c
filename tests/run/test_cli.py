"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.run.cli import main


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
        assert "Sharded runner" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["rows"][0]["workers"] == 1


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
