"""Hardened circuits through the registry, specs, runner, store and CLI.

The acceptance surface of the hardening subsystem: ``hardened:<scheme>:
<base>`` composes with every circuit family and the whole campaign
machinery — sharded runner, resume, adaptive sampling — under campaign
ids distinct from the unhardened base.
"""

import json

import pytest

from repro.circuits.registry import build_circuit
from repro.errors import HardeningError
from repro.run.cli import main
from repro.run.runner import CampaignRunner
from repro.run.spec import CampaignSpec


class TestRegistryComposition:
    def test_hardened_builtin(self):
        plain = build_circuit("b02")
        hardened = build_circuit("hardened:tmr:b02")
        assert hardened.num_ffs == 3 * plain.num_ffs
        assert hardened.name == "b02~tmr"

    def test_hardened_corpus(self):
        plain = build_circuit("corpus:s27")
        hardened = build_circuit("hardened:dwc:corpus:s27")
        assert hardened.num_ffs == 2 * plain.num_ffs
        assert hardened.outputs[-1] == "dwc_err"

    def test_hardened_proc(self):
        plain = build_circuit("proc:16")
        hardened = build_circuit("hardened:parity:proc:16")
        assert hardened.num_ffs == plain.num_ffs + 1

    def test_hardened_file(self, tmp_path):
        from repro.netlist.textio import dumps_netlist

        path = tmp_path / "c.bnet"
        path.write_text(dumps_netlist(build_circuit("b01")))
        hardened = build_circuit(f"hardened:tmr:file:{path}")
        assert hardened.num_ffs == 3 * build_circuit("b01").num_ffs


class TestSpecComposition:
    def test_both_spellings_are_one_spec(self):
        by_name = CampaignSpec(circuit="hardened:tmr:b04", technique="mask_scan")
        by_field = CampaignSpec(
            circuit="b04", technique="mask_scan", hardening="tmr"
        )
        assert by_name == by_field
        assert by_name.campaign_id == by_field.campaign_id
        assert by_name.effective_circuit == "hardened:tmr:b04"

    def test_campaign_id_distinct_from_plain(self):
        plain = CampaignSpec(circuit="b04", technique="mask_scan")
        schemes = ("tmr", "tmr_unvoted", "dwc", "parity")
        ids = {plain.campaign_id}
        for scheme in schemes:
            ids.add(plain.with_hardening(scheme).campaign_id)
        assert len(ids) == len(schemes) + 1

    def test_oracle_and_fault_keys_carry_hardening(self):
        spec = CampaignSpec(circuit="b04", technique="mask_scan", hardening="tmr")
        assert spec.oracle_key()["hardening"] == "tmr"
        assert spec.fault_key()["hardening"] == "tmr"
        plain = CampaignSpec(circuit="b04", technique="mask_scan")
        assert "hardening" not in plain.oracle_key()
        assert "hardening" not in plain.fault_key()

    def test_round_trip_and_matrix(self):
        spec = CampaignSpec(circuit="hardened:tmr:b02", technique="mask_scan")
        assert CampaignSpec.from_dict(spec.to_dict()) == spec
        specs = CampaignSpec.matrix(
            circuits=["b02"], techniques=["mask_scan"], hardening="dwc"
        )
        assert all(s.hardening == "dwc" for s in specs)

    def test_set_hardening_composes_over_hardened_circuit(self):
        # A set scheme means the fields describe the *outermost* layer;
        # the hardened: circuit name is the (nested) base underneath.
        spec = CampaignSpec(
            circuit="hardened:tmr:b02",
            technique="mask_scan",
            hardening="dwc",
        )
        assert spec.circuit == "hardened:tmr:b02"
        assert spec.hardening == "dwc"
        assert spec.effective_circuit == "hardened:dwc:hardened:tmr:b02"
        # idempotent under round-trips — re-normalising changes nothing
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_conflicting_flop_subsets_rejected(self):
        with pytest.raises(Exception, match="pick one spelling"):
            CampaignSpec(
                circuit="hardened:tmr@ff$rmax[0]:b04",
                technique="mask_scan",
                hardening_flops=["ff$rmax[1]"],
            )

    def test_flops_without_scheme_rejected(self):
        with pytest.raises(Exception, match="no hardening scheme"):
            CampaignSpec(
                circuit="b04",
                technique="mask_scan",
                hardening_flops=["ff$rmax[0]"],
            )

    def test_population_counts_hardened_flops(self):
        spec = CampaignSpec(
            circuit="b02", technique="mask_scan", num_cycles=10, hardening="tmr"
        )
        netlist = spec.build_netlist()
        assert spec.population_size(netlist) == netlist.num_ffs * 10
        assert netlist.num_ffs == 3 * build_circuit("b02").num_ffs

    def test_imported_testbench_kind_survives_hardening(self):
        spec = CampaignSpec(
            circuit="hardened:tmr:corpus:s27", technique="mask_scan"
        )
        assert spec.is_imported()
        assert spec.resolved_testbench_kind() == "imported"
        assert spec.circuit_digest() is not None


class TestSubsetSpecs:
    """The ``hardened:<scheme>@<flop>+<flop>:<base>`` subset grammar:
    registry construction, spec identity and store separation."""

    def test_registry_builds_subset(self):
        plain = build_circuit("b02")
        subset = build_circuit("hardened:tmr@ff$phase[0]+ff$shift[1]:b02")
        # TMR adds two copies per protected flop only
        assert subset.num_ffs == plain.num_ffs + 4

    def test_subset_order_is_canonical(self):
        forward = CampaignSpec(
            circuit="hardened:tmr@ff$phase[0]+ff$shift[1]:b02",
            technique="mask_scan",
        )
        backward = CampaignSpec(
            circuit="hardened:tmr@ff$shift[1]+ff$phase[0]:b02",
            technique="mask_scan",
        )
        assert forward == backward
        assert forward.campaign_id == backward.campaign_id

    def test_subset_ids_distinct_per_subset(self):
        def spec_for(circuit):
            return CampaignSpec(circuit=circuit, technique="mask_scan")

        ids = {
            spec_for("b02").campaign_id,
            spec_for("hardened:tmr:b02").campaign_id,
            spec_for("hardened:tmr@ff$phase[0]:b02").campaign_id,
            spec_for("hardened:tmr@ff$shift[0]:b02").campaign_id,
            spec_for(
                "hardened:tmr@ff$phase[0]+ff$shift[0]:b02"
            ).campaign_id,
        }
        assert len(ids) == 5

    def test_subset_in_oracle_key_only_when_set(self):
        subset = CampaignSpec(
            circuit="hardened:tmr@ff$phase[0]:b02", technique="mask_scan"
        )
        assert subset.oracle_key()["hardening_flops"] == ["ff$phase[0]"]
        full = CampaignSpec(
            circuit="hardened:tmr:b02", technique="mask_scan"
        )
        assert "hardening_flops" not in full.oracle_key()

    def test_nested_layers_compose(self):
        spec = CampaignSpec(
            circuit="hardened:parity@ff$shift[0]:b02",
            technique="mask_scan",
            hardening="tmr",
            hardening_flops=["ff$phase[0]"],
        )
        assert spec.base_circuit == "b02"
        assert (
            spec.effective_circuit
            == "hardened:tmr@ff$phase[0]:hardened:parity@ff$shift[0]:b02"
        )
        netlist = spec.build_netlist()
        # parity adds one stored bit, tmr adds two copies of one flop
        assert netlist.num_ffs == build_circuit("b02").num_ffs + 3

    def test_subset_store_resume_and_separation(self, tmp_path):
        lines = []
        subset = CampaignSpec(
            circuit="hardened:tmr@ff$phase[0]:b02",
            technique="mask_scan",
            num_cycles=12,
        )
        edited = CampaignSpec(
            circuit="hardened:tmr@ff$phase[0]+ff$shift[0]:b02",
            technique="mask_scan",
            num_cycles=12,
        )
        runner = CampaignRunner(store_root=str(tmp_path), progress=lines.append)
        first = runner.grade(subset)
        assert subset.campaign_id.startswith("hardened-tmr-1ff-b02-")
        assert (tmp_path / subset.campaign_id / "shards.jsonl").exists()
        lines.clear()
        resumed = runner.grade(subset)
        assert any("resuming" in line for line in lines)
        assert list(resumed.fail_cycles) == list(first.fail_cycles)
        # an edited subset is a different campaign: fresh store, full
        # regrade, no resume from the old one
        lines.clear()
        runner.grade(edited)
        assert edited.campaign_id != subset.campaign_id
        assert (tmp_path / edited.campaign_id / "shards.jsonl").exists()
        assert not any("resuming" in line for line in lines)


class TestRunnerAndStore:
    def test_sharded_pool_matches_serial(self):
        spec = CampaignSpec(
            circuit="hardened:tmr:b04",
            technique="time_multiplexed",
            num_cycles=16,
        )
        serial = CampaignRunner(workers=1).grade(spec)
        pooled = CampaignRunner(workers=2, shards=4).grade(spec)
        assert list(serial.fail_cycles) == list(pooled.fail_cycles)
        assert list(serial.vanish_cycles) == list(pooled.vanish_cycles)

    def test_store_resume_under_hardened_id(self, tmp_path):
        lines = []
        spec = CampaignSpec(
            circuit="hardened:dwc:b02", technique="mask_scan", num_cycles=12
        )
        runner = CampaignRunner(store_root=str(tmp_path), progress=lines.append)
        first = runner.grade(spec)
        assert (tmp_path / spec.campaign_id / "shards.jsonl").exists()
        assert spec.campaign_id.startswith("hardened-dwc-b02-")
        lines.clear()
        resumed = runner.grade(spec)
        assert any("resuming" in line for line in lines)
        assert list(resumed.fail_cycles) == list(first.fail_cycles)

    def test_adaptive_campaign_on_hardened_circuit(self):
        spec = CampaignSpec(
            circuit="hardened:parity:b02", technique="mask_scan", num_cycles=16
        )
        adaptive = CampaignRunner().run_adaptive(spec, target_half_width=0.25)
        assert adaptive.estimates
        assert adaptive.rounds

    def test_sampled_stratified_campaign(self):
        spec = CampaignSpec(
            circuit="hardened:tmr:b02",
            technique="mask_scan",
            num_cycles=16,
            sample=40,
            sampling="stratified",
        )
        oracle = CampaignRunner().grade(spec)
        assert oracle.num_faults == 40


class TestCli:
    def test_run_with_hardening_flag(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b02",
                "--hardening", "tmr",
                "--cycles", "12",
                "--no-store",
                "--quiet",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["hardening"] == "tmr"
        assert payload["spec"]["circuit"] == "b02"
        assert payload["campaign_id"].startswith("hardened-tmr-b02-")

    def test_run_with_hardening_flops_flag(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "b02",
                "--hardening", "tmr",
                "--hardening-flops", "ff$phase[0]+ff$shift[1]",
                "--cycles", "12",
                "--no-store",
                "--quiet",
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["spec"]["hardening_flops"] == [
            "ff$phase[0]", "ff$shift[1]"
        ]
        assert payload["campaign_id"].startswith("hardened-tmr-2ff-b02-")

    def test_run_with_hardened_circuit_name(self, capsys):
        code = main(
            [
                "run",
                "--circuit", "hardened:dwc:b02",
                "--cycles", "12",
                "--no-store",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "b02~dwc" in out

    def test_harden_subcommand_writes_netlist(self, tmp_path, capsys):
        from repro.netlist.textio import netlist_from_file

        out_path = tmp_path / "hardened.bnet"
        code = main(
            [
                "harden",
                "--circuit", "b02",
                "--scheme", "tmr",
                "-o", str(out_path),
            ]
        )
        assert code == 0
        assert "200% FFs" in capsys.readouterr().out
        reloaded = netlist_from_file(out_path)
        assert reloaded.num_ffs == 3 * build_circuit("b02").num_ffs

    def test_harden_subcommand_json(self, capsys):
        code = main(["harden", "--circuit", "b02", "--scheme", "parity", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flops"]["hardened"] == payload["flops"]["plain"] + 1

    def test_harden_rejects_unknown_scheme_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["harden", "--circuit", "b02", "--scheme", "bogus"])

    def test_report_hardness(self, capsys):
        code = main(
            [
                "report",
                "--hardness",
                "--circuit", "b02",
                "--cycles", "16",
                "--schemes", "tmr",
                "--fault-models", "seu",
                "--no-store",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Hardness evaluation — b02" in out
        assert "hardened:tmr" in out
        assert "removes 100.0% of the plain seu failure rate" in out

    def test_sweep_hardened_circuit(self, capsys):
        code = main(
            [
                "sweep",
                "--circuits", "hardened:tmr:b02",
                "--techniques", "mask_scan",
                "--cycles", "12",
                "--no-store",
                "--quiet",
                "--workers", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Sweep — hardened:tmr:b02" in out


def test_malformed_hardened_name_raises_clear_error():
    for name, fragment in (
        ("hardened:bogus:b04", "bogus"),
        ("hardened:tmr", "malformed"),
        ("hardened::b04", "malformed"),
        ("hardened:tmr:", "malformed"),
    ):
        with pytest.raises(HardeningError, match=fragment):
            build_circuit(name)
