"""Tests for the declarative CampaignSpec."""

import json

import pytest

from repro.errors import CampaignError
from repro.run.spec import CampaignSpec, DEFAULT_CYCLES, PAPER_CYCLES


class TestValidation:
    def test_unknown_technique_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(circuit="b01", technique="psychic")

    def test_unknown_testbench_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(circuit="b01", technique="mask_scan", testbench="tarot")

    def test_unknown_board_rejected(self):
        with pytest.raises(Exception):
            CampaignSpec(circuit="b01", technique="mask_scan", board="ufo")

    def test_bad_counts_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec(circuit="b01", technique="mask_scan", num_cycles=0)
        with pytest.raises(CampaignError):
            CampaignSpec(circuit="b01", technique="mask_scan", sample=0)
        with pytest.raises(CampaignError):
            CampaignSpec(circuit="b01", technique="mask_scan", scan_chains=0)

    def test_program_testbench_is_b14_only(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", testbench="program"
        )
        with pytest.raises(CampaignError):
            spec.build_testbench(spec.build_netlist())


class TestResolution:
    def test_b14_defaults_to_paper_scale(self):
        spec = CampaignSpec(circuit="b14", technique="mask_scan")
        assert spec.resolved_cycles() == PAPER_CYCLES["b14"] == 160
        assert spec.resolved_testbench_kind() == "program"

    def test_other_circuits_default_to_random(self):
        spec = CampaignSpec(circuit="b04", technique="mask_scan")
        assert spec.resolved_cycles() == DEFAULT_CYCLES
        assert spec.resolved_testbench_kind() == "random"

    def test_scenario_shapes(self):
        spec = CampaignSpec(
            circuit="b01", technique="state_scan", num_cycles=12
        )
        scenario = spec.scenario()
        assert scenario.testbench.num_cycles == 12
        assert len(scenario.faults) == scenario.netlist.num_ffs * 12

    def test_sampled_faults_subset_and_sorted(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=16, sample=10
        )
        scenario = spec.scenario()
        assert len(scenario.faults) == 10
        assert scenario.faults == sorted(scenario.faults)


class TestSerialization:
    def test_dict_roundtrip(self):
        spec = CampaignSpec(
            circuit="b09",
            technique="time_multiplexed",
            engine="numpy",
            num_cycles=40,
            testbench="burst",
            seed=3,
            sample=25,
            scan_chains=2,
        )
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_dict_is_json_safe(self):
        spec = CampaignSpec(circuit="b14", technique="mask_scan")
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(CampaignError):
            CampaignSpec.from_dict(
                {"circuit": "b01", "technique": "mask_scan", "warp": 9}
            )


class TestIdentity:
    def test_campaign_id_stable_and_filesystem_safe(self):
        spec = CampaignSpec(circuit="proc:48", technique="mask_scan")
        assert spec.campaign_id == spec.campaign_id
        assert "/" not in spec.campaign_id and ":" not in spec.campaign_id

    def test_techniques_share_an_oracle(self):
        base = CampaignSpec(circuit="b06", technique="mask_scan")
        assert (
            base.campaign_id
            == base.with_technique("time_multiplexed").campaign_id
        )

    def test_different_stimulus_different_oracle(self):
        a = CampaignSpec(circuit="b06", technique="mask_scan", seed=0)
        b = CampaignSpec(circuit="b06", technique="mask_scan", seed=1)
        assert a.campaign_id != b.campaign_id


class TestFaultModelField:
    def test_unknown_fault_model_rejected(self):
        with pytest.raises(CampaignError, match="fault model"):
            CampaignSpec(circuit="b01", technique="mask_scan", fault_model="prayer")

    def test_unknown_sampling_rejected(self):
        with pytest.raises(CampaignError, match="sampling"):
            CampaignSpec(circuit="b01", technique="mask_scan", sampling="vibes")

    def test_default_model_is_seu(self):
        spec = CampaignSpec(circuit="b01", technique="mask_scan")
        assert spec.fault_model == "seu"
        assert spec.fault_model_obj().transient

    def test_fault_model_changes_oracle_identity(self):
        seu = CampaignSpec(circuit="b06", technique="mask_scan")
        stuck = CampaignSpec(
            circuit="b06", technique="mask_scan", fault_model="stuck_at_0"
        )
        assert seu.campaign_id != stuck.campaign_id
        assert seu.oracle_key()["fault_model"] == "seu"
        assert stuck.oracle_key()["fault_model"] == "stuck_at_0"

    def test_sampling_method_changes_oracle_identity(self):
        uniform = CampaignSpec(
            circuit="b06", technique="mask_scan", sample=20
        )
        stratified = CampaignSpec(
            circuit="b06", technique="mask_scan", sample=20,
            sampling="stratified",
        )
        assert uniform.campaign_id != stratified.campaign_id

    def test_model_population_flows_into_scenario(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=10,
            fault_model="stuck_at_1",
        )
        scenario = spec.scenario()
        assert len(scenario.faults) == scenario.netlist.num_ffs * 10
        assert all(fault.persistent for fault in scenario.faults)
        assert all(fault.value == 1 for fault in scenario.faults)

    def test_stratified_sample_covers_flops(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", num_cycles=20,
            sample=10, sampling="stratified",
        )
        scenario = spec.scenario()
        flops = {fault.flop_index for fault in scenario.faults}
        assert len(flops) >= min(10, scenario.netlist.num_ffs)

    def test_fault_key_contents(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan", sample=50, seed=3,
            fault_model="mbu:2", sampling="stratified",
        )
        assert spec.fault_key() == {
            "fault_model": "mbu:2",
            "sampling": "stratified",
            "sample": 50,
            "seed": 3,
        }

    def test_roundtrip_with_new_fields(self):
        spec = CampaignSpec(
            circuit="b01", technique="mask_scan",
            fault_model="intermittent:6:2", sampling="stratified", sample=9,
        )
        assert CampaignSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        ) == spec

    def test_old_spec_dicts_still_load(self):
        """Spec dicts persisted before the fault-model fields existed
        must resolve to the SEU defaults."""
        spec = CampaignSpec.from_dict(
            {"circuit": "b01", "technique": "mask_scan", "sample": 5}
        )
        assert spec.fault_model == "seu"
        assert spec.sampling == "uniform"


class TestMatrix:
    def test_full_expansion(self):
        specs = CampaignSpec.matrix(
            circuits=["b01", "b02"],
            techniques=["mask_scan", "state_scan"],
            engines=["numpy", "fused"],
            num_cycles=8,
        )
        assert len(specs) == 8
        assert len({spec.campaign_id for spec in specs}) == 2  # per circuit
        assert all(spec.num_cycles == 8 for spec in specs)

    def test_defaults_cover_all_techniques(self):
        from repro.emu.instrument import TECHNIQUES

        specs = CampaignSpec.matrix(circuits=["b01"])
        assert [spec.technique for spec in specs] == list(TECHNIQUES)
