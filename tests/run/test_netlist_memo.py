"""The per-process netlist memo behind ``CampaignSpec.build_netlist``.

Campaigns on one circuit share a single built netlist, keyed by the
seed-independent part of the oracle identity (circuit, hardening, flop
subset, file digest). Sharing is only sound while nothing on the
campaign path edits that netlist, which the mutation guard checks by
canonical text rather than by the per-object digest memo.
"""

import shutil

import pytest

from repro.emu.instrument import TECHNIQUES
from repro.emu.system import AutonomousEmulator
from repro.frontend.corpus import corpus_files
from repro.netlist.textio import dumps_netlist
from repro.optimize import Evaluator, HardeningAssignment
from repro.run import worker
from repro.run.runner import CampaignRunner
from repro.run.spec import MAX_CACHED_SCENARIOS, CampaignSpec, netlist_for
from repro.sim.cache import netlist_text_digest
from repro.synth.area import area_of


def _text_digest(netlist):
    """Digest of the canonical text, recomputed (not the per-object memo)."""
    return netlist_text_digest(dumps_netlist(netlist))


@pytest.fixture(autouse=True)
def _empty_memo():
    worker.clear_scenarios()
    yield
    worker.clear_scenarios()


def _s27_copy(path):
    shutil.copy(corpus_files()["s27"], path)
    return f"file:{path}"


class TestIdentity:
    def test_same_identity_same_object(self):
        first = CampaignSpec("b04", "mask_scan", seed=1).build_netlist()
        other_seed = CampaignSpec(
            "b04", "state_scan", seed=7, sample=50, num_cycles=20
        )
        assert other_seed.build_netlist() is first
        assert other_seed.scenario().netlist is first

    def test_spellings_of_one_hardening_share(self):
        fields = CampaignSpec("b02", "mask_scan", hardening="tmr").build_netlist()
        named = CampaignSpec("hardened:tmr:b02", "mask_scan").build_netlist()
        assert named is fields

    def test_distinct_identities_distinct_netlists(self):
        flop = CampaignSpec("b02", "mask_scan").build_netlist().ff_names()[0]
        netlists = [
            CampaignSpec("b02", "mask_scan").build_netlist(),
            CampaignSpec("b02", "mask_scan", hardening="tmr").build_netlist(),
            CampaignSpec("b02", "mask_scan", hardening="dwc").build_netlist(),
            CampaignSpec(
                "b02", "mask_scan", hardening="tmr", hardening_flops=[flop]
            ).build_netlist(),
            CampaignSpec("b01", "mask_scan").build_netlist(),
        ]
        assert len({id(netlist) for netlist in netlists}) == len(netlists)
        assert len({dumps_netlist(netlist) for netlist in netlists}) == len(
            netlists
        )

    def test_rewritten_file_rebuilds(self, tmp_path):
        path = tmp_path / "c.bench"
        spec = CampaignSpec(_s27_copy(path), "mask_scan")
        first = spec.build_netlist()
        assert spec.build_netlist() is first
        # a real circuit change: one more gate driving a new output
        path.write_text(path.read_text() + "EXTRA = NOT(G0)\nOUTPUT(EXTRA)\n")
        edited = spec.build_netlist()
        assert edited is not first
        assert "EXTRA" in edited.outputs and "EXTRA" not in first.outputs

    def test_memo_evicts_past_its_bound(self, tmp_path):
        names = [
            _s27_copy(tmp_path / f"c{index}.bench")
            for index in range(MAX_CACHED_SCENARIOS + 1)
        ]
        first = CampaignSpec(names[0], "mask_scan").build_netlist()
        for name in names[1:]:
            CampaignSpec(name, "mask_scan").build_netlist()
        assert netlist_for.cache_info().currsize == MAX_CACHED_SCENARIOS
        assert CampaignSpec(names[0], "mask_scan").build_netlist() is not first

    def test_clear_scenarios_drops_the_memo(self):
        first = CampaignSpec("b01", "mask_scan").build_netlist()
        worker.clear_scenarios()
        assert CampaignSpec("b01", "mask_scan").build_netlist() is not first


class TestFrozenByContract:
    def test_campaign_path_never_edits_a_shared_netlist(self):
        """Grade, account every technique, merge the emulation system,
        map area and run an optimizer point on memoized netlists; the
        canonical text of each must come out unchanged."""
        base = CampaignSpec("b04", "mask_scan", num_cycles=24, sample=120)
        hardened = CampaignSpec(
            "hardened:tmr:b04", "mask_scan", num_cycles=24, sample=120
        )
        shared = [base.build_netlist(), hardened.build_netlist()]
        before = [_text_digest(netlist) for netlist in shared]

        runner = CampaignRunner()
        for spec in (base, hardened):
            oracle = runner.grade(spec)
            for technique in TECHNIQUES:
                runner.run(spec.with_technique(technique), oracle=oracle)
                AutonomousEmulator(
                    spec.build_netlist(), technique
                ).merged_system_netlist()
            area_of(spec.build_netlist())
        # dwc is a detecting scheme: evaluate also replays it over the
        # memoized plain netlist to name the flops it covers
        Evaluator(base, runner=runner).evaluate(HardeningAssignment.single("dwc"))

        assert base.build_netlist() is shared[0]
        assert hardened.build_netlist() is shared[1]
        assert [_text_digest(netlist) for netlist in shared] == before
