"""Tests for netlist compilation and the VCD writer."""

from repro.logic.values import X
from repro.netlist.builder import NetlistBuilder
from repro.sim.compile import compile_netlist
from repro.sim.cycle import CycleSimulator
from repro.sim.waves import VcdRecorder


class TestCompile:
    def test_slots_are_dense_and_unique(self, counter):
        compiled = compile_netlist(counter)
        slots = list(compiled.net_index.values())
        assert sorted(slots) == list(range(compiled.num_slots))

    def test_ops_in_topological_order(self, counter):
        compiled = compile_netlist(counter)
        produced = set(compiled.input_slots)
        for flop in compiled.flops:
            produced.add(flop.q_index)
        for opcode, in_slots, out_slot in compiled.ops:
            del opcode
            for slot in in_slots:
                assert slot in produced
            produced.add(out_slot)

    def test_io_slot_order_matches_ports(self, counter):
        compiled = compile_netlist(counter)
        assert len(compiled.input_slots) == len(counter.inputs)
        assert len(compiled.output_slots) == len(counter.outputs)

    def test_flop_order_matches_netlist(self, counter):
        compiled = compile_netlist(counter)
        assert [f.name for f in compiled.flops] == counter.ff_names()

    def test_initial_state_packs_inits(self):
        b = NetlistBuilder("inits")
        a = b.input("a")
        b.dff(a, q="q0", init=1, name="f0")
        b.dff(a, q="q1", init=0, name="f1")
        b.dff(a, q="q2", init=1, name="f2")
        b.output_net("y", b.or_("q0", "q1", "q2"))
        compiled = compile_netlist(b.build())
        assert compiled.initial_state() == 0b101

    def test_x_init_policy(self):
        b = NetlistBuilder("xinit")
        a = b.input("a")
        b.dff(a, q="q", init=X, name="fx")
        b.output_net("y", "q")
        compiled = compile_netlist(b.build())
        assert compiled.initial_state() == 0


class TestVcd:
    def _record(self, circuit, cycles=4, toggle_inputs=True):
        sim = CycleSimulator(circuit)
        recorder = VcdRecorder(sim)
        all_ones = (1 << len(circuit.inputs)) - 1
        for cycle in range(cycles):
            sim.step(all_ones if toggle_inputs and cycle & 1 else 0)
            recorder.sample()
        return recorder

    def test_header_structure(self, counter):
        recorder = self._record(counter)
        text = recorder.dumps()
        assert "$timescale" in text
        assert "$enddefinitions" in text
        assert "$var wire 1" in text

    def test_every_net_declared(self, counter):
        recorder = self._record(counter)
        text = recorder.dumps()
        assert text.count("$var wire 1") == len(counter.all_referenced_nets())

    def test_changes_have_timestamps(self, counter):
        recorder = self._record(counter)
        text = recorder.dumps()
        assert "#0" in text
        assert "#1" in text

    def test_unchanged_nets_are_not_repeated(self, counter):
        recorder = self._record(counter, toggle_inputs=False)  # never enabled
        text = recorder.dumps()
        assert "#0" in text and "#1" not in text

    def test_short_ids_unique(self):
        ids = {VcdRecorder._short_id(i) for i in range(500)}
        assert len(ids) == 500

    def test_write_to_file(self, tmp_path, counter):
        recorder = self._record(counter)
        path = tmp_path / "wave.vcd"
        recorder.write(path)
        assert path.read_text().startswith("$date")
