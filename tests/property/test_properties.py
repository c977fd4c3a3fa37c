"""Property-based tests (hypothesis) on core invariants.

These target the load-bearing algebra of the library: logic identities,
oracle/backend agreement on random circuits, adder/comparator lowering
against Python integer semantics, and mapper coverage invariants.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.model import SeuFault
from repro.logic.tables import eval_gate
from repro.netlist.builder import NetlistBuilder
from repro.rtl import RtlModule, const
from repro.sim.cycle import CycleSimulator, replay_fault, run_golden
from repro.sim.parallel import grade_faults
from repro.sim.vectors import Testbench
from repro.synth.lutmap import map_to_luts
from repro.util.bitops import bits_from_int, bits_to_int, clog2, mask

bits = st.integers(min_value=0, max_value=1)


class TestBitops:
    @given(st.integers(min_value=1, max_value=1 << 40))
    def test_clog2_bound(self, value):
        width = clog2(value)
        assert (1 << width) >= value
        if width:
            assert (1 << (width - 1)) < value

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_bits_roundtrip(self, value):
        assert bits_to_int(bits_from_int(value, 64)) == value

    @given(st.integers(min_value=0, max_value=63))
    def test_mask_popcount(self, width):
        assert bin(mask(width)).count("1") == width


class TestLogicIdentities:
    @given(bits, bits, bits)
    def test_de_morgan(self, a, b, c):
        assert eval_gate("nand", [a, b, c]) == eval_gate(
            "or", [a ^ 1, b ^ 1, c ^ 1]
        )
        assert eval_gate("nor", [a, b, c]) == eval_gate(
            "and", [a ^ 1, b ^ 1, c ^ 1]
        )

    @given(bits, bits)
    def test_xor_xnor_complement(self, a, b):
        assert eval_gate("xor", [a, b]) == eval_gate("xnor", [a, b]) ^ 1

    @given(bits, bits, bits)
    def test_mux_as_and_or(self, s, d0, d1):
        mux_out = eval_gate("mux2", [s, d0, d1])
        sum_of_products = (s & d1) | ((s ^ 1) & d0)
        assert mux_out == sum_of_products


class TestRtlArithmetic:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_adder_matches_python(self, a, b):
        m = RtlModule("add")
        x = m.input("x", 8)
        y = m.input("y", 8)
        m.output("s", x + y)
        sim = CycleSimulator(m.elaborate())
        assert sim.step(a | (b << 8)) == (a + b) & 0xFF

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_sub_and_lt_consistent(self, a, b):
        m = RtlModule("cmp")
        x = m.input("x", 8)
        y = m.input("y", 8)
        m.output("d", x - y)
        m.output("lt", x < y)
        sim = CycleSimulator(m.elaborate())
        out = sim.step(a | (b << 8))
        assert out & 0xFF == (a - b) & 0xFF
        assert (out >> 8) & 1 == (1 if a < b else 0)


def random_sequential_netlist(draw):
    """A random small sequential circuit from a hypothesis draw."""
    builder = NetlistBuilder("rand")
    num_inputs = draw(st.integers(min_value=1, max_value=3))
    inputs = [builder.input(f"i{k}") for k in range(num_inputs)]
    num_flops = draw(st.integers(min_value=1, max_value=5))
    q_nets = []
    d_holes = []
    for k in range(num_flops):
        hole = builder.netlist.fresh_net(f"d{k}")
        q = builder.dff(hole, q=f"q{k}", init=draw(bits), name=f"ff{k}")
        q_nets.append(q)
        d_holes.append(hole)
    pool = list(inputs) + q_nets
    for hole in d_holes:
        op = draw(st.sampled_from(["and", "or", "xor", "mux2", "inv"]))
        if op == "inv":
            builder.inv(draw(st.sampled_from(pool)), out=hole)
        elif op == "mux2":
            picks = [draw(st.sampled_from(pool)) for _ in range(3)]
            builder.mux(picks[0], picks[1], picks[2], out=hole)
        else:
            a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
            getattr(builder, f"{op}_")(a, b, out=hole)
    builder.output_net("o0", draw(st.sampled_from(q_nets)))
    builder.output_net(
        "o1", builder.xor_(draw(st.sampled_from(pool)), draw(st.sampled_from(q_nets)))
    )
    # random draws may leave some flop outputs unconsumed; that is fine
    return builder.build(allow_dangling=True)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_oracle_agrees_with_replay_on_random_circuits(data):
    """The keystone property: for random circuits, random stimulus and
    every (flop, cycle) fault, the parallel oracle, the bigint backend and
    the serial replay agree exactly."""
    netlist = random_sequential_netlist(data.draw)
    cycles = data.draw(st.integers(min_value=2, max_value=8))
    vectors = [
        data.draw(st.integers(min_value=0, max_value=(1 << len(netlist.inputs)) - 1))
        for _ in range(cycles)
    ]
    bench = Testbench(list(netlist.inputs), vectors)
    faults = [
        SeuFault(cycle=c, flop_index=f)
        for c in range(cycles)
        for f in range(netlist.num_ffs)
    ]
    numpy_result = grade_faults(netlist, bench, faults, backend="numpy")
    bigint_result = grade_faults(netlist, bench, faults, backend="bigint")
    assert list(numpy_result.fail_cycles) == list(bigint_result.fail_cycles)
    assert list(numpy_result.vanish_cycles) == list(bigint_result.vanish_cycles)
    golden = run_golden(netlist, bench)
    for index, fault in enumerate(faults):
        reference = replay_fault(netlist, bench, fault, golden)
        assert numpy_result.fail_cycles[index] == reference["fail_cycle"]
        assert numpy_result.vanish_cycles[index] == reference["vanish_cycle"]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_lut_mapping_covers_random_circuits(data):
    """Every mapped circuit: all roots covered, every cut within k, and
    cut leaves limited to inputs/flop-outputs/mapped nets."""
    netlist = random_sequential_netlist(data.draw)
    mapping = map_to_luts(netlist, k=4)
    gate_outputs = {g.output for g in netlist.gates.values()}
    roots = {net for net in netlist.outputs if net in gate_outputs}
    roots |= {d.d for d in netlist.dffs.values() if d.d in gate_outputs}
    const_nets = {
        g.output
        for g in netlist.gates.values()
        if g.gate_type in ("const0", "const1")
    }
    assert roots - const_nets <= set(mapping.luts)
    valid_leaves = (
        set(netlist.inputs)
        | {d.q for d in netlist.dffs.values()}
        | set(mapping.luts)
    )
    for root, cut in mapping.luts.items():
        assert len(cut) <= 4
        for leaf in cut:
            assert leaf in valid_leaves or leaf in const_nets


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_vanish_is_permanent(data):
    """Once the oracle says a fault vanished, replaying past that point
    must keep outputs identical to golden (determinism invariant)."""
    netlist = random_sequential_netlist(data.draw)
    cycles = 8
    vectors = [
        data.draw(st.integers(min_value=0, max_value=(1 << len(netlist.inputs)) - 1))
        for _ in range(cycles)
    ]
    bench = Testbench(list(netlist.inputs), vectors)
    faults = [SeuFault(cycle=0, flop_index=f) for f in range(netlist.num_ffs)]
    oracle = grade_faults(netlist, bench, faults)
    golden = run_golden(netlist, bench)
    for index in range(len(faults)):
        vanish = oracle.vanish_cycles[index]
        if vanish == -1 or oracle.fail_cycles[index] != -1:
            continue
        # silent fault: outputs equal golden for every cycle
        sim = CycleSimulator(netlist)
        sim.set_state(golden.states[0])
        sim.flip_flop_bit(faults[index].flop_index)
        for cycle, vector in enumerate(vectors):
            assert sim.step(vector) == golden.outputs[cycle]
