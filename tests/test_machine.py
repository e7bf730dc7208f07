import gc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pramtraj.machine import (
    HOLD,
    CellTypeError,
    MachineError,
    MachineState,
    NeighborhoodViolation,
    NodeContext,
    Program,
    StepLimitExceeded,
    UNDEF,
    UndefinedValueError,
    as_flag,
    as_index,
    as_scalar,
    complete_graph,
    fold_counts,
    fold_trace,
    interconnection,
    layers,
    run_machine,
    star_graph,
    step_machine,
    symmetric_graph,
)
from pramtraj.harness import collector_paused

from machine_support import fresh_state, probe_step_reads


class TestCells:
    def test_accessors_enforce_variant(self):
        assert as_scalar(1.5) == 1.5
        assert as_index(3) == 3
        assert as_flag(True) is True
        with pytest.raises(UndefinedValueError):
            as_scalar(UNDEF)
        with pytest.raises(Exception):
            as_index(True)  # flags are not indices
        with pytest.raises(Exception):
            as_scalar(1)  # indices are not scalars

    def test_undefined_sentinel_has_no_truth_value(self):
        with pytest.raises(UndefinedValueError):
            bool(UNDEF)

    def test_sentinel_distinguishable(self):
        assert UNDEF != 0 and UNDEF != 0.0 and UNDEF != False  # noqa: E712


def _edgeless_graph(n):
    return interconnection(n, ())


def _program(initial, step, graph, halt, max_steps):
    """A test run named "probe" whose output is its final state."""
    return Program("probe", initial, step, graph, halt, max_steps, lambda s: s)


def _write_layer(width, shared_size, writes_by_pid):
    """One step_machine layer in which processor pid issues the shared writes
    ``writes_by_pid[pid]``; returns the cells it wrote, by address."""
    state = MachineState(((0.0,),) * width, (UNDEF,) * shared_size, 0)

    def step(ctx):
        writes = writes_by_pid.get(ctx.pid)
        return (None, writes) if writes else None

    new, _ = step_machine(state, step, _edgeless_graph(width))
    return {addr: cell for addr, cell in enumerate(new.shared) if cell is not UNDEF}


class TestResolveWrites:
    """Priority CRCW as step_machine resolves it: per address, the lowest
    writing processor wins."""

    def test_lowest_index_wins(self):
        assert _write_layer(3, 1, {2: ((0, 7.0),), 0: ((0, 5.0),)}) == {0: 5.0}

    def test_single_writer(self):
        assert _write_layer(4, 2, {3: ((1, 9.0),)}) == {1: 9.0}

    def test_no_writes(self):
        assert _write_layer(3, 2, {}) == {}

    def test_exhaustive_small(self):
        # all request patterns for p <= 3 processors over 2 addresses
        import itertools

        for p in (1, 2, 3):
            for combo in itertools.product((None, 0, 1), repeat=p):
                writes = {
                    proc: ((addr, float(100 + proc)),)
                    for proc, addr in enumerate(combo)
                    if addr is not None
                }
                applied = _write_layer(p, 2, writes)
                for addr in (0, 1):
                    writers = [proc for proc, a in enumerate(combo) if a == addr]
                    if writers:
                        assert applied[addr] == float(100 + min(writers))
                    else:
                        assert addr not in applied

    @given(
        st.lists(
            st.tuples(st.integers(0, 19), st.integers(0, 4)),
            max_size=40,
        )
    )
    @example([(3, 1), (5, 1), (3, 1), (5, 2), (5, 2)])
    def test_priority_property(self, pairs):
        # a processor's k-th write carries k, so its second write to an
        # address differs from its first
        writes = {}
        for proc, addr in pairs:
            issued = writes.get(proc, ())
            writes[proc] = issued + ((addr, proc * 100 + len(issued)),)
        applied = _write_layer(20, 5, writes)
        # per address, the lowest writing processor, and its first write there
        by_addr = {}
        for proc in sorted(writes):
            for addr, value in writes[proc]:
                by_addr.setdefault(addr, value)
        assert applied == by_addr


class TestStepMachine:
    def test_identity_step(self):
        state = MachineState(((1.0,), (2.0,)), (UNDEF,), 0)
        new, rec = step_machine(state, lambda ctx: None, _edgeless_graph(2))
        assert new.local == state.local and new.shared == state.shared
        assert new.clock == 1
        assert rec.active_nodes == frozenset()
        assert rec.active_edges == frozenset()
        assert rec.op_count == 0 and not rec.graph_op

    def test_increment_own_cell_records_no_edge(self):
        state = MachineState(((1.0,), (5.0,)), (), 0)

        def step(ctx):
            if ctx.pid != 1:
                return None
            value = ctx.own(0, float)
            return {0: value + 1.0}, ()

        new, rec = step_machine(state, step, complete_graph(2))
        assert new.local[1] == (6.0,)
        assert rec.active_nodes == {1}
        assert rec.active_edges == frozenset()
        assert rec.op_count == 1

    def test_read_outside_neighborhood_rejected(self):
        state = MachineState(((1.0,), (2.0,), (3.0,)), (), 0)
        graph = interconnection(3, {(0, 1)})

        def bad(ctx):
            if ctx.pid == 1:
                ctx.read(2, 0)  # 2 is not an in-neighbor of 1
            return None

        with pytest.raises(NeighborhoodViolation):
            step_machine(state, bad, graph)

        def reads_itself(ctx):
            ctx.read(ctx.pid, 0)
            return None

        with pytest.raises(NeighborhoodViolation):
            step_machine(state, reads_itself, graph)

    def test_synchronous_exchange_reads_old_state(self):
        # both nodes overwrite with the partner's previous value in one layer
        graph = interconnection(2, {(0, 1), (1, 0)})
        state = MachineState(((1.0,), (2.0,)), (), 0)

        def swap(ctx):
            other = as_scalar(ctx.read(1 - ctx.pid, 0))
            return {0: other}, ()

        new, rec = step_machine(state, swap, graph)
        assert new.local == ((2.0,), (1.0,))
        assert rec.active_edges == {(0, 1), (1, 0)}
        assert rec.op_count == 2

    def test_priority_write_through_machine(self):
        graph = _edgeless_graph(4)
        state = MachineState(((0.0,),) * 4, (UNDEF,), 0)

        def race(ctx):
            if ctx.pid == 0:
                return None
            return None, ((0, ctx.pid),)

        new, rec = step_machine(state, race, graph)
        assert new.shared == (1,)
        assert rec.graph_op and rec.op_count == 3 + 1

    def test_undefined_cells_carry_no_information(self):
        graph = interconnection(2, {(0, 1)})
        state = MachineState(((UNDEF,), (0.0,)), (), 0)

        def peek(ctx):
            if ctx.pid != 1:
                return None
            cell = ctx.read(0, 0)
            assert cell is UNDEF
            return HOLD

        _, rec = step_machine(state, peek, graph)
        assert rec.active_nodes == {1}
        assert rec.active_edges == frozenset()


# one cell of each variant, in this slot / shared address order
_CELLS = (1.5, 3, True, UNDEF)
_KINDS = {float: ("scalar", 0), int: ("index", 1), bool: ("flag", 2)}


def _reader_context():
    """Processor 1 of a two-processor complete graph, both rows and shared
    memory holding ``_CELLS``; returns the context and its edge list."""
    edges = []
    ctx = NodeContext(MachineState((_CELLS, _CELLS), _CELLS, 0), complete_graph(2), edges)
    ctx.pid = 1
    return ctx, edges


_READERS = {
    "own": lambda ctx, slot, kind: ctx.own(slot, kind),
    "read": lambda ctx, slot, kind: ctx.read(0, slot, kind),
    "shared": lambda ctx, slot, kind: ctx.shared(slot, kind),
}


class TestReaders:
    """own, read and shared: the one reader per source, each checking the
    variant it is given as ``kind``."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("kind", [float, int, bool], ids=["float", "int", "bool"])
    def test_kind_is_enforced(self, reader, kind):
        read = _READERS[reader]
        wanted, good = _KINDS[kind]
        ctx, edges = _reader_context()
        for slot, cell in enumerate(_CELLS):
            if slot == good:
                assert read(ctx, slot, kind) is cell
            elif cell is UNDEF:
                with pytest.raises(UndefinedValueError,
                                   match=f"^read of undefined cell where {wanted} expected$"):
                    read(ctx, slot, kind)
            else:
                with pytest.raises(CellTypeError, match=f"^cell {cell!r} is not a {wanted}$") as err:
                    read(ctx, slot, kind)
                assert type(err.value) is CellTypeError
        # only the neighbour read that returned crossed an edge
        assert edges == ([(0, 1)] if reader == "read" else [])

    @pytest.mark.parametrize("reader", sorted(_READERS))
    def test_untyped_reader_returns_any_cell(self, reader):
        ctx, edges = _reader_context()
        assert [_READERS[reader](ctx, slot, None) for slot in range(4)] == list(_CELLS)
        # an UNDEF cell carries no information, so it crosses no edge
        assert edges == ([(0, 1)] * 3 if reader == "read" else [])

    @pytest.mark.parametrize("graph", [
        complete_graph(3),
        star_graph(2),
        symmetric_graph(3, [(0, 1), (1, 2), (2, 0)]),
    ], ids=["complete", "star", "symmetric"])
    def test_reading_itself_is_a_violation(self, graph):
        state = MachineState(((1.0,),) * 3, (), 0)

        def step(ctx):
            ctx.read(ctx.pid, 0)
            return HOLD

        for pid in range(3):
            with pytest.raises(NeighborhoodViolation, match=rf"^node {pid} may not read node {pid} \(layer 1, node {pid}\)$"):
                step_machine(state, step, graph, (pid,))


class TestRangeChecks:
    """step_machine's three MachineError checks: candidates, local slots and
    shared addresses must lie inside the machine."""

    def _state(self):
        return MachineState(((0.0,),) * 3, (UNDEF, UNDEF), 0)

    @pytest.mark.parametrize("candidates", [(-1,), (3,), (0, 5, 1), (7, 0), (2, -4)])
    def test_candidate_out_of_range(self, candidates):
        bad = next(p for p in sorted(candidates) if not 0 <= p < 3)
        with pytest.raises(MachineError, match=rf"^candidate {bad} out of range \(layer 1\)$"):
            step_machine(self._state(), lambda ctx: HOLD, _edgeless_graph(3), candidates)

    def test_candidates_in_range_pass(self):
        _, rec = step_machine(self._state(), lambda ctx: HOLD, _edgeless_graph(3), (2, 0))
        assert rec.active_nodes == {0, 2}

    def test_repeated_candidate_runs_once(self):
        ran = []

        def step(ctx):
            ran.append(ctx.pid)
            return {0: 1.0}, ()

        new, rec = step_machine(self._state(), step, _edgeless_graph(3), (1, 1))
        assert ran == [1]
        assert new.local == ((0.0,), (1.0,), (0.0,))
        assert rec.active_nodes == {1} and rec.op_count == 1

    @pytest.mark.parametrize("slot", [-1, 1, 4])
    def test_local_slot_out_of_range(self, slot):
        def step(ctx):
            return ({slot: 1.0}, ()) if ctx.pid == 1 else None

        with pytest.raises(MachineError, match=rf"^local slot {slot} out of range \(layer 1, node 1\)$"):
            step_machine(self._state(), step, _edgeless_graph(3))

    @pytest.mark.parametrize("addr", [-1, 2, 9])
    def test_shared_address_out_of_range(self, addr):
        def step(ctx):
            return (None, ((0, 1.0), (addr, 2.0))) if ctx.pid == 2 else None

        with pytest.raises(MachineError, match=rf"^shared address {addr} out of range \(layer 1, node 2\)$"):
            step_machine(self._state(), step, _edgeless_graph(3))


class TestContextIsolation:
    """One context serves every processor of a layer; what one processor read
    never leaks into another's record."""

    def test_identity_processor_leaves_no_reads(self):
        graph = complete_graph(3)
        state = MachineState(((1.0,), (2.0,), (3.0,)), (4,), 0)

        def step(ctx):
            if ctx.pid == 0:
                ctx.read(1, 0)
                ctx.read(2, 0)
                ctx.shared(0, int)
                return None
            if ctx.pid == 1:
                ctx.read(2, 0, float)
                return HOLD
            ctx.shared(0)
            ctx.read(0, 0)
            return HOLD

        _, rec = step_machine(state, step, graph)
        assert rec.active_nodes == {1, 2}
        assert rec.active_edges == {(2, 1), (0, 2)}
        assert rec.op_count == 2


class TestCollectorPaused:
    """collector_paused turns the cyclic collector off for its body and puts
    back the state it found, however the body ends."""

    def test_paused_inside_and_restored_after_a_run(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
            _, trace = run_machine(_program(fresh_state(1, 1, 1), lambda ctx: HOLD,
                                            _edgeless_graph(1), lambda s: s.clock >= 2, 2))
        assert gc.isenabled()
        assert trace.depth == 2

    def test_restored_after_step_limit(self):
        with pytest.raises(StepLimitExceeded):
            with collector_paused():
                run_machine(_program(fresh_state(1, 1, 1), lambda ctx: None, _edgeless_graph(1),
                                     lambda s: False, 3))
        assert gc.isenabled()

    def test_stays_off_when_off_on_entry(self):
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
            with pytest.raises(StepLimitExceeded):
                with collector_paused():
                    run_machine(_program(fresh_state(1, 1, 1), lambda ctx: None,
                                         _edgeless_graph(1), lambda s: False, 3))
            assert not gc.isenabled()
        finally:
            gc.enable()


class TestRunMachine:
    def test_halt_on_initial_state(self):
        state = fresh_state(2, 1, 1)
        final, trace = run_machine(_program(state, lambda ctx: None, _edgeless_graph(2),
                                            lambda s: True, 5))
        assert final is state
        assert trace.depth == 0
        assert len(trace.states) == 1

    def test_step_limit_exceeded(self):
        state = fresh_state(1, 1, 1)
        with pytest.raises(StepLimitExceeded):
            run_machine(_program(state, lambda ctx: None, _edgeless_graph(1), lambda s: False, 3))

    def test_trace_is_deterministic(self):
        graph = _edgeless_graph(3)

        def step(ctx):
            if ctx.pid == ctx.clock % 3:
                return {0: float(ctx.clock)}, ((0, ctx.pid),)
            return None

        def make():
            return run_machine(
                _program(MachineState(((0.5,),) * 3, (UNDEF,), 0), step, graph,
                         lambda s: s.clock >= 4, 8)
            )[1]

        a, b = make(), make()
        assert a.states == b.states
        assert a.activity == b.activity

    @pytest.mark.parametrize("fold", [fold_trace, fold_counts])
    def test_a_failed_layer_names_its_layer_and_node(self, fold):
        # the read of UNDEF is pid 1's at clock 2, so the layer's record would be step 3
        def step(ctx):
            if ctx.pid == 1 and ctx.clock == 2:
                ctx.own(1, float)
            return HOLD

        state = MachineState(((0.0, UNDEF),) * 3, (), 0)
        with pytest.raises(UndefinedValueError, match=r" expected \(layer 3, node 1\)$") as err:
            run_machine(_program(state, step, _edgeless_graph(3), lambda s: s.clock >= 5, 8), fold)
        assert type(err.value) is UndefinedValueError

    @pytest.mark.parametrize("fold", [fold_trace, fold_counts])
    def test_either_fold_names_the_run_that_did_not_halt(self, fold):
        state = fresh_state(1, 1, 1)
        with pytest.raises(StepLimitExceeded, match="^probe did not halt within 3 steps$"):
            run_machine(_program(state, lambda ctx: None, _edgeless_graph(1), lambda s: False, 3),
                        fold)
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            run_machine(_program(state, lambda ctx: None, _edgeless_graph(1), lambda s: True, 0),
                        fold)

    def test_layers_chain_the_states_of_the_trace(self):
        def step(ctx):
            return ({0: float(ctx.clock)}, ()) if ctx.pid == ctx.clock % 2 else None

        initial = MachineState(((0.5,),) * 2, (), 0)
        program = _program(initial, step, _edgeless_graph(2), lambda s: s.clock >= 3, 3)
        stream = list(layers(program))
        final, trace = run_machine(program)
        assert final == trace.final
        assert [before for before, _, _ in stream] == list(trace.states[:-1])
        assert [after for _, after, _ in stream] == list(trace.states[1:])
        assert [record for _, _, record in stream] == list(trace.activity)
        final, counts = run_machine(program, fold_counts)
        assert final == counts.final == trace.final
        assert (counts.width, counts.m, counts.ops, counts.nodes) == (2, 0, 3, 3)
        assert (counts.depth, counts.edges) == (3, 0)

    def test_clock_advances_by_one(self):
        graph = _edgeless_graph(1)
        _, trace = run_machine(
            _program(MachineState(((0.0,),), (), 0), lambda ctx: HOLD, graph, lambda s: s.clock >= 3, 3)
        )
        assert [s.clock for s in trace.states] == [0, 1, 2, 3]


class TestActiveEdgeSoundness:
    """Perturbing a recorded edge's source may change the target's inputs;
    perturbing any other defined cell never does."""

    def _reads_for(self, state, step, graph):
        return probe_step_reads(state, step, graph)

    def test_perturbation(self):
        # node 1 reads node 0; node 2 holds a defined but unread cell
        graph = interconnection(3, {(0, 1), (2, 1)})
        state = MachineState(((1.0,), (2.0,), (3.0,)), (), 0)

        def step(ctx):
            if ctx.pid != 1:
                return None
            value = as_scalar(ctx.read(0, 0))
            return {0: value}, ()

        base = self._reads_for(state, step, graph)
        _, rec = step_machine(state, step, graph)
        assert rec.active_edges == {(0, 1)}

        poked = MachineState(((9.0,), (2.0,), (3.0,)), (), 0)
        assert self._reads_for(poked, step, graph) != base

        unread = MachineState(((1.0,), (2.0,), (9.0,)), (), 0)
        assert self._reads_for(unread, step, graph) == base


def test_interconnection_graph_validation():
    with pytest.raises(ValueError):
        interconnection(2, {(0, 0)})
    with pytest.raises(ValueError):
        interconnection(2, {(0, 5)})
    g = complete_graph(4)
    assert _readable(g, 0, range(-5, 9)) == {1, 2, 3}
    assert g.m == 12


def _readable(graph, pid, probes):
    """The nodes among ``probes`` that node ``pid`` of ``graph`` may read;
    every other probe must raise ``NeighborhoodViolation``."""
    state = MachineState(((1.0,),) * graph.n, (), 0)
    allowed = set()
    for j in probes:
        def step(ctx):
            ctx.read(j, 0)
            return HOLD

        try:
            step_machine(state, step, graph, (pid,))
        except NeighborhoodViolation as err:
            assert str(err) == f"node {pid} may not read node {j} (layer 1, node {pid})"
        else:
            allowed.add(j)
    return allowed


def _all_pairs(n):
    return [(i, j) for i in range(n) for j in range(n) if i != j]


class TestCompleteGraph:
    """``complete_graph(n)`` keeps no edges, only their count and one shared
    set of readable nodes; it reads and counts as the graph of all n(n-1)
    pairs would."""

    def test_footprint_is_linear(self):
        import tracemalloc

        tracemalloc.start()
        try:
            graph = complete_graph.__wrapped__(512)  # cold: past the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.m == 512 * 511
        assert peak < 64_000, peak

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_reads(self, n):
        graph, built = complete_graph(n), interconnection(n, _all_pairs(n))
        assert graph.m == built.m == n * (n - 1)
        probes = range(-n - 2, 2 * n + 2)
        for pid in range(n):
            assert _readable(graph, pid, probes) == _readable(built, pid, probes) == set(range(n)) - {pid}


class TestBuilders:
    """The topology builders give what ``interconnection`` gives for their
    edge sets: the same readable nodes per node and the same ``m``."""

    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_star_graph(self, k):
        edges = [(k, i) for i in range(k)] + [(i, k) for i in range(k)]
        assert star_graph(k) == interconnection(k + 1, edges)
        assert star_graph(k).m == 2 * k

    def test_symmetric_graph(self):
        directed = [(0, 1), (1, 2), (2, 1), (3, 0), (0, 1)]
        closure = {(0, 1), (1, 0), (1, 2), (2, 1), (3, 0), (0, 3)}
        assert symmetric_graph(4, directed) == interconnection(4, closure)
        assert symmetric_graph(4, directed).m == 6


def test_every_algorithm_recomputes_bit_exactly():
    # synchronicity: a trace is a pure function of its instance
    from pramtraj.algorithms import ALGORITHMS, run
    from pramtraj.harness import generate_instance, sample_seed

    for algo in ALGORITHMS:
        seed = sample_seed(31, algo, 8, 0)
        inst = generate_instance(algo, 8, seed)
        out_a, trace_a = run(algo, inst)
        out_b, trace_b = run(algo, inst)
        assert out_a == out_b
        assert trace_a.states == trace_b.states
        assert trace_a.activity == trace_b.activity


def test_activity_stays_inside_the_interconnection():
    from pramtraj.algorithms import ALGORITHMS, run
    from pramtraj.harness import generate_instance, sample_seed

    for algo in ALGORITHMS:
        seed = sample_seed(33, algo, 9, 0)
        inst = generate_instance(algo, 9, seed)
        _, trace = run(algo, inst)
        readable = trace.graph.in_nbrs
        for rec in trace.activity:
            assert all(j != p and j in readable[p] for j, p in rec.active_edges)
