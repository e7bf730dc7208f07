"""Strongly connected components: lockstep double BFS pivoting vs. DFS.

The parallel member runs on a width-n machine over the symmetric closure of
the ``Digraph``: each round initializes the lowest-index unassigned node as
pivot, advances a forward and a backward search one layer per step among
unassigned nodes (min-aggregation of the passed pivot index), then closes by
assigning the intersection.  Search cells are namespaced by pivot id, so a
round never needs a mass reset: a node counts as discovered exactly when its
cell equals the current pivot.

The sequential member is hosted on a width-1 machine: a single processor
that walks the instance's adjacency, which its program holds, and keeps the
seen, finish, component and finish-order blocks in shared memory.  Each
step is one DFS event of either pass, both run by one step: a root seed,
one edge scan, or a node finish, with finishes folded into the step that
exhausts the node, so a full run takes at most n+m steps per pass.
"""

from __future__ import annotations

from operator import and_
from random import Random
from typing import NamedTuple

from ..machine import (
    Delta,
    LiveState,
    MachineState,
    Fold,
    Program,
    RunCounts,
    Trace,
    UNDEF,
    as_flag,
    as_index,
    fold_trace,
    interconnection,
    run_machine,
    symmetric_graph,
)
from . import AlgorithmSpec, ProbeSpec, Replay, SharedRow


class _DigraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class Digraph(_DigraphFields):
    """Directed graph on nodes 0..n-1; instances carry no self loops.  The
    sorted neighbour tables ``out_neighbors`` and ``in_neighbors`` read are
    built once, on construction, and kept beside the fields."""

    def __init__(self, *args, **kwargs) -> None:
        if self.n < 1:
            raise ValueError("digraph needs at least one node")
        out: dict[int, list[int]] = {u: [] for u in range(self.n)}
        inc: dict[int, list[int]] = {u: [] for u in range(self.n)}
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self loop at node {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            out[u].append(v)
            inc[v].append(u)
        self._out = {u: tuple(sorted(vs)) for u, vs in out.items()}
        self._in = {u: tuple(sorted(vs)) for u, vs in inc.items()}

    @property
    def m(self) -> int:
        return len(self.edges)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return self._in[u]


# width-n local slots of the pivot loop
FWD = 0
BWD = 1
PTR = 2
DONE = 3

# pivot-loop shared cells
PIVOT_ADDR = 0
OPEN_ADDR = 1


def dcsc_program(g: Digraph) -> Program:
    """Pivot loop: double BFS among unassigned nodes, assign the intersection.

    The pivot is always the minimal-index unassigned node; it becomes the
    representative its component points at.  Recursion over the leftover
    subsets is flattened into the sequential pivot loop, only the two
    searches of a round run in parallel.
    """
    n = g.n
    succ = [g.out_neighbors(u) for u in range(n)]
    pred = [g.in_neighbors(u) for u in range(n)]

    def candidates(state):
        """The lowest undone node alone while its round opens; then the
        undone nodes one BFS layer past the rows reached this round (out of
        a forward-reached row, into a backward-reached one); once no search
        can grow, the intersection that closes the round."""
        local = state.local
        pivot = next((u for u, row in enumerate(local) if not row[DONE]), None)
        if pivot is None:
            return ()
        if local[pivot][FWD] != pivot:
            return (pivot,)
        frontier = set()
        for j, row in enumerate(local):
            if row[FWD] == pivot:
                for u in succ[j]:
                    nxt = local[u]
                    if nxt[FWD] != pivot and not nxt[DONE]:
                        frontier.add(u)
            if row[BWD] == pivot:
                for u in pred[j]:
                    nxt = local[u]
                    if nxt[BWD] != pivot and not nxt[DONE]:
                        frontier.add(u)
        if frontier:
            return sorted(frontier)
        return [
            u
            for u, row in enumerate(local)
            if row[FWD] == pivot and row[BWD] == pivot and not row[DONE]
        ]

    def halt(state):
        return all(row[DONE] for row in state.local)

    def step(ctx):
        open_cell = ctx.shared(OPEN_ADDR)
        if open_cell is UNDEF or not as_flag(open_cell):
            pivot = ctx.pid
            return {FWD: pivot, BWD: pivot, PTR: pivot}, ((PIVOT_ADDR, pivot), (OPEN_ADDR, True))
        pivot = ctx.shared(PIVOT_ADDR, int)
        pid = ctx.pid
        update = {}
        reached = 0
        # forward: reached from an in-neighbour; backward: reaching an
        # out-neighbour.  Every neighbour is read, as each read is an
        # active edge.
        for slot, sources in ((FWD, pred[pid]), (BWD, succ[pid])):
            if ctx.own(slot) != pivot:
                if pivot not in [ctx.read(j, slot) for j in sources]:
                    continue
                update[slot] = pivot
            reached += 1
        if reached < 2:
            return (update, ()) if update else None
        if not update:
            return {DONE: True}, ((OPEN_ADDR, False),)
        update[PTR] = pivot
        return update, ()

    return Program(
        "dcsc",
        MachineState(tuple((UNDEF, UNDEF, u, False) for u in range(n)), (UNDEF, UNDEF), 0),
        step,
        symmetric_graph(n, g.edges),
        halt,
        2 * n * n + 2 * n + 4,
        lambda s: tuple(as_index(row[PTR]) for row in s.local),
        candidates,
        g.edges,
    )


def dcsc(g: Digraph, fold: Fold = fold_trace) -> tuple[tuple[int, ...], Trace | RunCounts]:
    return run_machine(dcsc_program(g), fold)


# width-1 machine layout for the DFS host: shared memory carries per-node
# algorithm state, the processor's local memory carries the DFS control.
def _shared_layout(n: int):
    return 0, n, 2 * n, 3 * n  # COLOR1, ORDER, COLOR2, COMP block bases


def kosaraju_program(g: Digraph) -> Program:
    """Two DFS passes: finish order on g, component assignment on reversed g."""
    n = g.n
    color1, order, color2, comp = _shared_layout(n)
    # behind the frame's blocks, the nodes by decreasing finish, pass 2's
    # seed order (CLRS 22.4)
    latest = 4 * n
    # local slots: the DFS stack and its pointer, each node's scan cursor in
    # either pass, the finish counter, the pass, the current root and each
    # pass's seed cursor
    stack, sp, iter1, iter2 = 0, n, n + 1, 2 * n + 1
    ctr, phase, root, seed1, seed2 = 3 * n + 1, 3 * n + 2, 3 * n + 3, 3 * n + 4, 3 * n + 5
    # an empty stack, sp, the cursors and ctr at 0, in pass 1, with no root
    local = (UNDEF,) * n + (0,) * (2 * n + 2) + (1, UNDEF, 0, 0)
    # per pass: the edges to follow, the seen block, the cursor block and
    # the seed cursor
    passes = (
        ([g.out_neighbors(u) for u in range(n)], color1, iter1, seed1),
        ([g.in_neighbors(u) for u in range(n)], color2, iter2, seed2),
    )

    def step(ctx):
        ph = ctx.own(phase, int)
        edges, seen, cursor, at = passes[ph - 1]
        top = ctx.own(sp, int)
        local = {}
        writes = []

        def enter(w, tree):
            """Mark w seen (in pass 2, as a member of tree's component), then
            push it, or let it leave at once when it has no edge to follow."""
            writes.append((seen + w, True))
            if ph == 2:
                writes.append((comp + w, tree))
            if edges[w]:
                local[stack + top] = w
                local[sp] = top + 1
            else:
                leave(w)

        def leave(u):
            """Number u's finish in pass 1 and list u by it, latest first; in
            pass 2 a leave writes nothing."""
            if ph == 1:
                count = ctx.own(ctr, int)
                local[ctr] = count + 1
                writes.extend(((order + u, count), (latest + n - 1 - count, u)))

        if top == 0:
            # seed: pass 1 at the first unseen node, pass 2 at the unseen
            # node that finished last, from the pass's seed cursor on (a seen
            # node stays seen); with none left, the pass ends
            for k in range(ctx.own(at, int), n):
                seed = k if ph == 1 else ctx.shared(latest + k, int)
                if ctx.shared(seen + seed) is UNDEF:
                    break
            else:
                return {phase: ph + 1}, ()
            local[at] = k + 1
            if ph == 2:
                local[root] = seed
            enter(seed, seed)
        else:
            # scan the top node's next edge; the scan that exhausts it, or
            # the return to it after its last edge, pops it
            u = ctx.own(stack + top - 1, int)
            k = ctx.own(cursor + u, int)
            out = edges[u]
            if k < len(out):
                local[cursor + u] = k + 1
            if k < len(out) and ctx.shared(seen + out[k]) is UNDEF:
                enter(out[k], ctx.own(root))
            elif k + 1 >= len(out):
                local[sp] = top - 1
                leave(u)
        return local, writes

    return Program(
        "kosaraju",
        MachineState((local,), (UNDEF,) * (5 * n), 0),
        step,
        interconnection(1, ()),
        lambda s: s.local[0][phase] == 3,
        2 * (n + g.m) + 6,
        lambda s: tuple(as_index(s.shared[comp + u]) for u in range(n)),
        instance_edges=g.edges,
    )


def kosaraju(g: Digraph, fold: Fold = fold_trace) -> tuple[tuple[int, ...], Trace | RunCounts]:
    return run_machine(kosaraju_program(g), fold)


def gen_digraph(n: int, max_degree: int, seed: int) -> Digraph:
    """Bounded-degree digraph: per node, out-degree uniform in [0, max_degree]
    with distinct non-self targets."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rng = Random(seed)
    edges = set()
    for u in range(n):
        degree = rng.randint(0, min(max_degree, n - 1))
        if degree:
            # sample picks indices from the population's size alone, so this
            # draws what sampling the n - 1 other nodes in order would
            for j in rng.sample(range(n - 1), degree):
                edges.add((u, j + (j >= u)))
    return Digraph(n, frozenset(edges))


def parse_digraph_inline(text: str) -> Digraph:
    """``"n:u->v,u->v,..."``: node count, then directed edges."""
    head, _, edge_part = text.partition(":")
    n = int(head)
    edges = set()
    if edge_part:
        for piece in edge_part.split(","):
            u_part, _, v_part = piece.partition("->")
            if not v_part:
                raise ValueError(f"bad edge {piece!r}")
            edges.add((int(u_part), int(v_part)))
    return Digraph(n, frozenset(edges))


def _scc_inputs(g: Digraph, pos: list[float]) -> dict:
    n = g.n
    directed = [[0.0] * n for _ in range(n)]
    undirected = [[0] * n for _ in range(n)]
    for u, v in sorted(g.edges):
        directed[u][v] = 1.0
        undirected[u][v] = 1
        undirected[v][u] = 1
    return {"adj_directed": directed, "adj_undirected": undirected, "pos": pos}


def _adjacency_violations(inputs: dict, n: int) -> list[str]:
    """What schema-valid SCC inputs break of their domain: ``adj_directed``
    holds only 0.0 and 1.0 with a zero diagonal, and ``adj_undirected`` is
    the symmetric closure of its off-diagonal edges."""
    directed = inputs["adj_directed"]
    undirected = inputs["adj_undirected"]
    out = []
    if any(cell != 0.0 and cell != 1.0 for row in directed for cell in row):
        out.append("inputs.adj_directed: cells must be 0.0 or 1.0")
    if any(directed[u][u] != 0.0 for u in range(n)):
        out.append("inputs.adj_directed: diagonal must be 0.0")
    closure = [
        [int(u != v and (directed[u][v] == 1.0 or directed[v][u] == 1.0)) for v in range(n)]
        for u in range(n)
    ]
    if undirected != closure:
        out.append("inputs.adj_undirected: must be the symmetric closure of adj_directed")
    return out


def _ptr_output(ptr: tuple[int, ...]) -> dict:
    return {"scc_ptr": list(ptr)}


def _indices(cells: list) -> list[int]:
    """``cells``, each an index: one type test over them all, and
    ``as_index`` only to raise its error at the first cell that is not."""
    return cells if set(map(type, cells)) <= {int} else list(map(as_index, cells))


def _frame_dcsc(g: Digraph, state: LiveState, delta: Delta, prev: dict | None) -> dict:
    """The round's searches, assignments and pointers; each list of ``prev``
    whose slot no update wrote is kept, the searches only while the pivot
    cell is not written."""
    rows = state.local
    pivot = as_index(state.shared[PIVOT_ADDR])
    moved = {FWD, BWD, DONE, PTR}
    if prev is not None:
        searches = (FWD, BWD) if PIVOT_ADDR in delta[1] else ()
        moved = set().union(searches, *(update for _, update in delta[0]))
    frame = dict(prev or {})
    for name, slot in (("reach_fwd", FWD), ("reach_bwd", BWD)):
        if slot in moved:
            frame[name] = SharedRow([1 if row[slot] == pivot else 0 for row in rows])
    if FWD in moved or BWD in moved:
        frame["in_scc"] = SharedRow(map(and_, frame["reach_fwd"], frame["reach_bwd"]))
    if DONE in moved:
        frame["undiscovered"] = SharedRow([0 if row[DONE] else 1 for row in rows])
    if PTR in moved:
        frame["scc_ptr"] = SharedRow(_indices([row[PTR] for row in rows]))
    return frame


def _adjacency(inputs: dict, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """(out-neighbours, in-neighbours) of each node, read off ``adj_directed``."""
    adj = inputs["adj_directed"]
    succ = [[v for v in range(n) if adj[u][v] == 1.0] for u in range(n)]
    pred = [[u for u in range(n) if adj[u][v] == 1.0] for v in range(n)]
    return succ, pred


def _reference_dcsc(inputs: dict, n: int) -> Replay:
    """Pivot rounds (Fleischer, Hendrickson and Pinar, 2000): the lowest
    unassigned node starts a round, the forward and backward sets grow one
    BFS layer per frame among unassigned nodes, and a last frame assigns
    their intersection.  A frame rebuilds only the rows that changed."""
    succ, pred = _adjacency(inputs, n)
    alive = set(range(n))

    def mask(nodes) -> SharedRow:
        return SharedRow([1 if u in nodes else 0 for u in range(n)])

    rows = dict.fromkeys(("reach_fwd", "reach_bwd", "in_scc", "undiscovered", "scc_ptr"))
    rows.update(undiscovered=mask(alive), scc_ptr=SharedRow(range(n)))
    while alive:
        pivot = min(alive)
        fwd, bwd, both = {pivot}, {pivot}, {pivot}
        grow_fwd, grow_bwd = fwd, bwd
        rows.update(reach_fwd=mask(fwd), reach_bwd=mask(bwd), in_scc=mask(both))
        yield dict(rows)
        while True:
            # each search grows from the nodes it added last: an earlier
            # layer's alive neighbours are in the set already
            grow_fwd = {v for u in grow_fwd for v in succ[u]} & (alive - fwd)
            grow_bwd = {v for u in grow_bwd for v in pred[u]} & (alive - bwd)
            if not grow_fwd and not grow_bwd:
                break
            fwd |= grow_fwd
            bwd |= grow_bwd
            if grow_fwd:
                rows["reach_fwd"] = mask(fwd)
            if grow_bwd:
                rows["reach_bwd"] = mask(bwd)
            if len(fwd & bwd) > len(both):  # the intersection only grows
                both = fwd & bwd
                rows["in_scc"] = mask(both)
                rows["scc_ptr"] = SharedRow(pivot if u in both else p for u, p in enumerate(rows["scc_ptr"]))
            yield dict(rows)
        alive -= both
        rows["undiscovered"] = mask(alive)
        yield dict(rows)
    return {"scc_ptr": list(rows["scc_ptr"])}


def _note_dcsc(g: Digraph, state: LiveState, delta: Delta) -> str:
    pivot = state.shared[PIVOT_ADDR]
    assigned = sum(1 for row in state.local if row[DONE] is True)
    return f"pivot={'?' if pivot is UNDEF else pivot} assigned={assigned}"


# a kosaraju frame's lists: (name, the shared block it decodes, whether it holds pointers)
_KOSARAJU_LISTS = (("seen_first", 0, False), ("done_first", 1, False), ("seen_second", 2, False),
                   ("finish_order", 1, True), ("scc_ptr", 3, True))


def _frame_kosaraju(g: Digraph, state: LiveState, delta: Delta, prev: dict | None) -> dict:
    """The seen, finish and component blocks; each list of ``prev`` whose
    block the layer wrote no cell of is kept."""
    n = g.n
    shared = state.shared
    touched = {addr // n for addr in delta[1]}
    frame = {}
    for name, block, pointers in _KOSARAJU_LISTS:
        if prev is not None and block not in touched:
            frame[name] = prev[name]
            continue
        cells = shared[block * n : block * n + n]
        if pointers:  # each node's cell, the node itself where it is undefined
            frame[name] = SharedRow(_indices([u if cell is UNDEF else cell for u, cell in enumerate(cells)]))
        else:
            frame[name] = SharedRow([0 if cell is UNDEF else 1 for cell in cells])
    return frame


def _reference_kosaraju(inputs: dict, n: int) -> Replay:
    """Two DFS passes, one frame per DFS event: a root seed, one edge scan,
    or a finish, with a finish folded into the event that exhausts the node
    (a node with no edge to follow is finished as it is seen), plus the
    frame that ends each pass.  Pass 1 seeds in index order on the graph,
    pass 2 in decreasing finish order on the reversed graph.  An event
    rebuilds only the rows it changes."""
    succ, pred = _adjacency(inputs, n)
    zero, nodes = SharedRow([0] * n), SharedRow(range(n))
    rows = {"seen_first": zero, "done_first": zero, "seen_second": zero, "finish_order": nodes, "scc_ptr": nodes}

    def put(name: str, u: int, value: int) -> None:
        rows[name] = SharedRow([*rows[name][:u], value, *rows[name][u + 1 :]])

    def leave(u: int) -> None:
        """Number u's finish in pass 1; in pass 2 a leave changes nothing."""
        if edges is succ:
            put("finish_order", u, sum(rows["done_first"]))
            put("done_first", u, 1)

    for edges, seen in ((succ, "seen_first"), (pred, "seen_second")):
        roots = range(n) if edges is succ else sorted(range(n), key=rows["finish_order"].__getitem__, reverse=True)
        scanned = [0] * n
        for root in (u for u in roots if not rows[seen][u]):
            stack: list[int] = []
            w = root  # the node the event enters, if any
            while True:
                if w is not None:
                    put(seen, w, 1)
                    if edges is pred:
                        put("scc_ptr", w, root)
                    if edges[w]:
                        stack.append(w)
                    else:
                        leave(w)
                yield dict(rows)
                if not stack:
                    break
                u, w = stack[-1], None
                k = scanned[u]
                scanned[u] = k + 1
                if k < len(edges[u]) and not rows[seen][edges[u][k]]:
                    w = edges[u][k]
                elif k + 1 >= len(edges[u]):
                    leave(stack.pop())
        yield dict(rows)
    return {"scc_ptr": list(rows["scc_ptr"])}


def _note_kosaraju(g: Digraph, state: LiveState, delta: Delta) -> str:
    comp = _shared_layout(g.n)[3]
    done = sum(1 for cell in state.shared[comp : comp + g.n] if cell is not UNDEF)
    return f"assigned={done}"


# the out-degree bound of every drawn SCC instance
MAX_DEGREE = 3


def _generate(n: int, seed: int) -> Digraph:
    return gen_digraph(n, MAX_DEGREE, seed)


_INPUTS = (
    ProbeSpec("adj_directed", "input", "edge", "scalar"),
    ProbeSpec("adj_undirected", "input", "edge", "mask"),
    ProbeSpec("pos", "input", "node", "scalar"),
)
_PTR = ProbeSpec("scc_ptr", "output", "node", "categorical")

DCSC = AlgorithmSpec(
    name="dcsc",
    family="scc",
    run=dcsc,
    generate=_generate,
    exhaustive=None,
    probes=_INPUTS
    + (
        ProbeSpec("reach_fwd", "hint", "node", "mask"),
        ProbeSpec("reach_bwd", "hint", "node", "mask"),
        ProbeSpec("in_scc", "hint", "node", "mask"),
        ProbeSpec("undiscovered", "hint", "node", "mask"),
        ProbeSpec("scc_ptr", "hint", "node", "categorical"),
        _PTR,
    ),
    frame=_frame_dcsc,
    inputs=_scc_inputs,
    outputs=_ptr_output,
    reference=_reference_dcsc,
    parse_inline=parse_digraph_inline,
    note=_note_dcsc,
    run_shape=lambda inputs, n: (sum(row.count(1.0) for row in inputs["adj_directed"]), n),
    input_violations=_adjacency_violations,
)

# kosaraju shares dcsc's task: the same instances, inputs and outputs
KOSARAJU = DCSC._replace(
    name="kosaraju",
    run=kosaraju,
    probes=_INPUTS
    + (
        ProbeSpec("seen_first", "hint", "node", "mask"),
        ProbeSpec("done_first", "hint", "node", "mask"),
        ProbeSpec("seen_second", "hint", "node", "mask"),
        ProbeSpec("finish_order", "hint", "node", "categorical"),
        ProbeSpec("scc_ptr", "hint", "node", "categorical"),
        _PTR,
    ),
    frame=_frame_kosaraju,
    reference=_reference_kosaraju,
    note=_note_kosaraju,
    run_shape=lambda inputs, n: (DCSC.run_shape(inputs, n)[0], 1),
)
