"""Strongly connected components: lockstep double BFS pivoting vs. DFS.

The parallel member runs on a width-n machine over the symmetric closure of
the instance: each round initializes the lowest-index unassigned node as
pivot, advances a forward and a backward search one layer per step among
unassigned nodes (min-aggregation of the passed pivot index), then closes by
assigning the intersection.  Search cells are namespaced by pivot id, so a
round never needs a mass reset: a node counts as discovered exactly when its
cell equals the current pivot.

The sequential member is hosted on a width-1 machine (a single processor
walking the graph kept in shared memory).  Each step is one DFS event: a
root seed, one edge scan, or a node finish, with finishes folded into the
step that exhausts the node, so a full run takes at most n+m steps per pass.
"""

from __future__ import annotations

from random import Random
from typing import Sequence

from ..graphs import Digraph
from ..machine import (
    InterconnectionGraph,
    MachineState,
    NodeUpdate,
    Trace,
    UNDEF,
    as_flag,
    as_index,
    run_machine,
    symmetric_graph,
)
from ..spec import AlgorithmSpec, HintFrame, ProbeSpec, ReplayError

# width-n local slots of the pivot loop
FWD = 0
BWD = 1
PTR = 2
DONE = 3

# pivot-loop shared cells
PIVOT_ADDR = 0
OPEN_ADDR = 1


def dcsc(g: Digraph) -> tuple[tuple[int, ...], Trace]:
    """Pivot loop: double BFS among unassigned nodes, assign the intersection.

    The pivot is always the minimal-index unassigned node; it becomes the
    representative its component points at.  Recursion over the leftover
    subsets is flattened into the sequential pivot loop, only the two
    searches of a round run in parallel.
    """
    n = g.n
    graph = symmetric_graph(n, g.edges)
    rows = tuple((UNDEF, UNDEF, u, False) for u in range(n))
    initial = MachineState(rows, (UNDEF, UNDEF), 0)

    def candidates(state):
        local = state.local
        undone = [u for u in range(n) if not local[u][DONE]]
        if not undone:
            return ()
        pivot = undone[0]
        if local[pivot][FWD] != pivot:
            return (pivot,)
        frontier = set()
        for u in undone:
            if local[u][FWD] != pivot and any(
                local[j][FWD] == pivot for j in g.in_neighbors(u)
            ):
                frontier.add(u)
            if local[u][BWD] != pivot and any(
                local[j][BWD] == pivot for j in g.out_neighbors(u)
            ):
                frontier.add(u)
        if frontier:
            return sorted(frontier)
        return tuple(
            u for u in undone if local[u][FWD] == pivot and local[u][BWD] == pivot
        )

    def step(ctx):
        if as_flag(ctx.own(DONE)):
            return None
        open_cell = ctx.shared(OPEN_ADDR)
        if open_cell is UNDEF or not as_flag(open_cell):
            pivot = ctx.pid
            return NodeUpdate(
                local={FWD: pivot, BWD: pivot, PTR: pivot},
                writes=((PIVOT_ADDR, pivot), (OPEN_ADDR, True)),
            )
        pivot = as_index(ctx.shared(PIVOT_ADDR))
        fwd = ctx.own(FWD)
        bwd = ctx.own(BWD)
        if fwd == pivot and bwd == pivot:
            return NodeUpdate(local={DONE: True}, writes=((OPEN_ADDR, False),))
        update = {}
        if fwd != pivot:
            hit = False
            for j in g.in_neighbors(ctx.pid):
                if ctx.read(j, FWD) == pivot:
                    hit = True
            if hit:
                update[FWD] = pivot
        if bwd != pivot:
            hit = False
            for j in g.out_neighbors(ctx.pid):
                if ctx.read(j, BWD) == pivot:
                    hit = True
            if hit:
                update[BWD] = pivot
        if not update:
            return None
        if update.get(FWD, fwd) == pivot and update.get(BWD, bwd) == pivot:
            update[PTR] = pivot
        return NodeUpdate(local=update)

    trace = run_machine(
        initial,
        step,
        graph,
        lambda s: all(s.local[u][DONE] for u in range(n)),
        2 * n * n + 2 * n + 4,
        algo_id="dcsc",
        candidates_fn=candidates,
        instance_edges=g.edges,
    )
    final = trace.states[-1].local
    return tuple(as_index(final[u][PTR]) for u in range(n)), trace


# width-1 machine layout for the DFS host: shared memory carries per-node
# algorithm state, the processor's local memory carries the DFS control.
def _shared_layout(n: int):
    return 0, n, 2 * n, 3 * n  # COLOR1, ORDER, COLOR2, COMP block bases


def kosaraju(g: Digraph) -> tuple[tuple[int, ...], Trace]:
    """Two DFS passes: finish order on g, component assignment on reversed g."""
    n = g.n
    m = g.m
    color1, order, color2, comp = _shared_layout(n)
    # local slots
    stack = 0
    sp = n
    iter1 = n + 1
    iter2 = 2 * n + 1
    ctr = 3 * n + 1
    phase = 3 * n + 2
    root = 3 * n + 3

    graph = InterconnectionGraph(1, frozenset(), frozenset({0}))
    local = [UNDEF] * (3 * n + 4)
    local[sp] = 0
    for u in range(n):
        local[iter1 + u] = 0
        local[iter2 + u] = 0
    local[ctr] = 0
    local[phase] = 1
    initial = MachineState((tuple(local),), (UNDEF,) * (4 * n), 0)

    def step(ctx):
        ph = as_index(ctx.own(phase))
        depth_sp = as_index(ctx.own(sp))
        if ph == 1:
            if depth_sp == 0:
                seed = next(
                    (v for v in range(n) if ctx.shared(color1 + v) is UNDEF), None
                )
                if seed is None:
                    return NodeUpdate(local={phase: 2})
                if not g.out_neighbors(seed):
                    count = as_index(ctx.own(ctr))
                    return NodeUpdate(
                        local={ctr: count + 1},
                        writes=((color1 + seed, True), (order + seed, count)),
                    )
                return NodeUpdate(
                    local={stack: seed, sp: 1}, writes=((color1 + seed, True),)
                )
            u = as_index(ctx.own(stack + depth_sp - 1))
            k = as_index(ctx.own(iter1 + u))
            out = g.out_neighbors(u)
            if k < len(out):
                w = out[k]
                if ctx.shared(color1 + w) is UNDEF:
                    if not g.out_neighbors(w):
                        count = as_index(ctx.own(ctr))
                        return NodeUpdate(
                            local={iter1 + u: k + 1, ctr: count + 1},
                            writes=((color1 + w, True), (order + w, count)),
                        )
                    return NodeUpdate(
                        local={iter1 + u: k + 1, stack + depth_sp: w, sp: depth_sp + 1},
                        writes=((color1 + w, True),),
                    )
                if k + 1 == len(out):
                    count = as_index(ctx.own(ctr))
                    return NodeUpdate(
                        local={iter1 + u: k + 1, sp: depth_sp - 1, ctr: count + 1},
                        writes=((order + u, count),),
                    )
                return NodeUpdate(local={iter1 + u: k + 1})
            count = as_index(ctx.own(ctr))
            return NodeUpdate(
                local={sp: depth_sp - 1, ctr: count + 1}, writes=((order + u, count),)
            )
        if ph == 2:
            if depth_sp == 0:
                seed = None
                best = -1
                for v in range(n):
                    if ctx.shared(color2 + v) is UNDEF:
                        rank = as_index(ctx.shared(order + v))
                        if rank > best:
                            best = rank
                            seed = v
                if seed is None:
                    return NodeUpdate(local={phase: 3})
                writes = ((color2 + seed, True), (comp + seed, seed))
                if not g.in_neighbors(seed):
                    return NodeUpdate(local={root: seed}, writes=writes)
                return NodeUpdate(
                    local={root: seed, stack: seed, sp: 1}, writes=writes
                )
            u = as_index(ctx.own(stack + depth_sp - 1))
            k = as_index(ctx.own(iter2 + u))
            out = g.in_neighbors(u)
            current_root = as_index(ctx.own(root))
            if k < len(out):
                w = out[k]
                if ctx.shared(color2 + w) is UNDEF:
                    writes = ((color2 + w, True), (comp + w, current_root))
                    if not g.in_neighbors(w):
                        return NodeUpdate(local={iter2 + u: k + 1}, writes=writes)
                    return NodeUpdate(
                        local={iter2 + u: k + 1, stack + depth_sp: w, sp: depth_sp + 1},
                        writes=writes,
                    )
                if k + 1 == len(out):
                    return NodeUpdate(local={iter2 + u: k + 1, sp: depth_sp - 1})
                return NodeUpdate(local={iter2 + u: k + 1})
            return NodeUpdate(local={sp: depth_sp - 1})
        return None

    trace = run_machine(
        initial,
        step,
        graph,
        lambda s: s.local[0][phase] == 3,
        2 * (n + m) + 6,
        algo_id="kosaraju",
        candidates_fn=lambda s: (0,),
        instance_edges=g.edges,
    )
    shared = trace.states[-1].shared
    return tuple(as_index(shared[comp + u]) for u in range(n)), trace


def gen_digraph(n: int, max_degree: int, seed: int) -> Digraph:
    """Bounded-degree digraph: per node, out-degree uniform in [0, max_degree]
    with distinct non-self targets."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    rng = Random(seed)
    edges = set()
    others = {u: [v for v in range(n) if v != u] for u in range(n)}
    for u in range(n):
        degree = rng.randint(0, min(max_degree, n - 1))
        if degree:
            for v in rng.sample(others[u], degree):
                edges.add((u, v))
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


def _ptr_output(ptr: tuple[int, ...]) -> dict:
    return {"scc_ptr": list(ptr)}


def _frames_dcsc(g: Digraph, trace: Trace) -> list[HintFrame]:
    n = g.n
    frames = []
    for t in range(1, trace.depth + 1):
        state = trace.states[t]
        pivot = as_index(state.shared[PIVOT_ADDR])
        local = state.local
        fwd = [int(local[u][FWD] == pivot) for u in range(n)]
        bwd = [int(local[u][BWD] == pivot) for u in range(n)]
        frames.append(
            HintFrame(
                t,
                {
                    "reach_fwd": fwd,
                    "reach_bwd": bwd,
                    "in_scc": [a & b for a, b in zip(fwd, bwd)],
                    "undiscovered": [int(not local[u][DONE]) for u in range(n)],
                    "scc_ptr": [as_index(local[u][PTR]) for u in range(n)],
                },
            )
        )
    return frames


def _dcsc_invariants(hints: Sequence[HintFrame]) -> list[str]:
    """The undiscovered set only shrinks; membership only grows within a round."""
    out: list[str] = []
    prev_und = None
    prev_scc = None
    for idx, frame in enumerate(hints):
        und = frame.values["undiscovered"]
        if prev_und is not None and any(a > b for a, b in zip(und, prev_und)):
            out.append(f"hints[{idx}].undiscovered: monotonicity")
        in_scc = frame.values["in_scc"]
        # a search reset looks like a round initialization: both reach
        # masks and the membership mask collapse to the same single node
        reset = (
            sum(in_scc) == 1
            and frame.values["reach_fwd"] == in_scc
            and frame.values["reach_bwd"] == in_scc
        )
        if prev_scc is not None and not reset:
            if any(a > b for a, b in zip(prev_scc, in_scc)):
                out.append(f"hints[{idx}].in_scc: monotonicity")
        prev_und, prev_scc = und, in_scc
    return out


def _replay_dcsc(sample) -> dict:
    n = sample.n
    adj = sample.inputs["adj_directed"]
    out_adj = [[v for v in range(n) if adj[u][v] == 1.0] for u in range(n)]
    in_adj = [[u for u in range(n) if adj[u][v] == 1.0] for v in range(n)]
    done: set[int] = set()
    fwd: set[int] = set()
    bwd: set[int] = set()
    ptr = list(range(n))
    pivot: int | None = None
    for idx, frame in enumerate(sample.hints):
        alive = [u for u in range(n) if u not in done]
        if not alive:
            raise ReplayError(f"frame {idx}: trajectory continues after completion")
        expected_pivot = alive[0]
        got_fwd = {u for u in range(n) if frame.values["reach_fwd"][u] == 1}
        got_bwd = {u for u in range(n) if frame.values["reach_bwd"][u] == 1}
        got_und = {u for u in range(n) if frame.values["undiscovered"][u] == 1}
        if pivot != expected_pivot:
            # round initialization
            pivot = expected_pivot
            fwd = {pivot}
            bwd = {pivot}
            ptr[pivot] = pivot
            if got_fwd != fwd or got_bwd != bwd or got_und != set(alive):
                raise ReplayError(f"frame {idx}: bad round initialization")
        else:
            new_fwd = fwd | {
                u for u in alive if u not in fwd and any(j in fwd for j in in_adj[u])
            }
            new_bwd = bwd | {
                u for u in alive if u not in bwd and any(j in bwd for j in out_adj[u])
            }
            if new_fwd != fwd or new_bwd != bwd:
                # search layer
                for u in (new_fwd & new_bwd) - (fwd & bwd):
                    ptr[u] = pivot
                fwd, bwd = new_fwd, new_bwd
                if got_fwd != fwd or got_bwd != bwd or got_und != set(alive):
                    raise ReplayError(f"frame {idx}: bad search layer")
            else:
                # close: the intersection leaves the undiscovered set
                members = fwd & bwd
                done |= members
                if got_und != set(alive) - members or got_fwd != fwd or got_bwd != bwd:
                    raise ReplayError(f"frame {idx}: bad round close")
                pivot = None
        want_scc = [int(u in fwd and u in bwd) for u in range(n)]
        if frame.values["in_scc"] != want_scc:
            raise ReplayError(f"frame {idx}: membership mask mismatch")
        if frame.values["scc_ptr"] != ptr:
            raise ReplayError(f"frame {idx}: pointer mismatch")
    if len(done) != n:
        raise ReplayError("trajectory ended with unassigned nodes")
    return {"scc_ptr": ptr}


def _note_dcsc(g: Digraph, trace: Trace, t: int) -> str:
    state = trace.states[t]
    pivot = state.shared[PIVOT_ADDR]
    assigned = sum(1 for row in state.local if row[DONE] is True)
    return f"pivot={'?' if pivot is UNDEF else pivot} assigned={assigned}"


def _frames_kosaraju(g: Digraph, trace: Trace) -> list[HintFrame]:
    n = g.n
    color1, order, color2, comp = _shared_layout(n)
    frames = []
    for t in range(1, trace.depth + 1):
        shared = trace.states[t].shared
        frames.append(
            HintFrame(
                t,
                {
                    "seen_first": [int(shared[color1 + u] is not UNDEF) for u in range(n)],
                    "done_first": [int(shared[order + u] is not UNDEF) for u in range(n)],
                    "seen_second": [int(shared[color2 + u] is not UNDEF) for u in range(n)],
                    "finish_order": [
                        as_index(shared[order + u]) if shared[order + u] is not UNDEF else u
                        for u in range(n)
                    ],
                    "scc_ptr": [
                        as_index(shared[comp + u]) if shared[comp + u] is not UNDEF else u
                        for u in range(n)
                    ],
                },
            )
        )
    return frames


def _kosaraju_invariants(hints: Sequence[HintFrame]) -> list[str]:
    """The three visit masks only grow."""
    out: list[str] = []
    for name in ("seen_first", "done_first", "seen_second"):
        prev = None
        for idx, frame in enumerate(hints):
            cur = frame.values[name]
            if prev is not None and any(a < b for a, b in zip(cur, prev)):
                out.append(f"hints[{idx}].{name}: monotonicity")
            prev = cur
    return out


def _replay_kosaraju(sample) -> dict:
    n = sample.n
    if not sample.hints:
        raise ReplayError("empty trajectory")
    ptr = list(range(n))
    for idx, frame in enumerate(sample.hints):
        cur = frame.values["scc_ptr"]
        for u in range(n):
            if ptr[u] != u and cur[u] != ptr[u]:
                raise ReplayError(f"frame {idx}: assignment of node {u} changed")
        seen2 = frame.values["seen_second"]
        for u in range(n):
            if seen2[u] == 0 and cur[u] != u:
                raise ReplayError(f"frame {idx}: pointer before discovery at {u}")
        ptr = list(cur)
    final = sample.hints[-1].values
    if sorted(final["finish_order"]) != list(range(n)):
        raise ReplayError("final finish order is not a permutation")
    if any(v == 0 for v in final["seen_second"]):
        raise ReplayError("trajectory ended before the second pass finished")
    return {"scc_ptr": ptr}


def _note_kosaraju(g: Digraph, trace: Trace, t: int) -> str:
    comp = _shared_layout(g.n)[3]
    shared = trace.states[t].shared
    done = sum(1 for u in range(g.n) if shared[comp + u] is not UNDEF)
    return f"assigned={done}"


def _generate(n: int, seed: int, max_degree: int) -> Digraph:
    return gen_digraph(n, max_degree, seed)


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
    frames=_frames_dcsc,
    inputs=_scc_inputs,
    outputs=_ptr_output,
    replay=_replay_dcsc,
    parse_inline=parse_digraph_inline,
    note=_note_dcsc,
    invariants=_dcsc_invariants,
)

KOSARAJU = AlgorithmSpec(
    name="kosaraju",
    family="scc",
    run=kosaraju,
    generate=_generate,
    exhaustive=None,
    probes=_INPUTS
    + (
        ProbeSpec("seen_first", "hint", "node", "mask"),
        ProbeSpec("done_first", "hint", "node", "mask"),
        ProbeSpec("seen_second", "hint", "node", "mask"),
        ProbeSpec("finish_order", "hint", "node", "categorical"),
        ProbeSpec("scc_ptr", "hint", "node", "categorical"),
        _PTR,
    ),
    frames=_frames_kosaraju,
    inputs=_scc_inputs,
    outputs=_ptr_output,
    replay=_replay_kosaraju,
    parse_inline=parse_digraph_inline,
    note=_note_kosaraju,
    invariants=_kosaraju_invariants,
)

# (parallel, sequential)
PAIR = (DCSC, KOSARAJU)
