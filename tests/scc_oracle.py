"""The SCC oracles of the tests: components, the partition an SCC output
names, and dcsc's schedule by a scan of every node."""

from pramtraj.algorithms.scc import BWD, DONE, FWD, Digraph


def tarjan_scc(g: Digraph) -> list[frozenset[int]]:
    """Strongly connected components via iterative Tarjan.

    Reference oracle: independent of the machine substrate, usable to check
    both machine-hosted SCC algorithms.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    components: list[frozenset[int]] = []

    for root in range(g.n):
        if root in index:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            node, ptr = work.pop()
            if ptr == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            out = g.out_neighbors(node)
            advanced = False
            while ptr < len(out):
                succ = out[ptr]
                ptr += 1
                if succ not in index:
                    work.append((node, ptr))
                    work.append((succ, 0))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = set()
                while True:
                    top = stack.pop()
                    on_stack.discard(top)
                    comp.add(top)
                    if top == node:
                        break
                components.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return components


def pointers_to_partition(scc_ptr: tuple[int, ...]) -> frozenset[frozenset[int]]:
    """The components named by per-node representative pointers."""
    groups: dict[int, set[int]] = {}
    for node, rep in enumerate(scc_ptr):
        groups.setdefault(rep, set()).add(node)
    return frozenset(frozenset(s) for s in groups.values())


def dcsc_candidates_scan(g: Digraph, state) -> list[int]:
    """The processors dcsc offers at ``state``, found by scanning every
    undone node and all of its neighbours: the lowest undone node while its
    round opens, then each undone node that a search can reach in one more
    layer, and when neither search can grow, the intersection."""
    local = state.local
    undone = [u for u in range(g.n) if not local[u][DONE]]
    if not undone:
        return []
    pivot = undone[0]
    if local[pivot][FWD] != pivot:
        return [pivot]
    frontier = set()
    for u in undone:
        if local[u][FWD] != pivot and any(local[j][FWD] == pivot for j in g.in_neighbors(u)):
            frontier.add(u)
        if local[u][BWD] != pivot and any(local[j][BWD] == pivot for j in g.out_neighbors(u)):
            frontier.add(u)
    if frontier:
        return sorted(frontier)
    return [u for u in undone if local[u][FWD] == pivot and local[u][BWD] == pivot]
