"""The SCC oracle of the tests, and the partition an SCC output names."""

from pramtraj.graphs import Digraph


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
