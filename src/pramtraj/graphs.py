"""Directed graph instances of the SCC algorithms."""

from __future__ import annotations

from typing import NamedTuple


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
