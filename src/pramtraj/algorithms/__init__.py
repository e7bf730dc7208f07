"""The six algorithms, three parallel/sequential pairs on the machine
substrate, and ``AlgorithmSpec``, all that the rest of the pipeline knows of
one algorithm: how to run it, draw or enumerate its inputs, its probe
schema, how to decode one layer's hint values (what ``gen`` writes) and
re-derive them one frame at a time without the machine (what ``validate``
compares them with), parse an inline ``trace`` input and annotate one layer.
A layer is decoded from the state it left and its delta, the write set
``(updates, written)`` that ``machine.replay`` hands out with it.

``TABLE`` is the one registry: each task family's home module and its
parallel and sequential algorithms.  A home module defines each spec under
the algorithm's name in capitals (``oets`` is ``sorting.OETS``) beside the
function that makes its program (``<name>_program(inst) -> machine.Program``),
and ``spec_for`` imports it on first use, so a command compiles only the
algorithm it runs.  No other module carries per-algorithm code.

A hint value that many frames hold at once is a read-only ``SharedRow``, spelled
by its own text; a frame reuses one only where its source cells are the same.
"""

from __future__ import annotations

from importlib import import_module
from random import Random
from typing import Any, Callable, Generator, NamedTuple

from _blake2 import blake2b

from ..machine import Delta, Fold, LiveState, RunCounts, Trace, fold_trace

# task family -> (its home module, parallel, sequential)
TABLE = {
    "search": ("search", "parallel_search", "binary_search"),
    "sort": ("sorting", "oets", "bubble_sort"),
    "scc": ("scc", "dcsc", "kosaraju"),
}

# algorithm -> (its home module, the spec's name there).  The names are made
# once: CPython's attribute cache keeps the name string of a getattr, so one
# made per lookup stays alive.
_HOMES = {
    name: (f"{__name__}.{home}", name.upper()) for home, *names in TABLE.values() for name in names
}

ALGORITHMS = tuple(_HOMES)

# task family -> (sequential, parallel)
PAIRS = {family: (seq, par) for family, (_, par, seq) in TABLE.items()}


class ProbeSpec(NamedTuple):
    """One observable: name, stage (input/hint/output), location, dtype."""

    name: str
    stage: str
    location: str
    dtype: str

    def to_obj(self, algo: str) -> dict:
        return {
            "algo": algo,
            "dtype": self.dtype,
            "location": self.location,
            "name": self.name,
            "stage": self.stage,
        }


class HintFrame(NamedTuple):
    step: int
    values: dict


class SharedRow(list):
    """A hint row that many frames hold at once, with its JSON text as
    ``text``, built once from cells that are exact ints or shared rows.

    A shared row is a value, as a tuple is: every write through it
    (``row[i] = x``, ``+=``, ``append``, ...) raises TypeError, since it
    would edit every frame that holds the row, so an edit replaces the row
    with an edited ``list(row)``.  ``copy.copy`` and ``copy.deepcopy``
    return the row itself, and ``pickle`` rebuilds a read-only row with the
    same cells and ``text``.  Equality, ``isinstance(row, list)`` and the
    json encoder's text are those of a list.
    """

    __slots__ = ("text",)

    def __init__(self, cells) -> None:
        super().__init__(cells)
        # a list's repr with the spaces taken out: a row of exact ints (or of
        # such rows) spelled as the json encoder spells it, one C call
        self.text = list.__repr__(self).replace(" ", "")

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shared hint row is read-only: edit a plain copy, list(row)")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def _itself(self, memo=None):
        return self

    __copy__ = __deepcopy__ = _itself

    def __reduce_ex__(self, protocol):
        return SharedRow, (tuple(self),)


# what a reference yields (the values of each frame) and returns (the outputs)
Replay = Generator[dict, None, dict]


class AlgorithmSpec(NamedTuple):
    """Everything the pipeline needs to know about one algorithm.

    ``run(inst, fold)`` builds the algorithm's ``machine.Program`` for
    ``inst``, runs it with ``machine.run_machine`` and returns the output and
    the run as ``fold`` reduces it;
    ``generate(n, seed)`` draws one instance, a function of its size and
    seed alone (SCC's out-degree bound is ``scc.MAX_DEGREE``); ``exhaustive(n)``
    enumerates the whole input space of a tiny size (``None`` where that is
    not defined).  ``frame(inst, state, delta, prev)`` decodes the hint
    values of the layer that wrote ``delta`` and left the machine in
    ``state``, given ``prev``, the frame of the layer before (None for the
    first); it reads ``delta`` to rebuild only the lists the layer touched,
    and keeps none of ``state``'s lists, which the next layer writes;
    ``inputs(inst, pos)`` and ``outputs(output)`` build the payloads of a
    sample, and ``reference(inputs, n)`` re-derives a sample from its inputs
    and size alone: a generator that yields the ``values`` of each hint frame
    in turn and returns the outputs, so a caller holds one frame at a time
    and stops pulling where it likes.  It checks nothing and raises nothing
    on schema-valid inputs.  ``parse_inline(text)`` reads a ``trace`` input and
    ``note(inst, state, delta)`` annotates that layer in a printed trace.
    ``run_shape(inputs, n)`` is the ``(m, width)`` of a run on those inputs.
    ``input_violations(inputs, n)``, where set, lists what schema-valid
    inputs break of the input domain that the probe schema cannot express.
    """

    name: str
    family: str
    run: Callable[[Any, Fold], tuple[Any, Trace | RunCounts]]
    generate: Callable[[int, int], Any]
    exhaustive: Callable[[int], list] | None
    probes: tuple[ProbeSpec, ...]
    frame: Callable[[Any, LiveState, Delta, dict | None], dict]
    inputs: Callable[[Any, list[float]], dict]
    outputs: Callable[[Any], dict]
    reference: Callable[[dict, int], Replay]
    parse_inline: Callable[[str], Any]
    note: Callable[[Any, LiveState, Delta], str]
    run_shape: Callable[[dict, int], tuple[int, int]]
    input_violations: Callable[[dict, int], list[str]] | None = None


def increasing_unit_scalars(rng: Random, n: int) -> list[float]:
    """n distinct values in [0,1), strictly increasing (rank rescaling)."""
    draws = sorted(rng.random() for _ in range(n))
    return [(k + draws[k]) / n for k in range(n)]


def sample_seed(master: int, algo_id: str, n: int, index: int) -> int:
    """64-bit per-sample seed: blake2b over 'master|algo|n|index'.  It comes
    from CPython's built-in ``_blake2``, the function ``hashlib.blake2b``
    names: ``hashlib`` would also load OpenSSL (about 3.5 MB resident)."""
    text = f"{master}|{algo_id}|{n}|{index}".encode("ascii")
    return int.from_bytes(blake2b(text, digest_size=8).digest(), "big")


def spec_for(algo_id: str) -> AlgorithmSpec:
    """The registered spec of one algorithm, its home module imported on
    first use; ValueError for an unknown name."""
    try:
        home, name = _HOMES[algo_id]
    except KeyError:
        raise ValueError(f"unknown algorithm {algo_id!r}") from None
    return getattr(import_module(home), name)


def run(algo_id: str, instance, fold: Fold = fold_trace):
    """Run one of the six algorithms; returns (output, the run folded by
    ``fold``): a ``Trace`` by default, ``RunCounts`` with ``fold_counts``."""
    return spec_for(algo_id).run(instance, fold)
