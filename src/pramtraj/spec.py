"""The description of one algorithm that the rest of the pipeline reads.

Each algorithm module defines one ``AlgorithmSpec`` beside the function
that makes its machine program (``<name>_program(inst) ->
machine.Program``): how to run it, how to draw or enumerate its inputs, its
probe schema, how to decode one layer's hint values (what ``gen`` writes)
and re-derive them one frame at a time without the machine (what
``validate`` compares them with), how to parse an inline ``trace`` input and
annotate one layer.  Only ``trajectory.encode_sample`` and ``cli.cmd_trace``
walk a trace's layers.  ``pramtraj.algorithms`` is the one registry, which
imports a spec's module on first use; generation, encoding, validation,
replay and analysis look the algorithm up there and carry no per-algorithm
code.

A hint value that many frames hold at once is a ``SharedRow``: a read-only
list that carries its JSON text, which the writer spells by identity.
``mask_rows(n)`` builds the n + 1 rows that every sort frame's
``swap_mask`` is made of.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random
from typing import Any, Callable, Generator, NamedTuple

from _blake2 import blake2b

from .machine import Fold, MachineState, RunCounts, Trace


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
    ``text``.

    Every write through it (``row[i] = x``, ``+=``, ``append``, ...) raises
    TypeError, since it would edit every frame that holds the row.
    ``list(row)`` is a plain copy to edit, and so is what ``copy.copy``,
    ``copy.deepcopy`` and ``pickle`` make of a row.  Equality,
    ``isinstance(row, list)`` and the json encoder's text are those of a
    list.
    """

    __slots__ = ("text",)

    def _read_only(self, *args, **kwargs):
        raise TypeError("a shared hint row is read-only: edit a plain copy, list(row)")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only

    def __reduce_ex__(self, protocol):
        return list, (list(self),)


@lru_cache(maxsize=None)
def mask_rows(n: int) -> tuple[SharedRow, ...]:
    """The n + 1 rows of an n x n 0/1 mask in which each node has at most
    one partner, built once per n: ``rows[k]`` is one-hot at k for k < n,
    and ``rows[n]`` is all zero."""
    rows = tuple(SharedRow(int(j == k) for j in range(n)) for k in range(n + 1))
    for row in rows:
        row.text = f"[{','.join(map(str, row))}]"
    return rows


# what a reference yields (the values of each frame) and returns (the outputs)
Replay = Generator[dict, None, dict]


class AlgorithmSpec(NamedTuple):
    """Everything the pipeline needs to know about one algorithm.

    ``run(inst, fold)`` builds the algorithm's ``machine.Program`` for
    ``inst``, runs it with ``machine.run_machine`` and returns the output and
    the run as ``fold`` reduces it;
    ``generate(n, seed, max_degree)`` draws one instance; ``exhaustive(n)``
    enumerates the whole input space of a tiny size (``None`` where that is
    not defined).  ``frame(inst, before, after)`` decodes the hint values of
    the layer that took machine state ``before`` to ``after``,
    ``inputs(inst, pos)`` and ``outputs(output)`` build the payloads of a
    sample, and ``reference(inputs, n)`` re-derives a sample from its inputs
    and size alone: a generator that yields the ``values`` of each hint frame
    in turn and returns the outputs, so a caller holds one frame at a time
    and stops pulling where it likes.  It checks nothing and raises nothing
    on schema-valid inputs.  ``parse_inline(text)`` reads a ``trace`` input and
    ``note(inst, before, after)`` annotates that layer in a printed trace.
    ``input_violations(inputs, n)``, where set, lists what schema-valid
    inputs break of the input domain that the probe schema cannot express.
    """

    name: str
    family: str
    run: Callable[[Any, Fold], tuple[Any, Trace | RunCounts]]
    generate: Callable[[int, int, int], Any]
    exhaustive: Callable[[int], list] | None
    probes: tuple[ProbeSpec, ...]
    frame: Callable[[Any, MachineState, MachineState], dict]
    inputs: Callable[[Any, list[float]], dict]
    outputs: Callable[[Any], dict]
    reference: Callable[[dict, int], Replay]
    parse_inline: Callable[[str], Any]
    note: Callable[[Any, MachineState, MachineState], str]
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
