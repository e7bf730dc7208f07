"""Seeded input generators and the dataset production pipeline.

Per-sample seeds are mixed as ``blake2b(master|algo|n|index)`` truncated to
64 bits (``spec.sample_seed``), so an instance depends only on (master
seed, algorithm, size, sample index), never on batch size or generation
order.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from .algorithms import ALGORITHMS, run, spec_for
from .machine import MachineError, collector_paused
from .spec import sample_seed
from .trajectory import Sample, encode_sample, schema_path_for, serialize_ndjson, serialize_schema


class _GenFields(NamedTuple):
    algo_id: str
    n_list: tuple[int, ...]
    samples_per_n: int
    seed: int
    max_degree: int = 3


class GenConfig(_GenFields):
    """One dataset production job."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        if self.algo_id not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo_id!r}")
        if self.samples_per_n < 1:
            raise ValueError("samples_per_n must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if any(n < 1 for n in self.n_list):
            raise ValueError("n must be >= 1")
        if len(set(self.n_list)) != len(self.n_list):
            raise ValueError("n_list must not repeat a size")


@contextmanager
def labelled_failure(algo_id: str, n: int, index: int, master: int | None):
    """Re-raise a machine failure in the block as an error of the same type
    whose message ends by naming the input: by master seed and sample index,
    or, when ``master`` is None, by its index in the exhaustive enumeration."""
    try:
        yield
    except MachineError as err:
        where = "exhaustive index" if master is None else f"master seed {master}, index"
        raise type(err)(f"{err} (algo {algo_id}, n {n}, {where} {index})") from err


def generate_instance(algo_id: str, n: int, seed: int, max_degree: int = 3):
    """One seeded instance from the algorithm's generator."""
    return spec_for(algo_id).generate(n, seed, max_degree)


def exhaustive_instances(algo_id: str, n: int):
    """Whole input space for tiny sizes, where the algorithm defines one: one
    instance per rank position for searching, every permutation for sorting."""
    if n > 6:
        raise ValueError("exhaustive enumeration supports n <= 6 only")
    enumerate_all = spec_for(algo_id).exhaustive
    if enumerate_all is None:
        raise ValueError(f"exhaustive enumeration is not defined for {algo_id}")
    return enumerate_all(n)


def build_samples(cfg: GenConfig) -> Iterator[Sample]:
    """Generate, run, and encode every sample of a job, in (n, index) order,
    one at a time."""
    for n in cfg.n_list:
        for index in range(cfg.samples_per_n):
            yield _build_sample(cfg, n, index)


def _build_sample(cfg: GenConfig, n: int, index: int) -> Sample:
    """One sample; its trace is freed before the collector is back on and
    before the next sample is drawn."""
    seed = sample_seed(cfg.seed, cfg.algo_id, n, index)
    inst = generate_instance(cfg.algo_id, n, seed, cfg.max_degree)
    with collector_paused(), labelled_failure(cfg.algo_id, n, index, cfg.seed):
        output, trace = run(cfg.algo_id, inst)
        sample = encode_sample(
            cfg.algo_id, inst, trace, output, seed=seed, master=cfg.seed, index=index
        )
        del trace  # freed while the collector is still off
    return sample


def write_dataset(path: Path, samples: Iterable[Sample], algo_id: str) -> int:
    """Write samples as canonical NDJSON, one line as each is drawn, then the
    schema sidecar; returns the number of samples.

    The lines go to a sibling ``.part`` file that replaces ``path`` only once
    every sample is written, so a job that fails leaves no partial dataset.
    """
    path = Path(path)
    schema = schema_path_for(path)
    part = path.with_name(path.name + ".part")
    count = 0
    try:
        with part.open("wb") as out:
            for sample in samples:
                out.write(serialize_ndjson([sample]))
                out.flush()
                count += 1
                del sample  # freed before the next sample is drawn, not after
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    schema.write_bytes(serialize_schema(algo_id))
    return count
