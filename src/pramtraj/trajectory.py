"""Probe schemas, hint-annotated samples, validation, and NDJSON datasets.

A sample records one run: its inputs, one hint frame per machine layer (the
walk over a trace's layers is ``encode_sample``), the outputs, and the
per-layer activity counts.
Validation checks a sample against its probe schema, then replays it.
Serialization is canonical: sorted keys, 17-significant-digit floats, LF
lines -- two serializations of the same sample are byte-identical.

``validate`` reads a dataset one line at a time.  ``line_is_clean`` accepts
a canonical line whose hints are byte-equal to the canonical text of the
replayed frames, after decoding and checking only its small fields; every
other line is parsed whole (``parse_ndjson``) and checked cell by cell
(``validate_sample``), which is what reports a violation.  Both compare the
replayed frames as the reference yields them, so neither holds more than
one.

The writer (``serialize_ndjson``) and ``line_is_clean`` spell hint frames
with one function, ``_hint_pieces``, which reads no spec.  A list that many
frames hold at once is a read-only ``algorithms.SharedRow`` built with its
text: the SCC node lists and the sorts' ``pred``, which a frame keeps from
the frame before wherever the layer left their source cells as they were,
and the sorts' ``swap_mask`` rows (``sorting.mask_rows``) and whole mask
of a swap-free layer (``sorting.zero_mask``).  A shared row, or a matrix of
them, is spelled by its text, an exact int by ``str``, and any other value
(a search frame's lists, a list of a parsed or edited sample) by one C
encoder call.  The inputs are ``dumps_canonical``, which hands a list or
matrix of ints, or of floats that repr spells as it does (the SCC adjacency
matrices), to the C encoder whole and walks any other value cell by cell.
"""

from __future__ import annotations

import json
from math import isfinite
from operator import attrgetter
from pathlib import Path
from random import Random
from typing import Iterable, Iterator, Mapping, NamedTuple

from .algorithms import (
    ALGORITHMS,
    AlgorithmSpec,
    HintFrame,
    ProbeSpec,
    SharedRow,
    increasing_unit_scalars,
    sample_seed,
    spec_for,
)
from .canonical import _encode_ints, dumps_canonical
from .machine import Trace, layer_counter, replay


class DatasetFormatError(Exception):
    """Malformed dataset stream; message carries the offending line number."""

    def __init__(self, lineno: int, reason: object) -> None:
        super().__init__(f"line {lineno}: {reason}")
        self.reason = reason


class ReplayError(Exception):
    """Hint frames or outputs differ from the ones replayed from the inputs."""


class Sample(NamedTuple):
    algo: str
    n: int
    seed: dict
    inputs: dict
    hints: tuple[HintFrame, ...]
    outputs: dict
    activity: dict

    @classmethod
    def from_obj(cls, obj: Mapping) -> "Sample":
        return cls(
            algo=obj["algo"],
            n=obj["n"],
            seed=obj["seed"],
            inputs=obj["inputs"],
            hints=tuple(HintFrame(f["step"], f["values"]) for f in obj["hints"]),
            outputs=obj["outputs"],
            activity=obj["activity"],
        )


def categories(probe: ProbeSpec, n: int) -> int:
    """Category count for a categorical probe; the search rank has an extra
    category for the query-node placeholder."""
    if probe.location == "graph" and probe.name == "rank":
        return n + 1
    return n


def _spec_of(sample: "Sample") -> AlgorithmSpec | None:
    """The spec of a sample's algorithm, None for a value that names none."""
    algo = sample.algo
    return spec_for(algo) if isinstance(algo, str) and algo in ALGORITHMS else None


def encode_sample(
    algo_id: str,
    inst,
    trace: Trace,
    output,
    *,
    seed: int,
    master: int,
    index: int,
) -> Sample:
    """Turn one run into a dataset record.

    Positional scalars are drawn once from the sample seed: distinct values
    in [0,1), strictly increasing with node index.
    """
    spec = spec_for(algo_id)
    n = inst.n
    pos = increasing_unit_scalars(Random(seed), n)
    hints = []
    values = None
    for t, (state, delta, _) in enumerate(replay(trace), 1):
        values = spec.frame(inst, state, delta, values)
        hints.append(HintFrame(t, values))
    return Sample(
        algo=algo_id,
        n=n,
        seed={"index": index, "master": master, "value": seed},
        inputs=spec.inputs(inst, pos),
        hints=tuple(hints),
        outputs=spec.outputs(output),
        activity=activity_summary(trace),
    )


def activity_summary(trace: Trace) -> dict:
    """The per-layer counts of one run, as a dataset's ``activity`` block:
    ``{"m", "steps": [{"edges", "nodes", "ops"}], "width"}``, each layer
    counted by ``machine.layer_counter``."""
    m, count = layer_counter(trace.graph, trace.instance_edges)
    steps = [
        {"edges": count(rec.active_edges), "nodes": len(rec.active_nodes), "ops": rec.op_count}
        for rec in trace.activity
    ]
    return {"m": m, "steps": steps, "width": trace.width}


# ---------------------------------------------------------------------------
# validation


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_payload(probe: ProbeSpec, value, n: int, where: str, out: list[str]) -> None:
    if probe.location == "node":
        if not (isinstance(value, list) and len(value) == n):
            out.append(f"{where}.{probe.name}: node payload must be a length-{n} list")
            return
        cells = value
    elif probe.location == "edge":
        if not (
            isinstance(value, list)
            and len(value) == n
            and all(isinstance(row, list) and len(row) == n for row in value)
        ):
            out.append(f"{where}.{probe.name}: edge payload must be {n}x{n}")
            return
        cells = [v for row in value for v in row]
    else:
        cells = [value]
    # the type test goes first: it keeps bools, floats and lists out of set, min and max
    if probe.dtype == "mask":
        if not (set(map(type, cells)) <= {int} and set(cells) <= {0, 1}):
            out.append(f"{where}.{probe.name}: mask domain")
    elif probe.dtype == "categorical":
        top = categories(probe, n)
        if not (set(map(type, cells)) <= {int} and 0 <= min(cells) and max(cells) < top):
            out.append(f"{where}.{probe.name}: categorical range [0,{top})")
    else:
        kinds = set(map(type, cells))
        # an int of any size is finite, and isfinite would overflow on a huge one
        floats = cells if int not in kinds else [v for v in cells if type(v) is float]
        if not (kinds <= {int, float} and all(map(isfinite, floats))):
            out.append(f"{where}.{probe.name}: scalar must be finite")


# the least value of each int field of the seed and activity blocks (None: any int)
_SEED_FIELDS = {"index": 0, "master": None, "value": None}
_ACTIVITY_FIELDS = {"m": 0, "width": 0}
_STEP_FIELDS = {"edges": 0, "nodes": 0, "ops": 0}


def _int_fields(obj, fields: dict, where: str, out: list[str], others=frozenset()) -> bool:
    """Whether ``obj`` breaks its shape, each break put in ``out``: it must
    be an object with exactly the keys of ``fields`` and ``others``, and each
    key of ``fields`` an int no less than its bound."""
    if type(obj) is not dict:
        out.append(f"{where}: must be an object")
        return True
    found = len(out)
    keys = fields.keys() | others
    if obj.keys() != keys:
        out.append(f"{where}: expected {sorted(keys)}, got {sorted(obj)}")
    for key, least in fields.items():
        value = obj.get(key, 0)
        if type(value) is not int or (least is not None and value < least):
            bound = "an int" if least is None else f"an int >= {least}"
            out.append(f"{where}.{key}: must be {bound}")
    return len(out) > found


def _field_violations(algo: AlgorithmSpec, n: int, inputs, outputs, seed, activity) -> list[str]:
    """The input and output payloads against their probe schemas, the seed
    and activity blocks' shapes, and distinct positional scalars; when that
    finds nothing, ``pos`` must be what ``encode_sample`` draws from
    ``seed.value``, a search or sort line's other inputs what its generator
    draws from it, and ``seed.value`` the ``sample_seed`` of its master and
    index."""
    out: list[str] = []
    for stage, payload in (("input", inputs), ("output", outputs)):
        if not isinstance(payload, dict):
            out.append(f"{stage}s: must be an object")
            continue
        probes = [p for p in algo.probes if p.stage == stage]
        names = {p.name for p in probes}
        if set(payload) != names:
            out.append(f"{stage}s: expected {sorted(names)}, got {sorted(payload)}")
        for probe in probes:
            if probe.name in payload:
                _check_payload(probe, payload[probe.name], n, f"{stage}s", out)
    pos = inputs.get("pos") if isinstance(inputs, dict) else None
    if isinstance(pos, list) and all(_is_number(v) for v in pos) and len(set(pos)) != len(pos):
        out.append("inputs.pos: positional scalars must be distinct")
    _int_fields(seed, _SEED_FIELDS, "seed", out)
    _int_fields(activity, _ACTIVITY_FIELDS, "activity", out, frozenset({"steps"}))
    steps = activity.get("steps") if type(activity) is dict else None
    if not isinstance(steps, list):
        out.append("activity.steps missing")
    else:
        for idx, step in enumerate(steps):
            if _int_fields(step, _STEP_FIELDS, f"activity.steps[{idx}]", out):
                break  # only the first bad layer: a line may have thousands
    if out:
        return out
    if inputs["pos"] != increasing_unit_scalars(Random(seed["value"]), n):
        return ["inputs.pos: not drawn from seed.value"]
    # an SCC line may hold a digraph that no seed draws: tests/test_golden.py
    # validates a line of every digraph on up to four nodes
    drawn = algo.family == "scc" or inputs == algo.inputs(algo.generate(n, seed["value"]), pos)
    if not drawn:
        return ["inputs: not drawn from seed.value"]
    if seed["value"] != sample_seed(seed["master"], algo.name, n, seed["index"]):
        return ["seed.value: not derived from seed.master, algo, n and seed.index"]
    return []


def _domain_violations(algo: AlgorithmSpec, n: int, inputs: dict, activity: dict) -> list[str]:
    """What the inputs of a line with no field violation break of their
    domain (``input_violations``); when nothing, ``activity.m`` and
    ``activity.width`` against the ``run_shape`` of the inputs."""
    out = algo.input_violations(inputs, n) if algo.input_violations is not None else []
    shape = () if out else zip(("m", "width"), algo.run_shape(inputs, n))
    return out + [f"activity.{key}: must be {want}" for key, want in shape if activity[key] != want]


def validate_sample(sample: Sample) -> list[str]:
    """Check one sample against its algorithm's probe schema, input domain
    and ``run_shape`` and, when that finds nothing, replay it
    (``replay_sample``); returns violations.

    Never raises on a malformed payload: a container of the wrong type is a
    violation like any other, a frame or output the replay does not
    reproduce is one ``replay: ...`` violation.
    """
    algo = _spec_of(sample)
    if algo is None:
        return [f"unknown algorithm {sample.algo!r}"]
    n = sample.n
    if type(n) is not int or n < 1:
        return ["n must be a positive integer"]

    out = _field_violations(algo, n, sample.inputs, sample.outputs, sample.seed, sample.activity)
    steps = sample.activity.get("steps") if isinstance(sample.activity, dict) else None
    if isinstance(steps, list) and len(sample.hints) != len(steps):
        out.append(f"hints length {len(sample.hints)} != depth {len(steps)}")

    hint_probes = [p for p in algo.probes if p.stage == "hint"]
    hint_names = {p.name for p in hint_probes}
    for idx, frame in enumerate(sample.hints):
        where = f"hints[{idx}]"
        if not isinstance(frame.values, dict):
            out.append(f"{where}: values must be an object")
            continue
        if set(frame.values) != hint_names:
            out.append(f"{where}: expected {sorted(hint_names)}, got {sorted(frame.values)}")
            continue
        for probe in hint_probes:
            _check_payload(probe, frame.values[probe.name], n, where, out)

    if not out:
        out = _domain_violations(algo, n, sample.inputs, sample.activity)
    if out:
        return out
    try:
        outputs = replay_sample(sample)
    except ReplayError as err:
        return [f"replay: {err}"]
    if outputs != sample.outputs:
        return ["replay: outputs mismatch"]
    return []


# ---------------------------------------------------------------------------
# canonical serialization


_ROW_TEXT = attrgetter("text")


def _text(value) -> str:
    """``_encode_ints(value)``, with a ``SharedRow`` spelled by its own
    text, a list of them (a matrix) by joining theirs and an exact int by
    ``str``."""
    if type(value) is SharedRow:
        return value.text
    if type(value) is int:
        return str(value)
    if type(value) is list and value and type(value[0]) is SharedRow and set(map(type, value)) == {SharedRow}:
        return f"[{','.join(map(_ROW_TEXT, value))}]"
    return _encode_ints(value)


def _spelled(step: int, values: dict, names: dict[tuple, list[tuple[str, str]]]) -> str:
    """``_encode_ints({"step": step, "values": values})``, each value by
    ``_text``; ``names`` keeps the sorted keys of each key order met, each
    with its ``"name":`` text."""
    keys = tuple(values)
    order = names.get(keys)
    if order is None:
        order = names[keys] = [(key, f"{_encode_ints(key)}:") for key in sorted(keys)]
    body = ",".join([name + _text(values[key]) for key, name in order])
    return f'{{"step":{_text(step)},"values":{{{body}}}}}'


def _hint_pieces(frames: Iterable[tuple[int, dict]]) -> Iterator[str]:
    """The canonical text of a hint list of (step, values) frames, piece by
    piece: ``[``, each ``{"step":t,"values":...}`` and the comma before it,
    then ``]``.

    A frame is what a spec's ``frame`` and ``reference`` build: an int step
    and a dict of ints and lists of ints, most of them shared read-only rows
    (``SharedRow``) that carry their text: an SCC frame's node lists, of
    which one DFS event or BFS layer changes one or two, and the sorts'
    ``pred`` and ``swap_mask``.  The plain lists of a parsed or edited
    sample's frames are spelled by the encoder, with the same text.  The
    keys' ``"name":`` text is made once per key order, not once per frame.
    """
    names: dict[tuple, list[tuple[str, str]]] = {}
    yield "["
    for idx, (step, values) in enumerate(frames):
        if idx:
            yield ","
        yield _spelled(step, values, names)
    yield "]"


def _ndjson_line(sample: Sample) -> str:
    """dumps_canonical of the object ``Sample.from_obj`` reads, + "\\n", field
    by field in key order: the hints by ``_hint_pieces``, the inputs by
    ``dumps_canonical`` (every scalar probe is an input probe, so no other
    field carries a float) and every other field by one C encoder call."""
    hints = "".join(_hint_pieces((frame.step, frame.values) for frame in sample.hints))
    n = str(sample.n) if type(sample.n) is int else _encode_ints(sample.n)
    return (
        f'{{"activity":{_encode_ints(sample.activity)},"algo":{_encode_ints(sample.algo)}'
        f',"hints":{hints},"inputs":{dumps_canonical(sample.inputs)},"n":{n}'
        f',"outputs":{_encode_ints(sample.outputs)},"seed":{_encode_ints(sample.seed)}}}\n'
    )


def serialize_ndjson(samples: Iterable[Sample]) -> bytes:
    """Canonical NDJSON: one dumps_canonical line per sample, LF-terminated."""
    return "".join(_ndjson_line(s) for s in samples).encode("utf-8")


def parse_ndjson(data: bytes | str, lineno: int = 1) -> list[Sample]:
    """The samples of an NDJSON stream whose first line is line ``lineno``.
    A line that is blank or not a sample (JSON that does not parse, an int
    too long to convert included), and bytes that are not UTF-8 (as line
    ``lineno``), are a DatasetFormatError."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as err:
        raise DatasetFormatError(lineno, err) from None
    samples = []
    for lineno, line in enumerate(text.splitlines(), start=lineno):
        if not line.strip():
            raise DatasetFormatError(lineno, "blank line")
        try:
            obj = json.loads(line)
            samples.append(Sample.from_obj(obj))
        except (ValueError, RecursionError, KeyError, TypeError) as err:
            raise DatasetFormatError(lineno, err) from None
    return samples


def serialize_schema(algo_id: str) -> bytes:
    probes = sorted(spec_for(algo_id).probes, key=lambda p: (p.stage, p.location, p.name))
    lines = [dumps_canonical(p.to_obj(algo_id)) for p in probes]
    return ("\n".join(lines) + "\n").encode("utf-8")


def schema_path_for(path: Path) -> Path:
    """Sidecar path: same basename with a .schema suffix.  A ValueError for a
    dataset path that would be its own sidecar."""
    schema = path.with_suffix(".schema")
    if schema == path:
        raise ValueError(f"dataset {path} would be its own schema sidecar")
    return schema


def parse_schema(data: bytes | str) -> tuple[str, list[ProbeSpec]]:
    """The algorithm and probes of a schema sidecar.  Bytes that are not
    UTF-8, a line that is not a probe, and an empty sidecar are a
    DatasetFormatError that names the line."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as err:
        raise DatasetFormatError(data.count(b"\n", 0, err.start) + 1, err) from None
    algo = None
    probes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            obj = json.loads(line)
            probes.append(ProbeSpec(obj["name"], obj["stage"], obj["location"], obj["dtype"]))
            algo = obj["algo"]
        except (ValueError, RecursionError, KeyError, TypeError) as err:
            raise DatasetFormatError(lineno, err) from None
    if algo is None:
        raise DatasetFormatError(1, "empty schema")
    return algo, probes


# ---------------------------------------------------------------------------
# replay: re-derive every hint frame and the outputs from the inputs alone


def _replayed(algo: AlgorithmSpec, inputs: dict, n: int, count: int, outputs: list) -> Iterator[dict]:
    """The replay of a line of ``count`` frames: yields the reference's
    frames one at a time, then checks that the reference ends there and puts
    the replayed outputs in ``outputs``.  It pulls at most ``count + 1``
    frames; a replay of another length is a ReplayError."""
    frames = algo.reference(inputs, n)
    for idx in range(count):
        values = next(frames, None)
        if values is None:
            raise ReplayError(f"{count} frames, the replay takes {idx}")
        yield values
    try:
        next(frames)
    except StopIteration as stop:
        outputs.append(stop.value)
        return
    raise ReplayError(f"{count} frames, the replay takes more")


def replay_sample(sample: Sample) -> dict:
    """Re-derive every hint frame and the outputs from the inputs and size
    alone with the algorithm's ``reference``; returns the replayed outputs.

    The frames must match exactly: the same count, ``step == idx + 1`` and
    equal values.  Each frame is compared as the replay derives it, and the
    first failure raises ReplayError naming the frame and its first differing
    probe, or the count; on a schema-valid sample nothing else raises.
    """
    algo = _spec_of(sample)
    if algo is None:
        raise ReplayError(f"unknown algorithm {sample.algo!r}")
    outputs: list[dict] = []
    replay = _replayed(algo, sample.inputs, sample.n, len(sample.hints), outputs)
    # the replay goes first, so zip runs it to its end
    for idx, (want, frame) in enumerate(zip(replay, sample.hints)):
        if type(frame.step) is not int or frame.step != idx + 1:
            raise ReplayError(f"frame {idx}: step {frame.step!r}, expected {idx + 1}")
        if frame.values != want:
            name = next((k for k in want if frame.values.get(k) != want[k]), "values")
            raise ReplayError(f"frame {idx}: {name} mismatch")
    return outputs[0]


# ---------------------------------------------------------------------------
# the line check: a canonical line accepted without decoding its hints

_HINTS = b',"hints":'
_INPUTS = b',"inputs":{'
_HEAD_KEYS = {"activity", "algo"}
_TAIL_KEYS = {"inputs", "n", "outputs", "seed"}


def _one_line(text: str) -> bool:
    return text.splitlines() == [text]


def line_is_clean(chunk: bytes, algo_id: str) -> bool:
    """True only when the chunk is one line of a dataset of ``algo_id`` and
    ``validate_sample`` finds nothing in its sample, decided without decoding
    the line's hints.  A chunk is the bytes up to and including a "\\n".

    The chunk is cut at its first ``,"hints":[`` and its last ``,"inputs":{``.
    When the head (plus ``}``) and the tail (after ``{``) are UTF-8 with no
    line break and parse to objects with exactly the keys before and after
    ``hints``, the line parses to their union with the hints between the
    cuts.  Every check ``validate_sample`` makes on the small fields runs on
    them; the hints must then be byte-equal to the writer's text of the
    replayed frames (``_hint_pieces``), compared frame by frame as the replay
    yields them -- in-domain ints, so the per-cell walk and the frame replay
    would find nothing -- and the outputs equal to the replayed ones, types
    included.  False means "not decided here": the line goes through
    ``parse_ndjson`` and ``validate_sample``.
    """
    start = chunk.find(_HINTS + b"[")
    end = chunk.rfind(_INPUTS)
    if start < 0 or end < start:
        return False
    try:
        head_text = chunk[:start].decode("utf-8") + "}"
        tail_text = "{" + chunk[end + 1 :].removesuffix(b"\n").decode("utf-8")
        if not (_one_line(head_text) and _one_line(tail_text)):
            return False
        head = json.loads(head_text)
        tail = json.loads(tail_text)
    except (ValueError, RecursionError):
        return False
    if not (
        type(head) is dict
        and head.keys() == _HEAD_KEYS
        and type(tail) is dict
        and tail.keys() == _TAIL_KEYS
        and head["algo"] == algo_id
    ):
        return False
    algo = spec_for(algo_id)
    n, inputs, activity = tail["n"], tail["inputs"], head["activity"]
    if not (type(n) is int and n >= 1):
        return False
    if _field_violations(algo, n, inputs, tail["outputs"], tail["seed"], activity) or _domain_violations(
        algo, n, inputs, activity
    ):
        return False
    outputs: list[dict] = []
    at = start + len(_HINTS)
    try:
        frames = enumerate(_replayed(algo, inputs, n, len(activity["steps"]), outputs), 1)
        for piece in _hint_pieces(frames):
            text = piece.encode()
            if not chunk.startswith(text, at):
                return False
            at += len(text)
    except ReplayError:
        return False
    return at == end and _encode_ints(outputs[0]) == _encode_ints(tail["outputs"])
