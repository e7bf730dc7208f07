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
with one function, ``_hint_pieces``.  It spells the rows of an edge-located
hint probe (the sorts' dense n x n ``swap_mask``) one by one.  A sort
frame's rows are shared read-only rows (``spec.SharedRow``: n + 1 per n,
from ``spec.mask_rows``), each spelled by the text it carries.  Every other
list, a plain row included (one of a parsed or edited sample), comes whole
from a cache of list text that lives for one line, keyed by the list's
marshal bytes (an SCC frame's node lists, most of which one layer leaves as
they were).  An exact int is spelled by ``str``, and every other hint value
is one C encoder call.  The inputs are ``dumps_canonical``, which hands a
list or matrix of ints, or of floats that repr spells as it does (the SCC
adjacency matrices), to the C encoder whole and walks any other value cell
by cell.
"""

from __future__ import annotations

import json
import marshal
from itertools import chain
from math import isfinite
from pathlib import Path
from random import Random
from typing import Iterable, Iterator, Mapping, NamedTuple

from .algorithms import ALGORITHMS, spec_for
from .machine import Trace, activity_summary
from .spec import AlgorithmSpec, HintFrame, ProbeSpec, SharedRow, increasing_unit_scalars, sample_seed


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


def probe_spec(algo_id: str) -> tuple[ProbeSpec, ...]:
    """Fixed probe schema of one algorithm."""
    return spec_for(algo_id).probes


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
    states = trace.states  # frame t decodes the layer from states[t - 1] to states[t]
    return Sample(
        algo=algo_id,
        n=n,
        seed={"index": index, "master": master, "value": seed},
        inputs=spec.inputs(inst, pos),
        hints=tuple(
            HintFrame(t, spec.frame(inst, before, after))
            for t, (before, after) in enumerate(zip(states, states[1:]), 1)
        ),
        outputs=spec.outputs(output),
        activity=activity_summary(trace),
    )


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
    # an SCC draw also depends on a max_degree that the line does not record
    drawn = algo.family == "scc" or inputs == algo.inputs(algo.generate(n, seed["value"], 1), pos)
    if not drawn:
        return ["inputs: not drawn from seed.value"]
    if seed["value"] != sample_seed(seed["master"], algo.name, n, seed["index"]):
        return ["seed.value: not derived from seed.master, algo, n and seed.index"]
    return []


def validate_sample(sample: Sample) -> list[str]:
    """Check one sample against its algorithm's probe schema and input
    domain and, when that finds nothing, replay it (``replay_sample``);
    returns violations.

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

    if not out and algo.input_violations is not None:
        out = algo.input_violations(sample.inputs, n)
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


def _fmt_float(value: float) -> str:
    if not isfinite(value):
        raise ValueError("non-finite float in dataset payload")
    text = format(value, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _canon(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        text = _plain_numbers(obj)
        if text is not None:
            out.append(text)
            return
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ValueError("object keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    else:
        raise ValueError(f"unserializable value {obj!r}")


def dumps_canonical(obj) -> str:
    """The canonical text of obj: the definition of the dataset format.

    A list, or a list of lists, whose cells are all exactly int, or all
    exactly float with each distinct float spelled alike by repr and by the
    17-digit format, is one C encoder call (the SCC adjacency matrices,
    whose floats are 0.0 and 1.0); any other value is walked cell by
    cell."""
    pieces: list[str] = []
    _canon(obj, pieces)
    return "".join(pieces)


# The C encoder writes ints, strings, lists and str-keyed dicts exactly as
# dumps_canonical does, but formats floats with repr, not 17 digits.
_encode_ints = json.JSONEncoder(
    ensure_ascii=False, allow_nan=False, separators=(",", ":"), sort_keys=True
).encode


def _plain_numbers(obj) -> str | None:
    """The C encoder's text of the list or tuple ``obj`` when it is the
    canonical text, else None: ``obj``, or each of its rows (lists), holds
    cells that are all exactly int or all exactly float, each distinct float
    spelled by repr as by ``_fmt_float``.  A float that is not finite raises
    ValueError, as ``_fmt_float`` does."""
    cells = obj
    kinds = set(map(type, cells))
    if kinds == {list}:
        cells = list(chain.from_iterable(obj))
        kinds = set(map(type, cells))
    # each distinct float once, in list order, so the 17-digit ones of pos
    # fail at the first; 0.0 and -0.0 are one key, and both pass
    if kinds <= {int} or kinds == {float} and all(repr(v) == _fmt_float(v) for v in dict.fromkeys(cells)):
        return _encode_ints(obj)
    return None


def _edge_hints(algo: AlgorithmSpec | None) -> frozenset:
    """The hint probes of an algorithm that the writer spells row by row;
    none where no algorithm is known."""
    if algo is None:
        return frozenset()
    return frozenset(p.name for p in algo.probes if p.stage == "hint" and p.location == "edge")


# version 2 writes no back-references, which follow object identity, so
# equal lists marshal to equal bytes
_MARSHAL_VERSION = 2


def _cached_text(value, texts: dict[bytes, str]) -> str:
    """``_encode_ints(value)``, kept in ``texts`` by the value's marshal
    bytes.  Equal bytes load to equal values of equal cell types, so
    ``[1,0]``, ``[true,0]`` and ``[1.0,0]`` never share an entry, as
    ``tuple(row)`` keys would (``True == 1 == 1.0``)."""
    packed = marshal.dumps(value, _MARSHAL_VERSION)
    text = texts.get(packed)
    if text is None:
        text = texts[packed] = _encode_ints(value)
    return text


def _spelled(step: int, values: dict, edges: frozenset, texts: dict[bytes, str]) -> str:
    """``_encode_ints({"step": step, "values": values})``, with an exact int
    spelled by ``str`` and each list by ``_cached_text``: an edge probe's
    row by row, where a ``SharedRow`` is spelled by its own ``text``, and any
    other list whole."""
    parts = ['{"step":', str(step), ',"values":{']
    for idx, key in enumerate(sorted(values)):
        value = values[key]
        parts += ("," if idx else "", _encode_ints(key), ":")
        if type(value) is int:
            parts.append(str(value))
        elif type(value) is not list:
            parts.append(_encode_ints(value))
        elif key in edges:
            rows = (row.text if type(row) is SharedRow else _cached_text(row, texts) for row in value)
            parts += ("[", ",".join(rows), "]")
        else:
            parts.append(_cached_text(value, texts))
    parts.append("}}")
    return "".join(parts)


def _hint_pieces(frames: Iterable[tuple[int, dict]], edges: frozenset) -> Iterator[str]:
    """The canonical text of a hint list of (step, values) frames, piece by
    piece: ``[``, each ``{"step":t,"values":...}`` and the comma before it,
    then ``]``.

    A frame is what ``spec.frame`` and ``spec.reference`` build: an int step
    and a dict of ints and lists of ints.  The rows of a probe named in
    ``edges`` (the algorithm's edge-located hint probes) are spelled one by
    one: the sorts' ``swap_mask`` rows are shared read-only rows
    (``SharedRow``, from ``spec.mask_rows``), each spelled by the text it
    carries, so a frame's mask costs n lookups and no encoding.  Every
    other list, and a plain row (a parsed or edited sample's), is spelled
    from a cache of list text that lives for this call; one DFS or BFS
    layer changes a cell or two of an SCC frame's node lists, so most of
    them are the previous frame's.  An exact int is spelled by ``str``, and
    any other value is one C encoder call, in sorted key order.
    """
    texts: dict[bytes, str] = {}
    yield "["
    for idx, (step, values) in enumerate(frames):
        if idx:
            yield ","
        yield _spelled(step, values, edges, texts)
    yield "]"


def _ndjson_line(sample: Sample) -> str:
    """dumps_canonical of the object ``Sample.from_obj`` reads, + "\\n", field
    by field in key order: the hints by ``_hint_pieces``, the inputs by
    ``dumps_canonical`` (every scalar probe is an input probe, so no other
    field carries a float) and every other field by one C encoder call."""
    edges = _edge_hints(_spec_of(sample))
    hints = "".join(_hint_pieces(((frame.step, frame.values) for frame in sample.hints), edges))
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
    probes = sorted(probe_spec(algo_id), key=lambda p: (p.stage, p.location, p.name))
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
    if _field_violations(algo, n, inputs, tail["outputs"], tail["seed"], activity) or (
        algo.input_violations is not None and algo.input_violations(inputs, n)
    ):
        return False
    outputs: list[dict] = []
    at = start + len(_HINTS)
    try:
        frames = enumerate(_replayed(algo, inputs, n, len(activity["steps"]), outputs), 1)
        for piece in _hint_pieces(frames, _edge_hints(algo)):
            text = piece.encode()
            if not chunk.startswith(text, at):
                return False
            at += len(text)
    except ReplayError:
        return False
    return at == end and _encode_ints(outputs[0]) == _encode_ints(tail["outputs"])
