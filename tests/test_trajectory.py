import copy
import json
import operator
import pickle
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pramtraj.algorithms import ALGORITHMS, run, scc, search, sorting, spec_for
from pramtraj.algorithms.search import SearchInstance, parallel_search
from pramtraj.algorithms.sorting import SortInstance, oets_sort
from pramtraj.algorithms.scc import dcsc
from pramtraj.graphs import Digraph
from pramtraj.harness import generate_instance, sample_seed
from pramtraj.spec import HintFrame, mask_rows
from pramtraj.trajectory import (
    _edge_hints,
    _hint_pieces,
    DatasetFormatError,
    ReplayError,
    Sample,
    categories,
    dumps_canonical,
    encode_sample,
    line_is_clean,
    parse_ndjson,
    parse_schema,
    probe_spec,
    replay_sample,
    serialize_ndjson,
    serialize_schema,
    validate_sample,
)

from canon_oracle import per_cell

# task family -> the module that defines its two specs
HOMES = {"search": search, "sort": sorting, "scc": scc}

SIZES = {"parallel_search": 5, "binary_search": 9, "oets": 6, "bubble_sort": 5, "dcsc": 8, "kosaraju": 8}


def make_sample(algo, n=None, index=0, master=11):
    n = n or SIZES[algo]
    seed = sample_seed(master, algo, n, index)
    inst = generate_instance(algo, n, seed)
    output, trace = run(algo, inst)
    return encode_sample(algo, inst, trace, output, seed=seed, master=master, index=index)


def as_obj(sample):
    """The object form of a sample, as its written line parses."""
    return json.loads(serialize_ndjson([sample]))


def drain(replay):
    """(frames, outputs) of a reference's replay, run to its end."""
    frames = []
    while True:
        try:
            frames.append(next(replay))
        except StopIteration as stop:
            return frames, stop.value


def counting(reference, pulled: list[int]):
    """``reference``, adding to ``pulled[0]`` each frame it yields."""

    def counted(inputs, n):
        replay = reference(inputs, n)
        while True:
            try:
                values = next(replay)
            except StopIteration as stop:
                return stop.value
            pulled[0] += 1
            yield values

    return counted


def with_frames(sample, keep: int):
    """The sample with its first ``keep`` hint frames and activity steps."""
    return sample._replace(
        hints=sample.hints[:keep],
        activity={**sample.activity, "steps": sample.activity["steps"][:keep]},
    )


class TestProbeSpec:
    def test_examples(self):
        par = {(p.name, p.stage, p.location, p.dtype) for p in probe_spec("parallel_search")}
        assert ("leq_mask", "hint", "node", "mask") in par
        oets = {(p.name, p.stage, p.location, p.dtype) for p in probe_spec("oets")}
        assert ("parity", "hint", "graph", "mask") in oets
        dcsc_probes = {(p.name, p.stage, p.location, p.dtype) for p in probe_spec("dcsc")}
        assert ("in_scc", "hint", "node", "mask") in dcsc_probes

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            probe_spec("quicksort")

    def test_name_stage_unique(self):
        for algo in ALGORITHMS:
            keys = [(p.name, p.stage) for p in probe_spec(algo)]
            assert len(keys) == len(set(keys))


class TestEncode:
    def test_parallel_search_mask_frame(self):
        inst = SearchInstance(items=(9.0, 7.0, 5.0, 3.0, 1.0), x=5.0)
        rank, trace = parallel_search(inst)
        sample = encode_sample("parallel_search", inst, trace, rank, seed=3, master=3, index=0)
        assert sample.hints[0].values["leq_mask"] == [0, 0, 1, 1, 1]
        assert sample.outputs == {"rank": 2}
        assert sample.n == 5 and len(sample.hints) == trace.depth

    def test_oets_sorted_input_all_masks_false(self):
        inst = SortInstance(items=(1.0, 2.0, 3.0))
        pred, trace = oets_sort(inst)
        sample = encode_sample("oets", inst, trace, pred, seed=3, master=3, index=0)
        for frame in sample.hints:
            assert all(v == 0 for row in frame.values["swap_mask"] for v in row)
        assert [f.values["parity"] for f in sample.hints] == [0, 1]

    def test_dcsc_three_cycle_final_frame(self):
        g = Digraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        ptr, trace = dcsc(g)
        sample = encode_sample("dcsc", g, trace, ptr, seed=3, master=3, index=0)
        last = sample.hints[-1].values
        assert last["in_scc"] == [1, 1, 1]
        assert last["scc_ptr"] == [0, 0, 0]

    def test_positions_distinct_and_increasing(self):
        for algo in ALGORITHMS:
            sample = make_sample(algo)
            pos = sample.inputs["pos"]
            assert all(0.0 <= p < 1.0 for p in pos)
            assert all(a < b for a, b in zip(pos, pos[1:]))

    def test_schema_closure(self):
        for algo in ALGORITHMS:
            sample = make_sample(algo)
            probes = probe_spec(algo)
            assert set(sample.inputs) == {p.name for p in probes if p.stage == "input"}
            assert set(sample.outputs) == {p.name for p in probes if p.stage == "output"}
            hint_names = {p.name for p in probes if p.stage == "hint"}
            for frame in sample.hints:
                assert set(frame.values) == hint_names

    def test_activity_block_matches_trace(self):
        algo = "oets"
        n = 6
        seed = sample_seed(11, algo, n, 0)
        inst = generate_instance(algo, n, seed)
        output, trace = run(algo, inst)
        sample = encode_sample(algo, inst, trace, output, seed=seed, master=11, index=0)
        steps = sample.activity["steps"]
        assert len(steps) == trace.depth
        assert sample.activity["width"] == trace.width
        for rec, entry in zip(trace.activity, steps):
            assert entry["nodes"] == len(rec.active_nodes)
            assert entry["ops"] == rec.op_count


class TestValidate:
    def test_well_formed_samples_pass(self):
        for algo in ALGORITHMS:
            sample = make_sample(algo)
            assert validate_sample(sample) == []

    def _corrupt(self, sample):
        return as_obj(sample)

    def test_pos_must_be_drawn_from_the_seed(self):
        for algo in ALGORITHMS:
            obj = as_obj(make_sample(algo, n=6, master=0))
            for edit in (
                lambda o: o["inputs"]["pos"].__setitem__(0, o["inputs"]["pos"][0] / 2),
                lambda o: o["seed"].__setitem__("value", o["seed"]["value"] + 1),
            ):
                edited = copy.deepcopy(obj)
                edit(edited)
                sample = Sample.from_obj(edited)
                assert validate_sample(sample) == ["inputs.pos: not drawn from seed.value"], algo
                assert not line_is_clean(serialize_ndjson([sample]), algo), algo
            # a seed.value that is not an int names no draw: the seed is reported, not pos
            edited = copy.deepcopy(obj)
            edited["seed"]["value"] = str(edited["seed"]["value"])
            assert validate_sample(Sample.from_obj(edited)) == ["seed.value: must be an int"], algo

    @pytest.mark.parametrize("algo", [a for a in ALGORITHMS if spec_for(a).family != "scc"])
    def test_every_digit_edit_of_items_or_x_is_rejected(self, algo):
        # a search or sort instance is drawn from seed.value: each single-digit
        # edit of items or x that still parses to another object is rejected
        chunk = serialize_ndjson([make_sample(algo, n=5, master=3)])
        obj = json.loads(chunk)
        spans = []
        for key, end in ((b'"items":[', b"]"), (b'"x":', b"}")):
            start = chunk.find(key)
            if start >= 0:
                spans.append(range(start + len(key), chunk.index(end, start)))
        rejected = 0
        for at in (at for span in spans for at in span if chunk[at] in b"0123456789"):
            for digit in b"0123456789":
                mutant = chunk[:at] + bytes([digit]) + chunk[at + 1 :]
                try:
                    if json.loads(mutant) == obj:
                        continue
                except ValueError:
                    continue
                assert verdict(mutant) == ["inputs: not drawn from seed.value"], (algo, mutant)
                assert not line_is_clean(mutant, algo), (algo, mutant)
                rejected += 1
        assert rejected > 500, rejected

    def test_seed_must_be_the_sample_seed_of_its_master_and_index(self):
        for algo in ALGORITHMS:
            obj = as_obj(make_sample(algo, n=6, index=1, master=0))
            assert verdict(compact(obj)) == [] and line_is_clean(compact(obj), algo), algo
            for key, value in (("index", 0), ("index", 2), ("master", 1), ("master", -1)):
                edited = copy.deepcopy(obj)
                edited["seed"][key] = value
                chunk = compact(edited)
                assert verdict(chunk) == [
                    "seed.value: not derived from seed.master, algo, n and seed.index"
                ], (algo, key, value)
                assert not line_is_clean(chunk, algo), (algo, key, value)

    def test_mask_domain_violation(self):
        sample = make_sample("parallel_search")
        for cell in (2, -1, True, 1.0, [1]):
            obj = self._corrupt(sample)
            obj["hints"][0]["values"]["leq_mask"][0] = cell
            bad = Sample.from_obj(obj)
            assert any("mask domain" in v for v in validate_sample(bad)), cell

    def test_undiscovered_monotonicity_violation(self):
        sample = make_sample("dcsc")
        obj = self._corrupt(sample)
        # force a 0 -> 1 flip: mark a still-undiscovered node as discovered
        # in the first frame only
        frames = obj["hints"]
        node = frames[1]["values"]["undiscovered"].index(1)
        frames[0]["values"]["undiscovered"][node] = 0
        bad = Sample.from_obj(obj)
        assert validate_sample(bad) == ["replay: frame 0: undiscovered mismatch"]

    def test_categorical_range_violation(self):
        sample = make_sample("oets")
        for cell in (sample.n, -1, True, 1.0, [1]):
            obj = self._corrupt(sample)
            obj["hints"][0]["values"]["pred"][0] = cell
            bad = Sample.from_obj(obj)
            assert any("categorical range" in v for v in validate_sample(bad)), cell

    def test_output_mismatch_violation(self):
        for algo in ALGORITHMS:
            sample = make_sample(algo, n=6, master=0)
            obj = self._corrupt(sample)
            name, value = next(iter(obj["outputs"].items()))
            if isinstance(value, list):
                value[0] = (value[0] + 1) % 6
            else:
                obj["outputs"][name] = (value + 1) % 7
            assert validate_sample(Sample.from_obj(obj)) == ["replay: outputs mismatch"], algo

    def test_hint_length_violation(self):
        sample = make_sample("bubble_sort")
        obj = self._corrupt(sample)
        obj["hints"] = obj["hints"][:-1]
        bad = Sample.from_obj(obj)
        assert any("depth" in v for v in validate_sample(bad))

    def test_scc_adjacency_domain(self):
        for algo in ("dcsc", "kosaraju"):
            sample = make_sample(algo, n=6, master=0)
            for value in (0.5, -1.0, 2.0):
                obj = self._corrupt(sample)
                obj["inputs"]["adj_directed"][0][1] = value
                assert validate_sample(Sample.from_obj(obj)) == [
                    "inputs.adj_directed: cells must be 0.0 or 1.0"
                ], (algo, value)
            obj = self._corrupt(sample)
            obj["inputs"]["adj_directed"][3][3] = 1.0
            assert validate_sample(Sample.from_obj(obj)) == [
                "inputs.adj_directed: diagonal must be 0.0"
            ], algo
            # an edge added to both matrices keeps the pair consistent and is
            # left to the replay; one added to adj_undirected alone is not
            u, v = next((u, v) for u in range(6) for v in range(6)
                        if u != v and sample.inputs["adj_undirected"][u][v] == 0)
            obj = self._corrupt(sample)
            obj["inputs"]["adj_undirected"][u][v] = 1
            assert validate_sample(Sample.from_obj(obj)) == [
                "inputs.adj_undirected: must be the symmetric closure of adj_directed"
            ], algo

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity", "true", "9" * 400],
                             ids=["nan", "inf", "-inf", "true", "int400"])
    @pytest.mark.parametrize("beside", [None, "3"], ids=["alone", "beside_an_int"])
    def test_scalar_input_cells(self, cell, beside):
        # json.loads reads NaN and the infinities; an int of any size is finite
        for algo, name, path in (("parallel_search", "x", ()), ("oets", "items", (0,)),
                                 ("dcsc", "adj_directed", (0, 1))):
            if beside and not path:
                continue  # a graph-level scalar is one cell
            obj = as_obj(make_sample(algo, n=6, master=0))
            target, where = obj["inputs"], name
            for step in path:
                target, where = target[where], step
            target[where] = "@cell"
            if beside:
                target[where + 1] = "@beside"
            text = json.dumps(obj).replace('"@cell"', cell).replace('"@beside"', str(beside))
            found = validate_sample(Sample.from_obj(json.loads(text)))
            finite = f"inputs.{name}: scalar must be finite"
            assert (finite in found) is (cell != "9" * 400), (algo, found)
            assert found, algo

    def test_validator_never_throws(self):
        bad = Sample("nonsense", 3, {}, {}, (), {}, {})
        assert validate_sample(bad)

    def test_odd_inputs_never_throw(self):
        # schema-clean inputs that gen never writes: the replay runs on them
        # and reports a violation or nothing, but raises nothing
        rng = Random(5)
        for algo in ALGORITHMS:
            for index in range(4):
                sample = make_sample(algo, n=6, index=index, master=0)
                for _ in range(30):
                    obj = as_obj(sample)
                    name = rng.choice(sorted(obj["inputs"]))
                    value = obj["inputs"][name]
                    cell = rng.choice([0.0, 1.0, 0.5, -3.0, rng.random()])
                    if isinstance(value, float):
                        obj["inputs"][name] = cell
                    elif isinstance(value[0], list):
                        row = rng.randrange(6)
                        value[row][rng.randrange(6)] = int(cell == 1.0) if name == "adj_undirected" else cell
                    else:
                        value[rng.randrange(6)] = cell
                    assert isinstance(validate_sample(Sample.from_obj(obj)), list)


class TestSerialization:
    def test_round_trip_identity(self):
        samples = [make_sample(a) for a in ALGORITHMS]
        data = serialize_ndjson(samples)
        parsed = parse_ndjson(data)
        assert parsed == samples

    def test_deterministic_bytes(self):
        a = serialize_ndjson([make_sample("dcsc")])
        b = serialize_ndjson([make_sample("dcsc")])
        assert a == b

    def test_empty_stream(self):
        assert serialize_ndjson([]) == b""
        assert parse_ndjson(b"") == []

    def test_malformed_line_reports_number(self):
        data = serialize_ndjson([make_sample("oets"), make_sample("oets", index=1)])
        broken = data.replace(b"\n", b"\n{oops\n", 1)
        with pytest.raises(DatasetFormatError, match="line 2"):
            parse_ndjson(broken)

    def test_float_formatting(self):
        assert dumps_canonical(0.1) == "0.10000000000000001"
        assert dumps_canonical(1.0) == "1.0"
        assert dumps_canonical({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))

    @given(
        st.recursive(
            st.one_of(
                st.integers(-10**9, 10**9),
                st.floats(allow_nan=False, allow_infinity=False),
                st.booleans(),
                st.none(),
                st.text(max_size=12),
            ),
            lambda inner: st.one_of(
                st.lists(inner, max_size=4),
                st.dictionaries(st.text(max_size=6), inner, max_size=4),
            ),
            max_leaves=18,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_canonical_json_round_trips(self, obj):
        import json

        text = dumps_canonical(obj)
        again = json.loads(text)
        assert dumps_canonical(again) == text

    def test_schema_sidecar_round_trip(self):
        for algo in ALGORITHMS:
            data = serialize_schema(algo)
            got_algo, probes = parse_schema(data)
            assert got_algo == algo
            assert set(probes) == set(probe_spec(algo))


class TestWriter:
    """serialize_ndjson writes the bytes of dumps_canonical, the format's
    definition, with the int-only fields going through the C encoder."""

    @staticmethod
    def reference(sample):
        """dumps_canonical of the object the written line parses to, which
        reads back as the sample itself (as in test_round_trip_identity)."""
        obj = as_obj(sample)
        assert Sample.from_obj(obj) == sample
        return (dumps_canonical(obj) + "\n").encode("utf-8")

    def test_scalar_probes_are_inputs(self):
        for spec in map(spec_for, ALGORITHMS):
            for probe in spec.probes:
                if probe.dtype == "scalar":
                    assert probe.stage == "input", (spec.name, probe.name)

    def test_matches_canonical_for_every_algorithm(self):
        for algo in ALGORITHMS:
            for n in (1, 2, 7, 16):
                for index, master in ((0, 0), (1, 11), (3, 2**40)):
                    sample = make_sample(algo, n=n, index=index, master=master)
                    assert serialize_ndjson([sample]) == self.reference(sample)

    def test_an_n_of_another_type_keeps_its_text(self):
        # an exact int n is spelled by str, any other n by the encoder
        sample = make_sample("oets", n=1)
        for n in (True, _Cell(1), 1.0):
            assert serialize_ndjson([sample._replace(n=n)]) == self.reference(sample._replace(n=n)), n

    @given(st.sampled_from(ALGORITHMS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_edge_floats_in_inputs(self, algo, data):
        floats = st.sampled_from((-0.0, 1e16, 5e-324, 0.1, 1 / 3)) | st.floats(
            allow_nan=False, allow_infinity=False
        )

        def redraw(value):
            if isinstance(value, float):
                return data.draw(floats)
            if isinstance(value, list):
                return [redraw(v) for v in value]
            return value

        sample = make_sample(algo, n=4)
        inputs = {name: redraw(value) for name, value in sample.inputs.items()}
        sample = sample._replace(inputs=inputs)
        assert serialize_ndjson([sample]) == self.reference(sample)
        assert serialize_ndjson([sample, sample]) == self.reference(sample) * 2

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_number_lists_match_the_per_cell_walk(self, data):
        # a few cell values drawn many times, so that many lists hold only
        # ints or only floats and go to the C encoder whole
        pool = data.draw(st.lists(_NUMBER_CELLS, min_size=1, max_size=3))
        cell = st.sampled_from(pool)
        n = data.draw(st.integers(0, 4))
        flat = data.draw(st.lists(cell, max_size=6))
        matrix = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        for value in (flat, matrix, {"adj": matrix, "pos": flat}):
            assert dumps_canonical(value) == per_cell(value)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_a_non_finite_float_in_a_matrix_raises(self, data):
        n = data.draw(st.integers(1, 4))
        cell = st.sampled_from((0.0, -0.0, 1.0, 0.1, 1e16, 0, 1))
        matrix = data.draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
        row, col = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        matrix[row][col] = data.draw(st.sampled_from((float("nan"), float("inf"), float("-inf"))))
        for value in (matrix, matrix[row], {"adj": matrix}):
            with pytest.raises(ValueError):
                dumps_canonical(value)


def spelled(hints, edges) -> str:
    """The writer's text of a hint list, its lists from the list-text cache."""
    return "".join(_hint_pieces(((frame.step, frame.values) for frame in hints), edges))


def canonical(hints) -> str:
    return dumps_canonical([{"step": frame.step, "values": frame.values} for frame in hints])


# Cells spelled alike by the C encoder and dumps_canonical: the writer spells
# a float by repr, which is safe because hints carry none (see
# test_scalar_probes_are_inputs), so the floats here are ones whose repr is
# their canonical text.  True == 1 == 1.0 and False == 0 == 0.0 == -0.0.
_CELLS = (0, 1, 2, True, False, 0.0, -0.0, 1.0, 0.5)
_MASK = frozenset({"swap_mask"})


class _Cell(int):
    """An int subclass: the C encoder and dumps_canonical spell it as an int."""


class _Float(float):
    """A float subclass: dumps_canonical spells it with 17 digits."""


# floats whose repr is their 17-digit text and ones whose is not, an int
# equal to 1e16, bools, and subclasses of int and float
_NUMBER_CELLS = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 0.1, 1 / 3, 1e16, 5e-324)),
    st.sampled_from((0, 1, 10**16)) | st.integers(),
    st.booleans(),
    st.integers(0, 3).map(_Cell),
    st.sampled_from((0.0, 1.0, 0.1)).map(_Float),
)


class TestHintRows:
    """The row cache of _hint_pieces changes no byte of the hint text."""

    def test_edge_hints_are_the_sort_swap_masks(self):
        edges = {algo: _edge_hints(spec_for(algo)) for algo in ALGORITHMS}
        assert {algo: set(names) for algo, names in edges.items() if names} == {
            "oets": {"swap_mask"},
            "bubble_sort": {"swap_mask"},
        }
        assert _edge_hints(None) == frozenset()  # a sample of no registered algorithm

    def test_every_sample(self):
        for algo in ALGORITHMS:
            for n in (1, 2, 7, 16):
                for index, master in ((0, 0), (1, 11), (3, 2**40)):
                    hints = make_sample(algo, n=n, index=index, master=master).hints
                    assert spelled(hints, _edge_hints(spec_for(algo))) == canonical(hints), (algo, n, index)

    def test_equal_rows_of_other_cell_types_keep_their_own_text(self):
        rows = ([1, 0], [True, 0], [1.0, 0], [0, 0], [False, False], [0.0, -0.0], [0, 0], [1, 0])
        hints = [HintFrame(t, {"swap_mask": [list(row), list(row)], "pred": row}) for t, row in enumerate(rows, 1)]
        text = spelled(hints, _MASK)
        assert text == canonical(hints)
        assert '"swap_mask":[[true,0],[true,0]]' in text and '"swap_mask":[[1.0,0],[1.0,0]]' in text

    def test_a_shared_row_beside_plain_rows_of_equal_value(self):
        shared = mask_rows(2)[0]
        assert shared == [1, 0] and isinstance(shared, list)
        hints = [
            HintFrame(1, {"swap_mask": [shared, [True, 0]], "pred": [0, 0]}),
            HintFrame(2, {"swap_mask": [[1.0, 0], [1, 0]], "pred": [0, 0]}),
            HintFrame(3, {"swap_mask": [[1, 0], shared], "pred": [0, 0]}),
        ]
        text = spelled(hints, _MASK)
        assert text == canonical(hints)
        for mask in ("[[1,0],[true,0]]", "[[1.0,0],[1,0]]", "[[1,0],[1,0]]"):
            assert f'"swap_mask":{mask}' in text

    def test_scalars_of_other_int_types_keep_their_own_text(self):
        # an exact int is spelled by str, a bool or an int subclass by the encoder
        cells = (0, 7, 2**70, True, False, _Cell(1))
        hints = [HintFrame(t, {"parity": cell, "pred": [0]}) for t, cell in enumerate(cells, 1)]
        text = spelled(hints, _MASK)
        assert text == canonical(hints)
        assert '{"step":4,"values":{"parity":true,"pred":[0]}}' in text

    def test_equal_node_lists_of_other_cell_types_keep_their_own_text(self):
        # no edge probe at all: every list is looked up whole
        rows = ([1, 0], [True, 0], [1.0, 0], [1, 0])
        hints = [HintFrame(t, {"pred": list(row), "reach": [0, 1]}) for t, row in enumerate(rows, 1)]
        text = spelled(hints, frozenset())
        assert text == canonical(hints)
        for t, row in enumerate(("[1,0]", "[true,0]", "[1.0,0]", "[1,0]"), 1):
            assert f'{{"step":{t},"values":{{"pred":{row},"reach":[0,1]}}}}' in text

    def test_frames_without_the_edge_probe_and_odd_payloads(self):
        hints = [
            HintFrame(1, {"pred": [0]}),
            HintFrame(2, {"swap_mask": 3, "pred": [0]}),
            HintFrame(3, {"swap_mask": [[0], "x", None, [[1]], {"b": 1, "a": [0]}]}),
            HintFrame(4, {"swap_mask": [[0]]}),
        ]
        assert spelled(hints, _MASK) == canonical(hints)
        assert spelled([], _MASK) == "[]"

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_any_rows(self, data):
        n = data.draw(st.integers(1, 4))
        pool = data.draw(st.lists(st.lists(st.sampled_from(_CELLS), min_size=n, max_size=n), min_size=1, max_size=4))
        # a few distinct rows drawn many times, each as a list object of its own
        matrix = st.lists(st.sampled_from(pool).map(list), min_size=n, max_size=n)
        values = st.fixed_dictionaries(
            {"pred": st.lists(st.integers(0, n - 1), min_size=n, max_size=n)},
            optional={"swap_mask": matrix, "parity": st.sampled_from(_CELLS)},
        )
        frames = data.draw(st.lists(values, max_size=6))
        hints = [HintFrame(t, v) for t, v in enumerate(frames, 1)]
        assert spelled(hints, _MASK) == canonical(hints)

    def test_a_flipped_cached_row_is_caught(self):
        # an all-zero row of the last frame, a row earlier frames hold too,
        # replaced by a copy with one 1: the byte comparison and the replay see it
        for algo in ("oets", "bubble_sort"):
            sample = make_sample(algo, n=8, master=0)
            k = len(sample.hints) - 1
            mask = sample.hints[k].values["swap_mask"]
            row = next(r for r in range(8) if not any(mask[r]))
            assert any(mask[row] == earlier for frame in sample.hints[:k] for earlier in frame.values["swap_mask"])
            shared = mask[row]
            mask[row] = flipped = list(shared)
            flipped[(row + 3) % 8] = 1
            try:
                chunk = serialize_ndjson([sample])
                assert not line_is_clean(chunk, algo), algo
                assert verdict(chunk) == [f"replay: frame {k}: swap_mask mismatch"], algo
            finally:
                mask[row] = shared

    def test_a_flipped_cached_node_list_is_caught(self):
        # one cell of a node list of the last frame whose text the cache
        # holds from the frame before: the byte comparison and the replay see it
        for algo in ("dcsc", "kosaraju"):
            sample = make_sample(algo, n=8, master=0)
            k = len(sample.hints) - 1
            last, before = sample.hints[k].values, sample.hints[k - 1].values
            name = next(name for name in sorted(last) if last[name] == before[name])
            last[name][0] ^= 1  # 0 and 1 swap, and so do the categories 2k and 2k+1
            chunk = serialize_ndjson([sample])
            assert not line_is_clean(chunk, algo), algo
            assert verdict(chunk) == [f"replay: frame {k}: {name} mismatch"], algo


# every way to write through a list: what ``row[i] = x``, ``row[i:j] = xs``,
# ``del row[i]``, ``+=``, ``*=`` and each mutating method call
_WRITES = {
    "setitem": lambda row: operator.setitem(row, 0, 1),
    "setslice": lambda row: operator.setitem(row, slice(0, 1), [1]),
    "delitem": lambda row: operator.delitem(row, 0),
    "iadd": lambda row: operator.iadd(row, [1]),
    "imul": lambda row: operator.imul(row, 2),
    "append": lambda row: row.append(1),
    "extend": lambda row: row.extend([1]),
    "insert": lambda row: row.insert(0, 1),
    "pop": lambda row: row.pop(),
    "remove": lambda row: row.remove(row[0]),
    "clear": lambda row: row.clear(),
    "sort": lambda row: row.sort(),
    "reverse": lambda row: row.reverse(),
}


class TestSharedMaskRows:
    """A sort frame's swap_mask rows are n + 1 read-only rows per n."""

    @pytest.mark.parametrize("algo", ["oets", "bubble_sort"])
    @pytest.mark.parametrize("n", [1, 2, 8, 33])
    def test_at_most_n_plus_one_rows_that_refuse_writes(self, algo, n):
        sample = make_sample(algo, n=n, master=0)
        frames, _ = drain(spec_for(algo).reference(sample.inputs, n))
        for masks in ([f.values["swap_mask"] for f in sample.hints], [v["swap_mask"] for v in frames]):
            rows = {id(row): row for mask in masks for row in mask}
            assert len(rows) <= n + 1, (algo, n, len(rows))
            for row in rows.values():
                before = list(row)
                for name, write in _WRITES.items():
                    with pytest.raises(TypeError, match=r"read-only: edit a plain copy, list\(row\)"):
                        write(row)
                    assert row == before, name

    @pytest.mark.parametrize(
        "duplicate",
        [
            copy.copy,
            copy.deepcopy,
            lambda row: pickle.loads(pickle.dumps(row)),
            lambda row: pickle.loads(pickle.dumps(row, 0)),
        ],
        ids=["copy", "deepcopy", "pickle", "pickle-0"],
    )
    def test_a_copied_row_is_a_plain_list(self, duplicate):
        for row in mask_rows(4):
            twin = duplicate(row)
            assert type(twin) is list and twin == row and twin is not row
            twin[0] = 7
            assert row[0] != 7

    def test_deepcopied_hints_serialize_alike_and_can_be_edited(self):
        sample = make_sample("oets", n=8, master=0)
        line = serialize_ndjson([sample])
        hints = copy.deepcopy(sample.hints)
        copied = sample._replace(hints=hints)
        assert serialize_ndjson([copied]) == line
        hints[0].values["swap_mask"][0][0] = 1
        assert validate_sample(copied) != []
        assert serialize_ndjson([sample]) == line and validate_sample(sample) == []

    def test_the_table_is_built_once_per_n(self):
        rows = mask_rows(5)
        assert rows is mask_rows(5)
        assert rows == tuple([int(j == k) for j in range(5)] for k in range(6))
        assert [row.text for row in rows] == [dumps_canonical(row) for row in rows]


class TestReplay:
    def test_replay_reproduces_outputs(self):
        for algo in ALGORITHMS:
            for index in range(3):
                sample = make_sample(algo, index=index)
                assert replay_sample(sample) == sample.outputs

    def test_replay_sweep_across_sizes(self):
        for algo in ALGORITHMS:
            for n in (2, 3, 13):
                for index in range(4):
                    sample = make_sample(algo, n=n, index=index, master=23)
                    assert validate_sample(sample) == []
                    assert replay_sample(sample) == sample.outputs

    def test_minimal_instances(self):
        # n=1 is legal everywhere; bubble even has an empty trajectory
        for algo in ALGORITHMS:
            sample = make_sample(algo, n=1)
            assert validate_sample(sample) == []
            assert replay_sample(sample) == sample.outputs
            if algo == "bubble_sort":
                assert sample.hints == ()

    def test_final_frame_consistency(self):
        # output-bearing hint probes must equal the outputs map
        for algo, probe in (("oets", "pred"), ("bubble_sort", "pred"), ("dcsc", "scc_ptr"), ("kosaraju", "scc_ptr")):
            sample = make_sample(algo)
            assert sample.hints[-1].values[probe] == sample.outputs[probe]

    def test_replay_count_must_match_the_line(self):
        # hints and activity.steps one frame short, or one frame long with a
        # copy of the last values at the next step: the only fault is the
        # count, which the replay reports itself, not through the outputs
        for algo in ALGORITHMS:
            sample = make_sample(algo, n=6, master=0)
            count = len(sample.hints)
            longer = sample._replace(
                hints=sample.hints + (HintFrame(count + 1, sample.hints[-1].values),),
                activity={**sample.activity, "steps": sample.activity["steps"] * 2},
            )
            for edited, message in (
                (with_frames(sample, count - 1), f"replay: {count - 1} frames, the replay takes more"),
                (with_frames(longer, count + 1), f"replay: {count + 1} frames, the replay takes {count}"),
            ):
                assert validate_sample(edited) == [message], algo
                assert not line_is_clean(serialize_ndjson([edited]), algo), algo

    def test_replay_pulls_at_most_one_frame_past_the_line(self, monkeypatch):
        for algo in ALGORITHMS:
            sample = make_sample(algo, n=16, master=0)
            pulled = [0]
            spec = spec_for(algo)._replace(reference=counting(spec_for(algo).reference, pulled))
            # the registry reads the spec off its home module at each lookup
            monkeypatch.setattr(HOMES[spec.family], algo.upper(), spec)
            assert spec_for(algo) is spec
            for keep in (0, 1, len(sample.hints)):
                edited = with_frames(sample, keep)
                chunk = serialize_ndjson([edited])
                pulled[0] = 0
                assert line_is_clean(chunk, algo) == (keep == len(sample.hints)), (algo, keep)
                assert pulled[0] <= keep + 1, (algo, keep, pulled[0])
                pulled[0] = 0
                if keep == len(sample.hints):
                    assert replay_sample(edited) == sample.outputs
                else:
                    with pytest.raises(ReplayError, match="the replay takes more"):
                        replay_sample(edited)
                assert pulled[0] <= keep + 1, (algo, keep, pulled[0])

    def test_replay_detects_tampered_hints(self):
        sample = make_sample("binary_search")
        obj = as_obj(sample)
        obj["hints"][0]["values"]["mid"] = [0] * sample.n
        with pytest.raises(ReplayError):
            replay_sample(Sample.from_obj(obj))

    def test_parallel_search_replay_checks_every_frame(self):
        for index in range(4):
            sample = make_sample("parallel_search", n=8, index=index)
            for t in range(len(sample.hints)):
                for cell in range(sample.n):
                    obj = as_obj(sample)
                    mask = obj["hints"][t]["values"]["leq_mask"]
                    mask[cell] = 1 - mask[cell]
                    with pytest.raises(ReplayError):
                        replay_sample(Sample.from_obj(obj))

    def test_parallel_search_replay_needs_two_frames(self):
        sample = make_sample("parallel_search", n=8)
        obj = as_obj(sample)
        obj["hints"] = obj["hints"][:1]
        with pytest.raises(ReplayError):
            replay_sample(Sample.from_obj(obj))

    def test_replay_detects_tampered_swaps(self):
        sample = make_sample("oets", n=6)
        obj = as_obj(sample)
        mask = obj["hints"][0]["values"]["swap_mask"]
        mask[0][3] = 1
        mask[3][0] = 1
        with pytest.raises(ReplayError):
            replay_sample(Sample.from_obj(obj))

    def test_every_hint_mutation_is_a_violation(self):
        # every one-cell change of a hint that stays in its probe's domain
        for algo in ALGORITHMS:
            hints = [p for p in spec_for(algo).probes if p.stage == "hint"]
            for index in range(2):
                sample = make_sample(algo, n=6, index=index, master=0)
                for idx, frame in enumerate(sample.hints):
                    for probe in hints:
                        # (holder, key, col): holder[key] is the probe's value (col None)
                        # or the row that holds the cell; a row is replaced by an edited
                        # copy, since a mask row is shared with other frames and the replay
                        n, value = sample.n, frame.values[probe.name]
                        if probe.location == "graph":
                            slots = [(frame.values, probe.name, None)]
                        elif probe.location == "node":
                            slots = [(frame.values, probe.name, col) for col in range(n)]
                        else:
                            slots = [(value, row, col) for row in range(n) for col in range(n)]
                        top = 2 if probe.dtype == "mask" else categories(probe, n)
                        for holder, key, col in slots:
                            kept = holder[key]
                            old = kept if col is None else kept[col]
                            for new in range(top):
                                if new == old:
                                    continue
                                holder[key] = new if col is None else [*kept[:col], new, *kept[col + 1 :]]
                                try:
                                    assert validate_sample(sample) == [
                                        f"replay: frame {idx}: {probe.name} mismatch"
                                    ], (algo, idx, probe.name, col, new)
                                finally:
                                    holder[key] = kept
                assert validate_sample(sample) == []

    def test_sorting_replay_rejects_every_swap_mask_flip(self):
        # a flipped mask cell stays in the mask domain, so only replay can see it
        for algo in ("oets", "bubble_sort"):
            for index in range(4):
                sample = make_sample(algo, n=8, index=index, master=0)
                for frame in sample.hints:
                    mask = frame.values["swap_mask"]
                    for u in range(8):
                        shared = mask[u]
                        for v in range(8):
                            mask[u] = flipped = list(shared)
                            flipped[v] ^= 1
                            try:
                                with pytest.raises(ReplayError):
                                    replay_sample(sample)
                            finally:
                                mask[u] = shared
                assert replay_sample(sample) == sample.outputs


def compact(obj) -> bytes:
    """One dataset line in the writer's separators (floats in repr)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _cells(values: dict):
    """(container, key) of every cell of a frame's values."""
    for name, value in values.items():
        if not isinstance(value, list):
            yield values, name
        elif isinstance(value[0], list):
            yield from ((row, j) for row in value for j in range(len(row)))
        else:
            yield from ((value, j) for j in range(len(value)))


def verdict(chunk: bytes) -> list[str]:
    (sample,) = parse_ndjson(chunk)
    return validate_sample(sample)


class TestLineCheck:
    """line_is_clean accepts a line only where validate_sample finds nothing."""

    def test_every_gen_line_is_accepted(self):
        for algo in ALGORITHMS:
            for n in (1, 2, 7, 16):
                for index in range(2):
                    chunk = serialize_ndjson([make_sample(algo, n=n, index=index, master=3)])
                    assert line_is_clean(chunk, algo), (algo, n, index)
                    assert line_is_clean(chunk.rstrip(b"\n"), algo)
                    assert not line_is_clean(chunk, "dcsc" if algo == "oets" else "oets")

    def test_reference_frames_pass_the_hint_schema(self):
        # the premise of the byte comparison: a line whose hints are the
        # replayed frames has nothing for the per-cell hint walk to find
        rng = Random(7)
        for algo in ALGORITHMS:
            spec = spec_for(algo)
            for n in (1, 2, 3, 5, 8, 16):
                for index in range(3):
                    sample = make_sample(algo, n=n, index=index, master=0)
                    variants = [sample.inputs]
                    for _ in range(4):
                        inputs = copy.deepcopy(sample.inputs)
                        name = rng.choice(sorted(inputs))
                        value = inputs[name]
                        cell = rng.choice([0.0, 1.0, 0.5, -3.0, rng.random()])
                        if isinstance(value, float):
                            inputs[name] = cell
                        elif isinstance(value[0], list):
                            value[rng.randrange(n)][rng.randrange(n)] = (
                                int(cell == 1.0) if name == "adj_undirected" else cell
                            )
                        else:
                            value[rng.randrange(n)] = cell
                        variants.append(inputs)
                    for inputs in variants:
                        probe = sample._replace(inputs=inputs)
                        if spec.input_violations and spec.input_violations(inputs, n):
                            continue
                        frames, outputs = drain(spec.reference(inputs, n))
                        replayed = probe._replace(
                            hints=tuple(HintFrame(t, v) for t, v in enumerate(frames, 1)),
                            outputs=outputs,
                            activity={
                                "m": 0,
                                "steps": [{"edges": 0, "nodes": 0, "ops": 0}] * len(frames),
                                "width": 0,
                            },
                        )
                        # the replayed frames cannot mend a redrawn pos, nor a search or
                        # sort line's other inputs, which are drawn from the seed too
                        if inputs["pos"] != sample.inputs["pos"]:
                            expected = ["inputs.pos: not drawn from seed.value"]
                        elif spec.family != "scc" and inputs != sample.inputs:
                            expected = ["inputs: not drawn from seed.value"]
                        else:
                            expected = []
                        assert validate_sample(replayed) == expected, (algo, n, index)

    def test_no_mutation_is_accepted_where_validate_finds_a_violation(self):
        # hint cells set to 0, 1, 2, -1, 1.0, true and false (every value on
        # every cell of the first frame, one value per cell, in turn, after
        # it); an output cell set to 1.0 or moved; a repeated pos, a 0.5
        # edge; n, activity and seed edits.  On lines in the writer's
        # separators the two verdicts agree exactly.
        values = (0, 1, 2, -1, 1.0, True, False)
        checked = 0
        for algo in ALGORITHMS:
            obj = as_obj(make_sample(algo, n=6, master=0))
            mutants = []
            turn = 0
            for idx, frame in enumerate(obj["hints"]):
                for slots, key in _cells(frame["values"]):
                    old = slots[key]
                    for value in values if idx == 0 else (values[turn % len(values)],):
                        slots[key] = value
                        mutants.append(compact(obj))
                    slots[key] = old
                    turn += 1
            name, value = next(iter(obj["outputs"].items()))
            floated = [float(v) for v in value] if isinstance(value, list) else float(value)
            moved = [(value[0] + 1) % 6] + value[1:] if isinstance(value, list) else (value + 1) % 7
            edits = (
                lambda o: o["outputs"].__setitem__(name, floated),
                lambda o: o["outputs"].__setitem__(name, moved),
                lambda o: o["inputs"]["pos"].__setitem__(1, o["inputs"]["pos"][0]),
                lambda o: [row.__setitem__(1, 0.5) for row in o["inputs"].get("adj_directed", [])[:1]],
                lambda o: o.__setitem__("n", 5),
                lambda o: o.__setitem__("n", 6.0),
                lambda o: o.__setitem__("n", True),
                lambda o: o["activity"]["steps"].pop(),
                lambda o: o["activity"].__setitem__("steps", {}),
                lambda o: o.__setitem__("activity", []),
                lambda o: o["seed"].__setitem__("value", "x"),
                lambda o: o.__setitem__("seed", None),
            )
            for edit in edits:
                mutant = copy.deepcopy(obj)
                edit(mutant)
                mutants.append(compact(mutant))
            mutants.append(compact(obj))
            for chunk in mutants:
                assert line_is_clean(chunk, algo) == (verdict(chunk) == []), (algo, chunk[:200])
            checked += len(mutants)
        assert checked > 2500

    def test_other_spellings_take_the_full_path(self):
        for algo in ALGORITHMS:
            sample = make_sample(algo, n=4, master=1)
            chunk = serialize_ndjson([sample])
            obj = as_obj(sample)
            other_algo = "bubble_sort" if algo == "oets" else "oets"
            others = [
                json.dumps(obj, sort_keys=True).encode() + b"\n",
                chunk.replace(b',"inputs":{', b',"hints":[],"inputs":{', 1),
                chunk.replace(b'{"activity"', b'{"hints":[],"activity"', 1),
                chunk[:-2] + b',"hints":[]}\n',
                chunk[:-2] + b',"\\u0068ints":[]}\n',
                chunk.replace(f'"algo":"{algo}"'.encode(), f'"algo":"{other_algo}"'.encode(), 1),
                chunk[:-1] + b"\r\n",
                chunk[:-1] + b"\x0b" + chunk,
                chunk.replace(b'"seed":{', b'"seed":{"x":"\xe2\x80\xa8",', 1),
                chunk.replace(b'"seed":{', b'"seed":{"x":"\xff",', 1),
            ]
            for other in others:
                assert not line_is_clean(other, algo), (algo, other[:80])
            # the head and the tail are parsed as json.loads parses them:
            # spaces, and duplicate keys outside hints, are no concern
            for same in (
                chunk.replace(b'"algo":', b' "algo": "x", "algo":', 1),
                chunk.replace(b'"seed":', b'"seed" :', 1),
            ):
                assert line_is_clean(same, algo) and verdict(same) == [], algo
