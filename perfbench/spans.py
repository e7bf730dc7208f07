"""Span tracing of pramtraj from outside: wrappers patched into the modules
that call each public function, spans kept in memory.

    python3 perfbench/spans.py SPANS.json <pramtraj arguments>

runs one CLI job through `pramtraj.cli.cli_main` with the wrappers
installed and writes its spans to SPANS.json when the job ends, also when
it raises. The exit status is the job's.

A span is (name, start_ns, end_ns, parent, a, b). The parent is the index of
the enclosing span (-1 at the root); a and b are counts taken at the
boundary: processors offered and active for `step_machine`, samples and
bytes for `serialize_ndjson`, samples for `parse_ndjson`. Functions that
handle one algorithm per call get its name appended.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns


def _algo_arg(args, result):
    return "." + args[0], 1, 0


def _sample_arg(args, result):
    return "." + args[0].algo, 1, 0


def _serialized(args, result):
    samples = args[0]
    return "." + samples[0].algo, len(samples), len(result) if result is not None else 0


def _parsed(args, result):
    if not result:
        return "", 0, 0
    return "." + result[0].algo, len(result), 0


def _layer(args, result):
    state, candidates = args[0], args[3] if len(args) > 3 else None
    offered = len(state.local) if candidates is None else len(set(candidates))
    return "", offered, len(result[1].active_nodes) if result is not None else 0


def _call(args, result):
    return "", 1, 0


def patch_points():
    """(layer name, module that calls it, attribute, labeller) per patch."""
    from pramtraj import cli, efficiency, harness, machine, trajectory
    from pramtraj.algorithms import scc, search, sorting

    return [
        ("harness.write_dataset", cli, "write_dataset", _call),
        ("harness.generate_instance", harness, "generate_instance", _call),
        ("harness.generate_instance", efficiency, "generate_instance", _call),
        ("algorithms.run", harness, "run", _algo_arg),
        ("algorithms.run", efficiency, "run", _algo_arg),
        ("machine.run_machine", search, "run_machine", _call),
        ("machine.run_machine", sorting, "run_machine", _call),
        ("machine.run_machine", scc, "run_machine", _call),
        ("machine.step_machine", machine, "step_machine", _layer),
        ("trajectory.encode_sample", harness, "encode_sample", _algo_arg),
        ("trajectory.serialize_ndjson", harness, "serialize_ndjson", _serialized),
        ("trajectory.parse_ndjson", cli, "parse_ndjson", _parsed),
        ("trajectory.validate_sample", cli, "validate_sample", _sample_arg),
        ("trajectory.replay_sample", trajectory, "replay_sample", _sample_arg),
        ("efficiency.scaling_report", cli, "scaling_report", _call),
    ]


class Tracer:
    """Records spans while installed; `with tracer:` patches and restores."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn, label=_call):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                suffix, a, b = label(args, result)
                spans[index] = (name + suffix, start, end, parent, a, b)

        return traced

    def __enter__(self) -> "Tracer":
        for name, module, attr, label in patch_points():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, label))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class LayerStats:
    """Per-name totals over a span list: inclusive and self time, calls, counts."""

    def __init__(self, spans: list[tuple]) -> None:
        covered = [0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.a: Counter = Counter()
        self.b: Counter = Counter()
        for i, (name, start, end, _, a, b) in enumerate(spans):
            self.total_ns[name] += end - start
            self.self_ns[name] += end - start - covered[i]
            self.calls[name] += 1
            self.a[name] += a
            self.b[name] += b

    def per(self, name: str, count: Counter | None = None, scale: float = 1e6) -> float:
        """Inclusive time per call (or per unit of `count`), in ns / scale."""
        return _ratio(self.total_ns[name], (self.calls if count is None else count)[name]) / scale


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 where the layer never ran."""
    return num / den if den else 0.0


def layer_metrics(workload: str, spans: list[tuple], algos) -> dict[str, float]:
    """The per-layer metrics measured on `workload`: each layer is reported from
    the workload whose job mix it dominates (see README)."""
    st = LayerStats(spans)
    out: dict[str, float] = {}
    if workload == "gen":
        out["harness.write_dataset.self_ms"] = st.self_ns["harness.write_dataset"] / 1e6
        for algo in algos:
            ser = f"trajectory.serialize_ndjson.{algo}"
            out[f"trajectory.encode_sample.{algo}.ms_per_sample"] = st.per(f"trajectory.encode_sample.{algo}")
            out[f"{ser}.ms_per_sample"] = st.per(ser, st.a)
            out[f"{ser}.kb_per_sample"] = _ratio(st.b[ser], st.a[ser]) / 1e3
    elif workload == "validate":
        for algo in algos:
            out[f"trajectory.parse_ndjson.{algo}.ms_per_sample"] = st.per(f"trajectory.parse_ndjson.{algo}", st.a)
            for fn in ("validate_sample", "replay_sample"):
                out[f"trajectory.{fn}.{algo}.ms_per_sample"] = st.per(f"trajectory.{fn}.{algo}")
    elif workload == "analyze":
        step = "machine.step_machine"
        layers, offered = st.calls[step], st.a[step]
        out["harness.generate_instance.us_per_call"] = st.per("harness.generate_instance", scale=1e3)
        for algo in algos:
            out[f"algorithms.run.{algo}.ms_per_sample"] = st.per(f"algorithms.run.{algo}")
        out["machine.step_machine.us_per_layer"] = st.per(step, scale=1e3)
        out["machine.step_machine.us_per_processor_step"] = st.per(step, st.a, scale=1e3)
        out["machine.run_machine.self_us_per_layer"] = _ratio(st.self_ns["machine.run_machine"], layers) / 1e3
        out["machine.layers"] = layers
        out["machine.processor_steps"] = offered
        out["machine.active_share"] = _ratio(st.b[step], offered)
        out["efficiency.scaling_report.self_ms"] = st.self_ns["efficiency.scaling_report"] / 1e6
    return out


def extend(spans: list, more: list) -> None:
    """Appends one job's spans, moving their parent indices along."""
    base = len(spans)
    spans.extend((n, s, e, p + base if p >= 0 else -1, a, b) for n, s, e, p, a, b in more)


def write_spans(path: Path, spans_by_workload: dict[str, list[tuple]]) -> None:
    """One JSON array per span: [workload, name, start_ns, end_ns, parent, a, b]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for workload, spans in spans_by_workload.items():
            for span in spans:
                out.write(json.dumps([workload, *span], separators=(",", ":")) + "\n")


def main(argv: list[str]) -> int:
    from pramtraj.cli import cli_main

    tracer = Tracer()
    try:
        with tracer:
            return cli_main(argv[1:])
    finally:
        Path(argv[0]).write_text(json.dumps(tracer.spans), encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
