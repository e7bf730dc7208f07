"""Priority-CRCW machine simulator, trajectory datasets, efficiency analytics.

Every record type is a ``typing.NamedTuple``.  One whose fields are checked
(``SearchInstance``, ``SortInstance``, ``Digraph``, ``GenConfig``) subclasses
a NamedTuple of its fields, and its ``__init__`` checks what ``__new__``
stored; ``_replace`` and ``_make`` skip that check, so no code calls them on
such a record.  An ``InterconnectionGraph`` is a plain record, made by the
graph builders of ``machine``, which check explicit edges; a ``Trace`` is a
plain record too, made only by ``machine.fold_trace``.
"""

from .graphs import Digraph
from .machine import (
    ActivityRecord,
    InterconnectionGraph,
    MachineState,
    Program,
    StepLimitExceeded,
    Trace,
    UNDEF,
    activity_summary,
    run_machine,
    step_machine,
)
from .algorithms import (
    ALGORITHMS,
    PAIRS,
    SPECS,
    AlgorithmSpec,
    SearchInstance,
    SortInstance,
    binary_search,
    bubble_sort,
    dcsc,
    kosaraju,
    oets_sort,
    parallel_search,
    run,
    spec_for,
)
from .algorithms.scc import gen_digraph
from .algorithms.search import gen_search_instance
from .algorithms.sorting import gen_permutation
from .trajectory import (
    HintFrame,
    ProbeSpec,
    Sample,
    encode_sample,
    parse_ndjson,
    probe_spec,
    replay_sample,
    serialize_ndjson,
    validate_sample,
)
from .efficiency import EfficiencyReport, scaling_report
from .harness import GenConfig, sample_seed

__version__ = "0.1.0"
