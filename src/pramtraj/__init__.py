"""Priority-CRCW machine simulator, trajectory datasets, efficiency analytics.

The package re-exports nothing, so each command imports only its own
stages and the one algorithm module it runs: ``validate`` neither
``harness`` nor ``efficiency``, ``gen`` no ``efficiency``, and ``--help`` no
algorithm module.

Every record type is a ``typing.NamedTuple``.  One whose fields are checked
(``SearchInstance``, ``SortInstance``, ``Digraph``, ``GenConfig``) subclasses
a NamedTuple of its fields, and its ``__init__`` checks what ``__new__``
stored; ``_replace`` and ``_make`` skip that check, so no code calls them on
such a record.  An ``InterconnectionGraph`` is a plain record, made by the
graph builders of ``machine``, which check explicit edges; a ``Trace`` is a
plain record too, made only by ``machine.fold_trace``.
"""

__version__ = "0.1.0"
