"""Out-of-core execution tier: memory-mapped CSR shards on one box.

The public surface:

* :class:`~repro.oocore.store.ShardedCSRGraph` — the on-disk shard format;
* :mod:`repro.oocore.writers` — streaming writers (``write_gnp``,
  ``write_random_regular``, ``shard_static_graph``, ``ensure_sharded``)
  that emit shards bit-identical to the in-memory generators;
* :class:`~repro.oocore.engine.OocoreColoringEngine` — the
  ``backend="oocore"`` engine (partition-aware rounds, halo exchange);
* :func:`~repro.oocore.engine.oocore_greedy` — sharded first-fit greedy.

See DESIGN.md §9 for the shard layout and the halo-exchange protocol.
"""

from repro.oocore.engine import OocoreColoringEngine, oocore_greedy
from repro.oocore.store import (
    BUDGET_ENV,
    DIR_ENV,
    SHARDS_ENV,
    MemoryBudgetError,
    ShardedCSRGraph,
    memory_budget,
    parse_bytes,
    peak_rss_bytes,
    scratch_root,
)
from repro.oocore.writers import (
    ensure_sharded,
    shard_static_graph,
    write_gnp,
    write_random_regular,
)

__all__ = [
    "BUDGET_ENV",
    "DIR_ENV",
    "SHARDS_ENV",
    "MemoryBudgetError",
    "OocoreColoringEngine",
    "ShardedCSRGraph",
    "ensure_sharded",
    "memory_budget",
    "oocore_greedy",
    "parse_bytes",
    "peak_rss_bytes",
    "scratch_root",
    "shard_static_graph",
    "write_gnp",
    "write_random_regular",
]
