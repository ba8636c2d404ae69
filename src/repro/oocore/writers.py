"""Streaming shard writers: graphs generated straight into memmap shards.

Two generator families are emitted without ever materializing a
:class:`~repro.runtime.graph.StaticGraph` (whose Python-object adjacency
costs ~112 bytes per slot).  Each is a second sink for the in-memory
generator's own core, so the edge set — and therefore every downstream
color — is the in-memory graph's at any size:

* :func:`write_random_regular` hands the sorted edges of
  ``repro.graphgen.generators._regular_edges``, the core behind
  :func:`~repro.graphgen.generators.random_regular`, to
  :func:`write_edge_arrays`.
* :func:`write_gnp` walks ``_gnp_blocks``, the block loop behind
  :func:`~repro.graphgen.generators.gnp_graph`, twice: pass A accumulates
  degrees, pass B re-runs the stream and scatters neighbors through
  per-vertex cursors.  Peak scratch is one RNG block, independent of the
  edge count.

Both finish through :func:`finalize_shards`, which partitions the vertex
range, computes each shard's halo table, localizes the neighbor ids into
``lindices.i64``, and writes ``meta.json`` — after which
:class:`~repro.oocore.store.ShardedCSRGraph` can open the directory.

:func:`shard_static_graph` converts an already-built in-memory graph (any
family) to the same format; :func:`ensure_sharded` is the disk-cached
front door the job runner and the CLI use.
"""

import hashlib
import json
import os
import secrets
import shutil

from repro.graphgen.generators import _gnp_blocks, _regular_edges
from repro.oocore.store import (
    COLORS_FILE,
    FORMAT_VERSION,
    HALO_FILE,
    INDICES_FILE,
    INDPTR_FILE,
    LINDICES_FILE,
    META_FILE,
    ShardedCSRGraph,
    default_shards,
    partition_ranges,
    release_pages,
    requested_shards,
    scratch_root,
)
from repro.runtime.backends import require_numpy
from repro.runtime.csr import fill_csr

__all__ = [
    "ensure_sharded",
    "finalize_shards",
    "shard_static_graph",
    "write_edge_arrays",
    "write_gnp",
    "write_random_regular",
]


def _create(path, name, count):
    """A fresh int64 memmap file of ``count`` entries (zero-length safe)."""
    np = require_numpy("oocore")
    full = os.path.join(path, name)
    if count == 0:
        with open(full, "wb"):
            pass
        return np.zeros(0, dtype=np.int64)
    return np.memmap(full, dtype=np.int64, mode="w+", shape=(count,))


def finalize_shards(path, n, m, indptr, indices, shards=None, provenance=None):
    """Partition, localize, and stamp a shard directory; returns the graph.

    ``indptr``/``indices`` are the already-written global CSR arrays (memmap
    or ndarray).  Writes ``lindices.i64``, ``halo.i64``, a zeroed
    ``colors.i64``, and ``meta.json``.
    """
    np = require_numpy("oocore")
    if shards is None:
        shards = default_shards(n, m)
    ranges = partition_ranges(np, indptr, n, shards)
    max_degree = int(np.diff(np.asarray(indptr)).max()) if n else 0

    lindices = _create(path, LINDICES_FILE, 2 * m)
    halo_chunks = []
    halo_offsets = [0]
    for lo, hi in ranges:
        start, end = int(indptr[lo]), int(indptr[hi])
        sl = np.array(indices[start:end])
        outside = (sl < lo) | (sl >= hi)
        halo = np.unique(sl[outside])
        k = hi - lo
        local = np.empty_like(sl)
        inside = ~outside
        local[inside] = sl[inside] - lo
        local[outside] = k + np.searchsorted(halo, sl[outside])
        if end > start:
            lindices[start:end] = local
        halo_chunks.append(halo)
        halo_offsets.append(halo_offsets[-1] + halo.shape[0])
    halo_file = _create(path, HALO_FILE, halo_offsets[-1])
    for i, chunk in enumerate(halo_chunks):
        if chunk.shape[0]:
            halo_file[halo_offsets[i]:halo_offsets[i + 1]] = chunk
    colors = _create(path, COLORS_FILE, n)
    for array in (lindices, halo_file, colors):
        release_pages(array)

    meta = {
        "format": FORMAT_VERSION,
        "n": int(n),
        "m": int(m),
        "max_degree": max_degree,
        "ranges": [[int(a), int(b)] for a, b in ranges],
        "halo_offsets": [int(x) for x in halo_offsets],
        "provenance": provenance or {},
    }
    with open(os.path.join(path, META_FILE), "w") as handle:
        json.dump(meta, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return ShardedCSRGraph(path, meta)


def write_edge_arrays(path, n, u, v, shards=None, provenance=None):
    """Shards from edge endpoint arrays (``u < v`` elementwise, sorted by
    ``(u, v)``, no duplicates), filled by :func:`~repro.runtime.csr.fill_csr`
    — the rows ``StaticGraph`` would build."""
    require_numpy("oocore")
    os.makedirs(path, exist_ok=True)
    m = int(u.shape[0])
    indptr = _create(path, INDPTR_FILE, n + 1)
    indices = _create(path, INDICES_FILE, 2 * m)
    fill_csr(u, v, indptr, indices)
    graph = finalize_shards(
        path, n, m, indptr, indices, shards=shards, provenance=provenance
    )
    release_pages(indptr)
    release_pages(indices)
    return graph


def write_random_regular(path, n, d, seed, shards=None):
    """Stream a random d-regular graph into shards: the edges of
    :func:`repro.graphgen.generators.random_regular`, from its own core."""
    require_numpy("oocore")
    edges = _regular_edges(n, d, seed)
    return write_edge_arrays(
        path, n, edges[:, 0], edges[:, 1], shards=shards,
        provenance={"generator": "random_regular", "n": n, "d": d, "seed": seed},
    )


def write_gnp(path, n, p, seed, shards=None):
    """Stream G(n, p) into shards, bit-identical to
    :func:`repro.graphgen.generators.gnp_graph`.

    Two passes over its block loop: degrees first, then a cursor-scatter
    fill.  Within a block the edges come out in row-major ``(i, j)``
    order, so every vertex's backward neighbors (ascending ``i``) land
    before its forward ones (ascending ``j``) — the sorted rows
    ``StaticGraph`` would build.
    """
    np = require_numpy("oocore")
    provenance = {"generator": "gnp", "n": n, "p": p, "seed": seed}
    os.makedirs(path, exist_ok=True)
    degrees = np.zeros(n, dtype=np.int64)
    m = 0
    for i_arr, j_arr in _gnp_blocks(np, n, p, seed):
        degrees += np.bincount(i_arr, minlength=n)
        degrees += np.bincount(j_arr, minlength=n)
        m += i_arr.shape[0]
    indptr = _create(path, INDPTR_FILE, n + 1)
    if n:
        indptr[0] = 0
        np.cumsum(degrees, out=indptr[1:])
    indices = _create(path, INDICES_FILE, 2 * m)
    cursor = np.asarray(indptr)[:-1].copy() if n else degrees
    for i_arr, j_arr in _gnp_blocks(np, n, p, seed):
        cnt = i_arr.shape[0]
        verts = np.empty(2 * cnt, dtype=np.int64)
        nbrs = np.empty(2 * cnt, dtype=np.int64)
        verts[0::2] = i_arr
        verts[1::2] = j_arr
        nbrs[0::2] = j_arr
        nbrs[1::2] = i_arr
        order = np.argsort(verts, kind="stable")
        sv = verts[order]
        slots = cursor[sv] + (
            np.arange(2 * cnt, dtype=np.int64) - np.searchsorted(sv, sv)
        )
        indices[slots] = nbrs[order]
        cursor += np.bincount(verts, minlength=n)
    graph = finalize_shards(
        path, n, m, indptr, indices, shards=shards, provenance=provenance
    )
    release_pages(indptr)
    release_pages(indices)
    return graph


def shard_static_graph(graph, path, shards=None, provenance=None):
    """Convert an in-memory :class:`StaticGraph` (or CSR-bearing drop-in)
    to a shard directory — the bridge for families without a streaming
    writer and for ``backend=\"oocore\"`` on an already-built graph."""
    np = require_numpy("oocore")
    os.makedirs(path, exist_ok=True)
    csr = graph.csr()
    indptr = _create(path, INDPTR_FILE, graph.n + 1)
    if graph.n:
        indptr[:] = csr.indptr
    indices = _create(path, INDICES_FILE, 2 * graph.m)
    if graph.m:
        indices[:] = csr.indices
    sharded = finalize_shards(
        path, graph.n, graph.m, indptr, indices, shards=shards,
        provenance=provenance or {"generator": "static"},
    )
    release_pages(indptr)
    release_pages(indices)
    return sharded


# -- the disk-cached front door -------------------------------------------------------


def _cache_dir_for(spec, shards):
    payload = json.dumps(
        {"spec": spec, "shards": shards, "format": FORMAT_VERSION},
        sort_keys=True, default=str,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    family = str(spec.get("family", "regular"))
    n = int(spec.get("n", 64))
    return os.path.join(
        scratch_root(), "repro-oocore", "%s-n%d-%s" % (family, n, digest)
    )


def ensure_sharded(spec, shards=None):
    """A :class:`ShardedCSRGraph` for a job-runner graph spec dict.

    Families with a streaming writer (``regular``, ``gnp``) are emitted
    straight to shards; every other family is built in memory once and
    converted.  Results are cached on disk keyed by the spec (generation is
    deterministic) and the shard count asked for, ``shards`` or else
    ``REPRO_OOCORE_SHARDS``, so sweeps reuse the shard files across jobs and
    even across processes.

    An entry is written into a private sibling directory and published with
    one ``os.rename``, so no caller ever opens, or writes into, a half-written
    entry.  Of several processes building one cold spec, the first rename
    wins; the others delete their copies and open the winner's.  An entry
    that exists but does not open is moved aside and deleted before the
    rebuild.
    """
    require_numpy("oocore")
    spec = dict(spec)
    if shards is None:
        shards = requested_shards()
    directory = _cache_dir_for(spec, shards)
    if os.path.exists(directory):
        try:
            return ShardedCSRGraph.open(directory)
        except (ValueError, OSError, KeyError):
            aside = _sibling(directory, "stale")
            try:
                os.rename(directory, aside)
            except OSError:
                pass  # another caller moved it first
            shutil.rmtree(aside, ignore_errors=True)
    private = _sibling(directory, "tmp")
    os.makedirs(private)
    try:
        _write_spec(private, spec, shards)
        try:
            os.rename(private, directory)
        except OSError:
            # Lost the race: another process published this entry first.
            if not os.path.exists(os.path.join(directory, META_FILE)):
                raise
    finally:
        shutil.rmtree(private, ignore_errors=True)  # a no-op once published
    return ShardedCSRGraph.open(directory)


def _sibling(directory, tag):
    """A fresh, unique path next to ``directory`` (same filesystem)."""
    return "%s.%s-%s" % (directory, tag, secrets.token_hex(8))


def _write_spec(path, spec, shards):
    """Generate ``spec`` into the shard directory ``path``."""
    family = spec.get("family", "regular")
    n = int(spec.get("n", 64))
    seed = spec.get("seed", 1)
    if family == "regular":
        write_random_regular(
            path, n, int(spec.get("degree", 6)), seed, shards=shards
        )
    elif family == "gnp":
        write_gnp(path, n, float(spec.get("prob", 0.1)), seed, shards=shards)
    else:
        from repro.parallel.jobs import build_graph

        shard_static_graph(
            build_graph(spec), path, shards=shards, provenance={"spec": spec}
        )
