"""Output checks, run on every op outside its timed window.

``repro.analysis.is_proper_coloring`` walks the adjacency in Python and
takes longer than a whole op at n = 20 000, Delta = 64, so properness is
checked here with one vectorised comparison over the CSR edge columns.
"""

import hashlib
import json

import numpy as np

__all__ = ["CheckFailed", "check_coloring", "check_stages", "digest", "stage_bounds"]


class CheckFailed(Exception):
    """An op's output broke one of the checks; the op counts as failed."""


def digest(colors, rounds):
    """Hex digest of a colouring and its per-stage round counts."""
    h = hashlib.sha256(np.ascontiguousarray(colors, dtype=np.int64).tobytes())
    h.update(json.dumps(rounds, sort_keys=True).encode())
    return h.hexdigest()[:16]


def check_coloring(colors, palette, csr=None):
    """Colours lie in ``[0, palette)`` and, given ``csr``, differ on every edge.

    Returns the colours as an int64 array.
    """
    colors = np.asarray(colors, dtype=np.int64)
    if colors.size and (int(colors.min()) < 0 or int(colors.max()) >= palette):
        raise CheckFailed("colour outside the palette of size %d" % palette)
    if csr is not None:
        if colors.shape != (csr.n,):
            raise CheckFailed("%d colours for %d vertices" % (colors.size, csr.n))
        clash = colors[csr.edge_u] == colors[csr.edge_v]
        if clash.any():
            i = int(np.argmax(clash))
            raise CheckFailed("edge (%d, %d) is monochromatic" % (csr.edge_u[i], csr.edge_v[i]))
    return colors


def stage_bounds(n, delta, stage_classes):
    """``(name, rounds_bound, out_palette)`` per stage of a chain.

    Each stage is configured the way :class:`ColoringPipeline` configures it:
    the first from the ID colouring's palette ``n``, each later one from its
    predecessor's output palette.
    """
    from repro.runtime.algorithm import NetworkInfo

    bounds = []
    palette = n
    for cls in stage_classes:
        stage = cls()
        stage.configure(NetworkInfo(n, delta, palette))
        bounds.append((stage.name, stage.rounds_bound, stage.out_palette_size))
        palette = stage.out_palette_size
    return bounds


def check_stages(stages, bounds):
    """Each stage of a pipeline payload ran within its ``rounds_bound``."""
    if len(stages) != len(bounds):
        raise CheckFailed("%d stages ran, %d expected" % (len(stages), len(bounds)))
    for stage, (name, bound, palette) in zip(stages, bounds):
        if stage["name"] != name or stage["out_palette"] != palette:
            raise CheckFailed("stage %s/%s does not match %s/%s" % (stage["name"], stage["out_palette"], name, palette))
        if stage["rounds"] > bound:
            raise CheckFailed("stage %s ran %d rounds, bound %d" % (name, stage["rounds"], bound))
    return [stage["rounds"] for stage in stages]
