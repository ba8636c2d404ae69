"""[E-MEM] End of Section 3: O(1) words of local memory per vertex.

Runs the full Corollary 3.6 pipeline through the metered streaming steps and
reports the peak per-vertex workspace, in bits and in Theta(log n)-bit
words, across growing n and Delta.  The paper's claim: the peak stays a
fixed handful of words no matter how the network grows.  The first four
configs start AG straight from the ids (their Linial plan is empty); the
last one runs one Linial round, whose metered step sets the peak.
"""

from bench_util import report

from repro.analysis import is_proper_coloring
from repro.graphgen import random_regular
from repro.lowmem import delta_plus_one_coloring_low_memory

CONFIGS = ((24, 4, 24), (48, 6, 48), (96, 8, 96), (192, 12, 192), (200, 6, 0))


def run_sweep():
    rows = []
    for n, delta, seed in CONFIGS:
        graph = random_regular(n, delta, seed=seed)
        result = delta_plus_one_coloring_low_memory(graph)
        assert is_proper_coloring(graph, result.colors)
        assert max(result.colors) <= graph.max_degree
        rows.append(
            (
                n,
                delta,
                seed,
                result.rounds,
                result.rounds_by_stage()["linial"],
                result.peak_bits,
                result.word_bits,
                result.peak_words,
            )
        )
    return rows


def test_constant_words_per_vertex(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    report(
        "E-MEM",
        "O(1)-word execution of Corollary 3.6 (peak per-vertex workspace)",
        (
            "n",
            "Delta",
            "seed",
            "rounds",
            "Linial rounds",
            "peak bits",
            "word bits",
            "peak words",
        ),
        rows,
        notes="Claim (end of Section 3): O(1) words of Theta(log n) bits each.",
    )
    words = [r[-1] for r in rows]
    assert max(words) <= 12
    assert max(words) - min(words) <= 4  # flat across an 8x size range
