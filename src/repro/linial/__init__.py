"""Linial's coloring algorithm and relatives.

* :mod:`repro.linial.core` — the classical ``log* n + O(1)``-round reduction
  from any ``m``-coloring (e.g. the IDs) to ``O(Delta^2)`` colors via
  polynomial set systems over GF(q), as a locally-iterative stage, plus the
  single-step primitive the self-stabilizing descent of Section 4 reuses.
* :mod:`repro.linial.plan` — the (q, d) cascade planner: which field size and
  polynomial degree each iteration uses, derived only from ``(m, Delta)``.
* :mod:`repro.linial.cole_vishkin` — Cole–Vishkin 3-coloring of pseudoforests
  (paths/cycles), used by the edge-coloring algorithm of Section 5.
"""

from repro.linial.plan import LinialIteration, linial_plan
from repro.linial.core import LinialColoring, linial_next_color
from repro.linial.cole_vishkin import cole_vishkin_three_coloring

__all__ = [
    "LinialIteration",
    "linial_plan",
    "LinialColoring",
    "linial_next_color",
    "cole_vishkin_three_coloring",
]
