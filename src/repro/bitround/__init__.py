"""A real Bit-Round execution of the Section 5 edge-coloring protocol.

The Kothapalli et al. Bit-Round model allows each vertex to send **one bit
per edge per round**.  :mod:`repro.edge.congest` accounts the protocol's bit
cost in closed form; this package goes further and *runs* it: every message is
serialized into bits, pushed through :class:`~repro.bitround.channel.
BitChannelNetwork` (which structurally enforces the one-bit-per-direction-
per-round constraint), and parsed by the receiving endpoint.  The resulting
edge coloring is identical to the CONGEST pipeline's, and the global
bit-round counter realizes the ``O(Delta + log n)`` bound of Theorem 5.3 as
an actual execution rather than a ledger.
"""

from repro.bitround.channel import BitChannelNetwork, ChannelViolationError
from repro.bitround.edge_coloring import BitRoundEdgeColoringRun, run_edge_coloring_bit_protocol
from repro.bitround.vertex_coloring import (
    VertexBitProtocolRun,
    run_vertex_coloring_bit_protocol,
)

__all__ = [
    "BitChannelNetwork",
    "ChannelViolationError",
    "BitRoundEdgeColoringRun",
    "run_edge_coloring_bit_protocol",
    "VertexBitProtocolRun",
    "run_vertex_coloring_bit_protocol",
]
