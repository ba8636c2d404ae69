"""An explicit, metered register file for the O(1)-memory arguments.

All vertex-local state a low-memory step keeps must live in a
:class:`Workspace`: values are ``put`` with an explicit bit width and
``free``d when dead.  The workspace records the peak number of live bits, so
a test can assert the paper's claim — peak bits = O(word size), i.e. O(1)
words of Theta(log n) bits each — on actual executions, for growing ``n``
and ``Delta``.

Read-only message buffers (the per-neighbor inbox of the model) are *not*
workspace: the model provides them for free and allows re-reading.
"""

import math

__all__ = ["Workspace", "WorkspaceOverflowError", "bits_for_range", "metered_horner"]


def bits_for_range(size):
    """Bits needed to store a value in ``range(size)``."""
    return max(1, math.ceil(math.log2(max(2, size))))


def metered_horner(workspace, value, x, q, degree):
    """Evaluate ``value``'s base-``q`` digit polynomial at ``x`` mod ``q``.

    Horner from the high digit down, with one accumulator and one digit
    register live in ``workspace``: a color's polynomial is never stored
    beyond the color itself.  Serves Linial's step and the self-stabilizing
    Mod-Linial descent alike.
    """
    bits = bits_for_range(q)
    workspace.put("acc", 0, bits)
    for position in range(degree, -1, -1):
        workspace.put("digit", (value // (q ** position)) % q, bits)
        acc = (workspace.get("acc") * x + workspace.get("digit")) % q
        workspace.put("acc", acc, bits)
        workspace.free("digit")
    result = workspace.get("acc")
    workspace.free("acc")
    return result


class WorkspaceOverflowError(RuntimeError):
    """A step exceeded its declared workspace budget."""


class Workspace:
    """A register file with peak-live-bits metering.

    Parameters
    ----------
    bit_limit:
        Optional hard budget; exceeding it raises
        :class:`WorkspaceOverflowError` immediately (used by tests to *prove*
        a step never needs more).
    """

    def __init__(self, bit_limit=None):
        self.bit_limit = bit_limit
        self._registers = {}
        self._bits = {}
        self.live_bits = 0
        self.peak_bits = 0

    def put(self, name, value, bits):
        """Store ``value`` under ``name``, accounting ``bits`` of memory."""
        if bits < 0:
            raise ValueError("bits must be non-negative")
        if name in self._registers:
            self.live_bits -= self._bits[name]
        self._registers[name] = value
        self._bits[name] = bits
        self.live_bits += bits
        if self.live_bits > self.peak_bits:
            self.peak_bits = self.live_bits
        if self.bit_limit is not None and self.live_bits > self.bit_limit:
            raise WorkspaceOverflowError(
                "live bits %d exceed the budget %d (registers: %s)"
                % (self.live_bits, self.bit_limit, sorted(self._registers))
            )
        return value

    def get(self, name):
        """Read a live register."""
        return self._registers[name]

    def free(self, name):
        """Drop a register (no-op if absent)."""
        if name in self._registers:
            self.live_bits -= self._bits.pop(name)
            del self._registers[name]

    def free_all(self):
        """Drop every register (end of a step)."""
        self._registers.clear()
        self._bits.clear()
        self.live_bits = 0

    def peak_words(self, word_bits):
        """Peak usage in words of the given width."""
        return math.ceil(self.peak_bits / max(1, word_bits))

    def __contains__(self, name):
        return name in self._registers

    def __repr__(self):
        return "Workspace(live=%d bits, peak=%d bits)" % (
            self.live_bits,
            self.peak_bits,
        )
