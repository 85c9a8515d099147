"""General-purpose utilities: ``BitUtil`` (paper Fig. 4), typed
getters/setters over byte buffers so protocol fields "take on names
and types" without unsafe casts.

The paper's other low-level piece, user types for words wider than
C#'s 64 bits (§3.2 (iv)), has no counterpart: Python ints are
unbounded, and the Kiwi frontend reads a signal's width from its
annotation.
"""

from repro.utils.bitutil import BitUtil

__all__ = ["BitUtil"]
