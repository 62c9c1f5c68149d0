"""A change counter shared by the owners of some piece of mutable state."""

from __future__ import annotations


class ChangeCounter:
    """Bumped by every owner whenever state it holds changes.

    A reader that snapshots :attr:`value` and later finds it unchanged knows
    that no owner mutated anything in between.  The value never decreases.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        """Record one change."""
        self.value += 1
