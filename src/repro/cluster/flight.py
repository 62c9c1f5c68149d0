"""Per-worker Arrow-Flight-server substitute.

Producer tasks push the pieces of their output objects directly to the flight
server of the worker hosting each consumer channel.  The buffer is keyed by
``(consumer stage, consumer channel)`` and, within that, by the producer's
task name — so re-pushed duplicates (which happen during recovery) simply
overwrite the original piece instead of being consumed twice.

Flight buffers live in worker memory and are lost when the worker fails.
Every mutation bumps the cluster's change counter, which TaskManagers use to
tell when an input they were waiting for may have arrived.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.common.counter import ChangeCounter
from repro.data.batch import Batch
from repro.gcs.naming import TaskName

ConsumerKey = Tuple[int, int]


class FlightServer:
    """In-memory buffer of not-yet-consumed input pieces, per consumer channel."""

    def __init__(self, worker_id: int, changes: ChangeCounter):
        self.worker_id = worker_id
        self.changes = changes
        self._buffers: Dict[ConsumerKey, Dict[TaskName, Batch]] = {}

    def put(self, consumer: ConsumerKey, producer_task: TaskName, piece: Batch) -> None:
        """Store one piece destined for ``consumer``; duplicates overwrite."""
        self._buffers.setdefault(consumer, {})[producer_task] = piece
        self.changes.bump()

    def available(self, consumer: ConsumerKey) -> List[TaskName]:
        """Producer task names with a piece buffered for ``consumer``."""
        return sorted(self._buffers.get(consumer, {}).keys())

    def peek(self, consumer: ConsumerKey, producer_task: TaskName) -> Optional[Batch]:
        """Return a buffered piece without removing it."""
        return self._buffers.get(consumer, {}).get(producer_task)

    def take(self, consumer: ConsumerKey, producer_task: TaskName) -> Batch:
        """Remove and return a buffered piece."""
        piece = self._buffers[consumer].pop(producer_task)
        self.changes.bump()
        return piece

    def discard_below(self, consumer: ConsumerKey, upstream_stage: int,
                      upstream_channel: int, watermark_seq: int) -> int:
        """Drop already-consumed duplicates re-pushed during recovery.

        Removes every buffered piece from ``(upstream_stage, upstream_channel)``
        with a sequence number below ``watermark_seq``.  Returns the number of
        pieces dropped.
        """
        buffer = self._buffers.get(consumer, {})
        stale = [
            name
            for name in buffer
            if name.stage == upstream_stage
            and name.channel == upstream_channel
            and name.seq < watermark_seq
        ]
        for name in stale:
            del buffer[name]
        if stale:
            self.changes.bump()
        return len(stale)

    def buffered_bytes(self) -> int:
        """Total bytes buffered on this flight server."""
        return sum(
            piece.nbytes for buffer in self._buffers.values() for piece in buffer.values()
        )

    def wipe(self) -> int:
        """Destroy all buffered pieces (worker failure).  Returns pieces lost."""
        lost = sum(len(buffer) for buffer in self._buffers.values())
        self._buffers.clear()
        self.changes.bump()
        return lost

    def wipe_stages(self, stage_ids) -> int:
        """Drop every buffer belonging to a consumer stage in ``stage_ids``.

        Used when one query of a shared session is restarted from scratch:
        its stage ids are session-unique, so this removes exactly that query's
        in-flight pieces.  Returns the number of pieces dropped.
        """
        doomed = [key for key in self._buffers if key[0] in stage_ids]
        lost = 0
        for key in doomed:
            lost += len(self._buffers.pop(key))
        self.changes.bump()
        return lost
