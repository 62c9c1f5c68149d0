"""A transactional in-process key-value store with a write-ahead log.

The store groups keys into named *tables* (Redis hashes in the paper's
implementation).  All mutations go through :class:`Transaction` objects so the
engine's coordination writes are atomic, and every committed transaction is
appended to an in-memory write-ahead log — the "persistence" contract the
paper gets from running Redis on the non-failing head node.

Operation and byte counters let the cluster cost model charge GCS latency and
measure how small the lineage traffic is compared to data traffic.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import GCSTransactionError


@dataclass
class _LogRecord:
    """One committed transaction in the write-ahead log."""

    sequence: int
    operations: List[Tuple[str, str, Any, Any]]  # (op, table, key, value)


@dataclass
class GCSStats:
    """Operation counters used by the cost model and the benchmarks."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    transactions: int = 0
    logged_bytes: int = 0


class Transaction:
    """A batch of writes/deletes applied atomically on commit."""

    def __init__(self, store: "GCSStore"):
        self._store = store
        self._operations: List[Tuple[str, str, Any, Any]] = []
        self._committed = False

    def put(self, table: str, key: Any, value: Any) -> "Transaction":
        """Stage a write."""
        self._ensure_open()
        self._operations.append(("put", table, key, value))
        return self

    def delete(self, table: str, key: Any) -> "Transaction":
        """Stage a delete (deleting a missing key is a no-op)."""
        self._ensure_open()
        self._operations.append(("delete", table, key, None))
        return self

    def commit(self) -> None:
        """Apply all staged operations atomically."""
        self._ensure_open()
        self._committed = True
        self._store._apply(self._operations)

    @property
    def committed(self) -> bool:
        """True once :meth:`commit` has run."""
        return self._committed

    def _ensure_open(self) -> None:
        if self._committed:
            raise GCSTransactionError("transaction has already been committed")

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None and not self._committed:
            self.commit()


class GCSStore:
    """The raw transactional key-value store."""

    def __init__(self):
        self._tables: Dict[str, Dict[Any, Any]] = defaultdict(dict)
        self._log: List[_LogRecord] = []
        self._log_sequence = 0
        self.stats = GCSStats()
        #: Bumped by every committed transaction and every restore, so a
        #: reader can cache anything derived from the tables until it moves.
        self.version = 0

    # -- reads -------------------------------------------------------------------

    def get(self, table: str, key: Any, default: Any = None) -> Any:
        """Read one key."""
        self.stats.reads += 1
        return self._tables[table].get(key, default)

    def contains(self, table: str, key: Any) -> bool:
        """True if ``key`` exists in ``table``."""
        self.stats.reads += 1
        return key in self._tables[table]

    def items(self, table: str) -> List[Tuple[Any, Any]]:
        """Snapshot of every ``(key, value)`` pair in ``table``."""
        self.stats.reads += 1
        return list(self._tables[table].items())

    def keys(self, table: str) -> List[Any]:
        """Snapshot of every key in ``table``."""
        self.stats.reads += 1
        return list(self._tables[table].keys())

    def table_size(self, table: str) -> int:
        """Number of keys in ``table``."""
        return len(self._tables[table])

    # -- writes ------------------------------------------------------------------

    def put(self, table: str, key: Any, value: Any) -> None:
        """Single-key write (its own transaction)."""
        self._apply([("put", table, key, value)])

    def delete(self, table: str, key: Any) -> None:
        """Single-key delete (its own transaction)."""
        self._apply([("delete", table, key, None)])

    def transaction(self) -> Transaction:
        """Start a multi-operation transaction."""
        return Transaction(self)

    def _apply(self, operations: List[Tuple[str, str, Any, Any]]) -> None:
        if not operations:
            return
        self.version += 1
        for op, table, key, value in operations:
            if op == "put":
                self._tables[table][key] = value
                self.stats.writes += 1
            elif op == "delete":
                self._tables[table].pop(key, None)
                self.stats.deletes += 1
            else:  # pragma: no cover - internal invariant
                raise GCSTransactionError(f"unknown operation {op!r}")
        self._log_sequence += 1
        self._log.append(_LogRecord(self._log_sequence, list(operations)))
        self.stats.transactions += 1
        self.stats.logged_bytes += sum(
            len(str(key)) + len(str(value)) + len(table) + 8
            for _op, table, key, value in operations
        )

    # -- durability --------------------------------------------------------------

    @property
    def log_length(self) -> int:
        """Number of committed transactions in the write-ahead log."""
        return len(self._log)

    def snapshot(self) -> Dict[str, Dict[Any, Any]]:
        """Deep-enough copy of every table (values are shared, structure copied)."""
        return {name: dict(table) for name, table in self._tables.items()}

    def restore(self, snapshot: Dict[str, Dict[Any, Any]]) -> None:
        """Replace the store contents with ``snapshot``."""
        self._tables = defaultdict(dict, {name: dict(t) for name, t in snapshot.items()})
        self.version += 1

    def replay_log(self, upto: Optional[int] = None) -> "GCSStore":
        """Rebuild a fresh store by replaying the write-ahead log.

        Used by tests to demonstrate that the log alone reconstructs the
        committed state (the property the paper relies on for "persisted"
        lineage).
        """
        rebuilt = GCSStore()
        for record in self._log:
            if upto is not None and record.sequence > upto:
                break
            rebuilt._apply(list(record.operations))
        return rebuilt
