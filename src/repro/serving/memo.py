"""The cross-worker shared memo tier of the serving daemon.

The planner's memo is a pure function of the (views, catalog schemas,
semantics) fingerprint, and exporting/importing it
(:meth:`repro.core.planner.RewritePlanner.export_memos`) is how the
batch service warm-starts workers. The serving daemon keeps those
exports *persistent across requests* and *shared across process
workers* in one ``multiprocessing.shared_memory`` segment:

single writer
    only the daemon master publishes; workers never write. This removes
    every write/write race by construction. Within the master a lock
    serialises publish, invalidation, clear and lookup: the daemon
    invalidates from the thread that applies an update while its event
    loop publishes.

seqlock framing
    the segment starts with a fixed header ``(magic, generation, epoch,
    payload_len)``. The writer increments ``generation`` to an odd value
    before touching the payload and to the next even value after; a
    reader retries whenever it sees an odd generation or the generation
    changed under it. Readers therefore never observe a torn payload,
    and the common case (no concurrent publish) costs one extra header
    read.

epoch stamping
    ``epoch`` increments on every invalidation. Workers cache planners
    locally keyed by fingerprint and remember the epoch they validated
    against; a cheap header read tells them whether revalidation (a full
    payload lookup) is needed. An entry evicted by invalidation simply
    stops being found — the reader falls back to cold planning, never to
    a stale memo.

per-entry records
    the payload is a run of records, oldest published first. A record
    is a ``(key_len, entry_len)`` prefix, the pickled fingerprint and the
    pickled :class:`MemoEntry`. The writer encodes a record once, when
    its entry is published, and keeps a running byte total of the
    records it holds, so neither capacity checks nor framing re-encode
    anything: framing copies the cached records into the segment. A
    reader decodes fingerprints until one matches and unpickles only
    that entry.

Publishing is on change only: a worker's
:class:`~repro.serving.worker.PlannerCache` exports a planner's memo
only when it gained entries, so a publish costs one encoding of the
changed fingerprint's entry, O(entry), whatever the tier holds.
Capacity overflow evicts oldest-published entries first; an entry whose
record alone exceeds the capacity is not stored. When
``multiprocessing.shared_memory`` is unavailable (or creation fails,
e.g. no ``/dev/shm``), :class:`LocalMemoTier` provides the same
interface over a process-local dict so serial serving and the
test-suite keep working everywhere. Both tiers encode and account
through the same path; the local tier keeps only each record's size.
"""

from __future__ import annotations

import pickle
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..obs.metrics import current_metrics

#: Header: magic, generation (odd = publish in progress), epoch,
#: payload byte length.
_HEADER = struct.Struct("<QQQQ")
_MAGIC = 0x5250_4D32  # "RPM2": per-entry records

#: Record prefix: pickled key length, pickled entry length.
_RECORD = struct.Struct("<II")

#: Default segment capacity. Memo entries are small (a few KB each for
#: the random workloads); 4 MiB holds thousands.
DEFAULT_CAPACITY = 4 * 1024 * 1024

#: Cap on memo entries exported per fingerprint on publish, mirroring
#: the batch service's MEMO_EXPORT_MAX discipline.
MEMO_EXPORT_MAX = 2048


@dataclass(frozen=True)
class MemoEntry:
    """One fingerprint's published planner memo.

    ``epoch`` is the tier epoch at publish time (diagnostics only — the
    validity signal is *presence*: invalidation removes the entry).
    ``view_names`` is what invalidation matches against.
    """

    epoch: int
    view_names: tuple[str, ...]
    memo: list = field(default_factory=list)


def _observe_lookup(outcome: str) -> None:
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter(
            "repro_serving_shared_memo_lookups_total",
            "Shared memo tier lookups, by outcome.",
            ("outcome",),
        ).labels(outcome).inc()


def _observe_eviction(reason: str, count: int) -> None:
    if count <= 0:
        return
    metrics = current_metrics()
    if metrics is not None:
        metrics.counter(
            "repro_serving_shared_memo_evictions_total",
            "Entries evicted from the shared memo tier, by reason.",
            ("reason",),
        ).labels(reason).inc(count)


def _observe_size(entries: int, epoch: int) -> None:
    metrics = current_metrics()
    if metrics is not None:
        metrics.gauge(
            "repro_serving_shared_memo_entries",
            "Entries currently published in the shared memo tier.",
        ).set(entries)
        metrics.gauge(
            "repro_serving_epoch",
            "Current invalidation epoch of the shared memo tier.",
        ).set(epoch)


def encode_record(key: tuple, entry: MemoEntry) -> bytes:
    """One fingerprint's record, as framed in the shared segment."""
    key_bytes = pickle.dumps(key, pickle.HIGHEST_PROTOCOL)
    entry_bytes = pickle.dumps(entry, pickle.HIGHEST_PROTOCOL)
    return b"".join(
        (_RECORD.pack(len(key_bytes), len(entry_bytes)), key_bytes,
         entry_bytes)
    )


def _iter_records(payload: bytes) -> Iterator[tuple[tuple, memoryview]]:
    """``(key, pickled entry)`` for every record of ``payload``; only the
    keys are decoded."""
    view = memoryview(payload)
    offset = 0
    while offset < len(view):
        key_len, entry_len = _RECORD.unpack_from(view, offset)
        offset += _RECORD.size
        key = pickle.loads(view[offset:offset + key_len])
        offset += key_len
        yield key, view[offset:offset + entry_len]
        offset += entry_len


class LocalMemoTier:
    """The memo tier without shared memory: one process, same protocol.

    Serial daemons (``workers=0``) and tests use this; the interface —
    ``epoch()``, ``lookup()``, ``publish()``, ``invalidate_views()`` —
    is identical to :class:`SharedMemoTier`, so the worker-side planner
    cache logic is tier-agnostic.
    """

    #: Shared-memory tiers have a name workers attach by; local ones
    #: don't, and the daemon skips shipping one to workers.
    name: Optional[str] = None

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict[tuple, MemoEntry] = OrderedDict()
        #: key -> byte length of its encoded record.
        self._sizes: dict[tuple, int] = {}
        self._bytes = 0
        self._epoch = 0
        self._lock = threading.Lock()

    def epoch(self) -> int:
        return self._epoch

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        with self._lock:
            return list(self._entries.keys())

    @property
    def payload_bytes(self) -> int:
        """The encoded size of every record held (the framed payload)."""
        return self._bytes

    def lookup(self, key: tuple) -> Optional[MemoEntry]:
        with self._lock:
            entry = self._entries.get(key)
        _observe_lookup("hit" if entry is not None else "miss")
        return entry

    def publish(
        self, key: tuple, view_names: Sequence[str], memo: Iterable
    ) -> MemoEntry:
        entry = MemoEntry(
            epoch=self._epoch,
            view_names=tuple(view_names),
            memo=list(memo)[-MEMO_EXPORT_MAX:],
        )
        record = encode_record(key, entry)
        with self._lock:
            if len(record) > self.capacity:
                # Could never frame: keep whatever the key had before.
                _observe_eviction("capacity", 1)
            else:
                self._drop(key)
                self._keep(key, entry, record)
                self._enforce_capacity()
                self._flush()
            _observe_size(len(self._entries), self._epoch)
        return entry

    def invalidate_views(self, names: Iterable[str]) -> int:
        """Evict every entry touching ``names``; always bump the epoch.

        The epoch bumps even when nothing was evicted: readers with
        locally cached planners for a key published under the old epoch
        must revalidate regardless (their entry may have been evicted by
        an earlier invalidation they never observed).
        """
        targets = set(names)
        with self._lock:
            victims = [
                key
                for key, entry in self._entries.items()
                if targets.intersection(entry.view_names)
            ]
            for key in victims:
                self._drop(key)
            self._epoch += 1
            self._flush()
            _observe_eviction("invalidation", len(victims))
            _observe_size(len(self._entries), self._epoch)
        return len(victims)

    def clear(self) -> None:
        with self._lock:
            for key in list(self._entries):
                self._drop(key)
            self._epoch += 1
            self._flush()

    def close(self) -> None:  # interface parity with SharedMemoTier
        pass

    def unlink(self) -> None:
        pass

    # Record bookkeeping (callers hold the lock) ------------------------

    def _keep(self, key: tuple, entry: MemoEntry, record: bytes) -> None:
        self._entries[key] = entry
        self._sizes[key] = len(record)
        self._bytes += len(record)

    def _drop(self, key: tuple) -> None:
        if self._entries.pop(key, None) is not None:
            self._bytes -= self._sizes.pop(key)

    def _enforce_capacity(self) -> None:
        evicted = 0
        while self._bytes > self.capacity:
            self._drop(next(iter(self._entries)))
            evicted += 1
        _observe_eviction("capacity", evicted)

    def _flush(self) -> None:  # shared-memory subclass hook
        pass


class SharedMemoTier(LocalMemoTier):
    """The memo tier over one ``multiprocessing.shared_memory`` segment.

    Construct with ``create=True`` in the daemon master (the single
    writer); workers attach read-only via :meth:`attach`. The writer
    keeps the authoritative entries and their encoded records in process
    memory, so a publish frames known bytes, never a read-modify-write
    of the segment.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        name: Optional[str] = None,
    ):
        from multiprocessing import shared_memory

        super().__init__(capacity)
        #: key -> encoded record, framed in ``_entries`` order.
        self._records: dict[tuple, bytes] = {}
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=_HEADER.size + capacity
        )
        self.name = self._shm.name
        self._generation = 0
        self._writer = True
        self._flush()

    @classmethod
    def attach(cls, name: str) -> "SharedMemoTier":
        """A read-only view of an existing segment (worker side)."""
        from multiprocessing import shared_memory

        tier = cls.__new__(cls)
        LocalMemoTier.__init__(tier)
        tier._records = {}
        try:
            # track=False (3.13+) keeps the worker's resource tracker
            # from unlinking the master's segment at worker exit.
            shm = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:
            import multiprocessing

            shm = shared_memory.SharedMemory(name=name)
            # Pre-3.13 there is no track=False. Under the spawn start
            # method each worker runs its own resource tracker, which
            # would unlink the master's live segment at worker exit —
            # unregister to stop that. Under fork(server) the tracker
            # process is shared and its cache is a set: the attach
            # register above was a no-op, and unregistering here would
            # strip the *master's* registration (tracker KeyError noise
            # at exit), so leave it alone.
            if multiprocessing.get_start_method(allow_none=True) == "spawn":
                try:
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(
                        getattr(shm, "_name", "/" + name), "shared_memory"
                    )
                except Exception:
                    pass
        tier._shm = shm
        tier.name = name
        tier._generation = 0
        tier._writer = False
        tier.capacity = shm.size - _HEADER.size
        return tier

    # Reader protocol ---------------------------------------------------

    def _read_header(self) -> tuple[int, int, int, int]:
        return _HEADER.unpack_from(self._shm.buf, 0)

    def epoch(self) -> int:
        if self._writer:
            return self._epoch
        magic, _gen, epoch, _length = self._read_header()
        return epoch if magic == _MAGIC else 0

    def _read(self, decode):
        """``decode`` applied to a consistent payload snapshot (seqlock)."""
        for _attempt in range(1000):
            magic, gen1, _epoch, length = self._read_header()
            if magic != _MAGIC or gen1 % 2 == 1:
                continue
            raw = bytes(
                self._shm.buf[_HEADER.size:_HEADER.size + length]
            )
            if self._read_header()[1] != gen1:
                continue
            try:
                return decode(raw)
            except Exception:
                continue  # torn write slipped through; retry
        return decode(b"")  # writer wedged mid-publish: act cold

    def lookup(self, key: tuple) -> Optional[MemoEntry]:
        if self._writer:
            return super().lookup(key)

        def find(raw: bytes) -> Optional[MemoEntry]:
            for found, entry in _iter_records(raw):
                if found == key:
                    return pickle.loads(entry)
            return None

        entry = self._read(find)
        _observe_lookup("hit" if entry is not None else "miss")
        return entry

    def __len__(self) -> int:
        if self._writer:
            return len(self._entries)
        return len(self.keys())

    def keys(self):
        if self._writer:
            return super().keys()
        return self._read(lambda raw: [key for key, _ in _iter_records(raw)])

    # Writer protocol ---------------------------------------------------

    def _keep(self, key: tuple, entry: MemoEntry, record: bytes) -> None:
        super()._keep(key, entry, record)
        self._records[key] = record

    def _drop(self, key: tuple) -> None:
        super()._drop(key)
        self._records.pop(key, None)

    def _flush(self) -> None:
        if not getattr(self, "_writer", False):
            raise RuntimeError("read-only attachment cannot publish")
        buf = self._shm.buf
        # Seqlock: odd generation while the payload is inconsistent.
        self._generation += 1
        _HEADER.pack_into(
            buf, 0, _MAGIC, self._generation, self._epoch, 0
        )
        offset = _HEADER.size
        for key in self._entries:
            record = self._records[key]
            buf[offset:offset + len(record)] = record
            offset += len(record)
        self._generation += 1
        _HEADER.pack_into(
            buf, 0,
            _MAGIC, self._generation, self._epoch, offset - _HEADER.size,
        )

    # Lifecycle ---------------------------------------------------------

    def close(self) -> None:
        try:
            self._shm.close()
        except Exception:
            pass

    def unlink(self) -> None:
        if self._writer:
            try:
                self._shm.unlink()
            except Exception:
                pass


def create_memo_tier(
    capacity: int = DEFAULT_CAPACITY, shared: bool = True
):
    """The best available tier: shared memory, or a local fallback."""
    if shared:
        try:
            return SharedMemoTier(capacity=capacity)
        except Exception:
            pass  # no /dev/shm, permissions, platform — degrade local
    return LocalMemoTier(capacity=capacity)
