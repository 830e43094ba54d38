"""Deterministic RNG stream derivation.

Every source of randomness in the package is a named substream of a single
master seed. A stream is identified by (master_seed, path) where path is a
tuple of strings and integers, e.g. ("certify", 17, "estimation"). The
mixing function is documented and platform-independent:

- each string part is hashed to a 64-bit integer via SHA-256 (first 8 bytes,
  little-endian) of the UTF-8 bytes prefixed with "s:",
- each integer part is used as-is (offset into nonnegative range),
- the entropy sequence [master_seed, part_1, part_2, ...] is fed to
  numpy's SeedSequence, whose hashing gives well-separated child states.

Identical (master_seed, path) always yields a bit-identical generator state,
independent of creation order, scheduling, or platform.

A stream can also key a counter-based generator (Philox; Salmon et al., SC
2011) that gives each nonnegative index i its own range of counters
(`StreamId.indexed_generators`): one SeedSequence per stream rather than one
per index, for the many small per-example draws of training.

Because no stream's bits depend on when it is drawn, work split by stream
can run on any number of threads with the same results (`map_streams`).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StreamId", "map_streams"]

# Most threads map_streams runs. Each pooled item holds one row chunk
# (smoothing.COUNT_CHUNK rows, or theory's 8 MiB chunk), half of the chunk
# that a subcommand held when it ran its items one at a time, so two threads
# keep every subcommand's peak memory where it was; more would raise it with
# the CPU count.
MAX_STREAM_THREADS = 2


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _mix_part(part) -> int:
    if _is_int(part):
        if part < 0:
            raise ValueError(f"stream path integers must be nonnegative, got {part}")
        return int(part)
    if isinstance(part, str):
        digest = hashlib.sha256(b"s:" + part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream path parts must be str or int, got {type(part).__name__}")


def map_streams(fn, items, pooled: bool = True) -> list:
    """[fn(item) for item in items], on one thread per available CPU, at most
    MAX_STREAM_THREADS.

    Each item must draw only from its own streams and share nothing it
    writes, so its result does not depend on which thread runs it or when.
    The width is min(available CPUs, MAX_STREAM_THREADS, len(items)); at
    width 1, or when `pooled` is false, fn runs inline on the calling thread.
    Callers pass pooled=False when an item's draws fit in one row chunk:
    such items are too small for the threads to pay for their start and
    their memory. Threads gain because NumPy's draws and BLAS products
    release the GIL. Items start in item order, every item runs even when
    an earlier one raises (none is cancelled, so an item may wait on one
    that precedes it), and results come back in item order; the first
    item's exception, in item order, is re-raised once all have run.
    """
    items = list(items)
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cpus = os.cpu_count() or 1
    width = min(cpus, MAX_STREAM_THREADS, len(items)) if pooled else 1
    if width <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=width) as pool:
        futures = [pool.submit(fn, item) for item in items]
    return [f.result() for f in futures]


@dataclass(frozen=True)
class StreamId:
    """Provenance record for one RNG stream: a master seed plus a derivation path."""

    master_seed: int
    path: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not _is_int(self.master_seed):
            raise TypeError("master_seed must be an int, got "
                            f"{type(self.master_seed).__name__}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        object.__setattr__(self, "master_seed", int(self.master_seed))
        object.__setattr__(self, "path", tuple(self.path))
        for part in self.path:
            _mix_part(part)  # validate types early

    def child(self, *parts) -> "StreamId":
        """Derive a named substream, e.g. stream.child("certify", 17)."""
        return StreamId(self.master_seed, self.path + tuple(parts))

    def _seed_sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence([self.master_seed, *map(_mix_part, self.path)])

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream; same stream, same bits."""
        return np.random.default_rng(self._seed_sequence())

    def indexed_generators(self, indices):
        """Yield one Generator per nonnegative int i in indices: Philox keyed by
        this stream, SeedSequence([master_seed, *parts]).generate_state(2,
        uint64), with its counter at (0, 0, 0, i), so index i owns a range of
        2**192 blocks and draws the bits of
        Generator(Philox(key=key, counter=[0, 0, 0, i])).

        One Philox is reset in place, so a yielded generator is valid only
        until the next is yielded.
        """
        bitgen = np.random.Philox(self._seed_sequence())
        gen = np.random.Generator(bitgen)
        state = bitgen.state
        for i in indices:
            if not _is_int(i):
                raise TypeError(f"indices must be ints, got {type(i).__name__}")
            if i < 0:
                raise ValueError(f"indices must be nonnegative, got {i}")
            state["state"]["counter"][3] = i
            state["buffer_pos"], state["has_uint32"] = 4, 0
            bitgen.state = state
            yield gen

    def as_json(self) -> dict:
        return {"master_seed": self.master_seed, "path": list(self.path)}
