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

A family of sibling streams parent.child(i) can also be derived in one batch
(`StreamId.child_seeds`, then `reseeded`): the same SeedSequence hash and
PCG64 seeding, written out in NumPy over all rows at once, giving the same
bits as each sibling's `generator()`.

Because no stream's bits depend on when it is drawn, work split by stream
can run on any number of threads with the same results (`map_streams`).
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = ["StreamId", "map_streams", "reseeded"]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): pool of
# four uint32 words, hashmix/mix multipliers, 16-bit xorshift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
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


def _uint32_words(value: int) -> list:
    """A nonnegative int as little-endian uint32 words, as SeedSequence
    coerces it (0 is one zero word)."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_state(entropy: list) -> np.ndarray:
    """SeedSequence(entropy).generate_state(4, uint64) for B rows at once.

    entropy is a list of (B,) uint32 columns, one per entropy word; every
    row has the same word count. Returns (B, 4) uint64.
    """
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = (h * _MULT_A) & _MASK32
        value *= np.uint32(h)
        value ^= value >> np.uint32(16)
        return value

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        result ^= result >> np.uint32(16)
        return result

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    h = _INIT_B
    state = np.empty((len(zero), 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(h)
        h = (h * _MULT_B) & _MASK32
        value *= np.uint32(h)
        value ^= value >> np.uint32(16)
        state[:, i] = value
    return state.astype("<u4").view("<u8").astype(np.uint64)


def reseeded(seeds: np.ndarray):
    """Yield one Generator per row of PCG64 seed words (`StreamId.child_seeds`).

    Each row seeds the generator exactly as PCG64(SeedSequence) seeds itself
    from generate_state(4, uint64): state 0, inc = (initseq << 1) | 1, one
    LCG step, state += initstate, one more step. One PCG64 is re-seeded in
    place, so a yielded generator is valid only until the next is yielded.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for s_hi, s_lo, i_hi, i_lo in np.asarray(seeds, dtype=np.uint64).tolist():
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield gen


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

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator for this stream; same stream, same bits."""
        entropy = [self.master_seed] + [_mix_part(p) for p in self.path]
        return np.random.default_rng(np.random.SeedSequence(entropy))

    def child_seeds(self, indices) -> np.ndarray:
        """PCG64 seed words of self.child(i) for each nonnegative int i: (B, 4)
        uint64, row b equal to SeedSequence(...).generate_state(4, uint64) of
        the stream self.child(indices[b]).

        Rows whose index needs two uint32 words (i >= 2**32) are hashed as a
        separate group, so one call may mix both widths.
        """
        idx = np.asarray(indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise TypeError("indices must be a 1-d sequence of ints")
        if idx.size and idx.min() < 0:
            raise ValueError("stream path integers must be nonnegative")
        idx = idx.astype(np.uint64)
        prefix = [w for part in [self.master_seed, *map(_mix_part, self.path)]
                  for w in _uint32_words(part)]
        low = (idx & np.uint64(_MASK32)).astype(np.uint32)
        high = (idx >> np.uint64(32)).astype(np.uint32)
        wide = high > 0
        seeds = np.empty((len(idx), 4), dtype=np.uint64)
        for rows, tail in ((~wide, [low]), (wide, [low, high])):
            count = int(rows.sum())
            if count:
                entropy = [np.full(count, w, dtype=np.uint32) for w in prefix]
                seeds[rows] = _seed_state(entropy + [t[rows] for t in tail])
        return seeds

    def as_json(self) -> dict:
        return {"master_seed": self.master_seed, "path": list(self.path)}
