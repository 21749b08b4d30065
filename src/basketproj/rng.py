"""Counter-based Gaussian streams for reproducible parallel Monte Carlo.

Every draw is keyed by (stream seed, step index, chunk of path indices), so a
batch regenerates bit-identically regardless of how work is scheduled, and a
path's increments do not depend on the total batch size.
"""

from __future__ import annotations

import threading

import numpy as np

CHUNK = 1 << 16  # paths per Philox key

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

_local = threading.local()  # one reusable Philox generator per thread


def derive_seed(base_seed: int, *tags) -> int:
    """64-bit stream seed for a named stage/run, stable across platforms."""
    entropy = (int(base_seed) & _MASK64,) + tuple(_tag_int(t) for t in tags)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _tag_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & _MASK64
    return int.from_bytes(str(tag).encode("utf-8")[:8].ljust(8, b"\0"), "little")


def _key(stream_seed: int, step: int, chunk: int) -> int:
    return ((int(stream_seed) & _MASK64) << 64) | ((int(step) & _MASK32) << 32) | (int(chunk) & _MASK32)


def _philox(key: int) -> np.random.Generator:
    """This thread's generator, reset to the state Philox(key=key) starts in:
    the key, counter 0 and an empty buffer.  Cheaper than a new generator, and
    a Generator keeps no state of its own."""
    if not hasattr(_local, "gen"):
        _local.gen = np.random.Generator(np.random.Philox(0))
    _local.gen.bit_generator.state = {
        "bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0,
        "state": {"counter": np.zeros(4, np.uint64),
                  "key": np.array([key & _MASK64, key >> 64], np.uint64)}}
    return _local.gen


def normal_matrix(stream_seed: int, step: int, n_rows: int, n_cols: int,
                  first_chunk: int = 0) -> np.ndarray:
    """Standard normal (n_rows, n_cols) block for one time step, chunked by path index.

    Row i belongs to path first_chunk * CHUNK + i, so a run of whole chunks can
    be drawn on its own and matches the same rows of one large draw.  Safe to
    call from several threads at once.
    """
    out = np.empty((n_rows, n_cols))
    for lo in range(0, n_rows, CHUNK):
        hi = min(lo + CHUNK, n_rows)
        _philox(_key(stream_seed, step, first_chunk + lo // CHUNK)).standard_normal(out=out[lo:hi])
    return out
