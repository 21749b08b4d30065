"""Counter-based Gaussian streams for reproducible parallel Monte Carlo.

Every draw is keyed by (stream seed, step index, chunk of path indices), so a
batch regenerates bit-identically regardless of how work is scheduled, and a
path's increments do not depend on the total batch size.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 16  # paths per Philox key

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


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


def normal_matrix(stream_seed: int, step: int, n_rows: int, n_cols: int,
                  first_chunk: int = 0) -> np.ndarray:
    """Standard normal (n_rows, n_cols) block for one time step, chunked by path index.

    Row i belongs to path first_chunk * CHUNK + i, so a run of whole chunks can
    be drawn on its own and matches the same rows of one large draw.
    """
    out = np.empty((n_rows, n_cols))
    for lo in range(0, n_rows, CHUNK):
        hi = min(lo + CHUNK, n_rows)
        key = _key(stream_seed, step, first_chunk + lo // CHUNK)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(out=out[lo:hi])
    return out
