"""Counter-based Gaussian streams for reproducible parallel Monte Carlo.

Every draw is keyed by (stream seed, step index, chunk of path indices), so a
batch regenerates bit-identically regardless of how work is scheduled, and a
path's increments do not depend on the total batch size.  A projected draw,
the block times a vector, holds only ``BLOCK_ROWS`` raw rows at a time.
"""

from __future__ import annotations

import threading

import numpy as np

CHUNK = 1 << 16  # paths per Philox key
# rows per block of a projected draw and of the Monte Carlo kernel's stacked
# strike update: few enough blocks that their calls stay cheap, few enough
# rows that the per-block temporaries stay small; divides CHUNK
BLOCK_ROWS = 8192

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1

_local = threading.local()  # one reusable Philox generator and projection buffer per thread


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
                  first_chunk: int = 0, project: np.ndarray | None = None) -> np.ndarray:
    """Standard normal (n_rows, n_cols) block for one time step, chunked by path index.

    Row i belongs to path first_chunk * CHUNK + i, so a run of whole chunks can
    be drawn on its own and matches the same rows of one large draw.  Safe to
    call from several threads at once.

    With project, an (n_cols,) vector, the result is the (n_rows,) product
    normal_matrix(...) @ project, bit for bit, drawn BLOCK_ROWS rows at a time
    into one reused buffer per thread.  Each block continues its chunk's
    generator, which gives the stream of one draw, and a block's product
    equals the same rows of the whole product.  A one-row product does not,
    so a last block of one row joins the block before it.
    """
    if project is None:
        out = np.empty((n_rows, n_cols))
    else:
        out = np.empty(n_rows)
        buf = getattr(_local, "buf", None)
        if buf is None or buf.shape[1] != n_cols:
            buf = _local.buf = np.empty((BLOCK_ROWS + 1, n_cols))
    starts = list(range(0, n_rows, BLOCK_ROWS))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n_rows]):
        raw = out[lo:hi] if project is None else buf[:hi - lo]
        # only a joined last row can cross into the next chunk
        mid = min(hi, (lo // CHUNK + 1) * CHUNK)
        for a, b in ((lo, mid), (mid, hi)):
            if a % CHUNK == 0 and a < b:
                gen = _philox(_key(stream_seed, step, first_chunk + a // CHUNK))
            gen.standard_normal(out=raw[a - lo:b - lo])
        if project is not None:
            np.matmul(raw, project, out=out[lo:hi])
    return out
