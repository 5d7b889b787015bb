"""Dense reference for the GF(2) kernel, shared by the gf2 tests.

Matrices are plain 2-d uint8 arrays of 0/1.  Each row is packed into one
Python integer (bit j = column j) with ``np.packbits``; a product XORs
the packed rows of its right operand that a row selects, and elimination
reduces whole rows against pivots keyed by their first nonzero column.
Nothing here splits a matrix into column components or stores it
sparsely, so it checks ``cachealign.gf2`` by a separate route.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Iterable, Sequence

import numpy as np


def pack_rows(arr: np.ndarray) -> list[int]:
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        return [0] * arr.shape[0]
    packed = np.packbits(arr, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def unpack_rows(rows: Sequence[int], cols: int) -> np.ndarray:
    nbytes = (cols + 7) // 8
    raw = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in rows), dtype=np.uint8)
    return np.unpackbits(raw.reshape(len(rows), nbytes), axis=1, count=cols, bitorder="little")


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i of the product: XOR of the packed rows of b that row i of a selects."""
    picks = pack_rows(b)
    out = [reduce(xor, (picks[k] for k in np.flatnonzero(row)), 0) for row in a]
    return unpack_rows(out, b.shape[1])


def _lead(r: int) -> int:
    return (r & -r).bit_length() - 1


def _eliminate(rows: Iterable[int]) -> dict[int, tuple[int, int]]:
    # Pivots keyed by leading column, each with its combination of input rows.
    pivots: dict[int, tuple[int, int]] = {}
    for i, r in enumerate(rows):
        combo = 1 << i
        while r:
            lead = _lead(r)
            if lead not in pivots:
                pivots[lead] = (r, combo)
                break
            pv, pc = pivots[lead]
            r ^= pv
            combo ^= pc
    return pivots


def rank(a: np.ndarray) -> int:
    return len(_eliminate(pack_rows(a)))


def solve_left(g: np.ndarray, e: np.ndarray) -> np.ndarray | None:
    """R with R @ g == e over GF(2), or None when some row of e is outside g's row space."""
    pivots = _eliminate(pack_rows(g))
    out = []
    for r in pack_rows(e):
        combo = 0
        while r:
            lead = _lead(r)
            if lead not in pivots:
                return None
            pv, pc = pivots[lead]
            r ^= pv
            combo ^= pc
        out.append(combo)
    return unpack_rows(out, g.shape[0])


def apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    return ((a.astype(np.int64) @ v.astype(np.int64)) % 2).astype(np.uint8)
