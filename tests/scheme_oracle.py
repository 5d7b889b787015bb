"""Dense reference writer for the scheme file format, shared by the tests.

Every block is spelled dense: its header, then each row as a string of
0/1 characters as wide as the block.  ``cachealign.write_scheme`` spells
a block as terms when that is shorter, and ``read_scheme`` must read
both spellings to the same scheme; the golden hashes of built schemes
are taken over this text.  ``shared_dense`` builds a memory share's
matrices with ``np.kron``, as a reference for ``memory_share``.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cachealign import BitMatrix, Demand, LinearScheme

BLOCKS = ("Z1", "Z2", "U1", "U2", *(f"D {d} V{i}" for d in Demand for i in range(1, 5)))


def _frac_text(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _rows_text(mat: BitMatrix) -> np.ndarray:
    """The rows of *mat* as lines of 0/1 characters, in one uint8 buffer."""
    text = np.full((mat.rows, mat.cols + 1), ord("0"), dtype=np.uint8)
    text[:, -1] = ord("\n")
    text[mat.nonzero()] = ord("1")
    return text


def write_dense(s: LinearScheme) -> str:
    """The scheme file of *s* with every block spelled dense."""
    mats = (s.z1, s.z2, s.u1, s.u2, *(mat for d in Demand for mat in s.delivery[d]))
    parts = [f"n {s.n}\nM {_frac_text(s.memory)}\nc {_frac_text(s.load)}\n".encode("ascii")]
    for tag, mat in zip(BLOCKS, mats):
        parts += [f"{tag} {mat.rows}\n".encode("ascii"), _rows_text(mat)]
    text = b"".join(parts)
    del parts  # so that only the bytes and the text are alive at once
    return text.decode("ascii")


def shared_dense(s1: LinearScheme, k1: int, s2: LinearScheme, k2: int) -> list[BitMatrix]:
    """Z1, Z2, U1, U2 and the 16 delivery maps of a memory share, built densely.

    k1 copies kron(m, I_k1) of s1's matrices take file parts [0, w1) and
    k2 copies of s2's the parts [w1, n); the delivery maps are block
    diagonal.  Written with np.kron, independently of memory_share.
    """
    w1, w2 = s1.n * k1, s2.n * k2
    n = w1 + w2

    def kron(m: BitMatrix, k: int) -> np.ndarray:
        return np.kron(m.data, np.eye(k, dtype=np.uint8))

    def placed(m1: BitMatrix, m2: BitMatrix) -> BitMatrix:
        a, b = kron(m1, k1), kron(m2, k2)
        out = np.zeros((a.shape[0] + b.shape[0], 2 * n), dtype=np.uint8)
        out[: a.shape[0], :w1], out[: a.shape[0], n : n + w1] = a[:, :w1], a[:, w1:]
        out[a.shape[0] :, w1:n], out[a.shape[0] :, n + w1 :] = b[:, :w2], b[:, w2:]
        return BitMatrix(out)

    def diagonal(m1: BitMatrix, m2: BitMatrix) -> BitMatrix:
        a, b = kron(m1, k1), kron(m2, k2)
        out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=np.uint8)
        out[: a.shape[0], : a.shape[1]] = a
        out[a.shape[0] :, a.shape[1] :] = b
        return BitMatrix(out)

    mats = [placed(getattr(s1, x), getattr(s2, x)) for x in ("z1", "z2", "u1", "u2")]
    for d in Demand:
        mats += [diagonal(a, b) for a, b in zip(s1.delivery[d], s2.delivery[d])]
    return mats
