"""Dense reference writer for the scheme file format, shared by the tests.

Every block is spelled dense: its header, then each row as a string of
0/1 characters as wide as the block.  ``cachealign.write_scheme`` spells
a block as terms when that is shorter, and ``read_scheme`` must read
both spellings to the same scheme; the golden hashes of built schemes
are taken over this text.
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
