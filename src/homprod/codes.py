"""CSS codes and their parameters, and seed-matrix ensembles.

``css_parameters`` is the one call for both distance sides of a CSS code,
and ``ensemble_matrix`` the one parser of an ensemble spec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import distance
from .complexes import ChainComplex, LevelOutOfRange
from .distance import DEFAULT_KERNEL_CAP, DistanceResult
from .extnat import ExtNat
from .gf2 import BinMatrix, kernel_from_rref, row_space_basis


class InvalidSpec(ValueError):
    """Ensemble specification violates its constraints."""


@dataclass(frozen=True)
class CssCode:
    """Orthogonal generator pair acting on ``n = g_x.cols`` qubits.

    ``CssCode(...)`` checks both the shapes and the orthogonality; a code
    cut from a complex by ``extract_css`` is orthogonal by construction,
    so only its shapes are checked.
    """

    g_x: BinMatrix
    g_z: BinMatrix

    def __post_init__(self):
        self._check_shapes()
        if not (self.g_x @ self.g_z.transpose()).is_zero():
            raise InvalidSpec("g_x @ g_z^T must vanish")

    def _check_shapes(self) -> None:
        if self.g_x.cols != self.g_z.cols:
            raise InvalidSpec("g_x and g_z must act on the same number of qubits")

    @property
    def n(self) -> int:
        return self.g_x.cols


@dataclass(frozen=True)
class CodeParameters:
    """[[n, k, d]] of a CSS code, with both distance sides as engine results.

    ``z`` is the homology side and ``x`` the cohomology side; ``d`` is the
    lower end of the lighter side, so it is the distance when both sides
    are exact.
    """

    n: int
    k: int
    z: DistanceResult
    x: DistanceResult

    @property
    def d(self) -> ExtNat:
        return min(self.z.value, self.x.value)


def extract_css(c: ChainComplex, level: int) -> CssCode:
    """CSS code at a level: g_x is the boundary, g_z the transposed coboundary.

    The end levels produce empty generator blocks.  The boundaries of a
    complex compose to zero, so the pair is not multiplied out again.
    """
    if not 0 <= level <= c.m:
        raise LevelOutOfRange(f"level {level} outside 0..{c.m}")
    code = CssCode.__new__(CssCode)
    code.__dict__.update(g_x=c.boundary(level), g_z=c.boundary(level + 1).transpose())
    code._check_shapes()
    return code


def css_parameters(code: CssCode, cap: int = DEFAULT_KERNEL_CAP) -> CodeParameters:
    """n, k and both distance sides of the pair (g_x, g_z); a side past the cap is an interval.

    ``z`` is the lightest vector of Ker g_x off the row span of g_z, ``x``
    the same with g_x and g_z swapped, and ``k`` is dim Ker g_x + dim
    Ker g_z - n.  Each generator matrix is eliminated once; its RREF is
    one side's image and yields the other side's kernel.  Each side is one
    call of the engine's per-side routine, looked up on its module.  Level
    j of a complex is the code ``extract_css(c, j)``.
    """
    h, g = code.g_x, code.g_z
    h_rows, g_rows = row_space_basis(h), row_space_basis(g)
    side = distance._min_nontrivial
    z = side(h, kernel_from_rref(h_rows), g_rows, cap=cap)
    x = side(g, kernel_from_rref(g_rows), h_rows, cap=cap)
    return CodeParameters(n=code.n, k=z.kernel_dim + x.kernel_dim - code.n, z=z, x=x)


def ensemble_matrix(text: str, seed: int = 0) -> BinMatrix:
    """The seed matrix of an ensemble spec: ``gallager:v,w,c`` | ``rep:L`` | ``id:n``.

    Deterministic given the spec and ``seed``, which only ``gallager``
    reads.  A malformed spec or an unknown kind raises ``InvalidSpec``; a
    seed matrix in a file is read with ``alist.read_alist``.
    """
    kind, sep, arg = text.partition(":")
    arity = {"gallager": 3, "rep": 1, "id": 1}.get(kind)
    if sep and arity is None:
        raise InvalidSpec(f"unknown ensemble kind {kind!r}")
    try:
        params = [int(t) for t in arg.split(",")]
    except ValueError:
        params = []
    if len(params) != arity:
        raise InvalidSpec(f"malformed ensemble spec {text!r}")
    if kind == "gallager":
        return gallager_matrix(*params, seed)
    (size,) = params
    if kind == "rep":
        return repetition_circulant(size)
    if size <= 0:
        raise InvalidSpec("identity size must be positive")
    return BinMatrix.identity(size)


def gallager_matrix(col_weight: int, row_weight: int, cols: int, seed: int = 0) -> BinMatrix:
    """Regular random matrix: col_weight strips of stacked permuted row blocks.

    Each strip partitions a fresh pseudorandom permutation of the columns
    into rows of ``row_weight``, so every column has weight ``col_weight``
    and every row weight ``row_weight``; the shape is (cols * col_weight /
    row_weight) x cols.  Reproducible: the permutations are drawn
    sequentially from one Mersenne Twister stream seeded with ``seed``.
    """
    if col_weight <= 0 or row_weight <= 0 or cols <= 0:
        raise InvalidSpec("gallager parameters must be positive")
    if cols % row_weight:
        raise InvalidSpec("row weight must divide the column count")
    strip_rows = cols // row_weight
    rng = random.Random(seed)
    bits = []
    for _ in range(col_weight):
        perm = list(range(cols))
        rng.shuffle(perm)
        for t in range(strip_rows):
            row = 0
            for col in perm[t * row_weight:(t + 1) * row_weight]:
                row |= 1 << col
            bits.append(row)
    return BinMatrix(col_weight * strip_rows, cols, bits)


def repetition_circulant(size: int) -> BinMatrix:
    """L x L circulant with ones at (i, i) and (i, i+1 mod L)."""
    if size <= 0:
        raise InvalidSpec("circulant size must be positive")
    bits = [(1 << i) | (1 << ((i + 1) % size)) for i in range(size)]
    return BinMatrix(size, size, bits)


def sparsity(m: BinMatrix) -> tuple[int, int]:
    """(max column weight, max row weight); (0, 0) for zero or empty matrices."""
    return (max(m.col_weights(), default=0), max(m.row_weights(), default=0))
