"""CSS code extraction, parameter reports, and seed-matrix ensembles."""

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
    level: int | None = None

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
    """[[n, k, d]] of a row-given pair (h, g), with both sides as engine results.

    ``z`` is the homology side (Ker h off the row span of g) and ``x`` the
    cohomology side (the pair swapped); for a CSS code h is g_x and g is
    g_z.  ``d`` is the lower end of the lighter side, so it is the
    distance when both sides are exact.
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
    code.__dict__.update(g_x=c.boundary(level), g_z=c.boundary(level + 1).transpose(),
                         level=level)
    code._check_shapes()
    return code


def pair_parameters(h: BinMatrix, g: BinMatrix, *, cap: int = DEFAULT_KERNEL_CAP,
                    workers: int = 1) -> CodeParameters:
    """Both sides of the row-given pair (h, g) and k = dim Ker h + dim Ker g - n.

    Each matrix is eliminated once; its RREF is one side's image and
    yields the other side's kernel.  Each side is one call of the engine's
    per-side routine, looked up on its module.
    """
    h_rows, g_rows = row_space_basis(h), row_space_basis(g)
    side = distance._min_nontrivial
    z = side(h, kernel_from_rref(h_rows), g_rows, cap=cap, workers=workers)
    x = side(g, kernel_from_rref(g_rows), h_rows, cap=cap, workers=workers)
    return CodeParameters(n=h.cols, k=z.kernel_dim + x.kernel_dim - h.cols, z=z, x=x)


def css_parameters(code: CssCode, cap: int = DEFAULT_KERNEL_CAP) -> CodeParameters:
    """n, k and both distance sides of the pair (g_x, g_z); a side past the cap is an interval.

    ``z`` is the lightest vector of Ker g_x off the row span of g_z, ``x``
    the same with g_x and g_z swapped; each generator matrix is eliminated
    once, and ``k`` comes from the two kernels.
    """
    return pair_parameters(code.g_x, code.g_z, cap=cap)


@dataclass(frozen=True)
class EnsembleSpec:
    """Seed-matrix recipe: kind plus the parameters that kind needs.

    Kinds: ``gallager`` (regular col_weight/row_weight/cols ensemble),
    ``rep`` (circulant repetition, size L), ``id`` (identity, size n),
    ``file`` (path to an alist file).
    """

    kind: str
    col_weight: int = 0
    row_weight: int = 0
    cols: int = 0
    size: int = 0
    path: str = ""
    seed: int = 0

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "EnsembleSpec":
        """Parse CLI syntax: ``gallager:v,w,c`` | ``rep:L`` | ``id:n`` | ``file:PATH``."""
        kind, sep, arg = text.partition(":")
        if not sep:
            raise InvalidSpec(f"malformed ensemble spec {text!r}")
        try:
            if kind == "gallager":
                v, w, c = (int(t) for t in arg.split(","))
                return cls(kind="gallager", col_weight=v, row_weight=w, cols=c, seed=seed)
            if kind == "rep":
                return cls(kind="rep", size=int(arg), seed=seed)
            if kind == "id":
                return cls(kind="id", size=int(arg), seed=seed)
            if kind == "file":
                return cls(kind="file", path=arg, seed=seed)
        except ValueError as exc:
            raise InvalidSpec(f"malformed ensemble spec {text!r}") from exc
        raise InvalidSpec(f"unknown ensemble kind {kind!r}")


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


def repetition_parity(size: int) -> BinMatrix:
    """(L-1) x L full-row-rank repetition parity check: ones at (i, i), (i, i+1)."""
    if size <= 1:
        raise InvalidSpec("repetition length must be at least 2")
    bits = [(1 << i) | (1 << (i + 1)) for i in range(size - 1)]
    return BinMatrix(size - 1, size, bits)


def generate_matrix(spec: EnsembleSpec) -> BinMatrix:
    """Materialize a seed matrix; deterministic given the spec and its seed."""
    if spec.kind == "gallager":
        return gallager_matrix(spec.col_weight, spec.row_weight, spec.cols, spec.seed)
    if spec.kind == "rep":
        return repetition_circulant(spec.size)
    if spec.kind == "id":
        if spec.size <= 0:
            raise InvalidSpec("identity size must be positive")
        return BinMatrix.identity(spec.size)
    if spec.kind == "file":
        from .alist import read_alist

        return read_alist(spec.path)
    raise InvalidSpec(f"unknown ensemble kind {spec.kind!r}")


def sparsity(m: BinMatrix) -> tuple[int, int]:
    """(max column weight, max row weight); (0, 0) for zero or empty matrices."""
    return (max(m.col_weights(), default=0), max(m.row_weights(), default=0))
