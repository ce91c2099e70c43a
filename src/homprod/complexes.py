"""Based chain complexes over GF(2).

A complex of length m is an ordered list of boundary matrices
``A_1, ..., A_m`` with ``A_j.cols == A_{j+1}.rows`` and every consecutive
product ``A_j @ A_{j+1}`` zero.  Levels run 0..m; the trivial boundary
operators at the two ends are materialized as empty matrices so that rank
and homology formulas need no branches.

``ChainComplex(...)`` takes matrices from outside the program and checks
both conditions.  Each product is tested in whichever orientation,
``A_j @ A_{j+1}`` or ``A_{j+1}^T @ A_j^T``, has the narrower right
operand, whose row words are the ones the product builds; a matrix read
from an alist builds them for that product alone and keeps none, so a
loaded complex holds at most one operand's words at a time.  The test
XORs those words along one row of the left operand at a time and stops
at the first nonzero row; no product matrix is built.  A tensor product
of complexes is a complex by construction, so ``_product`` checks shapes
only.

Boundary ranks are eliminated on first request and cached.  A product
instead carries the complexes it is the product of; by the Künneth
theorem over GF(2) its homology ranks are the convolution of theirs, and
the first rank request fills every boundary rank from them, with no
elimination of its own.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import reduce

from .gf2 import BinMatrix, DimensionMismatch, rank


class NotOrthogonal(ValueError):
    """Consecutive boundary matrices do not compose to zero."""

    def __init__(self, level: int):
        super().__init__(f"boundary product A_{level - 1} @ A_{level} is nonzero")
        self.level = level


class LevelOutOfRange(IndexError):
    """Requested level is outside 0..m."""


def _convolve(k_a: Sequence[int], k_b: Sequence[int]) -> tuple[int, ...]:
    """Künneth over GF(2): level l of a product has rank sum of k_i(a) * k_{l-i}(b)."""
    out = [0] * (len(k_a) + len(k_b) - 1)
    for i, x in enumerate(k_a):
        for j, y in enumerate(k_b):
            out[i + j] += x * y
    return tuple(out)


def _composes_to_zero(left: BinMatrix, right: BinMatrix) -> bool:
    """Whether ``left @ right`` is zero, tested as ``right^T @ left^T`` when
    that product's right operand, ``left^T``, has fewer columns than
    ``right``.  The right operand's words are the only ones the product
    builds, so this builds the narrower words; a transpose of a matrix that
    holds supports is a free swap.  No product matrix is built: the rows
    of the product are XORed one at a time, and the first nonzero one ends
    the test."""
    if left.rows < right.cols:
        left, right = right.transpose(), left.transpose()
    return not any(left._product_rows(right))


class ChainComplex:
    """Validated chain complex; immutable after construction."""

    __slots__ = ("_boundaries", "_dims", "_ranks", "_factors")

    def __init__(self, boundaries: Sequence[BinMatrix]):
        self._set(boundaries, None)
        for j in range(1, self.m):
            if not _composes_to_zero(self._boundaries[j - 1], self._boundaries[j]):
                raise NotOrthogonal(j + 1)

    def _set(self, boundaries: Sequence[BinMatrix], factors) -> None:
        """Store the boundaries once their shapes chain; ``factors`` as below."""
        boundaries = tuple(boundaries)
        if not boundaries:
            raise ValueError("a complex needs at least one boundary matrix")
        for j in range(1, len(boundaries)):
            left, right = boundaries[j - 1], boundaries[j]
            if left.cols != right.rows:
                raise DimensionMismatch(
                    f"A_{j} has {left.cols} columns but A_{j + 1} has {right.rows} rows"
                )
        self._boundaries = boundaries
        self._dims = (boundaries[0].rows,) + tuple(b.cols for b in boundaries)
        self._ranks: dict[int, int] = {}
        # Complexes, none of them waiting on factors of its own, whose
        # homology ranks convolve to this one's; None: eliminate.
        self._factors: tuple[ChainComplex, ...] | None = factors

    @property
    def m(self) -> int:
        """Number of boundary matrices."""
        return len(self._boundaries)

    @property
    def boundaries(self) -> tuple[BinMatrix, ...]:
        return self._boundaries

    @property
    def dims(self) -> tuple[int, ...]:
        """Space dimensions ``(n_0, ..., n_m)``."""
        return self._dims

    def dim(self, j: int) -> int:
        if not 0 <= j <= self.m:
            raise LevelOutOfRange(f"level {j} outside 0..{self.m}")
        return self._dims[j]

    def boundary(self, j: int) -> BinMatrix:
        """Boundary operator mapping level j to level j-1.

        ``j = 0`` and ``j = m + 1`` return the trivial empty operators.
        """
        if j == 0:
            return BinMatrix.zeros(0, self._dims[0])
        if j == self.m + 1:
            return BinMatrix.zeros(self._dims[self.m], 0)
        if not 1 <= j <= self.m:
            raise LevelOutOfRange(f"boundary index {j} outside 0..{self.m + 1}")
        return self._boundaries[j - 1]

    def boundary_rank(self, j: int) -> int:
        """Cached rank of ``boundary(j)``; the trivial end operators have rank 0."""
        if j == 0 or j == self.m + 1:
            return 0
        if j not in self._ranks:
            if self._factors is not None:
                self._fill_ranks(reduce(_convolve, (f.homology_ranks() for f in self._factors)))
            else:
                self._ranks[j] = rank(self.boundary(j))
        return self._ranks[j]

    def _fill_ranks(self, homology: Sequence[int]) -> None:
        """Every boundary rank from the homology ranks: r_{j+1} = n_j - k_j - r_j, r_0 = 0.

        The recursion must end at r_{m+1} = 0 with no rank outside
        0..min(rows, cols); anything else raises ``AssertionError``.
        """
        ranks = {}
        r = 0
        for j, k in enumerate(homology):
            r = self._dims[j] - k - r
            if j < self.m:
                bound = self._boundaries[j]
                if not 0 <= r <= min(bound.rows, bound.cols):
                    raise AssertionError(f"homology ranks give rank A_{j + 1} = {r}, "
                                         f"impossible for a {bound.rows}x{bound.cols} matrix")
                ranks[j + 1] = r
        if r != 0:
            raise AssertionError(f"homology ranks {tuple(homology)} do not fit dims {self._dims}")
        self._ranks.update(ranks)
        self._factors = None

    def homology_rank(self, j: int) -> int:
        """Rank ``k_j = n_j - rank A_j - rank A_{j+1}`` of the level-j homology group.

        Boundary ranks are eliminated once and cached, except in a complex
        built by ``tensor_product``: there they follow from the Künneth
        ranks of the factors, and only the factors are eliminated.
        """
        if not 0 <= j <= self.m:
            raise LevelOutOfRange(f"level {j} outside 0..{self.m}")
        return self._dims[j] - self.boundary_rank(j) - self.boundary_rank(j + 1)

    def homology_ranks(self) -> tuple[int, ...]:
        return tuple(self.homology_rank(j) for j in range(self.m + 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self._boundaries == other._boundaries

    def __hash__(self) -> int:
        return hash(self._boundaries)

    def __repr__(self) -> str:
        return f"ChainComplex(m={self.m}, dims={self._dims})"


def one_complex(p: BinMatrix) -> ChainComplex:
    """The two-space complex defined by a single matrix."""
    return ChainComplex((p,))


def _product(boundaries: Sequence[BinMatrix], a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """The product of ``a`` and ``b`` with these boundaries, which compose to
    zero by construction: only their shapes are checked."""
    cx = ChainComplex.__new__(ChainComplex)
    # A factor still waiting for its ranks passes on its own factors: the
    # convolution is associative, and the fill then never recurses.
    cx._set(boundaries, (a._factors or (a,)) + (b._factors or (b,)))
    return cx
