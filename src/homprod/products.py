"""Tensor products of chain complexes and their parameter formulas.

The level-l space of a product decomposes as a direct sum of Kronecker
blocks A_i (x) B_{l-i}; blocks are always ordered by increasing i, which
fixes the basis order the construction leaves open.  Sign factors play no
role over GF(2) and are dropped throughout.  ``tensor_product`` is the one
construction: the paper's complexes, each the previous one times a
two-space complex K(p), are ``tensor_product(a, one_complex(p))``.

Two builders share one block layout (``_row_blocks``).  In memory, each
product boundary is assembled in one pass: every row word is the spread
row of a factor boundary of a plus a shifted row of a factor boundary of
b, written straight into the result with no Kronecker or stacking
intermediates; elimination reads those words.  On disk, the boundaries
come one at a time, in level order, as row supports: each row is two
sorted runs of index arithmetic on one row of each factor's supports,
and no row word of the product is built.  That is how ``power`` writes
the product of the fold of every factor but the last and that last
factor, and how ``product`` and ``verify`` take theirs.

The formulas are arithmetic over factor data (dimensions, homology ranks,
per-level distances); none of them searches for a distance itself.  Over
GF(2) the Künneth theorem makes the product's homology ranks the
convolution of the factors' ranks.  A complex built here carries its
factors and fills its boundary ranks from that convolution on the first
rank request, so only the factors are ever eliminated; a complex built any
other way (``ChainComplex(...)``, a loaded bundle) is checked for
orthogonality and eliminates its own boundaries, which keeps
``kunneth_ranks`` an independent prediction for it.
"""

from __future__ import annotations

from functools import reduce
from collections.abc import Iterator, Sequence

from .complexes import ChainComplex, _convolve, _product, one_complex
from .extnat import ExtNat, INFINITY, as_extnat
from .gf2 import BinMatrix


class InvalidExponents(ValueError):
    """Power construction needs at least one factor."""


def _block_indices(a: ChainComplex, b: ChainComplex, level: int) -> list[tuple[int, int]]:
    lo = max(0, level - b.m)
    hi = min(a.m, level)
    return [(i, level - i) for i in range(lo, hi + 1)]


def product_dimensions(a: ChainComplex, b: ChainComplex, level: int) -> int:
    """Dimension of the product at ``level``: sum of n_i(a) * n_{level-i}(b)."""
    if not 0 <= level <= a.m + b.m:
        return 0
    return sum(a.dim(i) * b.dim(j) for i, j in _block_indices(a, b, level))


def kunneth_ranks(a: ChainComplex, b: ChainComplex, level: int) -> int:
    """Homology rank of the product: sum of k_i(a) * k_{level-i}(b)."""
    if not 0 <= level <= a.m + b.m:
        return 0
    return _convolve(a.homology_ranks(), b.homology_ranks())[level]


def _spread(word: int, stride: int) -> int:
    """``word`` with bit c moved to bit c * stride."""
    out = 0
    while word:
        c = word.bit_length() - 1
        out |= 1 << (c * stride)
        word ^= 1 << c
    return out


def _row_blocks(a: ChainComplex, b: ChainComplex,
                level: int) -> tuple[int, list[tuple[int, int, int, int]]]:
    """The block layout of boundary ``level`` of the product: its column
    count, and (i, j, to_right, to_left) for each row block (i, j) of level
    ``level - 1`` in row order.  Row (ra, rb) of block (i, j) meets two
    column blocks: (i, j+1), at offset ``to_right``, where it is row rb of
    E (x) B_{j+1} shifted by ra * n_{j+1}(b); and (i+1, j), at offset
    ``to_left``, where it is row ra of A_{i+1} (x) E, with column c of that
    row at c * n_j(b) + rb.  Block (i, j+1) comes first in the column
    order.  Past the top of a factor, its boundary is the trivial operator,
    whose rows are all zero, so the missing block's offset does not matter.
    """
    offsets = {}
    width = 0
    for i, j in _block_indices(a, b, level):
        offsets[i] = width
        width += a.dim(i) * b.dim(j)
    return width, [(i, j, offsets.get(i, 0), offsets.get(i + 1, 0))
                   for i, j in _block_indices(a, b, level - 1)]


def _product_boundary(a: ChainComplex, b: ChainComplex, level: int) -> BinMatrix:
    """Boundary ``level`` of the product, each row word written in one pass."""
    width, blocks = _row_blocks(a, b, level)
    rows = []
    for i, j, to_right, to_left in blocks:
        left, right = a.boundary(i + 1), b.boundary(j + 1)
        right_words = [word << to_right for word in right.bits]
        for ra, word in enumerate(left.bits):
            spread = _spread(word, b.dim(j)) << to_left
            shift = ra * right.cols
            rows.extend((spread << rb) | (w << shift) for rb, w in enumerate(right_words))
    return BinMatrix(len(rows), width, rows)


def _product_supports(a: ChainComplex, b: ChainComplex, level: int,
                      sa: Sequence[Sequence[tuple[int, ...]]],
                      sb: Sequence[Sequence[tuple[int, ...]]]) -> BinMatrix:
    """Boundary ``level`` of the product as row supports, from the supports
    ``sa[i]`` of ``a.boundary(i)`` and ``sb[j]`` of ``b.boundary(j)``.

    Row (ra, rb) of row block (i, j) is two runs, each already sorted and
    the first below the second: to_right + ra * n_{j+1}(b) + w for w in row
    rb of B_{j+1}, then to_left + c * n_j(b) + rb for c in row ra of
    A_{i+1}.  No row word is built.
    """
    width, blocks = _row_blocks(a, b, level)
    rows = []
    append = rows.append
    for i, j, to_right, to_left in blocks:
        n_j, n_right = b.dim(j), b.boundary(j + 1).cols
        right = [[to_right + w for w in s] for s in sb[j + 1]]
        for ra, s in enumerate(sa[i + 1]):
            left = [to_left + c * n_j for c in s]
            shift = (ra * n_right).__add__
            for rb, r in enumerate(right):
                append((*map(shift, r), *map(rb.__add__, left)))
    return BinMatrix._from_supports(len(rows), width, tuple(rows))


def tensor_product(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Product complex of length ``a.m + b.m``.

    The boundary acts block-wise as (boundary of a) (x) identity plus
    identity (x) (boundary of b), so consecutive boundaries compose to
    zero by construction and are not multiplied out again.  Its homology
    ranks are the Künneth convolution of the factors' ranks, and its
    boundary ranks follow from them, filled on the first rank request, so
    no product boundary is ever eliminated: only the complexes at the
    bottom of a fold of products are.  The boundaries are built as row
    words, which elimination reads.
    """
    return _product([_product_boundary(a, b, level) for level in range(1, a.m + b.m + 1)], a, b)


def _product_boundaries(a: ChainComplex, b: ChainComplex) -> Iterator[BinMatrix]:
    """The boundaries of the product of ``a`` and ``b``, in level order, each
    built as row supports when it is asked for; each factor boundary's
    supports are taken once, on the first request."""
    sa = [a.boundary(i).supports for i in range(a.m + 2)]
    sb = [b.boundary(j).supports for j in range(b.m + 2)]
    for level in range(1, a.m + b.m + 1):
        yield _product_supports(a, b, level, sa, sb)


def _power_split(p: BinMatrix, a: int, b: int) -> tuple[ChainComplex | None, ChainComplex]:
    """The power of ``power_complex`` as (the left fold of every factor but
    the last, None for a single factor; the last factor)."""
    if a < 0 or b < 0 or a + b < 1:
        raise InvalidExponents(f"need a + b >= 1 nonnegative factors, got a={a}, b={b}")
    *rest, last = [one_complex(p)] * a + [one_complex(p.transpose())] * b
    return (reduce(tensor_product, rest) if rest else None), last


def power_complex(p: BinMatrix, a: int, b: int) -> ChainComplex:
    """Left-fold product of ``a`` copies of K(p) and ``b`` copies of K(p^T).

    The interesting case is a full-row-rank p with fewer rows than
    columns: the result then has a single level (level ``a``) with nonzero
    homology rank.
    """
    rest, last = _power_split(p, a, b)
    return last if rest is None else tensor_product(rest, last)


def _at(distances: Sequence, i: int) -> ExtNat:
    if 0 <= i < len(distances):
        return as_extnat(distances[i])
    return INFINITY


def distance_upper_bound(d_a: Sequence, d_b: Sequence, level: int) -> ExtNat:
    """Min over i of d_i(a) * d_{level-i}(b); infinite when no term is finite.

    An upper bound on the product's level distance in general, and exact
    when b is a two-space complex K(p): the product distance is then
    min(d_{level-1}(a) * d_1(K(p)), d_level(a) * d_0(K(p))), where d_0(K(p))
    is 1 unless p has full row rank (then infinite) and d_1(K(p)) is the
    classical distance under parity check p.
    """
    terms = (_at(d_a, i) * _at(d_b, level - i) for i in range(level + 1))
    return min(terms, default=INFINITY)
