"""Tensor products of chain complexes and their parameter formulas.

The level-l space of a product decomposes as a direct sum of Kronecker
blocks A_i (x) B_{l-i}; blocks are always ordered by increasing i, which
fixes the basis order the construction leaves open.  Sign factors play no
role over GF(2) and are dropped throughout.  ``tensor_product`` is the one
construction: the paper's complexes, each the previous one times a
two-space complex K(p), are ``tensor_product(a, one_complex(p))``.

The formulas are arithmetic over factor data (dimensions, homology ranks,
per-level distances); none of them searches for a distance itself.
"""

from __future__ import annotations

from functools import reduce
from collections.abc import Sequence

from .complexes import ChainComplex, one_complex
from .extnat import ExtNat, INFINITY, as_extnat, min_or_infinity
from .gf2 import BinMatrix, hstack, kron, vstack


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
    return sum(a.homology_rank(i) * b.homology_rank(j)
               for i, j in _block_indices(a, b, level))


def tensor_product(a: ChainComplex, b: ChainComplex) -> ChainComplex:
    """Product complex of length ``a.m + b.m``.

    The boundary acts block-wise as (boundary of a) (x) identity plus
    identity (x) (boundary of b); the result always validates.
    """
    boundaries = []
    for level in range(1, a.m + b.m + 1):
        col_blocks = _block_indices(a, b, level)
        row_blocks = _block_indices(a, b, level - 1)
        rows = []
        for i2, j2 in row_blocks:
            height = a.dim(i2) * b.dim(j2)
            strip = []
            for i, j in col_blocks:
                if i == i2 + 1:
                    strip.append(kron(a.boundary(i), BinMatrix.identity(b.dim(j))))
                elif i == i2:
                    strip.append(kron(BinMatrix.identity(a.dim(i)), b.boundary(j2 + 1)))
                else:
                    strip.append(BinMatrix.zeros(height, a.dim(i) * b.dim(j)))
            rows.append(hstack(strip))
        boundaries.append(vstack(rows))
    return ChainComplex(boundaries)


def power_complex(p: BinMatrix, a: int, b: int) -> ChainComplex:
    """Left-fold product of ``a`` copies of K(p) and ``b`` copies of K(p^T).

    The interesting case is a full-row-rank p with fewer rows than
    columns: the result then has a single level (level ``a``) with nonzero
    homology rank.
    """
    if a < 0 or b < 0 or a + b < 1:
        raise InvalidExponents(f"need a + b >= 1 nonnegative factors, got a={a}, b={b}")
    factors = [one_complex(p)] * a + [one_complex(p.transpose())] * b
    return reduce(tensor_product, factors)


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
    return min_or_infinity(terms)
