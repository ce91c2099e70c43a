"""Bit-packed GF(2) linear algebra."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from homprod import (
    BinMatrix,
    DimensionMismatch,
    EchelonBasis,
    kernel_basis,
    rank,
    row_space_basis,
    solve,
)
from helpers import (
    _kernel_of_columns,
    columns_as_masks,
    from_rows,
    from_string,
    mat_columns,
    random_matrix,
    ref_echelon,
    ref_rank,
    ref_reduce,
    ref_top_echelon,
)


def test_rank_identity():
    assert rank(BinMatrix.identity(3)) == 3


def test_rank_zero_matrix():
    assert rank(BinMatrix.zeros(2, 4)) == 0


def test_rank_dependent_rows():
    # The three rows sum to zero, any two are independent.
    m = from_string("110 011 101")
    assert rank(m) == 2


def test_multiply_repetition_orthogonality():
    a = from_string("11")
    b = from_rows([[1], [1]])
    assert (a @ b) == BinMatrix.zeros(1, 1)


def test_multiply_identity():
    m = from_string("101 110")
    assert BinMatrix.identity(2) @ m == m


def test_multiply_empty():
    a = BinMatrix.zeros(0, 5)
    b = BinMatrix.zeros(5, 2)
    assert (a @ b).shape == (0, 2)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        BinMatrix.identity(2) @ BinMatrix.identity(3)


def test_kernel_repetition():
    basis = kernel_basis(from_string("11"))
    assert len(basis) == 1
    assert basis.bits == (0b11,)


def test_kernel_full_column_rank():
    assert len(kernel_basis(BinMatrix.identity(4))) == 0


def test_kernel_zero_matrix():
    basis = kernel_basis(BinMatrix.zeros(3, 5))
    assert len(basis) == 5
    assert sorted(basis.bits) == [1 << i for i in range(5)]


def test_kernel_is_read_off_the_rref_without_elimination(monkeypatch):
    from homprod import gf2

    m = from_string("1011001 0110100 1101101")
    rref = row_space_basis(m)

    def no_elimination(*args):
        raise AssertionError("kernel_from_rref eliminated")

    monkeypatch.setattr(gf2, "_forward", no_elimination)
    monkeypatch.setattr(EchelonBasis, "from_rows", classmethod(no_elimination))
    kernel = gf2.kernel_from_rref(rref)
    assert len(kernel) == m.cols - len(rref)
    assert all(m.mul_vec(v) == 0 for v in kernel.bits)
    # Each kernel vector pivots at its lowest set bit.
    assert [(v & -v).bit_length() - 1 for v in kernel.bits] == list(kernel.pivot_cols)


def test_solve_identity():
    assert solve(BinMatrix.identity(3), 0b101) == 0b101


def test_solve_no_solution():
    assert solve(from_rows([[1], [1]]), 0b01) is None


def test_solve_underdetermined():
    m = from_string("11")
    x = solve(m, 1)
    assert x in (0b01, 0b10)
    assert m.mul_vec(x) == 1


def test_solve_accepts_bit_lists():
    m = BinMatrix.identity(3)
    assert solve(m, [1, 0, 1]) == 0b101


def test_rank_equals_transpose_rank():
    rng = random.Random(100)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(0, 64), rng.randint(1, 64))
        assert rank(m) == rank(m.transpose())


def test_rank_nullity():
    rng = random.Random(101)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 20), rng.randint(1, 20))
        assert m.cols == rank(m) + len(kernel_basis(m))


def test_kernel_vectors_annihilated():
    rng = random.Random(102)
    for _ in range(30):
        m = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        basis = kernel_basis(m)
        # Random span elements, not just the basis itself.
        for _ in range(10):
            x = 0
            for b in basis.bits:
                if rng.random() < 0.5:
                    x ^= b
            assert m.mul_vec(x) == 0


def test_solve_postconditions():
    rng = random.Random(103)
    for _ in range(60):
        m = random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        y = rng.getrandbits(m.rows)
        x = solve(m, y)
        if x is None:
            augmented = list(m.transpose().bits) + [y]
            assert ref_rank(augmented) > rank(m)
        else:
            assert m.mul_vec(x) == y


def test_rank_agrees_with_reference():
    rng = random.Random(105)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 16), rng.randint(1, 16))
        assert rank(m) == ref_rank(list(m.bits))


def test_padding_bits_rejected():
    with pytest.raises(ValueError):
        BinMatrix(1, 2, [0b100])
    # The edges of the check: the top column is accepted, the bit after it
    # is not; negative words are rejected; a 0-column row holds only 0.
    assert BinMatrix(1, 64, [1 << 63])[0, 63] == 1
    assert BinMatrix(1, 0, [0]).shape == (1, 0)
    for cols, word in [(64, 1 << 64), (3000, 1 << 3000), (3000, (1 << 3001) - 1),
                       (5, -1), (3000, -(1 << 2999)), (0, 1)]:
        with pytest.raises(ValueError, match="beyond the column count"):
            BinMatrix(1, cols, [word])


def test_transpose_involution():
    rng = random.Random(106)
    for _ in range(20):
        m = random_matrix(rng, rng.randint(0, 8), rng.randint(0, 8) or 1)
        assert m.transpose().transpose() == m


def test_solve_length_violation():
    with pytest.raises(DimensionMismatch):
        solve(BinMatrix.identity(2), 0b100)
    with pytest.raises(DimensionMismatch):
        solve(BinMatrix.identity(2), [1, 0, 1])


def test_echelon_basis_rejects_non_reduced_rows():
    EchelonBasis(3, [0b001, 0b110], [0, 1])  # lowest-bit pivots, as in a kernel
    EchelonBasis(3, [0b001, 0b110], [0, 2])  # top-bit pivots, as in a row space
    with pytest.raises(ValueError):
        EchelonBasis(3, [0b011, 0b010], [0, 1])  # row 0 holds pivot bit 1
    with pytest.raises(ValueError):
        EchelonBasis(3, [0b110], [0])  # row lacks its own pivot bit
    with pytest.raises(ValueError):
        EchelonBasis(3, [0b001, 0b011], [0, 0])  # repeated pivot
    with pytest.raises(ValueError):
        EchelonBasis(3, [0b001], [0, 1])  # more pivots than rows


# --- property tests against the independent helpers -------------------------

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, max_dim=16):
    """Any shape up to max_dim, zero rows or columns included.

    Rows are sums of up to ``max_dim`` random generators, so rank-deficient
    matrices are as common as full-rank ones.
    """
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    gens = draw(st.lists(st.integers(0, (1 << cols) - 1), max_size=max_dim))
    bits = []
    for pick in draw(st.lists(st.integers(0, (1 << len(gens)) - 1),
                              min_size=rows, max_size=rows)):
        b = 0
        for i, g in enumerate(gens):
            if (pick >> i) & 1:
                b ^= g
        bits.append(b)
    return BinMatrix(rows, cols, bits)


EDGE_SHAPES = [BinMatrix(0, 5), BinMatrix(4, 0), BinMatrix(0, 0), BinMatrix.identity(3),
               from_string("1111 1111 0110"),  # rank-deficient
               from_string("10 01 11 10 01"),  # tall
               from_string("1011001 0110100")]  # wide


# Vectors are drawn at the widest size and masked to the matrix shape.
VECTOR = st.integers(0, (1 << 16) - 1)


def edge_shapes(*extra):
    """Decorator adding one explicit example per edge shape."""
    def add(test):
        for m in EDGE_SHAPES:
            test = example(m, *extra)(test)
        return test
    return add


@PROPERTY
@given(matrices())
@edge_shapes()
def test_property_rank(m):
    assert rank(m) == ref_rank(list(m.bits))


@PROPERTY
@given(matrices())
@edge_shapes()
def test_property_row_and_column_space_bases(m):
    rows, pivots = ref_top_echelon(list(m.bits), m.cols)
    basis = row_space_basis(m)
    assert (list(basis.bits), list(basis.pivot_cols)) == (rows, pivots)
    # The column space is the row space of the transpose.
    rows, pivots = ref_top_echelon(columns_as_masks(list(m.bits), m.cols), m.rows)
    basis = row_space_basis(m.transpose())
    assert (list(basis.bits), list(basis.pivot_cols)) == (rows, pivots)


@PROPERTY
@given(matrices())
@edge_shapes()
def test_property_kernel_basis_is_canonical(m):
    # Kernel of m = left kernel of its transpose, built by the helpers alone.
    transposed = columns_as_masks(list(m.bits), m.cols)
    rows, pivots = ref_echelon(_kernel_of_columns(transposed, m.cols))
    basis = kernel_basis(m)
    assert (list(basis.bits), list(basis.pivot_cols)) == (rows, pivots)


@PROPERTY
@given(matrices(), VECTOR)
@edge_shapes(0b1011)
def test_property_solve(m, v):
    cols = columns_as_masks(list(m.bits), m.cols)

    def combine(x):
        out = 0
        for j, c in enumerate(cols):
            if (x >> j) & 1:
                out ^= c
        return out

    # An arbitrary right-hand side, then one known to be in the column span.
    for y in (v & ((1 << m.rows) - 1), combine(v)):
        x = solve(m, y)
        if x is None:
            assert ref_rank(cols + [y]) > ref_rank(cols)
        else:
            assert combine(x) == y


@PROPERTY
@given(matrices(), st.lists(VECTOR, max_size=8))
@edge_shapes([0b1011, 0b0110])
def test_property_echelon_basis_membership(m, xs):
    basis = row_space_basis(m)
    ref = ref_top_echelon(list(m.bits), m.cols)
    for x in (x & ((1 << m.cols) - 1) for x in xs):
        assert basis.reduce(x) == ref_reduce(ref, x)
        assert (x in basis) == (ref_reduce(ref, x) == 0)
    for b in m.bits:
        assert b in basis


@st.composite
def wide_sparse(draw):
    """Up to 8 rows of at most 12 ones over 1,000-4,000 columns: words of many
    digits with only a few set bits, the shape of a higher-dimensional boundary."""
    ncols = draw(st.integers(1000, 4000))
    bits = []
    for _ in range(draw(st.integers(0, 8))):
        bits.append(sum(1 << j for j in draw(st.sets(st.integers(0, ncols - 1), max_size=12))))
    return BinMatrix(len(bits), ncols, bits)


def _ones(word: int, width: int) -> list[int]:
    """Set positions of a word, found one entry at a time."""
    return [j for j in range(width) if (word >> j) & 1]


@settings(max_examples=25, deadline=None)
@given(wide_sparse(), st.integers(0, 2**32))
@example(BinMatrix(0, 1000), 0)
@example(BinMatrix(2, 1000, [1 << 999 | 1, 1 << 500]), 1)
def test_property_wide_sparse_products(m, seed):
    assert list(m.transpose().bits) == mat_columns(m)
    ones = [_ones(b, m.cols) for b in m.bits]
    weights = [0] * m.cols
    for row in ones:
        for j in row:
            weights[j] += 1
    assert m.col_weights() == weights

    # m @ b for a wide sparse b with one row per column of m; row i of the
    # product is the XOR of the rows of b that row i of m selects.
    rng = random.Random(seed)
    ncols = rng.randint(1000, 4000)
    b_rows = [0] * m.cols
    for j in range(m.cols):
        for _ in range(rng.randint(0, 12)):
            b_rows[j] |= 1 << rng.randrange(ncols)
    expected = []
    for row in ones:
        acc = 0
        for j in row:
            acc ^= b_rows[j]
        expected.append(acc)
    assert list((m @ BinMatrix(m.cols, ncols, b_rows)).bits) == expected

