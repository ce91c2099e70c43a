"""Complex validation, homology ranks, cochains (built by the test helpers)."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from homprod import (
    BinMatrix,
    ChainComplex,
    DimensionMismatch,
    ExtNat,
    INFINITY,
    LevelOutOfRange,
    NotOrthogonal,
    dumps_alist,
    loads_alist,
    one_complex,
)
from helpers import (
    _kernel_of_columns,
    from_rows,
    from_string,
    random_complex,
    random_matrix,
    ref_cochain,
    ref_composes_to_zero,
    ref_rank,
)


def test_validate_single_matrix():
    cx = ChainComplex([from_string("10 01 11")])
    assert cx.m == 1
    assert cx.dims == (3, 2)


def test_validate_orthogonal_pair():
    cx = ChainComplex([from_string("11"), from_rows([[1], [1]])])
    assert cx.m == 2
    assert cx.dims == (1, 2, 1)


def test_validate_rejects_nonorthogonal():
    with pytest.raises(NotOrthogonal) as err:
        ChainComplex([from_string("11"), from_rows([[1], [0]])])
    assert err.value.level == 2


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        ChainComplex([from_string("11"), BinMatrix.identity(3)])


def _chain(dims, rng):
    """Random boundaries with these dims; the rows of each A_j are drawn from
    the left kernel of A_{j+1}, so every consecutive product vanishes."""
    boundaries = [random_matrix(rng, dims[-2], dims[-1])]
    for j in range(len(dims) - 3, -1, -1):
        right = boundaries[0]
        kernel = _kernel_of_columns(list(right.bits), right.rows)
        words = []
        for _ in range(dims[j]):
            word = 0
            for r in kernel:
                if rng.random() < 0.5:
                    word ^= r
            words.append(word)
        boundaries.insert(0, BinMatrix(dims[j], dims[j + 1], words))
    return boundaries


@settings(max_examples=150, deadline=None)
@given(dims=st.lists(st.integers(0, 6), min_size=3, max_size=5),
       seed=st.integers(0, 2**32 - 1),
       flips=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 35)), max_size=2),
       from_alist=st.lists(st.booleans(), min_size=4, max_size=4))
# A_1 @ A_2 is tested as A_2^T @ A_1^T when A_1 has fewer rows than A_2
# has columns, and as it stands otherwise; operands hold supports, words,
# or one of each.
@example(dims=[1, 3, 5], seed=1, flips=[(0, 1)], from_alist=[True] * 4)
@example(dims=[1, 3, 5], seed=1, flips=[(0, 1)], from_alist=[False] * 4)
@example(dims=[5, 3, 1], seed=2, flips=[(1, 1)], from_alist=[True] * 4)
@example(dims=[5, 3, 1], seed=2, flips=[(1, 1)], from_alist=[False] * 4)
@example(dims=[2, 4, 5, 1], seed=3, flips=[], from_alist=[True, False, True, False])
def test_not_orthogonal_names_the_first_nonzero_product(dims, seed, flips, from_alist):
    boundaries = _chain(dims, random.Random(seed))
    for level, entry in flips:
        b = boundaries[level % len(boundaries)]
        if b.rows and b.cols:
            i, j = divmod(entry % (b.rows * b.cols), b.cols)
            words = list(b.bits)
            words[i] ^= 1 << j
            boundaries[level % len(boundaries)] = BinMatrix(b.rows, b.cols, words)
    nonzero = [not ref_composes_to_zero(pair) for pair in zip(boundaries, boundaries[1:])]
    boundaries = [loads_alist(dumps_alist(b)) if read else b
                  for b, read in zip(boundaries, from_alist)]
    if any(nonzero):
        with pytest.raises(NotOrthogonal) as err:
            ChainComplex(boundaries)
        assert err.value.level == nonzero.index(True) + 2
    else:
        assert ChainComplex(boundaries).boundaries == tuple(boundaries)
    # The check keeps no words on a matrix that held only supports.
    assert all(b._bits is None for b, read in zip(boundaries, from_alist) if read)


def test_homology_ranks_repetition():
    cx = one_complex(from_string("11"))
    assert cx.homology_rank(0) == 0
    assert cx.homology_rank(1) == 1


def test_homology_ranks_zero_boundaries():
    cx = ChainComplex([BinMatrix.zeros(3, 4), BinMatrix.zeros(4, 2)])
    assert cx.homology_ranks() == (3, 4, 2)


def test_homology_rank_level_out_of_range():
    cx = one_complex(from_string("11"))
    with pytest.raises(LevelOutOfRange):
        cx.homology_rank(2)


def test_cochain_involution():
    rng = random.Random(200)
    for _ in range(10):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=6)
        assert ref_cochain(ref_cochain(cx)) == cx


def test_cochain_of_one_complex_transposes():
    p = from_string("110 011")
    assert ref_cochain(one_complex(p)) == one_complex(p.transpose())


def test_cochain_preserves_ranks():
    rng = random.Random(201)
    for _ in range(15):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=6)
        co = ref_cochain(cx)
        for j in range(cx.m + 1):
            assert co.homology_rank(cx.m - j) == cx.homology_rank(j)


def test_euler_telescoping():
    # Summing the rank formula over levels cancels each boundary rank twice.
    rng = random.Random(202)
    for _ in range(15):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=6)
        total_k = sum(cx.homology_ranks())
        total_rank = sum(cx.boundary_rank(j) for j in range(1, cx.m + 1))
        assert total_k == sum(cx.dims) - 2 * total_rank


def test_boundaries_are_cycles():
    rng = random.Random(203)
    for _ in range(15):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=6)
        for j in range(1, cx.m):
            a_j, a_next = cx.boundary(j), cx.boundary(j + 1)
            for col in a_next.transpose().bits:
                assert a_j.mul_vec(col) == 0


def test_extnat_arithmetic():
    assert ExtNat(2) * ExtNat(3) == ExtNat(6)
    assert ExtNat(2) * INFINITY == INFINITY
    assert INFINITY * INFINITY == INFINITY
    assert min(ExtNat(4), INFINITY) == ExtNat(4)
    assert ExtNat(3) < INFINITY
    assert not (INFINITY < INFINITY)
    assert ExtNat(5) == 5
    assert str(INFINITY) == "inf"
    with pytest.raises(ValueError):
        ExtNat(-1)
    with pytest.raises(ValueError):
        INFINITY.finite_value


def test_random_complexes_validate():
    rng = random.Random(205)
    for _ in range(20):
        cx = random_complex(rng, m=rng.randint(1, 4), max_dim=7)
        # Construction validated; double-check ranks against the reference.
        for j in range(1, cx.m + 1):
            assert cx.boundary_rank(j) == ref_rank(list(cx.boundary(j).bits))


def test_empty_level_convention():
    # A zero-dimensional space has trivial homology and infinite distance.
    from homprod import homological_distance

    cx = ChainComplex([BinMatrix.zeros(2, 0), BinMatrix.zeros(0, 3)])
    assert cx.dims == (2, 0, 3)
    assert cx.homology_rank(1) == 0
    assert homological_distance(cx, 1).value == INFINITY
