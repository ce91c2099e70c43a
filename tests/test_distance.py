"""Exact distance engines against naive enumeration and known families."""

from __future__ import annotations

import random
from unittest.mock import Mock

import pytest
from hypothesis import example, given, settings, strategies as st

from homprod import distance
from homprod.gf2 import EchelonBasis
from homprod import (
    BinMatrix,
    ChainComplex,
    DistanceResult,
    ExtNat,
    INFINITY,
    cohomological_distance,
    homological_distance,
    kernel_basis,
    one_complex,
    power_complex,
    rank,
    repetition_circulant,
)
from helpers import (
    from_rows,
    from_string,
    mat_columns,
    naive_distance,
    naive_level_distance,
    random_complex,
    random_matrix,
    ref_cochain,
    ref_echelon,
    ref_gray_walk,
    ref_reduce,
)


def toric_lattice_complex(L: int) -> ChainComplex:
    """Vertices-edges-faces complex of an L x L torus, built from adjacency.

    Independent of the tensor-product constructions: boundary entries come
    straight from lattice incidence.
    """
    def v(r, c):
        return (r % L) * L + (c % L)

    def h(r, c):
        return (r % L) * L + (c % L)          # horizontal edges: 0..L^2-1

    def t(r, c):
        return L * L + (r % L) * L + (c % L)  # vertical edges: L^2..2L^2-1

    edges = 2 * L * L
    a1 = [[0] * edges for _ in range(L * L)]
    for r in range(L):
        for c in range(L):
            a1[v(r, c)][h(r, c)] ^= 1
            a1[v(r, c + 1)][h(r, c)] ^= 1
            a1[v(r, c)][t(r, c)] ^= 1
            a1[v(r + 1, c)][t(r, c)] ^= 1
    a2 = [[0] * (L * L) for _ in range(edges)]
    for r in range(L):
        for c in range(L):
            f = r * L + c
            a2[h(r, c)][f] ^= 1
            a2[h(r + 1, c)][f] ^= 1
            a2[t(r, c)][f] ^= 1
            a2[t(r, c + 1)][f] ^= 1
    return ChainComplex([from_rows(a1), from_rows(a2)])


def test_level0_is_one_without_full_row_rank():
    # A_1 = [1 1; 1 1] has rank 1 < 2 rows, so some unit vector is nontrivial.
    cx = one_complex(from_string("11 11"))
    result = homological_distance(cx, 0)
    assert result.value == 1
    assert result.witness is not None and result.witness.bit_count() == 1
    assert result.enumerated == 0


def test_level0_infinite_at_full_row_rank():
    cx = one_complex(from_string("110 011"))
    assert homological_distance(cx, 0).value == INFINITY


@pytest.mark.parametrize("rows, image_cols, witness", [
    # Column 3 is zero: e_3 is a cycle and, with no image, not a boundary.
    ([[1, 1, 0, 0], [0, 1, 1, 0]], None, 1 << 3),
    # Columns 2 and 3 are zero, but e_2 is a boundary, so e_3 is the witness.
    ([[1, 1, 0, 0]], [[0, 0, 1, 0]], 1 << 3),
])
def test_weight_one_cycle_is_exact_past_the_cap(rows, image_cols, witness):
    boundaries = [from_rows(rows)]
    if image_cols is not None:
        boundaries.append(from_rows(image_cols).transpose())
    cx = ChainComplex(boundaries)
    assert naive_level_distance(cx, 1) == 1
    # A unit vector on a zero column is a cycle.
    assert all(row[witness.bit_length() - 1] == 0 for row in rows)
    for cap in (0, 1, 28):
        result = homological_distance(cx, 1, cap=cap)
        assert (result.value, result.upper, result.exact) == (1, 1, True)
        assert (result.witness, result.enumerated) == (witness, 0)


def test_top_level_equals_classical_distance():
    rng = random.Random(300)
    for _ in range(20):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=8)
        top = homological_distance(cx, cx.m).value
        assert top == classical_oracle(cx.boundary(cx.m))


def test_toric_l3_distance_and_witness():
    cx = power_complex(repetition_circulant(3), 1, 1)
    assert cx.dims == (9, 18, 9)
    assert cx.homology_rank(1) == 2
    result = homological_distance(cx, 1)
    assert result.value == 3
    assert result.witness.bit_count() == 3
    assert cx.boundary(1).mul_vec(result.witness) == 0
    # Full walk over the kernel: dimension is 18 - rank(A_1).
    dim = 18 - rank(cx.boundary(1))
    assert dim == 10
    assert result.enumerated == 2 ** dim - 1


def test_toric_lattice_matches_product_construction():
    for L in (2, 3):
        lattice = toric_lattice_complex(L)
        product = power_complex(repetition_circulant(L), 1, 1)
        assert lattice.dims == product.dims
        assert lattice.homology_ranks() == product.homology_ranks()
        for j in range(3):
            d_lat = homological_distance(lattice, j).value
            d_prod = homological_distance(product, j).value
            assert d_lat == d_prod


def test_naive_oracle_toric_l2():
    cx = toric_lattice_complex(2)
    assert naive_level_distance(cx, 1) == 2
    assert homological_distance(cx, 1).value == 2


def test_cohomological_distance_five_qubit_block():
    cx = power_complex(from_string("11"), 1, 1)
    assert cohomological_distance(cx, 1).value == 2


def test_cohomology_mirrors_transposed_complex():
    rng = random.Random(301)
    for _ in range(10):
        cx = random_complex(rng, m=2, max_dim=5)
        co = ref_cochain(cx)
        for j in range(cx.m + 1):
            lhs = cohomological_distance(cx, j).value
            rhs = homological_distance(co, cx.m - j).value
            assert lhs == rhs


def test_trivial_group_is_infinite():
    cx = one_complex(BinMatrix.identity(3))
    assert homological_distance(cx, 1).value == INFINITY
    assert cohomological_distance(cx, 0).value == INFINITY


def seed_distance(p: BinMatrix):
    """Seed distance through the engine: level 1 of the two-space complex."""
    return homological_distance(one_complex(p), 1).value


def classical_oracle(p: BinMatrix):
    """Min weight of a nonzero codeword under parity check p, by enumeration."""
    best = naive_distance(list(p.bits), p.cols, [])
    return INFINITY if best is None else best


def test_classical_distance_examples():
    assert seed_distance(from_string("11")) == 2
    assert seed_distance(BinMatrix.identity(4)) == INFINITY
    # Parity check whose columns run through all nonzero 3-bit patterns.
    hamming = from_rows([
        [0, 0, 0, 1, 1, 1, 1],
        [0, 1, 1, 0, 0, 1, 1],
        [1, 0, 1, 0, 1, 0, 1],
    ])
    assert seed_distance(hamming) == 3


def test_classical_matches_one_complex_level_one():
    rng = random.Random(302)
    for _ in range(25):
        p = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 10))
        assert seed_distance(p) == classical_oracle(p)


def test_engine_matches_naive_oracle():
    rng = random.Random(303)
    checked = 0
    while checked < 30:
        cx = random_complex(rng, m=2, max_dim=6)
        for j in range(3):
            if cx.dim(j) > 12:
                continue
            expected = naive_level_distance(cx, j)
            got = homological_distance(cx, j).value
            if expected is None:
                assert got == INFINITY
            else:
                assert got == expected
            checked += 1


def test_enumerated_counts_full_walk():
    rng = random.Random(304)
    for _ in range(10):
        cx = random_complex(rng, m=2, max_dim=5)
        j = 1
        if cx.homology_rank(j) == 0:
            continue
        dim = len(kernel_basis(cx.boundary(j)))
        result = homological_distance(cx, j)
        # A distance of 1 is proved by a weight-1 kernel basis vector, with no walk.
        assert result.enumerated == (0 if naive_level_distance(cx, j) == 1 else 2 ** dim - 1)


def test_kernel_cap():
    cx = one_complex(from_string("1111111"))
    # Single parity row over 7 bits: kernel dimension 6.  Past the cap the
    # result is the interval [1, lightest kernel basis vector].
    bounded = homological_distance(cx, 1, cap=5)
    assert bounded.exact is False
    assert bounded.kernel_dim == 6
    assert bounded.value == 1
    assert bounded.upper == 2
    assert homological_distance(cx, 1, cap=6).value == 2


def test_zero_parity_fast_path_ignores_cap():
    # Rank-0 boundary: every vector is a cycle, a unit vector suffices and
    # no enumeration is attempted regardless of the cap.
    cx = one_complex(BinMatrix.zeros(1, 40))
    result = homological_distance(cx, 1, cap=4)
    assert result.value == 1
    assert result.enumerated == 0


def test_witness_is_nontrivial_cycle():
    rng = random.Random(305)
    for _ in range(15):
        cx = random_complex(rng, m=2, max_dim=6)
        for j in range(3):
            result = homological_distance(cx, j)
            if not result.value.is_finite:
                assert result.witness is None
                continue
            w = result.witness
            assert cx.boundary(j).mul_vec(w) == 0
            assert w.bit_count() == result.value.finite_value
            # Not a boundary: appending w to the columns must raise the rank.
            cols = cx.boundary(j + 1).transpose()
            stacked = BinMatrix(cols.rows + 1, cols.cols, list(cols.bits) + [w])
            assert rank(stacked) == rank(cols) + 1


def test_past_cap_builds_the_kernel_once(monkeypatch):
    cx = power_complex(repetition_circulant(3), 1, 1)
    counted = Mock(wraps=distance.kernel_basis)
    monkeypatch.setattr(distance, "kernel_basis", counted)
    result = homological_distance(cx, 1, cap=5)
    assert counted.call_count == 1
    assert not result.exact and result.kernel_dim == 10
    assert result.value == 1 and result.upper >= 3
    assert result.witness is None and result.enumerated == 0


def test_exact_result_upper_equals_value():
    cx = power_complex(repetition_circulant(3), 1, 1)
    for j in range(cx.m + 1):
        for compute in (homological_distance, cohomological_distance):
            result = compute(cx, j)
            assert result.exact and result.upper == result.value


@pytest.mark.parametrize("matrix, level, cap, value, upper, enumerated, exact", [
    ("110 011", 0, 28, INFINITY, INFINITY, 0, True),  # trivial group
    ("11 11", 0, 28, 1, 1, 0, True),  # a weight-1 kernel basis vector
    ("1111111", 1, 5, 1, 2, 0, False),  # past the cap
    ("1111111", 1, 6, 2, 2, 63, True),  # a walk
], ids=["trivial", "weight-1", "past-cap", "walk"])
def test_exact_is_derived_from_the_interval(matrix, level, cap, value, upper, enumerated, exact):
    result = homological_distance(one_complex(from_string(matrix)), level, cap=cap)
    assert (result.value, result.upper, result.enumerated) == (value, upper, enumerated)
    assert result.exact is exact is (result.value == result.upper)


def test_exact_is_not_a_field():
    with pytest.raises(TypeError):
        DistanceResult(ExtNat(2), 3, 3, ExtNat(2), 2, exact=True)
    with pytest.raises(TypeError):
        DistanceResult(ExtNat(2), 3, 3, ExtNat(2), True, 2)
    result = DistanceResult(ExtNat(1), None, 0, ExtNat(2), 6)
    assert result.exact is False and "exact" not in repr(result)
    with pytest.raises(AttributeError):
        result.exact = True


def test_cohomology_equals_cochain_homology_in_every_field():
    rng = random.Random(306)
    for _ in range(25):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=7)
        co = ref_cochain(cx)
        for j in range(cx.m + 1):
            dim = cohomological_distance(cx, j).kernel_dim
            for cap in (max(dim - 1, 0), dim):
                lhs = cohomological_distance(cx, j, cap=cap)
                rhs = homological_distance(co, cx.m - j, cap=cap)
                assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 140), dim=st.integers(0, 12), block_bits=st.sampled_from([2, 3, 8, 10]),
       density=st.sampled_from([0.05, 0.2, 0.5]), images=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1), rref=st.booleans())
# Widths 127 and 128 sit on either side of the packing limit (fields of
# at most 128 bits); dims 9, 10 and 11 fall below, at and above one
# block of 2**10 steps.
@example(width=127, dim=11, block_bits=10, density=0.05, images=2, seed=1, rref=False)
@example(width=128, dim=11, block_bits=10, density=0.05, images=2, seed=1, rref=False)
@example(width=36, dim=10, block_bits=10, density=0.2, images=1, seed=2, rref=False)
@example(width=100, dim=9, block_bits=10, density=0.05, images=3, seed=3, rref=False)
@example(width=60, dim=12, block_bits=3, density=0.05, images=2, seed=4, rref=False)
@example(width=300, dim=8, block_bits=2, density=0.02, images=1, seed=5, rref=False)
@example(width=7, dim=6, block_bits=2, density=0.5, images=4, seed=6, rref=False)
@example(width=20, dim=0, block_bits=10, density=0.2, images=0, seed=7, rref=False)
# Fields of 13 and 9 bytes, not a power of two: the byte sums still land
# in each field's top byte.
@example(width=96, dim=12, block_bits=3, density=0.2, images=2, seed=3, rref=False)
@example(width=70, dim=11, block_bits=8, density=0.5, images=1, seed=9, rref=False)
# These walk blocks after skipped ones; a skip that lands on the run's
# start in place of its end changes the last one's result.
@example(width=36, dim=12, block_bits=3, density=0.2, images=2, seed=2, rref=False)
@example(width=127, dim=12, block_bits=3, density=0.05, images=2, seed=4, rref=False)
@example(width=7, dim=9, block_bits=2, density=0.05, images=0, seed=1, rref=False)
# RREF kernel bits, as the engine passes them: the weight of the bits no
# low vector has set rules out whole blocks, here on both sides of the
# packing limit (127, 128 and 200 bits).
@example(width=127, dim=12, block_bits=10, density=0.05, images=2, seed=1, rref=True)
@example(width=127, dim=12, block_bits=10, density=0.05, images=2, seed=2, rref=True)
@example(width=128, dim=12, block_bits=10, density=0.05, images=2, seed=1, rref=True)
@example(width=128, dim=12, block_bits=3, density=0.05, images=2, seed=1, rref=True)
@example(width=200, dim=12, block_bits=10, density=0.05, images=2, seed=1, rref=True)
@example(width=200, dim=12, block_bits=3, density=0.05, images=2, seed=1, rref=True)
# A run of two or more blocks is ruled out before a walked block: the
# walked block starts where the run left the current vector.
@example(width=127, dim=12, block_bits=2, density=0.2, images=1, seed=8, rref=True)
@example(width=127, dim=12, block_bits=3, density=0.2, images=4, seed=145, rref=True)
@example(width=128, dim=12, block_bits=2, density=0.05, images=3, seed=74, rref=True)
@example(width=128, dim=12, block_bits=3, density=0.05, images=3, seed=74, rref=True)
@example(width=200, dim=12, block_bits=2, density=0.05, images=4, seed=590, rref=True)
@example(width=200, dim=12, block_bits=3, density=0.05, images=4, seed=590, rref=True)
# Denser RREF kernels on both sides of the packing limit, where a skip that
# lands on the run's start in place of its end changes the result.
@example(width=127, dim=12, block_bits=2, density=0.2, images=2, seed=189, rref=True)
@example(width=128, dim=12, block_bits=3, density=0.2, images=2, seed=295, rref=True)
@example(width=200, dim=12, block_bits=2, density=0.2, images=2, seed=84, rref=True)
def test_walk_matches_reference_walk(width, dim, block_bits, density, images, seed, rref):
    rng = random.Random(seed)
    kernel_bits = list(random_matrix(rng, dim, width, density).bits)
    if rref:
        kernel_bits = list(EchelonBasis.from_rows(width, kernel_bits).bits)
    # Boundaries lie in the span of the cycles, as in a complex.
    image_rows = []
    for _ in range(images):
        row = 0
        for b in kernel_bits:
            row ^= rng.choice((0, b))
        image_rows.append(row)
    image = EchelonBasis.from_rows(width, image_rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(distance, "_BLOCK_BITS", block_bits)
        got = distance._walk_range(kernel_bits, image)
    assert got == ref_gray_walk(kernel_bits, image_rows)


def test_toric_l4_walk_matches_reference_and_skips_blocks(monkeypatch):
    cx = toric_lattice_complex(4)
    weighed = []
    may_improve = distance._PackedBlocks.may_improve

    def record(self, block, threshold):
        weighed.append(may_improve(self, block, threshold))
        return weighed[-1]

    monkeypatch.setattr(distance._PackedBlocks, "may_improve", record)
    result = homological_distance(cx, 1)
    assert result.enumerated == 2**17 - 1
    kernel = kernel_basis(cx.boundary(1)).bits
    reference = ref_gray_walk(kernel, mat_columns(cx.boundary(2)))
    assert (result.value, result.witness, result.enumerated) == reference
    assert result.value == 4
    # Of the blocks after the first, the weight of the bits on which a run of
    # blocks agrees rules out some before any packed arithmetic; most of
    # those left for the packed filter hold no vector lighter than the
    # minimum found so far.
    assert 0 < len(weighed) < 2 ** (17 - distance._BLOCK_BITS) - 1
    assert weighed.count(False) > len(weighed) // 2


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 40), count=st.integers(0, 10),
       density=st.sampled_from([0.1, 0.3, 0.5]), seed=st.integers(0, 2**32 - 1))
def test_run_bound_is_sound(width, count, density, seed):
    rng = random.Random(seed)

    def vector():
        return sum(1 << j for j in range(width) if rng.random() < density)

    free = [vector() for _ in range(count)]
    fixed = vector()
    # The walk's partition: refine by one free vector at a time.
    agreed, classes = (1 << width) - 1, []
    for v in free:
        classes = distance._refine(classes, agreed, v)
        agreed &= ~v
    groups = {}
    for j in range(width):
        setters = tuple(i for i, v in enumerate(free) if (v >> j) & 1)
        groups.setdefault(setters, []).append(j)
    unset = groups.pop((), [])
    assert agreed == sum(1 << j for j in unset)
    # The classes are disjoint, and two bits share one exactly when the same
    # free vectors set both: they are the groups of bits with one set of
    # setters, and they cover every bit a free vector sets except those
    # alone in their group, whose bound term min(c, 1 - c) is 0.
    assert sorted(classes) == sorted(sum(1 << j for j in bits)
                                     for bits in groups.values() if len(bits) > 1)
    # The bound, from the groups: agreed bits as they are, each group at
    # the lighter of its two states.
    bound = (fixed & agreed).bit_count()
    for bits in groups.values():
        c = sum((fixed >> j) & 1 for j in bits)
        bound += min(c, len(bits) - c)
    if ref_reduce(ref_echelon(free), fixed):
        lightest = ref_gray_walk(free, [], fixed)[0]
    else:
        lightest = 0
    assert bound <= lightest
    # The walk's run test rules a run out exactly when the bound reaches the
    # current minimum.
    half, sized = distance._class_halves(classes)

    def rules_out(best):
        room = best - (fixed & agreed).bit_count()
        return room <= 0 or half >= room and distance._classes_reach(fixed, half - room, sized)

    assert [rules_out(best) for best in range(width + 2)] == [best <= bound for best in range(width + 2)]


def test_toric_l6_run_test_weighs_bit_classes(monkeypatch):
    # Toric L=6 level 1 (kernel dim 37) walks 2**37 - 1 vectors in net.  A
    # run test that weighs only the bits every vector of a run agrees on
    # sends 146,595 blocks to the packed filter; one that also weighs each
    # class of bits the run flips together sends a few hundred.
    cx = power_complex(repetition_circulant(6), 1, 1)
    weighed = []
    may_improve = distance._PackedBlocks.may_improve

    def record(self, block, threshold):
        weighed.append(block)
        return may_improve(self, block, threshold)

    monkeypatch.setattr(distance._PackedBlocks, "may_improve", record)
    result = homological_distance(cx, 1, cap=37)
    assert (result.value, result.witness, result.enumerated) == (6, 63, 2**37 - 1)
    assert len(weighed) < 2000


@pytest.mark.parametrize("compute, checks, image", [
    # Cycles meet every row of A_1 evenly; boundaries span the columns of A_2.
    (homological_distance, lambda a1, a2: a1.bits, lambda a1, a2: mat_columns(a2)),
    # Cocycles meet every column of A_2 evenly; coboundaries span the rows of A_1.
    (cohomological_distance, lambda a1, a2: mat_columns(a2), lambda a1, a2: a1.bits),
], ids=["homology", "cohomology"])
def test_toric_l5_full_walk(compute, checks, image):
    cx = toric_lattice_complex(5)
    result = compute(cx, 1)
    assert result.value == 5 and result.exact
    assert result.enumerated == 2**26 - 1
    # The witness, re-checked with the test-local elimination only.
    a1, a2 = cx.boundary(1), cx.boundary(2)
    w = result.witness
    assert w.bit_count() == 5
    assert not any((row & w).bit_count() & 1 for row in checks(a1, a2))
    assert ref_reduce(ref_echelon(image(a1, a2)), w)
