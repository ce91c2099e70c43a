"""Tensor products, parameter predictions, and distance bound formulas."""

from __future__ import annotations

import math
import pickle
import random
from unittest.mock import Mock

import pytest
from hypothesis import example, given, settings, strategies as st

from homprod import (
    BinMatrix,
    ChainComplex,
    ExtNat,
    INFINITY,
    InvalidExponents,
    distance_upper_bound,
    homological_distance,
    kunneth_ranks,
    one_complex,
    power_complex,
    product_dimensions,
    sparsity,
    tensor_product,
)
from homprod import complexes, dumps_alist, gf2, loads_alist
from homprod.bundle import load_bundle, save_bundle
from homprod.products import _power_split, _product_boundaries
from helpers import (
    from_string,
    naive_level_distance,
    random_complex,
    random_matrix,
    random_sparse,
    ref_composes_to_zero,
    ref_homology_ranks,
    ref_one_complex_product,
    ref_rank,
    ref_tensor_product,
)

P2 = from_string("11")


def factor_distances(cx):
    return [homological_distance(cx, j).value for j in range(cx.m + 1)]


def test_product_dims_qhp_block():
    a = one_complex(P2)
    b = one_complex(P2.transpose())
    cx = tensor_product(a, b)
    assert cx.dims == (2, 5, 2)
    assert product_dimensions(a, b, 1) == 5


def test_product_with_identity_one_complex_kills_homology():
    rng = random.Random(400)
    b = one_complex(BinMatrix.identity(3))
    for _ in range(5):
        a = random_complex(rng, m=2, max_dim=5)
        cx = tensor_product(a, b)
        for j in range(cx.m + 1):
            assert cx.dim(j) == (a.dim(j - 1) * 3 if 1 <= j else 0) + \
                (a.dim(j) * 3 if j <= a.m else 0)
            assert cx.homology_rank(j) == 0


def test_random_products_validate():
    rng = random.Random(401)
    for _ in range(100):
        a = random_complex(rng, m=rng.randint(1, 2), max_dim=5)
        b = one_complex(random_sparse(rng, rng.randint(1, 4), rng.randint(1, 5)))
        cx = tensor_product(a, b)
        assert cx.m == a.m + b.m
        assert ref_composes_to_zero(cx.boundaries)


def _entry_lists(m: BinMatrix) -> list[list[int]]:
    """The matrix as rows of 0/1 entries."""
    return [[(b >> j) & 1 for j in range(m.cols)] for b in m.bits]


def test_one_complex_product_block_example():
    # Hand-assembled blocks for A = K([1 1]) against the column seed [1;1].
    a = one_complex(P2)
    p = P2.transpose()
    cx = tensor_product(a, one_complex(p))
    assert _entry_lists(cx.boundary(1)) == [[1, 1, 0, 1, 0], [1, 0, 1, 0, 1]]
    assert _entry_lists(cx.boundary(2)) == [[1, 1], [1, 0], [1, 0], [0, 1], [0, 1]]
    assert (cx.boundary(1) @ cx.boundary(2)).is_zero()


def test_one_complex_product_degenerate_zero_columns():
    rng = random.Random(402)
    a = random_complex(rng, m=2, max_dim=4)
    p = BinMatrix.zeros(3, 0)
    cx = tensor_product(a, one_complex(p))
    for j in range(cx.m + 1):
        assert cx.dim(j) == (a.dim(j) * 3 if j <= a.m else 0)


@st.composite
def complex_and_seed(draw):
    """A random complex with m = 1..3 and a seed p of any shape up to 4 x 5."""
    a = random_complex(random.Random(draw(st.integers(0, 2 ** 32))),
                       m=draw(st.integers(1, 3)), max_dim=4)
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return a, BinMatrix(rows, cols, bits)


@settings(max_examples=60, deadline=None)
@given(complex_and_seed())
@example((one_complex(P2), BinMatrix(0, 3)))
@example((one_complex(P2), BinMatrix(3, 0)))
@example((one_complex(P2), BinMatrix(0, 0)))
def test_one_complex_product_matches_tensor_product(case):
    # The block form, set entry by entry, against the Kronecker construction.
    a, p = case
    assert tensor_product(a, one_complex(p)).boundaries == ref_one_complex_product(a, p)


@st.composite
def complex_pair(draw):
    """Complexes a (m = 1..3) and b (m = 1..2) whose levels may be zero-dimensional."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = random_complex(rng, m=draw(st.integers(1, 3)), max_dim=4, min_dim=0)
    b = random_complex(rng, m=draw(st.integers(1, 2)), max_dim=4, min_dim=0)
    return a, b


ZERO_LEVEL = ChainComplex([BinMatrix.zeros(2, 0), BinMatrix.zeros(0, 3)])


@settings(max_examples=80, deadline=None)
@given(complex_pair())
@example((ZERO_LEVEL, ZERO_LEVEL))
@example((one_complex(BinMatrix(0, 0)), one_complex(P2)))
@example((one_complex(P2), ChainComplex([P2, BinMatrix.zeros(2, 0)])))
def test_tensor_product_matches_entrywise_reference(case):
    a, b = case
    boundaries = tensor_product(a, b).boundaries
    assert boundaries == ref_tensor_product(a, b)
    assert ref_composes_to_zero(boundaries)


def _reloaded(cx: ChainComplex) -> ChainComplex:
    """``cx`` as a loaded bundle holds it: every boundary read from its alist."""
    return ChainComplex([loads_alist(dumps_alist(m)) for m in cx.boundaries])


@st.composite
def streamed_factors(draw):
    """The two factors that ``power`` or ``product`` streams: the split of a
    power of a seed up to 3 x 4 (m up to 4; a single factor splits into
    None and itself), or two random complexes whose levels may be
    zero-dimensional; either factor may be held as a loaded bundle holds it."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 4))
        words = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
        exponents = draw(st.sampled_from([(1, 0), (0, 1), (0, 2), (2, 2), (1, 1), (2, 1),
                                          (1, 3), (4, 0)]))
        a, b = _power_split(BinMatrix(rows, cols, words), *exponents)
    else:
        a, b = draw(complex_pair())
    reload_a, reload_b = draw(st.booleans()), draw(st.booleans())
    if a is not None and reload_a:
        a = _reloaded(a)
    return a, (_reloaded(b) if reload_b else b)


@settings(max_examples=80, deadline=None)
@given(streamed_factors())
@example((one_complex(P2), one_complex(P2.transpose())))
@example((ZERO_LEVEL, ZERO_LEVEL))
@example((_reloaded(power_complex(from_string("110 011"), 1, 1)),
          _reloaded(power_complex(from_string("110 011"), 0, 2))))
def test_streamed_boundaries_are_the_word_built_ones(case):
    # The supports built from the factors' supports against the words built
    # from the factors' words and the entry-by-entry reference, row and
    # column supports both; no streamed boundary holds row words, and a
    # factor held by its supports builds none.
    a, b = case
    if a is None:
        return
    streamed = list(_product_boundaries(a, b))
    assert all(m._bits is None for m in streamed)
    assert all(f._bits is None for f in a.boundaries + b.boundaries
               if f._supports is not None)
    built = tensor_product(a, b).boundaries
    assert built == ref_tensor_product(a, b)
    assert [m.shape for m in streamed] == [m.shape for m in built]
    assert [m.supports for m in streamed] == [m.supports for m in built]
    assert [m.transpose().supports for m in streamed] == \
        [m.transpose().supports for m in built]
    assert [dumps_alist(m) for m in streamed] == [dumps_alist(m) for m in built]


@st.composite
def factor_pair(draw):
    """A random complex a and a factor b that is K(p) or has m = 2."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = random_complex(rng, m=draw(st.integers(1, 3)), max_dim=4, min_dim=0)
    if draw(st.booleans()):
        rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
        b = one_complex(random_matrix(rng, rows, cols, draw(st.floats(0, 1))))
    else:
        b = random_complex(rng, m=2, max_dim=4, min_dim=0)
    return a, b


@settings(max_examples=80, deadline=None)
@given(factor_pair())
@example((one_complex(P2), one_complex(P2.transpose())))
@example((ZERO_LEVEL, one_complex(BinMatrix.identity(2))))
def test_kunneth_ranks_match_elimination(case):
    # The product takes its ranks from the factors; the reference eliminates
    # the product's own boundaries.
    a, b = case
    cx = tensor_product(a, b)
    assert cx.homology_ranks() == ref_homology_ranks(cx.boundaries)
    assert [cx.boundary_rank(j) for j in range(1, cx.m + 1)] == \
        [ref_rank(list(m.bits)) for m in cx.boundaries]


def _counting_rank(monkeypatch):
    counted = Mock(wraps=gf2.rank)
    monkeypatch.setattr(complexes, "rank", counted)
    return counted


def test_power_eliminates_only_the_seed(monkeypatch):
    p = from_string("1100 0110 0011")
    counted = _counting_rank(monkeypatch)
    cx = power_complex(p, 2, 2)
    assert counted.call_count == 0
    assert cx.homology_ranks() == (0, 0, 1, 0, 0)
    shapes = sorted(call.args[0].shape for call in counted.call_args_list)
    assert shapes == [(3, 4), (4, 3)]
    # The ranks are filled once; asking again eliminates nothing.
    assert [cx.boundary_rank(j) for j in range(1, 5)] == \
        [ref_rank(list(m.bits)) for m in cx.boundaries]
    assert counted.call_count == 2


def test_power_multiplies_nothing_and_its_load_checks_every_pair(tmp_path, monkeypatch):
    # A product composes to zero by construction; a loaded bundle is checked,
    # each consecutive pair once.
    counted = Mock(wraps=complexes._composes_to_zero)
    monkeypatch.setattr(complexes, "_composes_to_zero", counted)
    cx = power_complex(from_string("1100 0110 0011"), 2, 2)
    assert counted.call_count == 0
    save_bundle(cx, tmp_path)
    assert load_bundle(tmp_path).complex == cx
    assert [call.args for call in counted.call_args_list] == \
        list(zip(cx.boundaries, cx.boundaries[1:]))
    assert counted.call_count == cx.m - 1 == 3


def test_deep_fold_fills_its_ranks_in_one_step():
    # K(p) for a 0 x 1 seed has dims (0, 1); a 300-fold power has one
    # nonzero space, at the top.  Its ranks come from the 300 leaf factors
    # at once, not through a chain of nested products.
    cx = power_complex(BinMatrix(0, 1), 300, 0)
    assert cx.homology_ranks() == (0,) * 300 + (1,)


def test_product_pickles_before_and_after_its_ranks():
    cx = power_complex(from_string("110 011"), 1, 1)
    copy = pickle.loads(pickle.dumps(cx))
    assert copy == cx
    assert copy.homology_ranks() == cx.homology_ranks() == (0, 1, 0)
    assert pickle.loads(pickle.dumps(cx)).homology_ranks() == (0, 1, 0)


def test_loaded_product_still_eliminates(tmp_path, monkeypatch):
    cx = power_complex(from_string("110 011"), 1, 1)
    save_bundle(cx, tmp_path)
    counted = _counting_rank(monkeypatch)
    loaded = load_bundle(tmp_path).complex
    assert loaded.homology_ranks() == (0, 1, 0)
    # Each boundary of the loaded complex is eliminated.
    assert [call.args[0] for call in counted.call_args_list] == list(cx.boundaries)


def test_wrong_kunneth_ranks_raise():
    cx = tensor_product(one_complex(P2), one_complex(P2.transpose()))
    # Dims (2, 5, 2): true ranks (0, 1, 0).  One extra class breaks r_3 = 0;
    # (0, 4, 3) ends at r_3 = 0 but gives rank A_2 = -1.
    for wrong in [(0, 2, 0), (0, 4, 3)]:
        with pytest.raises(AssertionError):
            cx._fill_ranks(wrong)
    # A failed fill leaves nothing behind.
    assert cx.homology_ranks() == (0, 1, 0)
    assert cx._factors is None


def test_predictions_match_construction():
    rng = random.Random(404)
    for _ in range(30):
        a = random_complex(rng, m=rng.randint(1, 2), max_dim=5)
        b = random_complex(rng, m=rng.randint(1, 2), max_dim=4)
        cx = tensor_product(a, b)
        for j in range(cx.m + 1):
            assert product_dimensions(a, b, j) == cx.dim(j)
            assert kunneth_ranks(a, b, j) == cx.homology_rank(j)
        assert product_dimensions(a, b, cx.m + 1) == 0
        assert kunneth_ranks(a, b, -1) == 0


def test_upper_bound_examples():
    d_a = [INFINITY, ExtNat(2)]
    d_b = [ExtNat(1), INFINITY]
    assert distance_upper_bound(d_a, d_b, 1) == 2
    assert distance_upper_bound(d_a, d_b, 5) == INFINITY
    assert distance_upper_bound([ExtNat(3)], [ExtNat(4)], 0) == 12
    # A finite product beats any term with an infinite factor.
    assert distance_upper_bound([ExtNat(2), INFINITY], [INFINITY, ExtNat(5)], 1) == 10
    # A minimum over no terms, or over infinite terms only, is infinite.
    assert distance_upper_bound(d_a, d_b, -1) == INFINITY
    assert distance_upper_bound([], [], 0) == INFINITY


def test_lower_bound_rank_cases():
    d_a = [ExtNat(4), ExtNat(6)]
    # Full row rank 1x2: delta = 2, the distance is d_{j-1} * delta.
    d_p = factor_distances(one_complex(P2))
    assert distance_upper_bound(d_a, d_p, 1) == 8
    # Rank-deficient 2x1 with full column rank: delta infinite, it is d_j.
    d_pt = factor_distances(one_complex(P2.transpose()))
    assert distance_upper_bound(d_a, d_pt, 1) == 6
    assert distance_upper_bound(d_a, d_pt, 0) == 4


def test_prediction_examples():
    a = one_complex(P2)
    d_a = factor_distances(a)
    assert distance_upper_bound(d_a, factor_distances(one_complex(P2.transpose())), 1) == 2
    # Full-row-rank repetition-3 parity crossed with its transpose.
    rep3 = from_string("110 011")
    d_rep = factor_distances(one_complex(rep3))
    assert d_rep == [INFINITY, ExtNat(3)]
    assert distance_upper_bound(d_rep, factor_distances(one_complex(rep3.transpose())), 1) == 3


def test_power_complex_families():
    qhp = power_complex(P2, 1, 1)
    assert qhp.dims == (2, 5, 2)
    assert qhp.homology_ranks() == (0, 1, 0)
    square = power_complex(P2, 2, 0)
    assert square.dims == (1, 4, 4)
    assert square.homology_ranks() == (0, 0, 1)
    assert homological_distance(square, 2).value == 4


def test_power_complex_rejects_empty():
    with pytest.raises(InvalidExponents):
        power_complex(P2, 0, 0)


def test_power_dimension_closed_form():
    # Level-a dimension of the (a+b)-fold power for a full-row-rank r x c
    # seed: sum over i of C(a,i) C(b,i) r^(2i) c^(a+b-2i), derived from the
    # product dimension formula and checked against construction.
    seeds = [P2, from_string("110 011")]
    for p in seeds:
        r, c = p.shape
        for a in range(3):
            for b in range(3):
                if a + b == 0 or (r + c) ** (a + b) > 4000:
                    continue
                cx = power_complex(p, a, b)
                expected = sum(
                    math.comb(a, i) * math.comb(b, i) * r ** (2 * i) * c ** (a + b - 2 * i)
                    for i in range(min(a, b) + 1)
                )
                assert cx.dim(a) == expected
                assert cx.dim(a) < (r + c) ** (a + b)
                kappa = c - r
                ranks = cx.homology_ranks()
                assert ranks[a] == kappa ** (a + b)
                assert all(k == 0 for j, k in enumerate(ranks) if j != a)


def test_fold_order_independence():
    rng = random.Random(406)
    for _ in range(10):
        x = one_complex(random_sparse(rng, 2, 3))
        y = one_complex(random_sparse(rng, 2, 2))
        z = one_complex(random_sparse(rng, 1, 3))
        left = tensor_product(tensor_product(x, y), z)
        right = tensor_product(x, tensor_product(y, z))
        assert left.dims == right.dims
        assert left.homology_ranks() == right.homology_ranks()


def test_product_sparsity_growth():
    rng = random.Random(407)
    for _ in range(10):
        seeds = [random_sparse(rng, rng.randint(1, 3), rng.randint(1, 3), 2, 2)
                 for _ in range(3)]
        cx = one_complex(seeds[0])
        for s in seeds[1:]:
            cx = tensor_product(cx, one_complex(s))
        m = len(seeds)
        for j in range(1, cx.m + 1):
            col_w, row_w = sparsity(cx.boundary(j))
            assert col_w <= m * 2
            assert row_w <= m * 2


def test_sandwich_on_random_one_complex_products():
    rng = random.Random(408)
    done = 0
    while done < 25:
        a = random_complex(rng, m=rng.randint(1, 2), max_dim=4)
        p = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        cx = tensor_product(a, one_complex(p))
        d_a = factor_distances(a)
        d_b = factor_distances(one_complex(p))
        usable = True
        for j in range(cx.m + 1):
            if cx.homology_rank(j) == 0:
                continue
            if cx.dim(j) > 14:
                usable = False
                break
            exact = naive_level_distance(cx, j)
            assert exact is not None
            # Exact for a K(p) factor, not only an upper bound.
            assert distance_upper_bound(d_a, d_b, j) == ExtNat(exact)
        if usable:
            done += 1

