"""CSS extraction, parameter reports, and ensemble generators."""

from __future__ import annotations

import hashlib
import random
from unittest.mock import Mock

import pytest

from homprod import codes
from homprod import (
    DEFAULT_KERNEL_CAP,
    BinMatrix,
    EchelonBasis,
    INFINITY,
    InvalidSpec,
    css_parameters,
    extract_css,
    gallager_matrix,
    cohomological_distance,
    ensemble_matrix,
    homological_distance,
    kunneth_ranks,
    one_complex,
    power_complex,
    rank,
    repetition_circulant,
    sparsity,
    tensor_product,
)
from helpers import from_string, random_complex, random_product_complex
from homprod.report import distance_levels, render


def test_extract_css_orthogonality():
    rng = random.Random(500)
    for _ in range(20):
        cx = random_complex(rng, m=rng.randint(1, 3), max_dim=6)
        for j in range(cx.m + 1):
            code = extract_css(cx, j)
            assert (code.g_x @ code.g_z.transpose()).is_zero()
            assert code.n == cx.dim(j)


def test_extract_css_level_zero_has_empty_gx():
    cx = one_complex(from_string("110 011"))
    code = extract_css(cx, 0)
    assert code.g_x.shape == (0, 2)
    assert code.g_z == cx.boundary(1).transpose()


def test_qhp_five_qubit_parameters():
    cx = power_complex(from_string("11"), 1, 1)
    params = css_parameters(extract_css(cx, 1))
    assert (params.n, params.k) == (5, 1)
    assert params.x.value == 2 and params.z.value == 2
    assert params.d == 2
    assert params.x.exact and params.z.exact


def test_toric_family_parameters():
    for L in (2, 3):
        cx = power_complex(repetition_circulant(L), 1, 1)
        params = css_parameters(extract_css(cx, 1))
        assert (params.n, params.k) == (2 * L * L, 2)
        assert params.x.value == L and params.z.value == L


def test_zero_logical_code_reports_infinite_exact():
    code = extract_css(one_complex(BinMatrix.identity(2)), 0)
    params = css_parameters(code)
    assert params.k == 0
    assert params.d == INFINITY
    assert params.x.exact and params.z.exact


def test_parameters_k_matches_kunneth():
    rng = random.Random(501)
    for _ in range(10):
        a = random_complex(rng, m=1, max_dim=4)
        b = random_complex(rng, m=1, max_dim=4)
        cx = tensor_product(a, b)
        for j in range(cx.m + 1):
            params = css_parameters(extract_css(cx, j), cap=16)
            if params.x.exact and params.z.exact:
                assert params.k == kunneth_ranks(a, b, j)


def test_parameters_degrade_to_interval_past_cap():
    cx = one_complex(from_string("11111111"))
    params = css_parameters(extract_css(cx, 1), cap=3)
    assert not params.z.exact
    assert params.z.value == 1
    assert params.z.value <= params.z.upper
    assert params.z.upper == 2  # lightest kernel basis vector
    # The conjugate side is tiny and stays exact.
    assert params.x.exact


def test_circulant_repetition_properties():
    p = repetition_circulant(3)
    assert rank(p) == 2
    cx = one_complex(p)
    assert cx.homology_ranks() == (1, 1)
    assert homological_distance(cx, 1).value == 3


def test_identity_ensemble_distance():
    assert homological_distance(one_complex(BinMatrix.identity(4)), 1).value == INFINITY


def test_gallager_structure():
    m = gallager_matrix(3, 4, 16, seed=7)
    assert m.shape == (12, 16)
    assert all(w == 3 for w in m.col_weights())
    assert all(w == 4 for w in m.row_weights())


def test_gallager_reproducible():
    a = gallager_matrix(3, 4, 16, seed=1234)
    b = gallager_matrix(3, 4, 16, seed=1234)
    c = gallager_matrix(3, 4, 16, seed=1235)
    assert a == b
    assert a != c


def test_gallager_rejects_bad_divisibility():
    with pytest.raises(InvalidSpec):
        gallager_matrix(2, 4, 6)
    with pytest.raises(InvalidSpec):
        gallager_matrix(0, 4, 8)


def test_ensemble_matrix_parsing():
    assert ensemble_matrix("gallager:3,4,16", seed=9) == gallager_matrix(3, 4, 16, 9)
    assert ensemble_matrix("rep:5") == repetition_circulant(5)
    assert ensemble_matrix("id:4") == BinMatrix.identity(4)
    for text in ("gallager:3,4", "nonsense:1", "rep", "rep:x", "file:a.alist"):
        with pytest.raises(InvalidSpec):
            ensemble_matrix(text)


def test_sparsity_examples():
    assert sparsity(BinMatrix.zeros(3, 4)) == (0, 0)
    assert sparsity(BinMatrix.identity(5)) == (1, 1)
    cx = power_complex(repetition_circulant(3), 2, 1)
    for j in range(1, cx.m + 1):
        col_w, row_w = sparsity(cx.boundary(j))
        assert col_w <= 6 and row_w <= 6


def test_past_cap_side_builds_each_kernel_once(monkeypatch):
    counted = Mock(wraps=codes.kernel_from_rref)
    monkeypatch.setattr(codes, "kernel_from_rref", counted)
    params = css_parameters(extract_css(one_complex(from_string("11111111")), 1),
                            cap=3)
    assert not params.z.exact and params.x.exact
    assert counted.call_count == 2  # one per side


def test_parameters_match_distance_report():
    rng = random.Random(310)
    for _ in range(12):
        cx = random_product_complex(rng, n_factors=2, max_dim=3)
        for j in range(cx.m + 1):
            for cap in (2, 5, 28):
                params = css_parameters(extract_css(cx, j), cap)
                assert params.z == homological_distance(cx, j, cap=cap)
                assert params.x == cohomological_distance(cx, j, cap=cap)
                (entry,), _ = distance_levels(cx, [j], cap)
                assert (entry["n"], entry["k"]) == (params.n, params.k)
                hom, coh = entry["homology"], entry["cohomology"]
                assert (hom["lower"], hom["upper"], hom["exact"]) == \
                    (params.z.value, params.z.upper, params.z.exact)
                assert (coh["lower"], coh["upper"], coh["exact"]) == \
                    (params.x.value, params.x.upper, params.x.exact)


def _count_eliminations(monkeypatch):
    """Two lists that grow by one per RREF built and per transpose taken."""
    rrefs, transposes = [], []
    from_rows = EchelonBasis.from_rows.__func__
    transpose = BinMatrix.transpose

    def counted_from_rows(cls, ncols, bits):
        rrefs.append(ncols)
        return from_rows(cls, ncols, bits)

    def counted_transpose(self):
        transposes.append(self.shape)
        return transpose(self)

    monkeypatch.setattr(EchelonBasis, "from_rows", classmethod(counted_from_rows))
    monkeypatch.setattr(BinMatrix, "transpose", counted_transpose)
    return rrefs, transposes


def test_a_pair_eliminates_each_matrix_once(monkeypatch):
    # Both sides of a pair share one row RREF per matrix, and each kernel
    # is read off an RREF with no elimination: 2 RREFs.  A code is given by
    # rows (no transpose); a level transposes A_{j+1} only.  One side alone
    # eliminates each matrix of its pair once.
    cx = power_complex(repetition_circulant(3), 1, 1)
    codes = [extract_css(cx, j) for j in range(cx.m + 1)]
    rrefs, transposes = _count_eliminations(monkeypatch)
    for j, code in enumerate(codes):
        del rrefs[:], transposes[:]
        params = css_parameters(code)
        assert (len(rrefs), len(transposes)) == (2, 0)
        del rrefs[:], transposes[:]
        (entry,), _ = distance_levels(cx, [j], DEFAULT_KERNEL_CAP)
        assert (len(rrefs), len(transposes)) == (2, 1)
        assert transposes == [cx.boundary(j + 1).shape]
        assert entry["k"] == params.k
        del rrefs[:]
        homological_distance(cx, j)
        assert len(rrefs) == 2


def test_parameters_reuse_the_code_and_the_side_kernels(monkeypatch):
    import sys

    from homprod import gf2

    code = extract_css(power_complex(repetition_circulant(3), 1, 1), 1)
    matmuls = []
    matmul = BinMatrix.__matmul__

    def counted_matmul(self, other):
        matmuls.append((self.shape, other.shape))
        return matmul(self, other)

    monkeypatch.setattr(BinMatrix, "__matmul__", counted_matmul)
    ranks = Mock(wraps=gf2.rank)
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "homprod" and getattr(module, "rank", None) is gf2.rank:
            monkeypatch.setattr(module, "rank", ranks)
    params = css_parameters(code)
    assert (params.n, params.k, params.z.value, params.x.value, params.d) == (18, 2, 3, 3, 3)
    assert matmuls == []
    assert ranks.call_count == 0


# Per level of each complex: k, then (d, upper, enumerated, kernel_dim,
# witness as an int) for the homology and cohomology sides, and the
# SHA-256 of the rendered entries, as recorded before the row RREF moved
# to top-bit pivots.  The kernels read off it, and so every walk, witness
# and interval, must not move.
PINNED_DISTANCE_LEVELS = {
    ("rep:3", 0, 1, 1): ("c3de656bbf02d6d0e235a39a94b9529ac95034d7c1025a221a8a10f92ad1cfd1", [
        (1, (1, 1, 0, 9, 1), (9, 9, 1, 1, 511)),
        (2, (3, 3, 1023, 10, 7), (3, 3, 1023, 10, 292)),
        (1, (9, 9, 1, 1, 511), (1, 1, 0, 9, 1)),
    ]),
    ("rep:4", 0, 1, 1): ("386b01e32e78a3284819c1eee073782d4180cf3fa3aa83e03b1ee4bfb0077000", [
        (1, (1, 1, 0, 16, 1), (16, 16, 1, 1, 65535)),
        (2, (4, 4, 131071, 17, 15), (4, 4, 131071, 17, 34952)),
        (1, (16, 16, 1, 1, 65535), (1, 1, 0, 16, 1)),
    ]),
    ("rep:3", 0, 2, 1): ("837565ede7afe8daa9f125320f843f809112a2170293645d4bd5e60b7226993f", [
        (1, (1, 1, 0, 27, 1), (27, 27, 1, 1, 134217727)),
        (3, (None, 3, None, 55, None), (None, 9, None, 29, None)),
        (3, (None, 9, None, 29, None), (None, 3, None, 55, None)),
        (1, (27, 27, 1, 1, 134217727), (1, 1, 0, 27, 1)),
    ]),
    ("gallager:2,4,8", 3, 1, 2): ("703e06f67409b554e7363fcd9c5491e074e3113432602a9dd02c3f91e50422f1", [
        (25, (1, 1, 0, 256, 1),
         (16, 16, 33554431, 25,
          485279068933596312992138262361648413567172318643766832917945438441984)),
        (135, (None, 2, None, 537, None), (None, 4, None, 366, None)),
        (51, (None, 8, None, 174, None), (None, 2, None, 453, None)),
        (5, (32, 32, 31, 5, 1208907372870559760056320), (1, 1, 0, 128, 1)),
    ]),
}


@pytest.mark.parametrize("case", list(PINNED_DISTANCE_LEVELS),
                         ids=lambda case: "-".join(map(str, case)))
def test_distance_levels_are_pinned(case):
    spec, seed, a, b = case
    digest, expected = PINNED_DISTANCE_LEVELS[case]
    cx = power_complex(ensemble_matrix(spec, seed=seed), a, b)
    entries, _ = distance_levels(cx, list(range(cx.m + 1)), DEFAULT_KERNEL_CAP)

    def plain(v):
        return v if v is None else v.finite_value if v.is_finite else "inf"

    levels = []
    for e in entries:
        j = e["j"]
        params = css_parameters(extract_css(cx, j))
        sides = []
        for side, result in ((e["homology"], params.z), (e["cohomology"], params.x)):
            w = side["witness"]
            sides.append((plain(side["d"]), plain(side["upper"]), side.get("enumerated"),
                          result.kernel_dim, None if w is None else int(w[::-1], 2)))
        levels.append((e["k"], *sides))
    assert levels == expected
    assert hashlib.sha256(render({"levels": entries}).encode()).hexdigest() == digest
