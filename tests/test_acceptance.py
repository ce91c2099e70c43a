"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines as they complete.
"""

from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager

import pytest

from homprod import (
    ChainComplex,
    CssCode,
    INFINITY,
    cohomological_distance,
    css_parameters,
    distance_upper_bound,
    dumps_alist,
    extract_css,
    homological_distance,
    kernel_basis,
    kunneth_ranks,
    loads_alist,
    one_complex,
    power_complex,
    product_dimensions,
    rank,
    read_alist,
    repetition_circulant,
    tensor_product,
)
from homprod.cli import main as cli_main
from helpers import (
    from_string,
    naive_level_distance,
    random_complex,
    random_full_row_rank,
    random_matrix,
    random_sparse,
    ref_composes_to_zero,
    ref_one_complex_product,
)


@contextmanager
def criterion(number: int, description: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - started
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")


def sparse_factor(rng: random.Random, max_m: int = 3) -> ChainComplex:
    """Random valid complex folded from (2,3)-sparse seeds with dims <= 8."""
    m = rng.randint(1, max_m)
    if m == 1:
        return one_complex(random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8), 2, 3))
    cx = one_complex(random_sparse(rng, rng.randint(1, 2), rng.randint(1, 3), 2, 3))
    for _ in range(m - 1):
        seed = random_sparse(rng, rng.randint(1, 2), rng.randint(1, 2), 2, 3)
        cx = tensor_product(cx, one_complex(seed))
    return cx


@pytest.fixture(scope="module")
def construction_instances():
    rng = random.Random(20240901)
    instances = []
    for _ in range(100):
        a = sparse_factor(rng)
        p = random_sparse(rng, rng.randint(1, 8), rng.randint(1, 8), 2, 3)
        instances.append((a, p))
    return instances


def test_criterion_1_construction_orthogonality(construction_instances):
    with criterion(1, "products compose to zero and agree bit-for-bit with the block "
                      "form set entry by entry"):
        for a, p in construction_instances:
            via_tensor = tensor_product(a, one_complex(p))
            assert ref_composes_to_zero(via_tensor.boundaries)
            assert via_tensor.boundaries == ref_one_complex_product(a, p)


def test_criterion_2_kunneth_consistency(construction_instances):
    with criterion(2, "dimension and rank predictions match construction exactly"):
        for a, p in construction_instances:
            b = one_complex(p)
            cx = tensor_product(a, b)
            for j in range(cx.m + 1):
                assert product_dimensions(a, b, j) == cx.dim(j)
                assert kunneth_ranks(a, b, j) == cx.homology_rank(j)


KERNEL_LIMIT = 20


def exact_level_distances(cx: ChainComplex, cap: int = KERNEL_LIMIT):
    """Per-level exact distances, or None if any kernel exceeds the cap."""
    values = []
    for j in range(cx.m + 1):
        if cx.homology_rank(j) == 0:
            values.append(INFINITY)
            continue
        parity = cx.boundary(j)
        if rank(parity) != 0 and len(kernel_basis(parity)) > cap:
            return None
        values.append(homological_distance(cx, j, cap=cap).value)
    return values


@pytest.fixture(scope="module")
def one_complex_product_instances():
    rng = random.Random(20240902)
    per_bucket = 25
    buckets = {"full": [], "deficient": []}
    while min(len(v) for v in buckets.values()) < per_bucket:
        a = random_complex(rng, m=rng.randint(1, 2), max_dim=5)
        r = rng.randint(1, 4)
        c = rng.randint(r + 1, 5)
        if rng.random() < 0.5:
            p = random_full_row_rank(rng, r, c)
            bucket = "full"
        else:
            p = random_matrix(rng, r, c)
            if rank(p) >= p.rows:
                continue
            bucket = "deficient"
        if len(buckets[bucket]) >= per_bucket:
            continue
        d_a = exact_level_distances(a)
        if d_a is None:
            continue
        cx = tensor_product(a, one_complex(p))
        d_c = exact_level_distances(cx)
        if d_c is None:
            continue
        buckets[bucket].append((a, p, d_a, cx, d_c))
    return buckets["full"] + buckets["deficient"]


def test_criterion_3_exact_prediction(one_complex_product_instances):
    with criterion(3, "exhaustive distance equals the product formula over the "
                      "factor distances on "
                      f"{len(one_complex_product_instances)} instances"):
        assert len(one_complex_product_instances) >= 50
        full = deficient = 0
        for a, p, d_a, cx, d_c in one_complex_product_instances:
            if rank(p) == p.rows:
                full += 1
            else:
                deficient += 1
            d_p = exact_level_distances(one_complex(p))
            assert d_p is not None
            for j in range(cx.m + 1):
                if cx.homology_rank(j) == 0:
                    continue
                assert d_c[j] == distance_upper_bound(d_a, d_p, j)
        assert full >= 25 and deficient >= 25


def test_criterion_4_bound_sandwich(one_complex_product_instances):
    with criterion(4, "exact <= upper bound on all instances, zero violations"):
        for a, p, d_a, cx, d_c in one_complex_product_instances:
            d_b = exact_level_distances(one_complex(p))
            assert d_b is not None
            for j in range(cx.m + 1):
                assert d_c[j] <= distance_upper_bound(d_a, d_b, j)
        rng = random.Random(20240903)
        done = 0
        while done < 20:
            factors = []
            for _ in range(2):
                s = random_sparse(rng, rng.randint(1, 2), rng.randint(2, 3), 2, 2)
                t = random_sparse(rng, rng.randint(1, 2), rng.randint(1, 2), 2, 2)
                factors.append(tensor_product(one_complex(s), one_complex(t)))
            a, b = factors
            d_a = exact_level_distances(a)
            d_b = exact_level_distances(b)
            if d_a is None or d_b is None:
                continue
            cx = tensor_product(a, b)
            d_c = exact_level_distances(cx)
            if d_c is None:
                continue
            for j in range(cx.m + 1):
                assert d_c[j] <= distance_upper_bound(d_a, d_b, j)
            done += 1


def test_criterion_5_closed_form_families():
    with criterion(5, "QHP block, circulant toric family, and power families"):
        p2 = from_string("11")

        qhp = css_parameters(extract_css(power_complex(p2, 1, 1), 1))
        assert (qhp.n, qhp.k) == (5, 1)
        assert qhp.x.value == 2 and qhp.z.value == 2 and qhp.x.exact and qhp.z.exact

        for L in (2, 3, 4):
            cx = power_complex(repetition_circulant(L), 1, 1)
            params = css_parameters(extract_css(cx, 1))
            assert (params.n, params.k) == (2 * L * L, 2)
            assert params.x.value == L and params.z.value == L
            assert params.x.exact and params.z.exact

        r, c = p2.shape
        delta = homological_distance(one_complex(p2), 1).value.finite_value
        for a, b in ((2, 1), (1, 2), (2, 2)):
            cx = power_complex(p2, a, b)
            ranks = cx.homology_ranks()
            assert ranks[a] == (c - r) ** (a + b)
            assert all(k == 0 for j, k in enumerate(ranks) if j != a)
            n_a = sum(
                math.comb(a, i) * math.comb(b, i) * r ** (2 * i) * c ** (a + b - 2 * i)
                for i in range(min(a, b) + 1)
            )
            assert cx.dim(a) == n_a
            assert n_a < (r + c) ** (a + b)
            assert homological_distance(cx, a).value == delta ** a
            assert cohomological_distance(cx, a).value == delta ** b


def test_criterion_6_sparsity_claim():
    with criterion(6, "m-fold products stay (m*v, m*w)-sparse for m <= 4, v = w <= 3"):
        rng = random.Random(20240904)
        for weight in (1, 2, 3):
            for m in (1, 2, 3, 4):
                for _ in range(3):
                    seeds = [random_sparse(rng, rng.randint(1, 3), rng.randint(1, 3),
                                           weight, weight) for _ in range(m)]
                    cx = one_complex(seeds[0])
                    for s in seeds[1:]:
                        cx = tensor_product(cx, one_complex(s))
                    for j in range(1, cx.m + 1):
                        col_w = max(cx.boundary(j).col_weights(), default=0)
                        row_w = max(cx.boundary(j).row_weights(), default=0)
                        assert col_w <= m * weight
                        assert row_w <= m * weight


def test_criterion_7_special_case_distances():
    with criterion(7, "end-level rules agree with the naive oracle on 100 complexes"):
        rng = random.Random(20240905)
        for _ in range(100):
            cx = random_complex(rng, m=rng.randint(1, 3), max_dim=10)
            a1 = cx.boundary(1)
            d0 = homological_distance(cx, 0).value
            if rank(a1) < a1.rows:
                assert d0 == 1
            else:
                assert d0 == INFINITY
            oracle0 = naive_level_distance(cx, 0)
            assert d0 == (INFINITY if oracle0 is None else oracle0)
            dm = homological_distance(cx, cx.m).value
            oracle_m = naive_level_distance(cx, cx.m)
            assert dm == (INFINITY if oracle_m is None else oracle_m)


def test_criterion_8_engine_vs_oracle():
    with criterion(8, "Gray-code engine matches the naive oracle on 50 instances"):
        rng = random.Random(20240906)
        done = 0
        while done < 50:
            cx = random_complex(rng, m=2, max_dim=7)
            if any(n > 14 for n in cx.dims):
                continue
            for j in range(cx.m + 1):
                expected = naive_level_distance(cx, j)
                got = homological_distance(cx, j).value
                assert got == (INFINITY if expected is None else expected)
            done += 1


def test_criterion_9_io_round_trip(tmp_path, capsys):
    with criterion(9, "alist round-trip identity and export-css parameter reload"):
        rng = random.Random(20240907)
        for _ in range(100):
            m = random_sparse(rng, rng.randint(1, 20), rng.randint(1, 30),
                              rng.randint(0, 4), rng.randint(1, 6))
            assert loads_alist(dumps_alist(m)) == m

        bundle = tmp_path / "toric"
        css_dir = tmp_path / "css"
        assert cli_main(["power", "--ensemble", "rep:3", "--a", "1", "--b", "1",
                         "--out", str(bundle)]) == 0
        assert cli_main(["export-css", str(bundle), "--level", "1",
                         "--out", str(css_dir)]) == 0
        capsys.readouterr()
        cx = power_complex(repetition_circulant(3), 1, 1)
        direct = css_parameters(extract_css(cx, 1))
        reloaded = css_parameters(CssCode(
            g_x=read_alist(css_dir / "gx.alist"),
            g_z=read_alist(css_dir / "gz.alist"),
        ))
        assert (reloaded.n, reloaded.k, reloaded.x.value, reloaded.z.value) == \
            (direct.n, direct.k, direct.x.value, direct.z.value)
        assert (reloaded.x.exact, reloaded.z.exact) == (direct.x.exact, direct.z.exact)
