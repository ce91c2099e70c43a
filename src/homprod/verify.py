"""Consistency checks for bundles built as products.

Rebuilds the product from its recorded factors, one boundary at a time
as row supports, and compares each with the loaded boundary by shape and
supports, so neither side builds row words for it.  Then it checks,
level by level: dimension and homology-rank predictions, and the
distance formula over the factor distances.  When the right factor is a two-space complex
K(p) the formula is exact, so the product distance must equal it;
otherwise it is an upper bound.  Distances come from the one distance
engine, once per level of the product and once per factor level that a
check reads (a factor equal to the other is walked once); a level whose
result is only an interval (kernel above the cap) has its distance checks
skipped with a note, never silently.  The product's homology ranks are
read off the kernels of those level sides, so each loaded boundary is
eliminated there and nowhere else.  A missing or malformed provenance
field that the rebuild reads raises ``ParseError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .alist import ParseError, read_alist
from .bundle import Bundle, load_bundle
from .complexes import ChainComplex
from .distance import DEFAULT_KERNEL_CAP, homological_distance
from .extnat import ExtNat, INFINITY
from .products import (
    _power_split,
    _product_boundaries,
    distance_upper_bound,
    kunneth_ranks,
    product_dimensions,
)


@dataclass
class VerifyOutcome:
    checks: int = 0
    violations: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def ok(self) -> bool:
        return not self.violations

    def check(self, condition: bool, message: str) -> None:
        self.checks += 1
        if not condition:
            self.violations.append(message)


def _exact_distances(cx: ChainComplex, levels: int, cap: int) -> list[ExtNat | None]:
    """Exact distances of levels 0..levels-1, None where the kernel exceeds the cap."""
    results = (homological_distance(cx, j, cap=cap) for j in range(levels))
    return [r.value if r.exact else None for r in results]


def _source_field(source: dict, key: str, valid, expected: str):
    """``source[key]`` when ``valid`` accepts it; ParseError for a missing or malformed field."""
    value = source.get(key)
    if not valid(value):
        raise ParseError(1, f"manifest provenance {key!r} must be {expected}, got {value!r}")
    return value


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _factor_pair(bundle: Bundle) -> tuple[ChainComplex, ChainComplex] | None:
    """The two factors recorded in the bundle, or None for non-product bundles."""
    source = bundle.source
    kind = source.get("kind")
    if kind == "product":
        dirs = _source_field(source, "factors",
                             lambda v: type(v) is list and len(v) == 2
                             and all(type(d) is str for d in v),
                             "a list of two paths")
        a = load_bundle(bundle.path / dirs[0]).complex
        b = load_bundle(bundle.path / dirs[1]).complex
        return a, b
    if kind == "power":
        matrix = _source_field(source, "matrix", lambda v: type(v) is str, "a file name")
        p = read_alist(bundle.path / matrix)
        a_exp = _source_field(source, "a", _is_count, "an int >= 0")
        b_exp = _source_field(source, "b", _is_count, "an int >= 0")
        if a_exp + b_exp < 2:
            return None
        return _power_split(p, a_exp, b_exp)
    return None


def verify_bundle(bundle: Bundle, *, cap: int = DEFAULT_KERNEL_CAP) -> VerifyOutcome:
    outcome = VerifyOutcome()
    cx = bundle.complex
    # Orthogonality already held, or loading would have failed.
    outcome.check(True, "orthogonality")

    pair = _factor_pair(bundle)
    if pair is None:
        outcome.notes.append("no product provenance; structural validation only")
        return outcome
    a, b = pair

    # One rebuilt boundary at a time, compared with the loaded one by shape
    # and supports: no row word of either is built.
    outcome.check(cx.m == a.m + b.m and all(
        mine.shape == loaded.shape and mine.supports == loaded.supports
        for mine, loaded in zip(_product_boundaries(a, b), cx.boundaries)),
        "bundle matrices differ from the rebuilt product")

    sides = [homological_distance(cx, j, cap=cap) for j in range(cx.m + 1)]
    # k_j = dim Ker A_j - rank A_{j+1}, read off the kernels the sides
    # eliminated: rank A_{j+1} = n_{j+1} - dim Ker A_{j+1}, and 0 at j = m.
    kernels = [r.kernel_dim for r in sides] + [0]
    dims = cx.dims + (0,)
    k = [kernels[j] - dims[j + 1] + kernels[j + 1] for j in range(cx.m + 1)]
    for j in range(cx.m + 1):
        outcome.check(product_dimensions(a, b, j) == cx.dim(j),
                      f"level {j}: dimension prediction != actual")
        outcome.check(kunneth_ranks(a, b, j) == k[j],
                      f"level {j}: homology rank prediction != actual")

    d_c = [r.value if r.exact else None for r in sides]
    # The formula at level j reads factor distances at indices 0..j, so the
    # factors are walked only up to the highest level it is checked at.
    top = max((j for j in range(cx.m + 1) if d_c[j] is not None and k[j]), default=-1)
    d_a = _exact_distances(a, min(a.m, top) + 1, cap)
    d_b = d_a if b == a else _exact_distances(b, min(b.m, top) + 1, cap)

    for j in range(cx.m + 1):
        exact = d_c[j]
        if exact is None:
            outcome.notes.append(f"level {j}: kernel above cap, distance checks skipped")
            continue
        if k[j] == 0:
            outcome.check(exact == INFINITY, f"level {j}: trivial group must be infinite")
            continue
        # The formula reads factor distances at indices 0..j.
        known = all(d_a[i] is not None for i in range(min(a.m, j) + 1)) and \
                all(d_b[i] is not None for i in range(min(b.m, j) + 1))
        if not known:
            outcome.notes.append(f"level {j}: factor distance above cap, bounds skipped")
            continue
        upper = distance_upper_bound(d_a, d_b, j)
        if b.m == 1:
            outcome.check(exact == upper, f"level {j}: exact {exact} != prediction {upper}")
            continue
        outcome.check(exact <= upper, f"level {j}: exact {exact} above upper bound {upper}")
        if exact < upper:
            outcome.notes.append(
                f"level {j}: strict gap, exact {exact} < upper bound {upper}")
    return outcome
