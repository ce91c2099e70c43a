"""Minimum-distance engine: an exact value, or an interval past the cap.

The homological distance at level j is the minimum Hamming weight over
cycles (kernel vectors of A_j) that are not boundaries (outside the column
span of A_{j+1}).  The engine walks the whole kernel with a Gray code, one
basis flip per step, and tests boundary membership only for candidates
that would improve the current minimum.  Past the kernel cap it walks
nothing and bounds the distance by the lightest nontrivial basis vector.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from .complexes import ChainComplex, LevelOutOfRange
from .extnat import INFINITY, ExtNat, as_extnat
from .gf2 import BinMatrix, EchelonBasis, column_space_basis, kernel_basis

DEFAULT_KERNEL_CAP = 28


class KernelTooLarge(RuntimeError):
    """Kernel dimension exceeds the enumeration cap where an exact number is required."""

    def __init__(self, dim: int, cap: int):
        super().__init__(f"kernel dimension {dim} exceeds cap {cap}")
        self.dim = dim
        self.cap = cap


@dataclass(frozen=True)
class DistanceResult:
    """Distance in ``[value, upper]``; ``exact`` means ``value == upper``.

    Past the cap, ``exact`` is false and the interval is [1, weight of the
    lightest kernel basis vector outside the image].  ``witness`` is an int
    bitset over the level space (None unless exact and finite);
    ``enumerated`` counts kernel vectors visited, which is ``2**dim - 1``
    for a full walk and 0 for the weight-1 fast path and past the cap.
    """

    value: ExtNat
    witness: int | None
    enumerated: int
    upper: ExtNat
    exact: bool
    kernel_dim: int


def _is_boundary(x: int, image_pairs) -> bool:
    """True when ``x`` reduces to zero against the (pivot, row) image basis."""
    for p, r in image_pairs:
        if (x >> p) & 1:
            x ^= r
            if not x:
                return True
    return not x


def _walk_range(kernel_bits, image_pairs, start: int, stop_at):
    """Gray-code walk over the span of ``kernel_bits`` offset by ``start``.

    Visits ``start`` plus all 2**len(kernel_bits) - 1 nonzero combinations
    XORed onto it, skipping the zero vector.  Returns (best, witness, count),
    with best and witness None when every visited vector is a boundary.
    """
    # No combination outweighs the sum of the weights, so the first
    # nontrivial cycle always improves on this.
    best = sum(b.bit_count() for b in kernel_bits) + start.bit_count() + 1
    witness = None
    if start and not _is_boundary(start, image_pairs):
        best, witness = start.bit_count(), start
        if stop_at is not None and best <= stop_at:
            return best, witness, 1
    x = start
    step = 0
    for step in range(1, 1 << len(kernel_bits)):
        x ^= kernel_bits[(step & -step).bit_length() - 1]
        w = x.bit_count()
        if w < best and not _is_boundary(x, image_pairs):
            best = w
            witness = x
            if stop_at is not None and best <= stop_at:
                break
    count = step + 1 if start else step
    return (None if witness is None else best), witness, count


def _search(kernel: EchelonBasis, image: EchelonBasis, stop_at, workers: int):
    kernel_bits = kernel.bits
    image_pairs = tuple(zip(image.pivot_cols, image.bits))
    dim = len(kernel_bits)
    if workers <= 1 or dim < 8:
        return _walk_range(kernel_bits, image_pairs, 0, stop_at)
    # Partition by fixing the top t kernel coordinates; sub-searches share
    # only immutable bases and merge by min.  The split follows ``workers``
    # alone, so counts and witnesses do not depend on the pool size.
    t = min(max(1, (workers - 1).bit_length()), dim - 1)
    starts = [0]
    for b in kernel_bits[dim - t:]:
        starts += [s ^ b for s in starts]
    walk = partial(_walk_range, kernel_bits[: dim - t], image_pairs, stop_at=stop_at)
    best, witness, total = None, None, 0
    # A forking pool starts all its processes at once: no more than there
    # are tasks or CPUs.
    with ProcessPoolExecutor(max_workers=min(workers, len(starts), os.cpu_count() or 1)) as pool:
        for b, w, c in pool.map(walk, starts):
            total += c
            if b is not None and (best is None or b < best):
                best, witness = b, w
    return best, witness, total


def _min_nontrivial(parity: BinMatrix, image_of: BinMatrix, *, cap: int,
                    lower_bound=None, workers: int = 1) -> DistanceResult:
    """Minimum weight over ``Ker(parity)`` outside the column span of ``image_of``."""
    kernel = kernel_basis(parity)
    image = column_space_basis(image_of)
    dim = len(kernel)
    if dim - len(image) == 0:
        # Trivial group: every cycle is a boundary.
        return DistanceResult(INFINITY, None, 0, INFINITY, True, dim)
    if dim == parity.cols:
        # Zero or empty parity: every vector is a cycle, so some unit
        # vector is nontrivial and the distance is 1.
        for i in range(parity.cols):
            if (1 << i) not in image:
                return DistanceResult(ExtNat(1), 1 << i, 0, ExtNat(1), True, dim)
        raise AssertionError("nontrivial group without a nontrivial unit vector")
    if dim > cap:
        # The group is nontrivial, so some kernel basis vector is not a boundary.
        upper = min(b.bit_count() for b in kernel.bits if b not in image)
        return DistanceResult(ExtNat(1), None, 0, ExtNat(upper), False, dim)
    lb = INFINITY if lower_bound is None else as_extnat(lower_bound)
    stop_at = lb.finite_value if lb.is_finite else None
    best, witness, count = _search(kernel, image, stop_at, workers)
    if witness is None:
        raise AssertionError("nontrivial group but the walk found no nontrivial cycle")
    if parity.mul_vec(witness) or witness in image or witness.bit_count() != best:
        raise AssertionError("distance witness failed post-hoc validation")
    return DistanceResult(ExtNat(best), witness, count, ExtNat(best), True, dim)


def homological_distance(c: ChainComplex, level: int, *, cap: int = DEFAULT_KERNEL_CAP,
                         lower_bound=None, workers: int = 1) -> DistanceResult:
    """Level distance: exact, infinite for a trivial group, or an interval past ``cap``.

    ``lower_bound``, when supplied, lets the walk stop as soon as the
    current minimum reaches it (a valid lower bound implies optimality).
    """
    if not 0 <= level <= c.m:
        raise LevelOutOfRange(f"level {level} outside 0..{c.m}")
    return _min_nontrivial(c.boundary(level), c.boundary(level + 1),
                           cap=cap, lower_bound=lower_bound, workers=workers)


def cohomological_distance(c: ChainComplex, level: int, *, cap: int = DEFAULT_KERNEL_CAP,
                           lower_bound=None, workers: int = 1) -> DistanceResult:
    """Conjugate-group distance, same as ``homological_distance(c.cochain(), c.m - level)``."""
    if not 0 <= level <= c.m:
        raise LevelOutOfRange(f"level {level} outside 0..{c.m}")
    return _min_nontrivial(c.boundary(level + 1).transpose(), c.boundary(level).transpose(),
                           cap=cap, lower_bound=lower_bound, workers=workers)


def classical_distance(p: BinMatrix, cap: int = DEFAULT_KERNEL_CAP, *,
                       lower_bound=None, workers: int = 1) -> ExtNat:
    """Minimum weight of a nonzero vector with ``p @ x = 0``.

    Infinite when p has full column rank (only the zero codeword).  Raises
    KernelTooLarge when the kernel dimension exceeds ``cap``, since the
    result is a single exact number, never an interval.
    """
    result = _min_nontrivial(p, BinMatrix.zeros(p.cols, 0),
                             cap=cap, lower_bound=lower_bound, workers=workers)
    if not result.exact:
        raise KernelTooLarge(result.kernel_dim, cap)
    return result.value
