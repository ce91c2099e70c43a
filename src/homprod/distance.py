"""Minimum-distance engine: an exact value, or an interval past the cap.

Every distance side is one row-given pair (h, g): the minimum Hamming
weight over the kernel of h outside the row span of g.  The homology side
of level j is (A_j, A_{j+1}^T): cycles that are not boundaries.  Its
cohomology side is the same pair swapped, and a CSS code's two sides are
(g_x, g_z) and (g_z, g_x).  ``_min_nontrivial`` is the one per-side
routine; ``codes.css_parameters`` gives both sides of a CSS code, and
its ``k``, from one row-space elimination per matrix, two in all: the
RREF of each matrix is one side's image, and ``gf2.kernel_from_rref``
reads the other side's kernel off it with no second elimination.  A side alone,
``homological_distance`` or ``cohomological_distance``, eliminates each
matrix of its pair once, also two in all.

The engine walks the whole kernel with a Gray code, one
basis flip per step, and tests boundary membership only for candidates
that would improve the current minimum.  The steps go in blocks of 2**10,
and a block is stepped through only when it may hold a vector lighter
than the current minimum.  A block is ruled out when the bits on which
all its vectors agree already reach that minimum (most blocks of a toric
level); on levels narrower than 128 bits SWAR arithmetic on one packed
int then weighs each remaining block's vectors at once.  A ruled-out
block holds no candidate, so the result, witness and step count are
those of the plain walk.  A nontrivial kernel basis vector of weight 1
proves distance 1 with no walk.  Past the kernel cap it walks nothing and
bounds the distance by the lightest nontrivial basis vector.

A classical code's distance under parity check p is level 1 of its
two-space complex, ``homological_distance(one_complex(p), 1)``, with the
same interval past the cap.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain

from .complexes import ChainComplex, LevelOutOfRange
from .extnat import INFINITY, ExtNat, as_extnat
from .gf2 import BinMatrix, EchelonBasis, kernel_basis, row_space_basis

DEFAULT_KERNEL_CAP = 28


@dataclass(frozen=True)
class DistanceResult:
    """Distance in ``[value, upper]``; ``exact`` means ``value == upper``.

    Past the cap, ``exact`` is false and the interval is [1, weight of the
    lightest kernel basis vector outside the image].  ``witness`` is an int
    bitset over the level space (None unless exact and finite);
    ``enumerated`` counts the kernel vectors the walk covered, including
    those in blocks ruled out by a weight bound without a step: ``2**dim -
    1`` for a full walk, fewer after an early stop at ``lower_bound``, and
    0 for the weight-1 fast path and past the cap.
    """

    value: ExtNat
    witness: int | None
    enumerated: int
    upper: ExtNat
    exact: bool
    kernel_dim: int


# A block is 2**_BLOCK_BITS consecutive Gray steps: the lowest kernel
# vectors run through all their combinations while the rest stay fixed.
_BLOCK_BITS = 10
# Widest packed field, in bits: the filter's byte arithmetic needs every
# weight below 128.
_MAX_FIELD_BITS = 128


class _PackedBlocks:
    """SWAR weight filter over the blocks of one Gray walk.

    Each of a block's 2**k vectors gets an s-bit field of one Python int:
    one of the 2**k combinations of the k low vectors (a fixed table) XOR
    the block's fixed vector, replicated across all fields.  Each block
    visits every combination once, in an order that differs between
    blocks, but the filter asks only whether any of them is light, so one
    table in subset order serves every block.  A few big-int operations
    then give every field's weight at once.
    """

    def __init__(self, low, field_bits: int):
        # Double the table once per low vector: the new upper half is the
        # lower half with that vector added.  ``ones`` has a 1 in every field.
        table, ones = 0, 1
        for i, b in enumerate(low):
            shift = field_bits << i
            table |= (table ^ b * ones) << shift
            ones |= ones << shift
        self.table, self.ones = table, ones
        width = field_bits // 8
        every_byte = int.from_bytes(b"\1" * (width << len(low)), "little")
        self.m1, self.m2, self.m4 = 0x55 * every_byte, 0x33 * every_byte, 0x0F * every_byte
        # Multiplying byte counts by this sums each field's bytes into its top byte.
        self.byte_sum = int.from_bytes(b"\1" * width, "little")
        self.top_byte = ones << (field_bits - 8)
        self.top_bit = 0x80 * self.top_byte
        self.threshold = None

    def may_improve(self, fixed: int, threshold: int) -> bool:
        """True when some vector ``fixed`` XOR a low combination weighs under ``threshold``.

        Weights and ``threshold`` are at most 128 here, so adding 128 -
        threshold to a field's weight sets bit 7 of its top byte exactly
        when the weight reaches the threshold, with no carry between fields.
        """
        if threshold != self.threshold:
            self.threshold, self.offset = threshold, (0x80 - threshold) * self.top_byte
        x = self.table ^ fixed * self.ones
        x -= (x >> 1) & self.m1
        x = (x & self.m2) + ((x >> 2) & self.m2)
        x = ((x + (x >> 4)) & self.m4) * self.byte_sum
        return (x + self.offset) & self.top_bit != self.top_bit


def _walk_range(kernel_bits, image: EchelonBasis, start: int, stop_at):
    """Gray-code walk over the span of ``kernel_bits`` offset by ``start``.

    Visits ``start`` plus all 2**len(kernel_bits) - 1 nonzero combinations
    XORed onto it, skipping the zero vector.  Returns (best, witness, count),
    with best and witness None when every visited vector is in ``image``.

    The steps go in blocks of 2**k, k = min(dim, _BLOCK_BITS): the k low
    vectors run through all their combinations while the rest stay fixed.
    A block other than the first is ruled out, with no step taken, when no
    vector in it can weigh less than the current minimum, since then no
    step could pass the ``w < best`` test.  Two checks do this, in order:

    - the bits that no low vector has set are the same in every vector of
      the block, so their weight bounds the whole block from below (in an
      RREF kernel every high pivot is such a bit);
    - on a level of width n < _MAX_FIELD_BITS, ``_PackedBlocks`` weighs all
      the block's vectors at once.

    Every other block is walked step by step, and a stop at ``stop_at``
    happens at the same step as in a plain walk, so (best, witness, count)
    do not depend on the blocks; ``count`` includes the ruled-out blocks.
    """
    # No combination outweighs the sum of the weights, so the first
    # nontrivial cycle always improves on this.
    best = sum(b.bit_count() for b in kernel_bits) + start.bit_count() + 1
    witness = None
    if start and start not in image:
        best, witness = start.bit_count(), start
        if stop_at is not None and best <= stop_at:
            return best, witness, 1
    k = min(len(kernel_bits), _BLOCK_BITS)
    low, high = kernel_bits[:k], kernel_bits[k:]
    size = 1 << k
    # The flips inside a block; together they flip the top low vector.
    flips = [low[(t & -t).bit_length() - 1] for t in range(1, size)]
    # Every visited vector fits in n bits; a field is a power of two of at
    # least n + 1 bits and at least a byte.
    n = max(b.bit_length() for b in (start, *kernel_bits))
    field_bits = max(8, 1 << n.bit_length())
    packed = None
    if high and field_bits <= _MAX_FIELD_BITS:
        packed = _PackedBlocks(low, field_bits)
    # The bits on which every vector of a block agrees.
    mask = (1 << n) - 1
    for b in low:
        mask &= ~b
    x = start
    for block in range(1 << len(high)):
        base = block << k
        if block:
            g = high[(block & -block).bit_length() - 1]
            fixed = x ^ g
            if ((fixed & mask).bit_count() >= best or packed is not None
                    and not packed.may_improve(fixed, min(best, n + 1))):
                x = fixed ^ low[-1]
                continue
            steps = zip(range(base, base + size), chain((g,), flips))
        else:
            steps = zip(range(1, size), flips)
        for step, f in steps:
            x ^= f
            w = x.bit_count()
            if w < best and x not in image:
                best = w
                witness = x
                if stop_at is not None and best <= stop_at:
                    return best, witness, step + 1 if start else step
    count = (1 << len(kernel_bits)) - (0 if start else 1)
    return (None if witness is None else best), witness, count


def _search(kernel: EchelonBasis, image: EchelonBasis, stop_at, workers: int):
    kernel_bits = kernel.bits
    dim = len(kernel_bits)
    if workers <= 1 or dim < 8:
        return _walk_range(kernel_bits, image, 0, stop_at)
    # Partition by fixing the top t kernel coordinates; sub-searches share
    # only immutable bases and merge by min.  The split follows ``workers``
    # alone, so counts and witnesses do not depend on the pool size.
    t = min(max(1, (workers - 1).bit_length()), dim - 1)
    starts = [0]
    for b in kernel_bits[dim - t:]:
        starts += [s ^ b for s in starts]
    walk = partial(_walk_range, kernel_bits[: dim - t], image, stop_at=stop_at)
    best, witness, total = None, None, 0
    # A forking pool starts all its processes at once: no more than there
    # are tasks or CPUs.
    with ProcessPoolExecutor(max_workers=min(workers, len(starts), os.cpu_count() or 1)) as pool:
        for b, w, c in pool.map(walk, starts):
            total += c
            if b is not None and (best is None or b < best):
                best, witness = b, w
    return best, witness, total


def _min_nontrivial(parity: BinMatrix, kernel: EchelonBasis, image: EchelonBasis, *,
                    cap: int, lower_bound=None, workers: int = 1) -> DistanceResult:
    """Minimum weight over the span of ``kernel``, a basis of Ker(parity), outside ``image``."""
    dim = len(kernel)
    if dim - len(image) == 0:
        # Trivial group: every cycle is a boundary.
        return DistanceResult(INFINITY, None, 0, INFINITY, True, dim)
    for b in kernel.bits:
        # A nontrivial cycle of weight 1 is a proof of distance 1 at any
        # kernel dimension; under a zero parity the basis is e_0, e_1, ...
        if b.bit_count() == 1 and b not in image:
            return DistanceResult(ExtNat(1), b, 0, ExtNat(1), True, dim)
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

    The side of the pair (A_j, A_{j+1}^T).  ``lower_bound``, when
    supplied, lets the walk stop as soon as the current minimum reaches
    it (a valid lower bound implies optimality).
    """
    if not 0 <= level <= c.m:
        raise LevelOutOfRange(f"level {level} outside 0..{c.m}")
    h, g = c.boundary(level), c.boundary(level + 1).transpose()
    return _min_nontrivial(h, kernel_basis(h), row_space_basis(g),
                           cap=cap, lower_bound=lower_bound, workers=workers)


def cohomological_distance(c: ChainComplex, level: int, *, cap: int = DEFAULT_KERNEL_CAP,
                           lower_bound=None, workers: int = 1) -> DistanceResult:
    """Conjugate-group distance: the side of the swapped pair (A_{j+1}^T, A_j),
    the homology side at level ``m - level`` of the transposed complex."""
    if not 0 <= level <= c.m:
        raise LevelOutOfRange(f"level {level} outside 0..{c.m}")
    h, g = c.boundary(level + 1).transpose(), c.boundary(level)
    return _min_nontrivial(h, kernel_basis(h), row_space_basis(g),
                           cap=cap, lower_bound=lower_bound, workers=workers)
