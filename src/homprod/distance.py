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

The engine walks the whole kernel with a Gray code, one basis flip per
step, and tests boundary membership only for candidates that would
improve the current minimum.  The steps go in blocks of 2**8, and the
blocks in aligned runs of 2**t: a run is passed over, with no step, when
no vector in it can weigh less than the current minimum.  The run's free
vectors (the ones it flips) split the level's bits into classes by which
of them set a bit; the bits no free vector sets agree throughout the run,
and the bits of one class flip together, so each vector of the run weighs
at least the agreed bits of its first vector plus, per class, the lighter
of the class's two states.  One such test thus rules out a whole sub-cube
of the walk (nearly all of a toric level, on either distance side).  On
levels narrower than 128 bits SWAR arithmetic on one packed int then
weighs each remaining block's vectors at once, and only a block that may
hold a lighter vector is stepped through.  A ruled-out run holds no
candidate, so the result, witness and step count are those of the plain
walk.  A nontrivial kernel basis vector of weight 1 proves distance 1
with no walk.  Past the kernel cap it walks nothing and bounds the
distance by the lightest nontrivial basis vector.  A result stores only
its interval; it is exact when the interval is one value.

A classical code's distance under parity check p is level 1 of its
two-space complex, ``homological_distance(one_complex(p), 1)``, with the
same interval past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import ChainComplex, LevelOutOfRange
from .extnat import INFINITY, ExtNat
from .gf2 import BinMatrix, EchelonBasis, kernel_basis, row_space_basis

DEFAULT_KERNEL_CAP = 28


@dataclass(frozen=True)
class DistanceResult:
    """Distance in ``[value, upper]``; ``exact`` is derived: ``value == upper``.

    Past the cap the interval is [1, weight of the lightest kernel basis
    vector outside the image], at least 2.  ``witness`` is an int bitset
    over the level space (None unless exact and finite); ``enumerated``
    counts the kernel vectors the walk covered, including those in runs of
    blocks ruled out by a weight bound without a step: ``2**dim - 1`` for
    a walk, and 0 for the weight-1 fast path and past the cap.
    """

    value: ExtNat
    witness: int | None
    enumerated: int
    upper: ExtNat
    kernel_dim: int

    @property
    def exact(self) -> bool:
        return self.value == self.upper


# A block is 2**_BLOCK_BITS consecutive Gray steps: the lowest kernel
# vectors run through all their combinations while the rest stay fixed.
# Smaller blocks let one weight test rule out finer runs of the walk but
# add per-block work where no run is ruled out: against 10, 8 walks a
# toric level 1.5-2x faster and a packed level with no run ruled out
# under 10% slower.
_BLOCK_BITS = 8
# Widest packed field, in bits: the filter's byte arithmetic needs every
# weight below 128.
_MAX_FIELD_BITS = 128


class _PackedBlocks:
    """SWAR weight filter over the blocks of one Gray walk.

    Each of a block's 2**k vectors gets a field of whole bytes of one
    Python int: one of the 2**k combinations of the k low vectors (a fixed
    table) XOR the block's fixed vector, replicated across all fields.
    Each block visits every combination once, in an order that differs
    between blocks, but the filter asks only whether any of them is light,
    so one table in subset order serves every block.  A few big-int
    operations then give every field's weight at once.
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


def _refine(classes, agreed: int, v: int):
    """Split the bit classes by ``v``; the bits of ``agreed`` that ``v`` sets form a new class.

    ``classes`` are disjoint masks off ``agreed``.  Refining with each of
    some free vectors in turn, from no classes and ``agreed`` the whole
    level, puts two bits in one class exactly when the same free vectors set
    them.  A class of one bit is dropped: its bound term is always 0.
    """
    split = []
    for g in classes:
        a = g & v
        if a and a != g:
            split += [h for h in (a, g ^ a) if h & (h - 1)]
        else:
            split.append(g)
    a = v & agreed
    if a & (a - 1):
        split.append(a)
    return split


def _class_halves(classes):
    """(sum of the halves, [(class, size)] largest first).

    Half a class is ``size >> 1``, the most that ``min(c, size - c)`` can be.
    """
    sized = sorted(((g, g.bit_count()) for g in classes), key=lambda gs: gs[1], reverse=True)
    return sum(s >> 1 for _, s in sized), sized


def _classes_reach(fixed: int, slack: int, sized) -> bool:
    """True when the classes' shortfall from their halves stays within ``slack``.

    A combination of the free vectors flips each class whole, so on class
    G every vector ``fixed`` XOR a combination weighs at least
    min(c, |G| - c), c = |fixed & G|: each class falls short of its half
    by ``(size >> 1) - min(c, size - c)``, and the test stops at the first
    class that takes the running shortfall past ``slack``.  (The min is
    written out: the builtin call costs more than the rest of the test.)
    """
    for g, size in sized:
        c = (fixed & g).bit_count()
        if c + c > size:
            c = size - c
        slack -= (size >> 1) - c
        if slack < 0:
            return False
    return True


def _walk_range(kernel_bits, image: EchelonBasis):
    """Gray-code walk over the 2**len(kernel_bits) - 1 nonzero combinations of ``kernel_bits``.

    Returns (best, witness, count), with best and witness None when every
    visited vector is in ``image``.

    The steps go in blocks of 2**k, k = min(dim, _BLOCK_BITS): the k low
    vectors run through all their combinations while the rest, the high
    vectors, stay fixed.  Block b >= 1 starts at ``fixed``, by flipping
    high[top], top = ctz(b), and for each t <= top the run of blocks
    [b, b + 2**t) holds exactly ``fixed`` XOR the combinations of its free
    vectors, low and high[:t].  A run is ruled out, with no step taken,
    when no vector in it can weigh less than the current minimum, since
    then no step could pass the ``w < best`` test:

    - The free vectors split the bits into the agreed bits, which none of
      them sets, and classes: two bits share a class when the same free
      vectors set both.  A combination leaves the agreed bits as in
      ``fixed`` and flips each class G whole, so every vector of the run
      weighs at least |fixed & agreed| + sum over G of min(c, |G| - c),
      c = |fixed & G|.  The agreed bits are weighed first (in an RREF
      kernel every pivot of a fixed high vector is one), then the classes,
      largest first, only when the agreed bits plus every class at its
      half, |G| // 2, reach the minimum, and only until their shortfall
      from their halves uses up that margin.  The runs are tried from the
      longest, t = top, down to the block alone, t = 0, and the first
      that this bound rules out is passed over.  The classes are built
      once per walk, one free vector at a time (``_refine``), and only
      for a walk of more blocks than bits; a shorter walk weighs only the
      agreed bits.
    - On a level of width n < _MAX_FIELD_BITS, ``_PackedBlocks`` then
      weighs all the vectors of a block that no run rules out at once.

    A run passed over ends where its sub-walk ends: the walk of 2**t
    blocks flips, in net, the top vector of that sub-walk, high[t - 1]
    (the top low vector for t = 0).  Every other block is walked step by
    step, so (best, witness, count) do not depend on the blocks; ``count``
    includes the ruled-out runs.
    """
    # No combination outweighs the sum of the weights, so the first
    # nontrivial cycle always improves on this.
    best = sum(b.bit_count() for b in kernel_bits) + 1
    witness = None
    k = min(len(kernel_bits), _BLOCK_BITS)
    low, high = kernel_bits[:k], kernel_bits[k:]
    # The flips inside a block; together they flip the top low vector.
    flips = [low[(t & -t).bit_length() - 1] for t in range(1, 1 << k)]
    # Every visited vector fits in n bits; a field is the fewest whole bytes
    # that hold n + 1 bits.
    n = max((b.bit_length() for b in kernel_bits), default=0)
    field_bits = 8 * (n // 8 + 1)
    packed = None
    if high and field_bits <= _MAX_FIELD_BITS:
        packed = _PackedBlocks(low, field_bits)
    # runs[t]: the bound's terms for a run of 2**t blocks, whose free
    # vectors are low and high[:t].  A refinement, like a run test, takes
    # up to one operation per bit, so the classes are built only for a
    # walk of more blocks than bits: on a short walk of a wide level
    # they would cost more than the blocks they could rule out.
    runs, agreed, classes = [], (1 << n) - 1, []
    weigh = (1 << len(high)) > n
    for i, v in enumerate([*low, *high[:-1]]):
        if weigh:
            classes = _refine(classes, agreed, v)
        agreed &= ~v
        if i >= k - 1:
            runs.append((agreed, *_class_halves(classes)))
    # The steps of a block entered by flipping high[i]: that flip, then the
    # flips inside the block.
    block_flips = [[g, *flips] for g in high]
    # ends[t]: the vector a run of 2**t blocks flips in net.
    ends = [*low[-1:], *high]
    x, block, blocks = 0, 0, 1 << len(high)
    while block < blocks:
        if block:
            top = (block & -block).bit_length() - 1
            fixed = x ^ high[top]
            # The longest run from here that holds nothing lighter than the minimum.
            t = top
            while t >= 0:
                agreed, half, sized = runs[t]
                room = best - (fixed & agreed).bit_count()
                if room <= 0 or half >= room and _classes_reach(fixed, half - room, sized):
                    break
                t -= 1
            if t < 0 and packed is not None and not packed.may_improve(fixed, min(best, n + 1)):
                t = 0
            if t >= 0:
                x = fixed ^ ends[t]
                block += 1 << t
                continue
            steps = block_flips[top]
        else:
            steps = flips
        for f in steps:
            x ^= f
            w = x.bit_count()
            if w < best and x not in image:
                best = w
                witness = x
        block += 1
    return (None if witness is None else best), witness, (1 << len(kernel_bits)) - 1


def _min_nontrivial(parity: BinMatrix, kernel: EchelonBasis, image: EchelonBasis, *,
                    cap: int) -> DistanceResult:
    """Minimum weight over the span of ``kernel``, a basis of Ker(parity), outside ``image``."""
    dim = len(kernel)
    if dim - len(image) == 0:
        # Trivial group: every cycle is a boundary.
        return DistanceResult(INFINITY, None, 0, INFINITY, dim)
    for b in kernel.bits:
        # A nontrivial cycle of weight 1 is a proof of distance 1 at any
        # kernel dimension; under a zero parity the basis is e_0, e_1, ...
        if b.bit_count() == 1 and b not in image:
            return DistanceResult(ExtNat(1), b, 0, ExtNat(1), dim)
    if dim > cap:
        # The group is nontrivial, so some kernel basis vector is not a boundary.
        upper = min(b.bit_count() for b in kernel.bits if b not in image)
        return DistanceResult(ExtNat(1), None, 0, ExtNat(upper), dim)
    best, witness, count = _walk_range(kernel.bits, image)
    if witness is None:
        raise AssertionError("nontrivial group but the walk found no nontrivial cycle")
    if parity.mul_vec(witness) or witness in image or witness.bit_count() != best:
        raise AssertionError("distance witness failed post-hoc validation")
    return DistanceResult(ExtNat(best), witness, count, ExtNat(best), dim)


def _level_side(c: ChainComplex, level: int, cap: int, swapped: bool) -> DistanceResult:
    """The side of the pair (A_j, A_{j+1}^T) at level ``level``, or of the swapped pair."""
    if not 0 <= level <= c.m:
        raise LevelOutOfRange(f"level {level} outside 0..{c.m}")
    h, g = c.boundary(level), c.boundary(level + 1).transpose()
    if swapped:
        h, g = g, h
    return _min_nontrivial(h, kernel_basis(h), row_space_basis(g), cap=cap)


def homological_distance(c: ChainComplex, level: int, *,
                         cap: int = DEFAULT_KERNEL_CAP) -> DistanceResult:
    """Level distance: exact, infinite for a trivial group, or an interval past ``cap``.

    The side of the pair (A_j, A_{j+1}^T).
    """
    return _level_side(c, level, cap, False)


def cohomological_distance(c: ChainComplex, level: int, *,
                           cap: int = DEFAULT_KERNEL_CAP) -> DistanceResult:
    """Conjugate-group distance: the side of the swapped pair (A_{j+1}^T, A_j),
    the homology side at level ``m - level`` of the transposed complex."""
    return _level_side(c, level, cap, True)
