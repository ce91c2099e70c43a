"""Dense GF(2) linear algebra on bit-packed matrices.

Each matrix row is stored as a single Python integer bitset (bit ``j``
is column ``j``), which gives word-parallel XOR row operations and
popcount weights without any third-party dependency.  A matrix read from
an alist file instead holds its supports, the sorted column indices of
each row and the sorted row indices of each column, and builds its row
words on the first use of ``bits``; writes, transposes (a swap of the
two), weights and the left operand of a product read the supports and
never need the words, and the right operand of a product builds them
for that product alone and does not keep them.  A matrix built from row
supports alone (a product boundary on its way to disk) derives its
column supports on the first transpose, column weights or write, and
keeps them.  A matrix built from row words runs the same operations on
its words, which costs less than building supports for one use; it
derives its supports only on request, for a write, and keeps no copy.
The rows of a product come one at a time from ``_product_rows``, so a
test for a zero product stops at the first nonzero row and builds no
product matrix.  Values never change after construction (the lazily
built words and column supports are caches), so they can be shared
freely.

One forward-elimination primitive, ``_forward``, does all elimination.
Rank is the size of its ``pivot -> row`` map, ``solve`` reduces against
that map directly, and one back-substitution pass over it gives the
reduced echelon form (RREF) of the row space.  The kernel is read off
that RREF with no second elimination.

A row's pivot is its top set bit, ``b.bit_length() - 1``, which is O(1);
the lowest-bit idiom (``b & -b``) copies the full width of the word at
every step, which is the whole cost on a wide sparse row.  Loops over
the set bits of a row word take them from the top for the same reason:
``j = b.bit_length() - 1``, then ``b ^= 1 << j``, which shrinks the int.
With top-bit pivots in the row RREF, the kernel vectors read off it
pivot at their lowest bit, and they form the kernel's unique
lowest-pivot RREF: the bases, witnesses and search counts downstream
depend on that form, bit for bit.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence


class DimensionMismatch(ValueError):
    """Operands have incompatible shapes."""


def _as_mask(vector, length: int) -> int:
    """Coerce a bit vector (int bitset or iterable of 0/1) to an int bitset."""
    if isinstance(vector, int):
        if vector < 0 or vector >> length:
            raise DimensionMismatch(f"bit vector does not fit in length {length}")
        return vector
    bits = list(vector)
    if len(bits) != length:
        raise DimensionMismatch(f"expected vector of length {length}, got {len(bits)}")
    mask = 0
    for i, b in enumerate(bits):
        if b not in (0, 1):
            raise ValueError(f"vector entry {b!r} is not a bit")
        mask |= b << i
    return mask


def _transpose_supports(supports: Iterable[Sequence[int]], n: int) -> tuple[tuple[int, ...], ...]:
    """The supports of the ``n`` columns of the matrix whose row supports
    these are, each sorted: row indices are appended in row order, one bound
    ``append`` per entry."""
    cols: list[list[int]] = [[] for _ in range(n)]
    appends = [c.append for c in cols]
    for i, s in enumerate(supports):
        for j in s:
            appends[j](i)
    return tuple(map(tuple, cols))


def _support(b: int) -> tuple[int, ...]:
    """Sorted indices of the set bits of ``b``, taken from the top."""
    out = []
    while b:
        j = b.bit_length() - 1
        out.append(j)
        b ^= 1 << j
    out.reverse()
    return tuple(out)


class BinMatrix:
    """Immutable binary matrix with bit-packed rows, or with sparse supports.

    Zero rows or zero columns are legal; the empty matrix acts as the
    trivial boundary operator and needs no special-casing downstream.
    """

    __slots__ = ("_nrows", "_ncols", "_bits", "_supports", "_col_supports")

    def __init__(self, rows: int, cols: int, bits: Sequence[int] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if bits is None:
            bits = (0,) * rows
        else:
            bits = tuple(bits)
        if len(bits) != rows:
            raise DimensionMismatch(f"expected {rows} row words, got {len(bits)}")
        for b in bits:
            if b < 0 or b.bit_length() > cols:
                raise ValueError("row word has bits set beyond the column count")
        self._nrows = rows
        self._ncols = cols
        self._bits = bits
        self._supports = self._col_supports = None

    @classmethod
    def _from_supports(cls, rows: int, cols: int, supports: tuple[tuple[int, ...], ...],
                       col_supports: tuple[tuple[int, ...], ...] | None = None) -> "BinMatrix":
        """The matrix with these row and column supports, trusted as given:
        sorted, in range, and each other's transpose.  No row word is built.
        Without column supports, the first ``transpose`` or ``col_weights``
        derives them from the row supports and keeps them."""
        m = cls.__new__(cls)
        m._nrows = rows
        m._ncols = cols
        m._bits = None
        m._supports = supports
        m._col_supports = col_supports
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BinMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "BinMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @property
    def rows(self) -> int:
        return self._nrows

    @property
    def cols(self) -> int:
        return self._ncols

    @property
    def shape(self) -> tuple[int, int]:
        return (self._nrows, self._ncols)

    @property
    def bits(self) -> tuple[int, ...]:
        """Row bitsets (bit ``j`` of entry ``i`` is the (i, j) matrix entry).

        A matrix held by its supports builds them here, once.
        """
        bits = self._bits
        if bits is None:
            bits = self._bits = tuple(self._words())
        return bits

    def _words(self) -> Sequence[int]:
        """The row words: the stored ones, else built from the supports and
        not kept."""
        if self._bits is not None:
            return self._bits
        words = []
        for s in self._supports:
            b = 0
            for j in s:
                b |= 1 << j
            words.append(b)
        return words

    @property
    def supports(self) -> tuple[tuple[int, ...], ...]:
        """Sorted column indices of the ones of each row.

        Kept from construction by a matrix read from supports; derived from
        the row words on every request, and not kept, by any other.
        """
        supports = self._supports
        if supports is None:
            supports = tuple(map(_support, self._bits))
        return supports

    def _columns(self, supports: Sequence[Sequence[int]] | None = None
                 ) -> tuple[tuple[int, ...], ...]:
        """Sorted row indices of the ones of each column: the held ones, else
        derived from the row supports, and kept by a matrix held by them.
        ``supports``, when given, are this matrix's row supports, so a matrix
        built from row words need not derive them again."""
        cols = self._col_supports
        if cols is None:
            cols = _transpose_supports(self.supports if supports is None else supports,
                                       self._ncols)
            if self._supports is not None:
                self._col_supports = cols
        return cols

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self._nrows and 0 <= j < self._ncols):
            raise IndexError("matrix index out of range")
        if self._bits is None:
            return int(j in self._supports[i])
        return (self._bits[i] >> j) & 1

    def is_zero(self) -> bool:
        return not any(self._bits if self._supports is None else self._supports)

    def transpose(self) -> "BinMatrix":
        """The transpose: a swap of the two supports when this matrix holds
        them, else column words built from the row words."""
        if self._supports is not None:
            return BinMatrix._from_supports(self._ncols, self._nrows,
                                            self._columns(), self._supports)
        cols = [0] * self._ncols
        for i, b in enumerate(self._bits):
            bit = 1 << i
            while b:
                j = b.bit_length() - 1
                cols[j] |= bit
                b ^= 1 << j
        return BinMatrix(self._ncols, self._nrows, cols)

    def __matmul__(self, other: "BinMatrix") -> "BinMatrix":
        """The product, one row of ``_product_rows`` at a time."""
        if not isinstance(other, BinMatrix):
            return NotImplemented
        if self._ncols != other._nrows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        return BinMatrix(self._nrows, other._ncols, list(self._product_rows(other)))

    def _product_rows(self, other: "BinMatrix") -> Iterator[int]:
        """The row words of ``self @ other`` (shapes trusted), one at a time:
        row i is the XOR of the words of ``other`` at the ones of row i, read
        off this matrix's supports or row words.

        ``other`` keeps no words that it did not hold before: a matrix that
        holds only supports builds them for this product alone."""
        obits = other._words()
        if self._supports is not None:
            for s in self._supports:
                acc = 0
                for j in s:
                    acc ^= obits[j]
                yield acc
        else:
            for b in self._bits:
                acc = 0
                while b:
                    j = b.bit_length() - 1
                    acc ^= obits[j]
                    b ^= 1 << j
                yield acc

    def mul_vec(self, x) -> int:
        """Matrix-vector product ``m @ x`` as an int bitset over the rows."""
        xm = _as_mask(x, self._ncols)
        y = 0
        for i, b in enumerate(self.bits):
            if (b & xm).bit_count() & 1:
                y |= 1 << i
        return y

    def row_weights(self) -> list[int]:
        if self._supports is None:
            return [b.bit_count() for b in self._bits]
        return list(map(len, self._supports))

    def col_weights(self) -> list[int]:
        if self._supports is not None:
            return list(map(len, self._columns()))
        w = [0] * self._ncols
        for b in self._bits:
            while b:
                j = b.bit_length() - 1
                w[j] += 1
                b ^= 1 << j
        return w

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinMatrix):
            return NotImplemented
        return self.shape == other.shape and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self._nrows, self._ncols, self.bits))

    def __repr__(self) -> str:
        if self._nrows and self._ncols and self._nrows * self._ncols <= 64:
            body = " ".join(
                "".join(str((b >> j) & 1) for j in range(self._ncols))
                for b in self.bits
            )
            return f"BinMatrix({self._nrows}x{self._ncols}: {body})"
        return f"BinMatrix({self._nrows}x{self._ncols})"


def _forward(bits: Iterable[int]) -> dict[int, int]:
    """Reduce each row at its top set bit until that bit is a free pivot,
    where the row is stored, or the row vanishes; returns ``pivot -> row``."""
    basis: dict[int, int] = {}
    for b in bits:
        while b:
            p = b.bit_length() - 1
            r = basis.get(p)
            if r is None:
                basis[p] = b
                break
            b ^= r
    return basis


def _reduce(x: int, by_pivot: dict[int, int], pivot_mask: int) -> int:
    """Reduce ``x`` by RREF rows: each row clears its own pivot bit and no other."""
    hit = x & pivot_mask
    while hit:
        p = hit.bit_length() - 1
        x ^= by_pivot[p]
        hit ^= 1 << p
    return x


class EchelonBasis:
    """A linearly independent row set in RREF; a vector is in the span iff it reduces to 0.

    Invariant: each row has its own pivot bit set and no other row's pivot
    bit.  Row spaces (:meth:`from_rows`) pivot at each row's top set bit,
    kernels (``kernel_from_rref``) at its lowest.  The constructor raises
    ``ValueError`` on rows that break the invariant.
    """

    __slots__ = ("_ncols", "_rows", "_pivots", "_by_pivot", "_pivot_mask")

    def __init__(self, ncols: int, rows: Sequence[int] = (), pivots: Sequence[int] = ()):
        self._ncols = ncols
        self._rows = tuple(rows)
        self._pivots = tuple(pivots)
        self._by_pivot = dict(zip(self._pivots, self._rows))
        if not len(self._rows) == len(self._pivots) == len(self._by_pivot):
            raise ValueError("need one row per pivot, and distinct pivots")
        self._pivot_mask = sum(1 << p for p in self._by_pivot)
        for p, r in self._by_pivot.items():
            if r & self._pivot_mask != 1 << p:
                raise ValueError(f"row with pivot {p} is not in reduced echelon form")

    @classmethod
    def from_rows(cls, ncols: int, bits: Iterable[int]) -> "EchelonBasis":
        """RREF of the span of ``bits`` with top-bit pivots (unique to the span):
        a forward pass, then back-substitution in increasing pivot order by
        the rows already reduced."""
        basis = _forward(bits)
        pivots = sorted(basis)
        done = 0
        for p in pivots:
            basis[p] = _reduce(basis[p], basis, done)
            done |= 1 << p
        return cls(ncols, [basis[p] for p in pivots], pivots)

    @property
    def ncols(self) -> int:
        return self._ncols

    @property
    def pivot_cols(self) -> tuple[int, ...]:
        return self._pivots

    @property
    def bits(self) -> tuple[int, ...]:
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, x: int) -> int:
        """Residual of ``x`` after eliminating all pivot positions."""
        return _reduce(x, self._by_pivot, self._pivot_mask)

    def __contains__(self, x: int) -> bool:
        return self.reduce(x) == 0

    def __repr__(self) -> str:
        return f"EchelonBasis(dim={len(self._rows)}, ncols={self._ncols})"


def rank(m: BinMatrix) -> int:
    """GF(2) rank; equals the rank of the transpose."""
    return len(_forward(m.bits))


def row_space_basis(m: BinMatrix) -> EchelonBasis:
    """Echelon basis of the row space."""
    return EchelonBasis.from_rows(m.cols, m.bits)


def kernel_from_rref(rref: EchelonBasis) -> EchelonBasis:
    """Echelon basis of ``{x : r . x = 0 for every row r of rref}``, read off the RREF:
    the kernel of every matrix whose row space ``rref`` spans.

    Free column f gives v_f = e_f + the sum of e_p over the pivots p whose
    row has bit f set.  Each such p is above f, since a row's pivot is its
    top bit, so v_f pivots at its lowest bit f, which no other v has set:
    the v_f are the kernel's unique lowest-pivot RREF, with no elimination.
    """
    free = {f: 1 << f for f in range(rref.ncols)}
    # Free column f of the RREF row with pivot p puts p into f's vector.
    for p, r in zip(rref.pivot_cols, rref.bits):
        del free[p]
        bit = 1 << p
        r ^= bit
        while r:
            f = r.bit_length() - 1
            free[f] |= bit
            r ^= 1 << f
    return EchelonBasis(rref.ncols, free.values(), free)


def kernel_basis(m: BinMatrix) -> EchelonBasis:
    """Echelon basis of ``{x : m @ x = 0}``; size is ``cols - rank``."""
    return kernel_from_rref(row_space_basis(m))


def solve(m: BinMatrix, y) -> int | None:
    """Some ``x`` with ``m @ x = y``, or ``None`` when ``y`` is outside the column span.

    ``y`` may be an int bitset or an iterable of 0/1 of length ``m.rows``.
    Which particular solution comes back is not specified.
    """
    ym = _as_mask(y, m.rows)
    shift = m.cols
    # Eliminate the columns of m, shifted above low tag bits that record the
    # combination that built each row.  Rows whose column part vanishes
    # pivot on a tag bit, which the reduction of ``y`` never reaches.
    basis = _forward(col << shift | 1 << k for k, col in enumerate(m.transpose().bits))
    ym <<= shift
    while ym.bit_length() > shift:
        r = basis.get(ym.bit_length() - 1)
        if r is None:
            return None
        ym ^= r
    return ym
