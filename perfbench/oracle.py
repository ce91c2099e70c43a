"""Independent GF(2) reference code for the benchmark's output checks.

Nothing here imports homprod.  The checks compare the library's outputs
against these small re-implementations, so a check never reuses the code
path it is checking.  Matrices are handled either as lists of sorted index
tuples (sparse rows or columns) or as Python int bitsets.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


def bits(indices) -> int:
    """Int bitset with the given bit positions set."""
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def rank(rows) -> int:
    """GF(2) rank of int bitsets by forward elimination."""
    return len(Span(rows))


class Span:
    """Span of int bitsets, kept as a forward basis keyed by lowest set bit.

    Each stored vector has a distinct lowest bit, so reducing by the vector
    that owns the current lowest bit either clears the input or stops at a
    lowest bit no basis vector owns: the input is in the span iff it
    reduces to zero.
    """

    def __init__(self, rows=()):
        self._basis: dict[int, int] = {}
        for row in rows:
            self.add(row)

    def reduce(self, x: int) -> int:
        basis = self._basis
        while x:
            row = basis.get(x & -x)
            if row is None:
                return x
            x ^= row
        return 0

    def add(self, x: int) -> bool:
        x = self.reduce(x)
        if x:
            self._basis[x & -x] = x
        return bool(x)

    def __contains__(self, x: int) -> bool:
        return self.reduce(x) == 0

    def __len__(self) -> int:
        return len(self._basis)


def gallager_rows(col_weight: int, row_weight: int, cols: int, seed: int) -> list[tuple[int, ...]]:
    """The documented Gallager ensemble, re-implemented: rows as column tuples.

    ``col_weight`` strips, each a fresh shuffle of the columns drawn from
    one Mersenne Twister stream seeded with ``seed``, cut into rows of
    ``row_weight`` columns.
    """
    rng = random.Random(seed)
    rows = []
    for _ in range(col_weight):
        perm = list(range(cols))
        rng.shuffle(perm)
        for t in range(cols // row_weight):
            rows.append(tuple(sorted(perm[t * row_weight:(t + 1) * row_weight])))
    return rows


def digest(lists) -> str:
    """Fingerprint of a sparse matrix, so references need not be held whole."""
    h = hashlib.sha256()
    for entries in lists:
        h.update(b" ".join(b"%d" % e for e in entries) + b"\n")
    return h.hexdigest()


def transpose(lists, width: int) -> list[tuple[int, ...]]:
    """Sparse rows to sparse columns (or back); ``width`` is the other dimension."""
    out: list[list[int]] = [[] for _ in range(width)]
    for i, entries in enumerate(lists):
        for j in entries:
            out[j].append(i)
    return [tuple(e) for e in out]


@dataclass
class Alist:
    """A parsed alist file: shape plus 0-based sparse rows and columns."""

    nrows: int
    ncols: int
    rows: list[tuple[int, ...]]
    cols: list[tuple[int, ...]]


def read_alist(path) -> Alist:
    """Parse an alist file, checking that its row and column lists agree."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    ncols, nrows = (int(t) for t in lines[0].split())
    cols = [tuple(sorted(int(t) - 1 for t in line.split() if t != "0"))
            for line in lines[4:4 + ncols]]
    rows = [tuple(sorted(int(t) - 1 for t in line.split() if t != "0"))
            for line in lines[4 + ncols:4 + ncols + nrows]]
    if len(cols) != ncols or len(rows) != nrows:
        raise ValueError(f"{path}: truncated adjacency lists")
    if transpose(rows, ncols) != cols:
        raise ValueError(f"{path}: row and column adjacency lists disagree")
    return Alist(nrows, ncols, rows, cols)


@dataclass
class Complex:
    """A chain complex as dims plus boundaries in sparse-column form.

    ``boundaries[j - 1][x]`` lists the level-(j-1) basis indices in the
    boundary of level-j basis vector ``x``.
    """

    dims: tuple[int, ...]
    boundaries: list[list[tuple[int, ...]]]

    @property
    def m(self) -> int:
        return len(self.dims) - 1

    def boundary_rows(self, j: int) -> list[tuple[int, ...]]:
        """Boundary ``j`` (level j to level j-1) as sparse rows."""
        return transpose(self.boundaries[j - 1], self.dims[j - 1])


def one_complex(rows: list[tuple[int, ...]], ncols: int) -> Complex:
    """The two-space complex of a matrix given by its sparse rows."""
    return Complex((len(rows), ncols), [transpose(rows, ncols)])


def _blocks(a: Complex, b: Complex, level: int) -> list[tuple[int, int]]:
    return [(i, level - i) for i in range(max(0, level - b.m), min(a.m, level) + 1)]


def tensor(a: Complex, b: Complex) -> Complex:
    """Tensor product; level-l blocks ordered by increasing i, index x * dim_j + y.

    The boundary of x (x) y is (dx) (x) y + x (x) (dy); the two parts land
    in different blocks, so no entries cancel.
    """
    m = a.m + b.m
    offsets = []
    dims = []
    for level in range(m + 1):
        off, total = {}, 0
        for i, j in _blocks(a, b, level):
            off[(i, j)] = total
            total += a.dims[i] * b.dims[j]
        offsets.append(off)
        dims.append(total)
    boundaries = []
    for level in range(1, m + 1):
        below = offsets[level - 1]
        columns = []
        for i, j in _blocks(a, b, level):
            nb = b.dims[j]
            for x in range(a.dims[i]):
                da = a.boundaries[i - 1][x] if i >= 1 else ()
                for y in range(nb):
                    col = []
                    if da:
                        base = below[(i - 1, j)]
                        col.extend(base + xr * nb + y for xr in da)
                    if j >= 1:
                        base = below[(i, j - 1)] + x * b.dims[j - 1]
                        col.extend(base + yr for yr in b.boundaries[j - 1][y])
                    columns.append(tuple(sorted(col)))
        boundaries.append(columns)
    return Complex(tuple(dims), boundaries)


def power(rows: list[tuple[int, ...]], ncols: int, a: int, b: int) -> Complex:
    """Left fold of ``a`` copies of K(P) then ``b`` copies of K(P^T)."""
    kp = one_complex(rows, ncols)
    kpt = one_complex(transpose(rows, ncols), len(rows))
    factors = [kp] * a + [kpt] * b
    out = factors[0]
    for f in factors[1:]:
        out = tensor(out, f)
    return out


def _convolve(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def power_kunneth(nrows: int, ncols: int, r: int, a: int, b: int) -> tuple[list[int], list[int]]:
    """(dims, homology ranks) of the power complex from the seed's shape and rank.

    K(P) has dims (rows, cols) and homology (rows - r, cols - r); K(P^T)
    swaps both.  Over a field both multiply as polynomials (Kunneth).
    """
    dims, ranks = [1], [1]
    for _ in range(a):
        dims = _convolve(dims, [nrows, ncols])
        ranks = _convolve(ranks, [nrows - r, ncols - r])
    for _ in range(b):
        dims = _convolve(dims, [ncols, nrows])
        ranks = _convolve(ranks, [ncols - r, nrows - r])
    return dims, ranks


def product_is_zero(left_rows: list[tuple[int, ...]], right_cols: list[tuple[int, ...]]) -> bool:
    """Whether L @ R^T vanishes, given L by sparse rows and R by sparse columns.

    Row i of the product is the sum, over the columns c in row i of L, of
    column c of R; it vanishes iff every row of R is hit an even number of
    times.  Sets keep this sparse, so the check adds little to peak memory.
    """
    for row in left_rows:
        odd: set[int] = set()
        for c in row:
            odd.symmetric_difference_update(right_cols[c])
        if odd:
            return False
    return True
