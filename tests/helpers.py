"""Test-local GF(2) helpers, independent of the library's implementations.

Everything here works on plain lists of int bitsets and uses its own
elimination, so oracle results never share a code path with the engines
they check.
"""

from __future__ import annotations

import random

from homprod import BinMatrix, ChainComplex, one_complex, tensor_product


# --- independent linear algebra -------------------------------------------

def ref_echelon(rows):
    """Forward-and-back elimination; returns (rows, pivots) sorted by pivot."""
    basis = []
    for b in rows:
        for p, r in basis:
            if (b >> p) & 1:
                b ^= r
        if b:
            p = (b & -b).bit_length() - 1
            for i, (q, r) in enumerate(basis):
                if (r >> p) & 1:
                    basis[i] = (q, r ^ b)
            basis.append((p, b))
            basis.sort()
    return [r for _, r in basis], [p for p, _ in basis]


def ref_top_echelon(rows, ncols):
    """RREF with each pivot the top set bit of its row: ``ref_echelon`` over
    the rows with their ``ncols`` bits reversed, reversed back; returns
    (rows, pivots) sorted by pivot."""
    def flip(b):
        return int(format(b, f"0{ncols}b")[::-1], 2)

    reduced, pivots = ref_echelon([flip(b) for b in rows])
    pairs = sorted((ncols - 1 - p, flip(r)) for p, r in zip(pivots, reduced))
    return [r for _, r in pairs], [p for p, _ in pairs]


def ref_rank(rows):
    return len(ref_echelon(rows)[1])


def ref_reduce(basis, x):
    rows, pivots = basis
    for p, r in zip(pivots, rows):
        if (x >> p) & 1:
            x ^= r
    return x


def columns_as_masks(rows, ncols=None):
    """Column vectors of a row-bitset matrix, as bitsets over the rows.

    Trailing all-zero columns are dropped unless ``ncols`` is given; for
    kernel computations a zero column is a vacuous constraint anyway.
    """
    if ncols is None:
        ncols = max((b.bit_length() for b in rows), default=0)
    cols = [0] * ncols
    for i, b in enumerate(rows):
        while b:
            j = (b & -b).bit_length() - 1
            cols[j] |= 1 << i
            b &= b - 1
    return cols


def mat_columns(m: BinMatrix):
    """Columns of a BinMatrix as masks over its rows (local scatter, no transpose)."""
    cols = [0] * m.cols
    for i in range(m.rows):
        b = m.bits[i]
        while b:
            j = (b & -b).bit_length() - 1
            cols[j] |= 1 << i
            b &= b - 1
    return cols


def naive_distance(parity_rows, n, image_cols):
    """Min weight over all 2**n vectors that are cycles but not boundaries.

    ``parity_rows``: row bitsets of A_j; ``image_cols``: column masks of
    A_{j+1} (vectors in the level space).  Returns None for an empty set.
    """
    image = ref_echelon(image_cols)
    best = None
    for x in range(1, 1 << n):
        if any((row & x).bit_count() & 1 for row in parity_rows):
            continue
        if ref_reduce(image, x) == 0:
            continue
        w = x.bit_count()
        if best is None or w < best:
            best = w
    return best


def ref_gray_walk(kernel_bits, image_rows, start=0):
    """Reference for the engine's Gray walk: the same (best, witness, count).

    Step i, for 0 <= i < 2**len(kernel_bits), visits ``start`` XOR the
    kernel vectors selected by the bits of the reflected Gray code
    i ^ (i >> 1); step 0 visits ``start`` itself and counts only when it is
    nonzero.  A visited vector lighter than every earlier nontrivial one
    (not in the span of ``image_rows``) becomes the witness.
    """
    image = ref_echelon(image_rows)
    best, witness, count = None, None, 0
    for i in range(0 if start else 1, 1 << len(kernel_bits)):
        gray = i ^ (i >> 1)
        x = start
        for j, b in enumerate(kernel_bits):
            if (gray >> j) & 1:
                x ^= b
        count += 1
        w = x.bit_count()
        if (best is None or w < best) and ref_reduce(image, x):
            best, witness = w, x
    return best, witness, count


def ref_one_complex_product(a: ChainComplex, p: BinMatrix):
    """Boundaries of the product of ``a`` with K(p), set entry by entry.

    Boundary l is, in block form,

        [ A_{l-1} (x) E_c          0        ]
        [ E_{n_{l-1}} (x) P   A_l (x) E_r   ]

    (r, c = the shape of p), with the top block row absent at l = 1 and
    the right block column absent at l = m + 1.  Row and column orders are
    those of the library's block order: level l is n_{l-1} * c coordinates
    (index u * c + t) followed by n_l * r (index u * r + s).
    """
    r, c = p.rows, p.cols
    n = a.dims
    boundaries = []
    for level in range(1, a.m + 2):
        top = n[level - 2] * c if level >= 2 else 0
        left = n[level - 1] * c
        rows = [0] * (top + n[level - 1] * r)
        width = left + (n[level] * r if level <= a.m else 0)
        if level >= 2:
            for x, y in _entries(a.boundary(level - 1)):
                for t in range(c):
                    rows[x * c + t] |= 1 << (y * c + t)
        for u in range(n[level - 1]):
            for s, t in _entries(p):
                rows[top + u * r + s] |= 1 << (u * c + t)
        if level <= a.m:
            for x, y in _entries(a.boundary(level)):
                for t in range(r):
                    rows[top + x * r + t] |= 1 << (left + y * r + t)
        boundaries.append(BinMatrix(len(rows), width, rows))
    return tuple(boundaries)


def ref_tensor_product(a: ChainComplex, b: ChainComplex):
    """Boundaries of the product of any two complexes, set entry by entry.

    Level l is the direct sum of the spaces (i, l - i), in increasing i;
    coordinate (x, y) of space (i, j) has index x * n_j(b) + y within it.
    The boundary sends (x, y) to (A_i x, y) + (x, B_j y).
    """
    na, nb = a.dims, b.dims
    total = a.m + b.m

    def offsets(level):
        """Start index of each space (i, level - i) in level ``level``."""
        out, start = {}, 0
        for i in range(level + 1):
            if i <= a.m and level - i <= b.m:
                out[i] = start
                start += na[i] * nb[level - i]
        return out, start

    boundaries = []
    for level in range(1, total + 1):
        col_off, width = offsets(level)
        row_off, height = offsets(level - 1)
        rows = [0] * height
        for i, start in col_off.items():
            j = level - i
            if i >= 1:
                for r, x in _entries(a.boundary(i)):
                    for y in range(nb[j]):
                        rows[row_off[i - 1] + r * nb[j] + y] |= 1 << (start + x * nb[j] + y)
            if j >= 1:
                for r, y in _entries(b.boundary(j)):
                    for x in range(na[i]):
                        rows[row_off[i] + x * nb[j - 1] + r] |= 1 << (start + x * nb[j] + y)
        boundaries.append(BinMatrix(height, width, rows))
    return tuple(boundaries)


def ref_homology_ranks(boundaries):
    """k_j = n_j - rank A_j - rank A_{j+1}, every rank from ``ref_rank``."""
    ranks = [0] + [ref_rank(list(m.bits)) for m in boundaries] + [0]
    dims = [boundaries[0].rows] + [m.cols for m in boundaries]
    return tuple(n - ranks[j] - ranks[j + 1] for j, n in enumerate(dims))


def ref_composes_to_zero(boundaries):
    """Whether every consecutive product A_j A_{j+1} vanishes.

    Row i of the product is the XOR of the rows of A_{j+1} that row i of
    A_j selects, taken bit by bit.
    """
    for left, right in zip(boundaries, boundaries[1:]):
        if left.cols != right.rows:
            return False
        for i in range(left.rows):
            acc = 0
            for j in range(left.cols):
                if (left.bits[i] >> j) & 1:
                    acc ^= right.bits[j]
            if acc:
                return False
    return True


def ref_matmul(left: BinMatrix, right: BinMatrix):
    """Row words of ``left @ right``, entry by entry: bit k of row i is the
    parity of the j with (i, j) set in ``left`` and (j, k) set in ``right``."""
    out = []
    for i in range(left.rows):
        word = 0
        for k in range(right.cols):
            parity = 0
            for j in range(left.cols):
                parity ^= (left.bits[i] >> j) & (right.bits[j] >> k) & 1
            word |= parity << k
        out.append(word)
    return out


def ref_cochain(cx: ChainComplex) -> ChainComplex:
    """Transposed boundaries in reverse order; level j maps to level m - j.

    Each boundary is transposed by the local column scatter, not by the
    library's ``transpose``.
    """
    return ChainComplex([BinMatrix(b.cols, b.rows, mat_columns(b))
                         for b in reversed(cx.boundaries)])


def _entries(m: BinMatrix):
    """(row, column) of every set entry."""
    return [(i, j) for i in range(m.rows) for j in range(m.cols) if (m.bits[i] >> j) & 1]


def naive_level_distance(cx: ChainComplex, j: int):
    """Naive oracle applied to a complex level (use only for small n_j)."""
    parity = list(cx.boundary(j).bits)
    image_cols = mat_columns(cx.boundary(j + 1))
    return naive_distance(parity, cx.dim(j), image_cols)


# --- fixed instances --------------------------------------------------------

def from_rows(rows) -> BinMatrix:
    """The matrix with these 0/1 row lists, at least one."""
    rows = [list(row) for row in rows]
    cols = len(rows[0])
    assert all(len(row) == cols and set(row) <= {0, 1} for row in rows), rows
    return BinMatrix(len(rows), cols, [sum(b << j for j, b in enumerate(row)) for row in rows])


def from_string(text: str) -> BinMatrix:
    """The matrix with rows of 0/1 characters separated by whitespace, e.g. ``"110 011"``."""
    return from_rows([int(ch) for ch in tok] for tok in text.split())


# --- random instances -------------------------------------------------------

def random_matrix(rng: random.Random, rows, cols, density=0.5):
    bits = []
    for _ in range(rows):
        b = 0
        for j in range(cols):
            if rng.random() < density:
                b |= 1 << j
        bits.append(b)
    return BinMatrix(rows, cols, bits)


def random_sparse(rng: random.Random, rows, cols, col_weight=2, row_weight=3):
    """Random matrix with column weights <= col_weight and row weights <= row_weight."""
    row_fill = [0] * rows
    bits = [0] * rows
    for j in range(cols):
        w = rng.randint(0, min(col_weight, rows))
        candidates = [i for i in range(rows) if row_fill[i] < row_weight]
        rng.shuffle(candidates)
        for i in candidates[:w]:
            bits[i] |= 1 << j
            row_fill[i] += 1
    return BinMatrix(rows, cols, bits)


def random_full_row_rank(rng: random.Random, rows, cols, density=0.5):
    """Random full-row-rank matrix with rows < cols (draws until rank hits rows)."""
    assert rows < cols
    while True:
        m = random_matrix(rng, rows, cols, density)
        if ref_rank(list(m.bits)) == rows:
            return m


def random_rank_deficient(rng: random.Random, rows, cols, density=0.5):
    """Random matrix whose rank is strictly below its row count."""
    while True:
        m = random_matrix(rng, rows, cols, density)
        if 0 < ref_rank(list(m.bits)) < rows:
            return m


def random_complex(rng: random.Random, m=2, max_dim=8, density=0.5,
                   min_dim=1) -> ChainComplex:
    """Random valid complex built by chaining kernels from right to left.

    Picks A_m at random, then repeatedly draws rows from the left-kernel of
    the previous matrix, so consecutive products always vanish.  Level
    dimensions are drawn from ``min_dim..max_dim``.
    """
    n_right = rng.randint(min_dim, max_dim)
    n_left = rng.randint(min_dim, max_dim)
    boundaries = [random_matrix(rng, n_left, n_right, density)]
    for _ in range(m - 1):
        right = boundaries[0]
        # Rows orthogonal to all columns of `right` form the span of this basis.
        kernel_rows, _ = ref_echelon(
            _kernel_of_columns(list(right.bits), right.rows))
        n_new = rng.randint(min_dim, max_dim)
        bits = []
        for _ in range(n_new):
            b = 0
            for r in kernel_rows:
                if rng.random() < 0.5:
                    b ^= r
            bits.append(b)
        boundaries.insert(0, BinMatrix(n_new, right.rows, bits))
    return ChainComplex(boundaries)


def _kernel_of_columns(rows, nrows):
    """Basis of {x : x @ M = 0} for a row-bitset matrix M with nrows rows."""
    cols = columns_as_masks(rows)
    # Solve M^T x = 0 by eliminating the columns (now rows of M^T).
    reduced, pivots = ref_echelon(cols)
    pivot_set = set(pivots)
    basis = []
    for f in range(nrows):
        if f in pivot_set:
            continue
        v = 1 << f
        for p, r in zip(pivots, reduced):
            if (r >> f) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def random_product_complex(rng: random.Random, n_factors=2, max_dim=3) -> ChainComplex:
    """Product of random sparse two-space complexes."""
    factors = []
    for _ in range(n_factors):
        r = rng.randint(1, max_dim)
        c = rng.randint(1, max_dim + 1)
        factors.append(one_complex(random_sparse(rng, r, c, 2, 3)))
    cx = factors[0]
    for f in factors[1:]:
        cx = tensor_product(cx, f)
    return cx
