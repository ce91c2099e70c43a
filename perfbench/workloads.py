"""The four seeded workloads: inputs, the timed step, and the output checks.

Every workload draws its inputs (Gallager seeds, the toric relabeling) from
one ``random.Random`` keyed by the workload name and ``--seed``; homprod
only ever sees the generated inputs.  A workload object goes through

    setup()                      build the inputs (timed as set-up)
    reference()                  untimed oracle values for the checks
    ctx = fresh()                untimed per-iteration state (temp dirs)
    out = step(ctx)              the timed operation
    check(ctx, out)              list of (operation, message) misses
    discard(ctx)                 untimed clean-up

Checks use ``oracle`` (no homprod code) and never the timed code path.
Library calls go through module attributes (``products.power_complex``)
so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import tempfile
from pathlib import Path

import homprod.cli
from homprod import codes, distance, products
from homprod.complexes import ChainComplex
from homprod.gf2 import BinMatrix

import oracle


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}")


def _gallager_seed(rng: random.Random, col_weight: int, row_weight: int, cols: int) -> int:
    """A Gallager seed whose matrix has the ensemble's largest rank.

    Each of the ``col_weight`` strips sums to the all-ones row, so the rank
    is at most rows - col_weight + 1.  A seed below that changes the
    homology dimensions and the work per step, so it is redrawn: every
    ``--seed`` then gives a workload of the same shape.
    """
    rows = col_weight * cols // row_weight
    while True:
        seed = rng.randrange(2**31)
        matrix = oracle.gallager_rows(col_weight, row_weight, cols, seed)
        if oracle.rank(oracle.bits(r) for r in matrix) == rows - col_weight + 1:
            return seed


def _parity(x: int) -> int:
    return x.bit_count() & 1


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """One in-process ``homprod`` command: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = homprod.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


class Workload:
    """One workload at full size, or at its tiny size when ``smoke`` is true."""

    name = ""
    operations: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.scratch = scratch
        self.rng = _rng(self.name, seed)
        self.quality: dict[str, float] = {}

    def describe(self) -> dict:
        return {}

    def setup(self) -> None:
        pass

    def reference(self) -> None:
        pass

    def fresh(self):
        return None

    def step(self, ctx):
        raise NotImplementedError

    def check(self, ctx, out) -> list[tuple[str, str]]:
        raise NotImplementedError

    def discard(self, ctx) -> None:
        pass


class Homology4D(Workload):
    """Elimination dominates; product assembly and validation come next.

    The seed is gallager(2,3,6), dims (576, 2496, 3856, 2496, 576), about
    1.2 s a step.  The gallager(2,4,8) complex (dims up to 8448, about 8 s a
    step) gave 3 samples a run, and the medians of 10 runs spread by 11%:
    its elimination is memory-bound and slows in bursts when the machine is
    shared.  Many short samples let the median skip the bursts.
    """

    name = "homology-4d"
    operations = ("homology_ranks",)

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.shape = (2, 4, 4) if smoke else (2, 3, 6)
        self.gallager_seed = _gallager_seed(self.rng, *self.shape)

    def describe(self):
        return {"gallager": list(self.shape), "gallager_seed": self.gallager_seed, "a": 2, "b": 2}

    def setup(self):
        self.p = codes.gallager_matrix(*self.shape, seed=self.gallager_seed)

    def reference(self):
        r = oracle.rank(self.p.bits)
        self.dims, self.ranks = oracle.power_kunneth(self.p.rows, self.p.cols, r, 2, 2)

    def step(self, ctx):
        # A new complex every time, so its rank cache starts empty.
        cx = products.power_complex(self.p, 2, 2)
        return cx.dims, cx.homology_ranks()

    def check(self, ctx, out):
        dims, ranks = out
        misses = []
        if list(dims) != self.dims:
            misses.append(("homology_ranks", f"dims {list(dims)} != Kunneth {self.dims}"))
        if list(ranks) != self.ranks:
            misses.append(("homology_ranks", f"ranks {list(ranks)} != Kunneth {self.ranks}"))
        return misses


class DistanceToric(Workload):
    """The Gray walk dominates; elimination is negligible."""

    name = "distance-toric"
    operations = ("homological_distance",)

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch)
        self.size = 4 if smoke else 5
        n1 = 2 * self.size * self.size
        self.perm = self.rng.sample(range(n1), n1)

    def describe(self):
        return {"toric_L": self.size, "relabeling": self.perm}

    def setup(self):
        base = products.power_complex(codes.repetition_circulant(self.size), 1, 1)
        a1, a2 = base.boundaries
        perm = self.perm
        # Qubit q becomes perm[q]: columns of A1 and rows of A2 move together.
        a1_rows = []
        for row in a1.bits:
            a1_rows.append(oracle.bits(perm[q] for q in range(a1.cols) if (row >> q) & 1))
        a2_rows = [0] * a2.rows
        for q, row in enumerate(a2.bits):
            a2_rows[perm[q]] = row
        self.a1 = BinMatrix(a1.rows, a1.cols, a1_rows)
        self.a2 = BinMatrix(a2.rows, a2.cols, a2_rows)
        self.cx = ChainComplex((self.a1, self.a2))

    def reference(self):
        a2_cols = [0] * self.a2.cols
        for q, row in enumerate(self.a2.bits):
            for k in range(self.a2.cols):
                if (row >> k) & 1:
                    a2_cols[k] |= 1 << q
        self.boundaries = oracle.Span(a2_cols)
        self.kernel_dim = self.a1.cols - oracle.rank(self.a1.bits)

    def step(self, ctx):
        return distance.homological_distance(self.cx, 1)

    def check(self, ctx, out):
        op = "homological_distance"
        misses = []
        L = self.size
        value = out.value
        if not value.is_finite or value.finite_value != L:
            misses.append((op, f"distance {value} != {L}"))
        w = out.witness
        if w is None or w.bit_count() != L:
            misses.append((op, f"witness weight is not {L}"))
        elif any(_parity(row & w) for row in self.a1.bits):
            misses.append((op, "witness is not a cycle"))
        elif w in self.boundaries:
            misses.append((op, "witness is a boundary"))
        if out.enumerated != 2**self.kernel_dim - 1 or self.kernel_dim != L * L + 1:
            misses.append((op, f"enumerated {out.enumerated} != 2^{L * L + 1} - 1"))
        return misses


def _read_bundle(path: Path, m: int) -> list[oracle.Alist]:
    return [oracle.read_alist(path / f"A{j}.alist") for j in range(1, m + 1)]


class _CliWorkload(Workload):
    """Shared pieces of the two workloads that drive ``homprod.cli.main``."""

    def __init__(self, seed, smoke, scratch, ensemble):
        super().__init__(seed, smoke, scratch)
        self.ensemble = ensemble
        self.gallager_seed = _gallager_seed(self.rng, *ensemble)

    @property
    def spec(self) -> str:
        return "gallager:" + ",".join(str(x) for x in self.ensemble)

    def reference(self):
        self.p_rows = oracle.gallager_rows(*self.ensemble, self.gallager_seed)
        self.p_cols = self.ensemble[2]
        self.p_rank = oracle.rank(oracle.bits(r) for r in self.p_rows)

    def fresh(self):
        return Path(tempfile.mkdtemp(prefix=self.name + "-", dir=self.scratch))

    def discard(self, ctx):
        shutil.rmtree(ctx, ignore_errors=True)

    def _exit_codes(self, out, allowed) -> list[tuple[str, str]]:
        misses = []
        for (cmd, code, _stdout, stderr), ok in zip(out, allowed):
            if code not in ok:
                misses.append((cmd, f"exit code {code} not in {sorted(ok)}: {stderr.strip()}"))
        if len(out) != len(allowed):
            misses.append(("pipeline", f"{len(out)} of {len(allowed)} commands ran"))
        return misses

    def _check_seed(self, bundle: Path) -> list[tuple[str, str]]:
        seed = oracle.read_alist(bundle / "seed.alist")
        if seed.rows != self.p_rows or seed.ncols != self.p_cols:
            return [("power", "seed.alist differs from the seeded Gallager matrix")]
        return []

    def _check_css(self, css: Path, gx_digest: str, gz_digest: str) -> list[tuple[str, str]]:
        gx = oracle.read_alist(css / "gx.alist")
        gz = oracle.read_alist(css / "gz.alist")
        misses = []
        if oracle.digest(gx.rows) != gx_digest or oracle.digest(gz.rows) != gz_digest:
            misses.append(("export-css", "G_X / G_Z differ from the bundle boundaries"))
        if not oracle.product_is_zero(gx.rows, gz.cols):
            misses.append(("export-css", "G_X G_Z^T != 0"))
        return misses


class CliPipeline(_CliWorkload):
    """The path users run: elimination, walk, I/O and reports mixed.

    At c = 36 every product-level kernel has dimension at least 40 (the
    seed's three row strips each sum to all-ones, so its rank is at most
    16), above the default cap of 28 for any seed: ``distance`` never walks,
    and ``verify`` walks only the seed's own kernel, 2^(36 - rank) steps.
    """

    name = "cli-pipeline"
    operations = ("power", "analyze", "distance", "verify", "export-css")

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch, (3, 6, 12) if smoke else (3, 6, 36))
        # The smoke size has kernels under the default cap; a small cap keeps
        # its walks short.  The full size uses the CLI defaults.
        self.cap = ["--cap", "12"] if smoke else []

    def describe(self):
        return {"ensemble": self.spec, "gallager_seed": self.gallager_seed, "a": 1, "b": 1,
                "cap": self.cap[1] if self.cap else "default"}

    def reference(self):
        super().reference()
        self.dims, self.ranks = oracle.power_kunneth(
            len(self.p_rows), self.p_cols, self.p_rank, 1, 1)

    def step(self, tmp):
        bundle, css = str(tmp / "bundle"), str(tmp / "css")
        commands = [
            ["power", "--ensemble", self.spec, "--a", "1", "--b", "1",
             "--seed", str(self.gallager_seed), "--out", bundle],
            ["analyze", bundle],
            ["distance", bundle, "--threads", "1"] + self.cap,
            ["verify", bundle, "--threads", "1"] + self.cap,
            ["export-css", bundle, "--level", "1", "--out", css],
        ]
        out = []
        for argv in commands:
            out.append((argv[0],) + run_cli(argv))
            if out[-1][1] not in (0, 3):
                break
        return out

    def check(self, tmp, out):
        misses = self._exit_codes(out, ({0}, {0}, {0, 3}, {0}, {0}))
        if misses:
            return misses
        bundle = tmp / "bundle"
        misses += self._check_seed(bundle)
        mats = _read_bundle(bundle, len(self.dims) - 1)
        analyze = json.loads(out[1][2])
        if analyze["dims"] != self.dims or [e["k"] for e in analyze["levels"]] != self.ranks:
            misses.append(("analyze", "dims or homology ranks differ from Kunneth"))
        misses += self._check_distance(json.loads(out[2][2]), mats)
        verify_lines = out[3][2].strip().splitlines()
        if not verify_lines or not verify_lines[-1].endswith(" violations=0"):
            misses.append(("verify", f"verify reported {verify_lines[-1:]}"))
        misses += self._check_css(tmp / "css", oracle.digest(mats[0].rows),
                                  oracle.digest(mats[1].cols))
        return misses

    def _check_distance(self, report: dict, mats: list[oracle.Alist]) -> list[tuple[str, str]]:
        op = "distance"
        misses = []
        m = len(mats)
        rows = [None] + [[oracle.bits(r) for r in a.rows] for a in mats]
        cols = [None] + [[oracle.bits(c) for c in a.cols] for a in mats]
        exact_sides, bound_gap = 0, 0
        levels = report["levels"]
        if [e["j"] for e in levels] != list(range(m + 1)):
            misses.append((op, "report does not cover every level"))
        for entry in levels:
            j, k = entry["j"], entry["k"]
            if k != self.ranks[j] or entry["n"] != self.dims[j]:
                misses.append((op, f"level {j}: n or k differs from Kunneth"))
            for side_name in ("homology", "cohomology"):
                side = entry[side_name]
                lower, upper = side["lower"], side["upper"]
                if not side["exact"]:
                    if lower == "inf" or (upper != "inf" and lower > upper):
                        misses.append((op, f"level {j} {side_name}: [{lower}, {upper}]"))
                    else:
                        bound_gap += (float("inf") if upper == "inf" else upper) - lower
                    continue
                exact_sides += 1
                d = side["d"]
                if not lower == upper == d:
                    misses.append((op, f"level {j} {side_name}: exact but [{lower}, {upper}]"))
                elif d == "inf":
                    if k != 0 or side["witness"] is not None:
                        misses.append((op, f"level {j}: infinite distance with k = {k}"))
                elif not self._witness_ok(side["witness"], d, j, side_name, rows, cols, m):
                    misses.append((op, f"level {j} {side_name}: witness fails re-check"))
        self.quality = {"exact_sides": exact_sides, "bound_gap": bound_gap}
        return misses

    @staticmethod
    def _witness_ok(text, d, j, side_name, rows, cols, m) -> bool:
        if text is None:
            return False
        w = int(text[::-1], 2)
        if w.bit_count() != d:
            return False
        if side_name == "homology":
            # A_j w = 0 and w outside the column span of A_{j+1}.
            cycle = j == 0 or not any(_parity(r & w) for r in rows[j])
            image = oracle.Span(cols[j + 1]) if j < m else oracle.Span()
        else:
            # A_{j+1}^T w = 0 and w outside the row span of A_j.
            cycle = j == m or not any(_parity(c & w) for c in cols[j + 1])
            image = oracle.Span(rows[j]) if j >= 1 else oracle.Span()
        return cycle and w not in image


class BundleIO(_CliWorkload):
    """alist and bundle writes, reads and load-time validation; no elimination, no walk."""

    name = "bundle-io"
    operations = ("power", "export-css", "build")

    def __init__(self, seed, smoke, scratch):
        super().__init__(seed, smoke, scratch, (2, 4, 4) if smoke else (3, 4, 8))

    def describe(self):
        return {"ensemble": self.spec, "gallager_seed": self.gallager_seed, "a": 2, "b": 2,
                "css_level": 2}

    def reference(self):
        super().reference()
        ref = oracle.power(self.p_rows, self.p_cols, 2, 2)
        self.dims = list(ref.dims)
        # Digests of each boundary's rows and columns; the whole reference
        # complex would add tens of MB to the run's peak RSS.
        self.expected = [(oracle.digest(ref.boundary_rows(j)), oracle.digest(ref.boundaries[j - 1]))
                         for j in range(1, ref.m + 1)]

    def step(self, tmp):
        bundle, css, rebuilt = str(tmp / "bundle"), str(tmp / "css"), str(tmp / "rebuilt")
        matrices = []
        for j in range(1, 5):
            matrices += ["--matrix", f"{bundle}/A{j}.alist"]
        commands = [
            ["power", "--ensemble", self.spec, "--a", "2", "--b", "2",
             "--seed", str(self.gallager_seed), "--out", bundle],
            ["export-css", bundle, "--level", "2", "--out", css],
            ["build"] + matrices + ["--out", rebuilt],
        ]
        out = []
        for argv in commands:
            out.append((argv[0],) + run_cli(argv))
            if out[-1][1] != 0:
                break
        return out

    def check(self, tmp, out):
        misses = self._exit_codes(out, ({0}, {0}, {0}))
        if misses:
            return misses
        misses += self._check_seed(tmp / "bundle")
        for j, (rows, _cols) in enumerate(self.expected, start=1):
            # read_alist checks that the columns agree with the rows.
            got = oracle.read_alist(tmp / "rebuilt" / f"A{j}.alist")
            if oracle.digest(got.rows) != rows:
                misses.append(("build", f"rebuilt A{j} differs from the reference complex"))
        with open(tmp / "rebuilt" / "manifest.json", encoding="utf-8") as fh:
            if json.load(fh)["dims"] != self.dims:
                misses.append(("build", "manifest dims differ from the reference complex"))
        # Level 2: G_X = A_2, G_Z = A_3^T, whose rows are the columns of A_3.
        misses += self._check_css(tmp / "css", self.expected[1][0], self.expected[2][1])
        return misses


WORKLOADS = {w.name: w for w in (Homology4D, DistanceToric, CliPipeline, BundleIO)}
