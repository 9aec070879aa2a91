"""Hard dataset family for binary logistic regression.

The data matrix is built from a bidiagonal-plus-corner operator W of size
k x k: row i (1-based, i < k) holds -1 at column k-i and +1 at column
k-i+1, and row k holds a single +1 at column 1.  W is symmetric, maps the
all-ones vector to the last basis vector, and maps c*(1,2,...,k) to c*1.

Two stacked-block variants are provided, named by the exact strings of
``VARIANTS``:

- ``fourblock``: A = (2*sigma*W; -2*zeta*W; -2*sigma*W; 2*zeta*W) with
  labels (+1; +1; -1; -1), so the optimal intercept is zero (the two
  label classes are mirror images of each other).
- ``twoblock``: A = (2*sigma*W; 2*zeta*W) with labels (+1; -1): half
  the rows, same W structure, and half the four-block loss at every x
  (h is even and the blocks pair up by |s| and s*l).  Its f* holds for a
  fit without an intercept: with one the data are separable (at
  x = c*(1, ..., k), W x = c*1, and any intercept in (-2 sigma c,
  -2 zeta c) classifies every row), so the loss has no minimizer.

A ``RotatedInstance`` is a ``WorstCaseInstance`` with data matrix A U for
an orthogonal U held as a ``Rotation``, the product of its Householder
reflectors in compact WY form: the same k, sigma, zeta, blocks, labels and
||A||, with block W U in place of W.  ``logloss.loss`` applies W by its
index structure in O(k) and U in O(jk) for j reflectors; W U's rows are
built one way, a chunk at a time by ``w_rows``, and only ``dense()`` builds
U or the N x k matrix.

``export`` is the one writer of a dataset and its ``.meta.json`` sidecar, a
chunk of rows at a time with no k x k array: a block whose U holds no
reflector (every base instance) is s * W, written from W's closed form; one
whose U holds one is read by ``w_rows``, its libsvm written by the token
writer and its csv by the one row-delta writer of every rotated CSV, U's
(``resist.save_matrix_csv``) included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

CHUNK_CELLS = 1 << 15  # entries of a block, or of U, a writer holds; a libsvm row of W holds 2
VARIANTS = ("fourblock", "twoblock")
FORMATS = ("csv", "libsvm")


@dataclass(frozen=True)
class WOperator:
    """The k x k two-nonzeros-per-row operator, stored implicitly."""

    k: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W @ x (= W.T @ x), x of shape (k,) or (k, m): one subtraction per entry."""
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != (self.k,) or x.ndim > 2:
            raise ValueError(f"dimension mismatch: expected ({self.k},), got {x.shape}")
        return _w_into(x, np.empty_like(x))  # in x's layout, so each row of a stack is contiguous

    def dense(self) -> np.ndarray:
        return self.apply(np.eye(self.k))


def _w_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """W @ x for x of shape (k,) or (k, m), written into ``out`` of x's
    shape and returned: the one copy of W's arithmetic, for
    ``WOperator.apply`` and for the loss kernel's margins, which it writes
    into an oracle's kept temporaries."""
    # row i (0-based, i < k-1): x[k-1-i] - x[k-2-i]; row k-1: x[0]
    np.subtract(x[:0:-1], x[-2::-1], out[:-1])
    out[-1] = x[0]
    return out


def build_w(k: int) -> WOperator:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"invalid dimension: k must be a positive integer, got {k!r}")
    return WOperator(int(k))


def _wy_update(x: np.ndarray, V: np.ndarray, M: np.ndarray) -> np.ndarray:
    """x - ((x V') M) V as a new array, for x of shape (k,) or a stack of rows."""
    out = np.array(x, dtype=float)
    if len(V):
        out -= ((out @ V.T) @ M) @ V
    return out


class Rotation:
    """An orthogonal k x k matrix U kept as the product of the Householder
    reflectors taken so far, in compact WY form (Schreiber & Van Loan 1989).

    Reflector i is H_i = I - beta_i v_i v_i' and U = H_{j-1} ... H_1 H_0,
    the newest on the left.  Row i of ``V`` is v_i, zero beyond the leading
    coordinates it acts on, and ``triangular`` is the j x j upper-triangular
    factor T with U = I - V' T' V and U' = I - V' T V; its diagonal holds
    the beta_i.
    ``apply`` and ``apply_t`` take a vector or a stack of rows (a row x
    becomes U x, so a stack X becomes X U') in O(jk) per row, and with no
    reflector return a copy.  ``row_blocks`` gives rows of U, with the same
    bits under any partition; ``dense()`` is the one block of all k rows.
    """

    def __init__(self, k: int):
        self.k = int(k)
        self._V = np.zeros((0, self.k))  # rows beyond len(self) are spare capacity
        self._T = np.zeros((0, 0))
        self._n = 0

    def __len__(self) -> int:
        return self._n

    @property
    def V(self) -> np.ndarray:
        return self._V[: self._n]

    @property
    def triangular(self) -> np.ndarray:
        return self._T[: self._n, : self._n]

    def append(self, v: np.ndarray) -> None:
        """U <- H U for H = I - beta v v' with beta = 2/(v'v), v acting on the
        leading len(v) coordinates: one row of V, amortised O(k) by doubling
        the capacity, and one column of T, -beta T (V v), in O(jk).  H does
        not depend on the scale of v, but v'v must not over- or underflow:
        the adversary passes v with its largest entry near 1.  Unless v'v and
        beta are positive finite doubles and T's new column is finite (two
        tiny reflectors can overflow it), raises ValueError and leaves U."""
        v = np.asarray(v, dtype=float)
        n, m = self._n, v.shape[0]
        if v.ndim != 1 or not 0 < m <= self.k:
            raise ValueError(
                f"dimension mismatch: reflector of shape {v.shape} in dimension {self.k}"
            )
        vv = float(np.vdot(v, v))  # v @ v's BLAS dot, with no overflow warning
        if not (0.0 < vv < math.inf and 2.0 / vv < math.inf):
            raise ValueError(f"invalid reflector: v'v = {vv!r}; v'v and 2/(v'v) must be finite > 0")
        if n == len(self._V):
            cap = max(1, 2 * n)
            V, T = np.zeros((cap, self.k)), np.zeros((cap, cap))
            V[:n], T[:n, :n] = self.V, self.triangular
            self._V, self._T = V, T
        beta = 2.0 / vv
        self._V[n, :m] = v
        with np.errstate(over="ignore", invalid="ignore"):
            column = -beta * (self.triangular @ (self.V @ self._V[n]))
        if not np.isfinite(column).all():
            self._V[n] = 0.0
            raise ValueError("invalid reflector: its column of T is not finite")
        self._T[:n, n] = column
        self._T[n, n] = beta
        self._n = n + 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        """U x, or X U' for a stack of rows X."""
        return _wy_update(x, self.V, self.triangular)

    def apply_t(self, g: np.ndarray) -> np.ndarray:
        """U' g, or G U for a stack of rows G."""
        return _wy_update(g, self.V, self.triangular.T)

    def apply_newest(self, y: np.ndarray) -> np.ndarray:
        """H y for the newest reflector H alone, by the arithmetic ``apply``
        uses: after the first reflector, apply(x) == apply_newest(x) bit for
        bit."""
        n = self._n
        return _wy_update(y, self._V[n - 1 : n], self._T[n - 1 : n, n - 1 : n])

    def row_blocks(self, bounds):
        """U[lo:hi] for each (lo, hi) of ``bounds`` in turn: (T V)[:, lo:hi]' V
        by one GEMM, T V formed once, then 0 minus that and +1 on the
        diagonal.  A row has the same bits under any partition of the rows;
        ``dense()`` is the one block.  A one-row block is computed beside a
        neighbouring row, since numpy takes a one-row product by GEMV, whose
        sums may round differently.  A block is released before the next
        one's GEMM, so a caller that drops it holds one block at a time."""
        k, V = self.k, self.V
        TV = self.triangular @ V
        for lo, hi in bounds:
            a, b = lo, hi
            if b - a == 1 and k > 1:
                a, b = (a, b + 1) if b < k else (a - 1, b)
            U = np.matmul(TV[:, a:b].T, V)
            np.subtract(0.0, U, out=U)  # 0 - (+-0) is +0, so exact zeros stay +0
            r = np.arange(a, b)
            U[r - a, r] += 1.0
            yield U[lo - a : hi - a]
            del U

    def dense(self) -> np.ndarray:
        """U = I - (V' T') V, the one block of ``row_blocks`` with every row."""
        return next(self.row_blocks([(0, self.k)]))


def _root_sum_sq(values, square) -> float:
    """sqrt(sum of square(v) over ``values``) at any scale, ``square`` the
    caller's rounding of v^2 (``v * v`` and ``v ** 2`` differ in the last
    bit).  The plain sum while every square is a normal number and the sum
    finite; else the sum over v * 2**-e, e the exponent of the largest |v|,
    so no square over- or underflows, its root scaled back by 2**e (inf
    past the largest double).  Powers of two scale v * v exactly, so with
    that rounding the two paths agree bit for bit wherever both apply."""
    try:
        sq = sum(map(square, values))
    except OverflowError:  # v ** 2 past the largest double
        sq = math.inf
    if min(map(abs, values)) >= 2.0**-511 and sq < math.inf:
        return math.sqrt(sq)
    e = math.frexp(max(map(abs, values)))[1]
    root = math.sqrt(sum(square(math.ldexp(v, -e)) for v in values))
    try:
        return math.ldexp(root, e)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, eq=False)
class WorstCaseInstance:
    """One dataset of the family: N x k data matrix A and labels b in {-1,+1}.

    ``block_scales`` holds the scalar multiple of W in each stacked block and
    ``block_labels`` the label shared by every row of that block, so
    A = vstack(s * W for s in block_scales) and b = concat(l * 1_k).
    """

    k: int
    sigma: float
    zeta: float
    variant: str  # one of VARIANTS
    w: WOperator = field(repr=False)
    block_scales: tuple = field(repr=False)
    block_labels: tuple = field(repr=False)

    @property
    def n_rows(self) -> int:
        return self.k * len(self.block_scales)

    @property
    def labels(self) -> np.ndarray:
        """The label vector b, materialized."""
        return np.repeat(np.array(self.block_labels, dtype=float), self.k)

    def w_block(self) -> np.ndarray:
        return self.w.dense()

    def dense(self) -> np.ndarray:
        wb = self.w_block()
        return np.vstack([s * wb for s in self.block_scales])

    def a_norm(self) -> float:
        """||A||, exactly: 2*sqrt(sum s_i^2)*cos(pi/(2k+1)).

        A'A = (sum s_i^2) W'W, and W'W is tridiag(-1, [2,...,2,1], -1), whose
        largest eigenvalue is 4*cos(pi/(2k+1))^2.
        """
        root = _root_sum_sq(self.block_scales, lambda s: s * s)
        return 2.0 * root * float(np.cos(np.pi / (2 * self.k + 1)))

    def spectral_norm_bound(self) -> float:
        """Closed-form upper bound on ||A|| from the row structure."""
        base = 2.0 * _root_sum_sq((self.sigma, self.zeta), lambda v: v**2)
        if self.variant == "fourblock":
            return math.sqrt(2.0) * 2.0 * base  # 4*sqrt(2(sigma^2+zeta^2))
        return 2.0 * base


@dataclass(frozen=True, eq=False, init=False)
class RotatedInstance(WorstCaseInstance):
    """The same member of the family with its feature space rotated by an
    orthogonal U: data matrix A U, labels b.  U fixes nothing the family is
    defined by, so k, sigma, zeta, the blocks and ||A|| are the base
    instance's; the k x k block is W U instead of W, so ``dense()`` is A U.

    ``RotatedInstance(inst, U)`` copies the family fields of ``inst`` and
    takes the ``Rotation`` U, so rotating a rotated instance replaces its U;
    it builds nothing.  ``w_rows`` builds W U a chunk of rows at a time, and
    ``w_block()`` is its one block.
    """

    U: Rotation = field(repr=False)

    def __init__(self, base: WorstCaseInstance, U: Rotation):
        if U.k != base.k:
            raise ValueError(
                f"dimension mismatch: U must be ({base.k},{base.k}), got ({U.k},{U.k})"
            )
        super().__init__(**{f.name: getattr(base, f.name) for f in fields(WorstCaseInstance)})
        object.__setattr__(self, "U", U)

    def w_block(self) -> np.ndarray:
        """W U, the one block of ``w_rows`` with every row."""
        return next(self.w_rows([(0, self.k)]))

    def w_rows(self, bounds):
        """Rows lo..hi-1 of W U for each (lo, hi) of ``bounds`` in turn, from
        the rows of U they need (row i < k-1 is U[k-1-i] - U[k-2-i], row k-1
        is U[0]): a row has the same bits under any partition, and no k x k
        array is built for fewer rows.  Neither those rows nor the chunk are
        held here once it is yielded."""
        k, bounds = self.k, list(bounds)
        needed = self.U.row_blocks([(max(k - 1 - hi, 0), k - lo) for lo, hi in bounds])
        for lo, hi in bounds:
            u = next(needed)[::-1]  # u[n] is U[k-1-lo-n]
            m = min(hi, k - 1) - lo  # rows that are a difference
            wu = [np.empty((hi - lo, k))]
            np.subtract(u[:m], u[1 : m + 1], out=wu[0][:m])
            wu[0][m:] = u[m : hi - lo]  # row k-1, if in this chunk
            del u
            yield wu.pop()


def build_instance(
    k: int, sigma: float, zeta: float, variant: str = "fourblock"
) -> WorstCaseInstance:
    """Construct an instance of the family; requires sigma > zeta > 0 with
    the block scale 2*sigma a finite double, and ``variant`` one of
    ``VARIANTS`` exactly."""
    w = build_w(k)
    sigma = float(sigma)
    zeta = float(zeta)
    if not (zeta > 0.0) or not (sigma > zeta) or not math.isfinite(2.0 * sigma):
        raise ValueError(
            "invalid parameters: need sigma > zeta > 0 with 2*sigma finite, "
            f"got sigma={sigma}, zeta={zeta}"
        )
    if variant == "fourblock":
        scales = (2.0 * sigma, -2.0 * zeta, -2.0 * sigma, 2.0 * zeta)
        labels = (1.0, 1.0, -1.0, -1.0)
    elif variant == "twoblock":
        scales = (2.0 * sigma, 2.0 * zeta)
        labels = (1.0, -1.0)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    return WorstCaseInstance(
        k=int(k), sigma=sigma, zeta=zeta, variant=variant,
        w=w, block_scales=scales, block_labels=labels,
    )


def _row_bounds(k: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) of each chunk of a k-row array whose rows hold ``width``
    entries: as many rows as hold ``CHUNK_CELLS`` entries, and at least one."""
    step = max(1, CHUNK_CELLS // width)
    return [(lo, min(lo + step, k)) for lo in range(0, k, step)]


def _chunks(inst: RotatedInstance, bounds):
    """(lo, hi, rows, cols, vals) of the nonzeros of W U's rows lo..hi-1,
    in row-major order, for each (lo, hi) of ``bounds`` read by ``w_rows``,
    each run of consecutive chunks whose nonzeros total at most
    ``CHUNK_CELLS // 8`` joined into one.  A chunk is never split, and one
    that reaches the budget goes out at once, so at most the budget of
    nonzeros waits for the next read."""
    run, count, budget, hi = [], 0, CHUNK_CELLS // 8, 0
    for wu in inst.w_rows(bounds):
        lo, hi = hi, hi + len(wu)
        rows, cols = np.nonzero(wu)
        vals = wu[rows, cols]
        rows += lo
        del wu  # not held while the caller formats the run
        if run and count + len(vals) > budget:
            yield _join(run)
            run, count = [], 0
        run.append((lo, hi, rows, cols, vals))
        count += len(vals)
        if count >= budget:
            yield _join(run)
            run, count = [], 0
    if run:
        yield _join(run)


def _join(run):
    if len(run) == 1:
        return run[0]
    return (run[0][0], run[-1][1], *(np.concatenate(part) for part in list(zip(*run))[2:]))


def _w_texts(inst: WorstCaseInstance, libsvm: bool):
    """The text of each block's rows s * W from W's closed form, a chunk at
    a time.  libsvm fills one index skeleton a chunk with the block's label
    L, -s and s: row i < k-1 reads "L (k-1-i):-s (k-i):s", row k-1 "L 1:s".
    A csv row i < k-1 is k-2-i zero cells, "-s,s," and i zero cells: a
    slice of one run of them, whose tail, "s," and k-1 zeros, is row k-1."""
    k, bounds = inst.k, _row_bounds(inst.k, 2 if libsvm else inst.k)
    skeletons = []  # "\0", "\1" and "\2" stand for L, -s and s
    for lo, hi in bounds if libsvm else ():  # row i < k-1 holds columns k-1-i and k-i
        pairs = np.arange(k - 1 - lo, max(k - 1 - hi, 0), -1)[:, None] + (0, 1)
        skeletons.append(("\0 %d:\1 %d:\2\n" * len(pairs)) % tuple(pairs.ravel().tolist())
                         + "\0 1:\2\n" * (hi == k))
    for s, label in zip(inst.block_scales, inst.block_labels):
        neg, pos = "%.17g" % -s, "%.17g" % s  # -s is s * -1.0, bit for bit
        if libsvm:
            yield from (sk.replace("\0", "%d" % label).replace("\1", neg).replace("\2", pos)
                        for sk in skeletons)
            continue
        zero, end = "%.17g," % (s * 0.0), "%d\n" % label  # s * 0.0 is "-0" where s < 0
        run = f"{zero * (k - 1)}{neg},{pos},{zero * (k - 1)}"
        z, width = len(zero), (k - 2) * len(zero) + len(neg) + len(pos) + 2
        for lo, hi in bounds:
            rows = [run[(i + 1) * z : (i + 1) * z + width] for i in range(lo, min(hi, k - 1))]
            yield end.join(rows + [run[(k - 1) * z + len(neg) + 1 :]] * (hi == k)) + end


def _libsvm_texts(inst: RotatedInstance):
    """The libsvm text of each block's rows s * (W U), a ``_chunks`` run at a
    time (read once for all blocks if the nonzeros fit in one chunk): its
    distinct values, told apart by their bits, formatted once and joined
    with the label, the column heads and the newlines; values s * w that
    underflow to zero are dropped."""
    k, bounds = inst.k, _row_bounds(inst.k, inst.k)
    heads = np.array([" %d:" % (j + 1) for j in range(k)], dtype=object)
    held = None  # the block's nonzeros, once read, if they fit in a chunk
    for s, label in zip(inst.block_scales, inst.block_labels):
        chunks = held or _chunks(inst, bounds)
        held, size = [], 0
        for chunk in chunks:
            lo, hi, rows, cols, w = chunk
            size += len(w)
            held = held + [chunk] if size <= CHUNK_CELLS else None
            vals = s * w
            if not (keep := vals != 0.0).all():  # s * w may underflow
                rows, cols, vals = rows[keep], cols[keep], vals[keep]
            n, h = len(vals), hi - lo
            starts = np.searchsorted(rows, np.arange(lo, hi + 1))
            # row r: its label, a (head, value) pair per nonzero, then "\n"
            tokens = np.empty(2 * n + 2 * h, dtype=object)
            first = 2 * starts[:-1] + 2 * np.arange(h)
            at = 2 * np.arange(n) + 2 * (rows - lo) + 1
            tokens[first], tokens[at], tokens[first + 2 * np.diff(starts) + 1] = (
                "%d" % label, heads[cols], "\n")
            distinct, which = np.unique(vals.view(np.int64), return_inverse=True)
            texts = "%.17g\n" * len(distinct) % tuple(distinct.view(float).tolist())
            tokens[at + 1] = np.array(texts.splitlines(), dtype=object)[which]
            yield "".join(tokens.tolist())


def _write_rows(fh, blocks, end: str) -> None:
    """Write the rows of the 2-D ``blocks`` to ``fh`` as ``np.savetxt(fmt=
    "%.17g", delimiter=",")`` writes them, but ends each with ``end``.  A row
    formats only the cells whose bits differ from the row above (-0 differs
    from +0, equal NaN bits do not) and joins them with the cells it keeps,
    so it costs what changes in it; a row new in every cell is one
    template, split into cells only when a later row keeps some."""
    cells, above, line = None, None, ""
    for chunk in blocks:
        chunk = np.ascontiguousarray(chunk, dtype=float)
        k = chunk.shape[1]
        whole = ",".join(["%.17g"] * k) + end
        for row, bits in zip(chunk, chunk.view(np.int64)):
            changed = None if above is None else np.flatnonzero(bits != above)
            if changed is None or len(changed) == k:
                line, cells = whole % tuple(row.tolist()), None
            elif len(changed):
                if cells is None:
                    cells = line[: len(line) - len(end)].split(",")
                texts = (",".join(["%.17g"] * len(changed)) % tuple(row[changed].tolist())
                         ).split(",")
                for col, text in zip(changed.tolist(), texts):
                    cells[col] = text
                line = ",".join(cells) + end
            fh.write(line)
            above = bits


def export(inst: WorstCaseInstance, format: str, path, extra_meta: dict | None = None) -> Path:
    """Write the dataset to ``path`` in ``format`` and its metadata sidecar
    beside it; return the sidecar's path, ``path`` + ".meta.json".

    - ``csv``: header feature_1..feature_k,label; one dense row per datum.
    - ``libsvm``: sparse "label idx:val" lines (1-based indices, nonzeros only).

    Rows are written a chunk at a time, with no k x k array.  A block whose
    U holds no reflector (every base instance, and a span method's resist
    run) is s * W, written from W's closed form; one whose U holds a
    reflector is read by ``w_rows``, its libsvm written by the token writer
    and its csv by the row-delta writer of the rotation CSV.  Labels are the
    integers 1 / -1; floats carry 17 digits (exact round-trip).  The sidecar
    holds {k, sigma, zeta, variant, N, spectral_norm_bound} merged with
    ``extra_meta`` (callers add c, f_star and xstar_norm_sq); it must be
    valid JSON, so a non-finite entry raises ValueError before either file
    is written.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; expected one of {FORMATS}")
    meta = {
        "k": inst.k,
        "sigma": inst.sigma,
        "zeta": inst.zeta,
        "variant": inst.variant,
        "N": inst.n_rows,
        "spectral_norm_bound": inst.spectral_norm_bound(),
        **(extra_meta or {}),
    }
    bad = {key: v for key, v in meta.items() if isinstance(v, float) and not math.isfinite(v)}
    if bad:
        raise ValueError(f"metadata not finite, so not valid JSON: {bad}")
    libsvm = format == "libsvm"
    with open(path, "w") as fh:
        if not libsvm:
            fh.write(",".join(f"feature_{j + 1}" for j in range(inst.k)) + ",label\n")
        if not (isinstance(inst, RotatedInstance) and len(inst.U)):
            fh.writelines(_w_texts(inst, libsvm))
        elif libsvm:
            fh.writelines(_libsvm_texts(inst))
        else:
            bounds = _row_bounds(inst.k, inst.k)
            for s, label in zip(inst.block_scales, inst.block_labels):
                _write_rows(fh, (s * wu for wu in inst.w_rows(bounds)), ",%d\n" % label)

    sidecar = Path(f"{path}.meta.json")
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
