"""Hard dataset family for binary logistic regression.

The data matrix is built from a bidiagonal-plus-corner operator W of size
k x k: row i (1-based, i < k) holds -1 at column k-i and +1 at column
k-i+1, and row k holds a single +1 at column 1.  W is symmetric, maps the
all-ones vector to the last basis vector, and maps c*(1,2,...,k) to c*1.

Two stacked-block variants are provided:

- ``four_block``: A = (2*sigma*W; -2*zeta*W; -2*sigma*W; 2*zeta*W) with
  labels (+1; +1; -1; -1), so the optimal intercept is zero (the two
  label classes are mirror images of each other).
- ``two_block``: A = (2*sigma*W; 2*zeta*W) with labels (+1; -1): half
  the rows, same W structure, and half the four-block loss at every x
  (h is even and the blocks pair up by |s| and s*l).  Its f* holds for a
  fit without an intercept: with one the data are separable (at
  x = c*(1, ..., k), W x = c*1, and any intercept in (-2 sigma c,
  -2 zeta c) classifies every row), so the loss has no minimizer.

A ``RotatedInstance`` is a ``WorstCaseInstance`` with data matrix A U for
an orthogonal U held as a ``Rotation``, the product of its Householder
reflectors in compact WY form: the same k, sigma, zeta, blocks, labels and
||A||, with block W U in place of W.  ``logloss.loss`` applies W by its
index structure in O(k) and U in O(jk) for j reflectors; only ``dense()``
builds U or the N x k matrix.

``export`` is the one writer of a dataset: one call writes the csv or
libsvm file, its rows read by one loop over chunks of rows of the k x k
block (``w_nonzeros``; W U from the rows of U that ``Rotation.row_blocks``
yields), and its ``.meta.json`` sidecar beside it; no k x k array is built.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

CHUNK_CELLS = 1 << 15  # entries of a block, or of U, that a writer holds at once


def canonical_name(name: str, choices, what: str) -> str:
    """``name`` lower-cased, stripped, without '_' or '-'; a ValueError
    naming ``what`` unless the result is one of ``choices``."""
    key = str(name).strip().lower().replace("_", "").replace("-", "")
    if key not in choices:
        raise ValueError(f"unknown {what} {name!r}; expected one of {tuple(choices)}")
    return key


class Variant(enum.Enum):
    FOUR_BLOCK = "fourblock"
    TWO_BLOCK = "twoblock"

    @classmethod
    def parse(cls, name: str) -> "Variant":
        return cls(canonical_name(name, [v.value for v in cls], "variant"))


@dataclass(frozen=True)
class WOperator:
    """The k x k two-nonzeros-per-row operator, stored implicitly."""

    k: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        """W @ x (= W.T @ x), x of shape (k,) or (k, m): one subtraction per entry."""
        x = np.asarray(x, dtype=float)
        if x.shape[:1] != (self.k,) or x.ndim > 2:
            raise ValueError(f"dimension mismatch: expected ({self.k},), got {x.shape}")
        out = np.empty(x.shape)
        # row i (0-based, i < k-1): x[k-1-i] - x[k-2-i]; row k-1: x[0]
        np.subtract(x[:0:-1], x[-2::-1], out=out[:-1])
        out[-1] = x[0]
        return out

    def dense(self) -> np.ndarray:
        w = np.zeros((self.k, self.k))  # sparse writes leave most pages untouched
        r = np.arange(self.k)
        w[r, r[::-1]] = 1.0  # +1 at (i, k-1-i); the last row's is its only entry
        w[r[:-1], r[-2::-1]] = -1.0  # -1 at (i, k-2-i) for i < k-1
        return w


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
    reflector return a copy.  ``dense()`` builds U.
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
        the adversary passes v with its largest entry near 1."""
        v = np.asarray(v, dtype=float)
        n, m = self._n, v.shape[0]
        if v.ndim != 1 or not 0 < m <= self.k:
            raise ValueError(
                f"dimension mismatch: reflector of shape {v.shape} in dimension {self.k}"
            )
        if n == len(self._V):
            cap = max(1, 2 * n)
            V, T = np.zeros((cap, self.k)), np.zeros((cap, cap))
            V[:n], T[:n, :n] = self.V, self.triangular
            self._V, self._T = V, T
        beta = 2.0 / float(v @ v)
        self._V[n, :m] = v
        self._T[:n, n] = -beta * (self.triangular @ (self.V @ self._V[n]))
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

    def row_blocks(self, bounds=None):
        """U[lo:hi] for each (lo, hi) of ``bounds`` in turn (by default,
        chunks of ``CHUNK_CELLS`` entries), every row bit for bit the one
        ``dense()`` builds: (T V)[:, lo:hi]' V by the same GEMM, then 0 minus
        that and +1 on the diagonal.  T V is formed once.  A one-row block is
        computed beside a neighbouring row, since numpy takes a one-row
        product by GEMV, whose sums may round differently."""
        k, V = self.k, self.V
        TV = self.triangular @ V
        for lo, hi in _row_bounds(k, k) if bounds is None else bounds:
            a, b = lo, hi
            if b - a == 1 and k > 1:
                a, b = (a, b + 1) if b < k else (a - 1, b)
            U = np.matmul(TV[:, a:b].T, V)
            np.subtract(0.0, U, out=U)
            r = np.arange(a, b)
            U[r - a, r] += 1.0
            yield U[lo - a : hi - a]

    def dense(self) -> np.ndarray:
        """U = I - (V' T') V, built in one k x k array."""
        if not self._n:
            return np.eye(self.k)
        U = np.matmul((self.triangular @ self.V).T, self.V, out=np.empty((self.k, self.k)))
        np.subtract(0.0, U, out=U)  # -(V'T'V); 0 - (+-0) is +0, so exact zeros stay +0
        U[np.diag_indices(self.k)] += 1.0
        return U


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
    variant: Variant
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

    def w_row_nonzeros(self) -> int:
        """The most nonzeros a row of the k x k block holds."""
        return min(self.k, 2)

    def w_nonzeros(self, bounds):
        """(rows, cols, vals) of the nonzeros of block rows lo..hi-1, for each
        (lo, hi) of ``bounds`` in turn, in row-major order as ``np.nonzero``
        lists them, from W's closed form: row i < k-1 holds -1 at column
        k-2-i and +1 at k-1-i, row k-1 a +1 at column 0."""
        k = self.k
        i = np.arange(k - 1)
        rows = np.append(np.repeat(i, 2), k - 1)
        cols = np.append(np.column_stack((k - 2 - i, k - 1 - i)).ravel(), 0)
        vals = np.append(np.tile([-1.0, 1.0], k - 1), 1.0)
        for lo, hi in bounds:  # row i < k-1 is entries 2i and 2i+1, row k-1 entry 2k-2
            yield rows[2 * lo : 2 * hi], cols[2 * lo : 2 * hi], vals[2 * lo : 2 * hi]

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
        if self.variant is Variant.FOUR_BLOCK:
            return math.sqrt(2.0) * 2.0 * base  # 4*sqrt(2(sigma^2+zeta^2))
        return 2.0 * base


@dataclass(frozen=True, eq=False, init=False)
class RotatedInstance(WorstCaseInstance):
    """The same member of the family with its feature space rotated by an
    orthogonal U: data matrix A U, labels b.  U fixes nothing the family is
    defined by, so k, sigma, zeta, the blocks, ||A|| and ``dense()`` are
    the base instance's; only the k x k block is W U instead of W.

    ``RotatedInstance(inst, U)`` copies the family fields of ``inst`` and
    takes the ``Rotation`` U, so rotating a rotated instance replaces its U;
    it builds nothing.
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
        """W U, by W's two-slice row difference on the materialized U; no GEMM."""
        return self.w.apply(self.U.dense())

    def w_row_nonzeros(self) -> int:
        return self.k

    def w_nonzeros(self, bounds):
        """(rows, cols, vals) of the nonzeros of rows lo..hi-1 of W U, for each
        (lo, hi) of ``bounds`` in turn, in row-major order; each row bit for
        bit the one ``w_block()`` holds, from the rows of U it needs (row
        i < k-1 is U[k-1-i] - U[k-2-i], row k-1 is U[0]), so no k x k array
        is built."""
        k, bounds = self.k, list(bounds)
        needed = self.U.row_blocks([(max(k - 1 - hi, 0), k - lo) for lo, hi in bounds])
        for (lo, hi), u in zip(bounds, needed):
            u = u[::-1]  # u[n] is U[k-1-lo-n]
            m = min(hi, k - 1) - lo  # rows that are a difference
            wu = np.empty((hi - lo, k))
            np.subtract(u[:m], u[1 : m + 1], out=wu[:m])
            wu[m:] = u[m : hi - lo]  # row k-1, if in this chunk
            rows, cols = np.nonzero(wu)
            vals = wu[rows, cols]
            rows += lo
            del u, wu  # not held while the caller writes this chunk
            yield rows, cols, vals


def build_instance(
    k: int, sigma: float, zeta: float, variant: Variant | str = Variant.FOUR_BLOCK
) -> WorstCaseInstance:
    """Construct an instance of the family; requires sigma > zeta > 0 with
    the block scale 2*sigma a finite double."""
    w = build_w(k)
    sigma = float(sigma)
    zeta = float(zeta)
    if not (zeta > 0.0) or not (sigma > zeta) or not math.isfinite(2.0 * sigma):
        raise ValueError(
            "invalid parameters: need sigma > zeta > 0 with 2*sigma finite, "
            f"got sigma={sigma}, zeta={zeta}"
        )
    if isinstance(variant, str):
        variant = Variant.parse(variant)
    if variant is Variant.FOUR_BLOCK:
        scales = (2.0 * sigma, -2.0 * zeta, -2.0 * sigma, 2.0 * zeta)
        labels = (1.0, 1.0, -1.0, -1.0)
    elif variant is Variant.TWO_BLOCK:
        scales = (2.0 * sigma, 2.0 * zeta)
        labels = (1.0, -1.0)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return WorstCaseInstance(
        k=int(k), sigma=sigma, zeta=zeta, variant=variant,
        w=w, block_scales=scales, block_labels=labels,
    )


def _row_bounds(k: int, width: int) -> list[tuple[int, int]]:
    """(lo, hi) of each chunk of a k-row array whose rows hold ``width``
    entries: as many rows as hold ``CHUNK_CELLS`` entries, and at least one."""
    step = max(1, CHUNK_CELLS // width)
    return [(lo, min(lo + step, k)) for lo in range(0, k, step)]


def export(inst: WorstCaseInstance, format: str, path, extra_meta: dict | None = None) -> Path:
    """Write the dataset to ``path`` in ``format`` and its metadata sidecar
    beside it; return the sidecar's path, ``path`` + ".meta.json".

    - ``csv``: header feature_1..feature_k,label; one dense row per datum.
    - ``libsvm``: sparse "label idx:val" lines (1-based indices, nonzeros only).

    Rows are s * W, or s * (W U) when rotated, read for both formats by one
    loop over chunks of rows of the block's nonzeros (``w_nonzeros``), each
    of at most ``CHUNK_CELLS`` entries or csv cells, so no k x k array is
    built and a chunk's text is written before the next is read.  libsvm
    omits the exact zeros; csv writes every zero of a block as a slice of
    one run of the string of s * 0.0.  A chunk formats each of its distinct
    values once, told apart by their bits (-0 is not +0, nor one NaN
    another).  A block's nonzeros are read once for all blocks if they fit
    in a chunk.  Labels are the integers 1 / -1; floats carry 17 digits
    (exact round-trip).  The sidecar holds {k, sigma, zeta, variant, N,
    spectral_norm_bound} merged with ``extra_meta`` (callers add the
    analytic entries c, f_star, xstar_norm_sq); it must be valid JSON, so a
    non-finite entry raises ValueError before either file is written.
    """
    if format not in ("csv", "libsvm"):
        raise ValueError(f"unknown format {format!r}; expected csv or libsvm")
    meta = {
        "k": inst.k,
        "sigma": inst.sigma,
        "zeta": inst.zeta,
        "variant": inst.variant.value,
        "N": inst.n_rows,
        "spectral_norm_bound": inst.spectral_norm_bound(),
        **(extra_meta or {}),
    }
    bad = {key: v for key, v in meta.items() if isinstance(v, float) and not math.isfinite(v)}
    if bad:
        raise ValueError(f"metadata not finite, so not valid JSON: {bad}")
    libsvm = format == "libsvm"
    k = inst.k
    bounds = _row_bounds(k, inst.w_row_nonzeros() if libsvm else k)
    heads = np.array([" %d:" % (j + 1) for j in range(k * libsvm)], dtype=object)
    cell = "%.17g" if libsvm else "%.17g,"
    held = None  # the block's nonzeros, once read, if they fit in a chunk
    with open(path, "w") as fh:
        if not libsvm:
            fh.write(",".join(f"feature_{j + 1}" for j in range(k)) + ",label\n")
        for s, label in zip(inst.block_scales, inst.block_labels):
            zero = "%.17g," % (s * 0.0)  # a zero of the block is s * 0.0: "-0" where s < 0
            zeros = zero * k
            chunks, held, size = held or inst.w_nonzeros(bounds), [], 0
            for (lo, hi), (rows, cols, w) in zip(bounds, chunks):
                size += len(w)
                held = held + [(rows, cols, w)] if size <= CHUNK_CELLS else None
                vals = s * w
                if libsvm and not (keep := vals != 0.0).all():  # s * w may underflow
                    rows, cols, vals = rows[keep], cols[keep], vals[keep]
                n, h = len(vals), hi - lo
                starts = np.searchsorted(rows, np.arange(lo, hi + 1))
                # row r: a prefix, a (lead, cell) pair per nonzero, then two ends
                tokens = np.empty(2 * n + 3 * h, dtype=object)
                at = 2 * np.arange(n) + 3 * (rows - lo) + 1
                first = 2 * starts[:-1] + 3 * np.arange(h)
                last = first + 2 * np.diff(starts) + 1
                if libsvm:
                    tokens[first], tokens[at], tokens[last], tokens[last + 1] = (
                        "%d" % label, heads[cols], "", "\n")
                else:  # a nonzero's lead and a row's first end are runs of zero cells
                    before = np.append(-1, cols)  # before[t + 1] is nonzero t's column
                    final = np.where(starts[1:] > starts[:-1], before[starts[1:]], -1)
                    before = before[:-1]
                    before[starts[:-1][starts[:-1] < n]] = -1  # a row's first nonzero
                    gaps, gap = np.unique(np.append(cols - before - 1, k - 1 - final),
                                          return_inverse=True)
                    runs = np.array([zeros[: g * len(zero)] for g in gaps.tolist()], dtype=object)
                    tokens[first], tokens[at], tokens[last], tokens[last + 1] = (
                        "", runs[gap[:n]], runs[gap[n:]], "%d\n" % label)
                distinct, which = np.unique(vals.view(np.int64), return_inverse=True)
                texts = (cell + "\n") * len(distinct) % tuple(distinct.view(float).tolist())
                tokens[at + 1] = np.array(texts.splitlines(), dtype=object)[which]
                fh.write("".join(tokens.tolist()))

    sidecar = Path(f"{path}.meta.json")
    with open(sidecar, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return sidecar
