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
  the rows, same W structure, nonzero optimal intercept.

All products use the W index structure in O(k) per block; only ``dense()``
builds the N x k matrix (``export`` writes rows from one k x k block).
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

ORTHOGONALITY_TOL = 1e-10


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

    def data_matrix_times(self, x: np.ndarray) -> np.ndarray:
        wx = self.w.apply(x)
        return np.concatenate([s * wx for s in self.block_scales])

    def data_matrix_transpose_times(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.n_rows,):
            raise ValueError(
                f"dimension mismatch: expected ({self.n_rows},), got {v.shape}"
            )
        blocks = v.reshape(len(self.block_scales), self.k)
        combined = np.zeros(self.k)
        for s, blk in zip(self.block_scales, blocks):
            combined += s * blk
        return self.w.apply(combined)

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
        scale_sq = float(sum(s * s for s in self.block_scales))
        return float(2.0 * np.sqrt(scale_sq) * np.cos(np.pi / (2 * self.k + 1)))

    def spectral_norm_bound(self) -> float:
        """Closed-form upper bound on ||A|| from the row structure."""
        base = 2.0 * np.sqrt(self.sigma**2 + self.zeta**2)
        if self.variant is Variant.FOUR_BLOCK:
            return float(np.sqrt(2.0) * 2.0 * base)  # 4*sqrt(2(sigma^2+zeta^2))
        return float(2.0 * base)


@dataclass(frozen=True, eq=False)
class RotatedInstance:
    """A base instance with its feature space rotated: effective matrix A @ U."""

    base: WorstCaseInstance
    U: np.ndarray = field(repr=False)

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        k = self.base.k
        if U.shape != (k, k):
            raise ValueError(f"dimension mismatch: U must be ({k},{k}), got {U.shape}")
        drift = np.max(np.abs(U.T @ U - np.eye(k)))
        if drift > ORTHOGONALITY_TOL:
            raise ValueError(f"U is not orthogonal: max |U'U - I| = {drift:.3e}")
        object.__setattr__(self, "U", U)

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def sigma(self) -> float:
        return self.base.sigma

    @property
    def zeta(self) -> float:
        return self.base.zeta

    @property
    def variant(self) -> Variant:
        return self.base.variant

    @property
    def n_rows(self) -> int:
        return self.base.n_rows

    @property
    def labels(self) -> np.ndarray:
        return self.base.labels

    @property
    def block_scales(self) -> tuple:
        return self.base.block_scales

    def data_matrix_times(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.k,):
            raise ValueError(f"dimension mismatch: expected ({self.k},), got {x.shape}")
        return self.base.data_matrix_times(self.U @ x)

    def data_matrix_transpose_times(self, v: np.ndarray) -> np.ndarray:
        return self.U.T @ self.base.data_matrix_transpose_times(v)

    def w_block(self) -> np.ndarray:
        """W U, by W's two-slice row difference in O(k^2); no GEMM."""
        return self.base.w.apply(self.U)

    def dense(self) -> np.ndarray:
        wb = self.w_block()
        return np.vstack([s * wb for s in self.block_scales])

    def a_norm(self) -> float:
        """||A @ U|| = ||A||: U is orthogonal."""
        return self.base.a_norm()

    def spectral_norm_bound(self) -> float:
        return self.base.spectral_norm_bound()


Instance = WorstCaseInstance | RotatedInstance


def build_instance(
    k: int, sigma: float, zeta: float, variant: Variant | str = Variant.FOUR_BLOCK
) -> WorstCaseInstance:
    """Construct an instance of the family.

    Requires sigma > zeta > 0.  Warns (does not fail) when sigma >= 2*zeta:
    the dataset is still valid, but the closed-form bracket behind the
    ratio constant is then undefined.
    """
    w = build_w(k)
    sigma = float(sigma)
    zeta = float(zeta)
    if not (zeta > 0.0) or not (sigma > zeta):
        raise ValueError(
            f"invalid parameters: need sigma > zeta > 0, got sigma={sigma}, zeta={zeta}"
        )
    if sigma >= 2.0 * zeta:
        warnings.warn(
            f"sigma={sigma} >= 2*zeta={2*zeta}: the ratio-constant bracket is "
            "undefined for this instance (dataset itself is fine)",
            stacklevel=2,
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


def matvec_a(inst: Instance, x: np.ndarray) -> np.ndarray:
    """A @ x (A @ U @ x for a rotated instance), O(k) per block."""
    x = np.asarray(x, dtype=float)
    if x.shape != (inst.k,):
        raise ValueError(f"dimension mismatch: expected ({inst.k},), got {x.shape}")
    return inst.data_matrix_times(x)


def matvec_at(inst: Instance, v: np.ndarray) -> np.ndarray:
    """A.T @ v (U.T @ A.T @ v for a rotated instance), O(k) per block."""
    return inst.data_matrix_transpose_times(v)


def export(inst: Instance, format: str, path, extra_meta: dict | None = None) -> None:
    """Write the dataset to ``path`` in one of three formats.

    - ``csv``: header feature_1..feature_k,label; one dense row per datum.
    - ``libsvm``: sparse "label idx:val" lines (1-based indices, nonzeros only).
    - ``json-meta``: metadata sidecar {k, sigma, zeta, variant, N,
      spectral_norm_bound} merged with ``extra_meta`` (callers add the
      analytic entries c, f_star, xstar_norm_sq).

    Rows are s * W, or s * (W U) when rotated, whose exact zeros libsvm omits;
    labels are the integers 1 / -1; floats carry 17 digits (exact round-trip).
    """
    fmt = str(format).strip().lower().replace("_", "-")
    if fmt == "json-meta":
        meta = {
            "k": inst.k,
            "sigma": inst.sigma,
            "zeta": inst.zeta,
            "variant": inst.variant.value,
            "N": inst.n_rows,
            "spectral_norm_bound": inst.spectral_norm_bound(),
        }
        if extra_meta:
            meta.update(extra_meta)
        with open(path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return

    wb = inst.w_block()
    k = inst.k
    labels = inst.labels.astype(int).tolist()
    if fmt == "csv":
        template = ",".join(["%.17g"] * k) + ",%d\n"
        scaled = (s * w_row for s in inst.block_scales for w_row in wb)
        with open(path, "w") as fh:
            fh.write(",".join(f"feature_{j + 1}" for j in range(k)) + ",label\n")
            for row, lab in zip(scaled, labels):
                fh.write(template % (*row.tolist(), lab))
    elif fmt == "libsvm":
        rows, cols = np.nonzero(wb)
        w_vals = wb[rows, cols]
        with open(path, "w") as fh:
            for b, s in enumerate(inst.block_scales):
                vals = s * w_vals
                keep = vals != 0.0  # s * w may underflow where w does not
                starts = np.searchsorted(rows[keep], np.arange(k + 1)).tolist()
                idx = (cols[keep] + 1).tolist()
                vals = vals[keep].tolist()
                for i in range(k):
                    lo, hi = starts[i], starts[i + 1]
                    pairs = zip(idx[lo:hi], vals[lo:hi])
                    fh.write(f"{labels[b * k + i]}"
                             + "".join(" %d:%.17g" % p for p in pairs) + "\n")
    else:
        raise ValueError(f"unknown format {format!r}; expected csv, libsvm, or json-meta")
