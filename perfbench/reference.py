"""Independent references for the hardlogit outputs, and the checks on them.

Nothing here imports hardlogit.  The data matrix is rebuilt from the literal
row rule of W, the root c comes from ``scipy.optimize.brentq``, and ||A|| from
its closed form.  Each ``check_*`` function returns a list of problems; an
empty list means the output passed.
"""

import csv
import json
import math

import numpy as np

LOG2 = math.log(2.0)
MOMENTUM = 0.9  # hardlogit MethodSpec defaults; the CLI does not expose them
PROBE_SCALE = 1e-3
LIBSVM_SAMPLE_ROWS = 9  # evenly spaced rows whose values are compared
VERIFY_INVARIANTS = (  # the lines `hardlogit verify` prints, in order
    "ratio_constant_above_half", "optimum_gradient_vanishes",
    "optimum_value_matches_formula", "intercept_derivative_vanishes",
    "gradients_stay_in_next_subspace", "restricted_optimum_identity",
    "norm_below_closed_form_bound",
)


# ----------------------------------------------------------------- references

def w_row(k, i):
    """Nonzeros (0-based column, value) of row i (1-based) of W.

    Rows i < k hold -1 at column k-i and +1 at column k-i+1 (1-based);
    row k holds a single +1 at column 1.
    """
    if i < k:
        return [(k - i - 1, -1.0), (k - i, 1.0)]
    return [(0, 1.0)]


def dense_w(k):
    w = np.zeros((k, k))
    for i in range(1, k + 1):
        for col, val in w_row(k, i):
            w[i - 1, col] = val
    return w


def blocks(sigma, zeta, variant):
    """(scale, label) of each stacked copy of W."""
    if variant == "fourblock":
        return [(2 * sigma, 1), (-2 * zeta, 1), (-2 * sigma, -1), (2 * zeta, -1)]
    return [(2 * sigma, 1), (2 * zeta, -1)]


def dense_a(k, sigma, zeta, variant):
    w = dense_w(k)
    bl = blocks(sigma, zeta, variant)
    a = np.vstack([s * w for s, _ in bl])
    b = np.repeat([float(lab) for _, lab in bl], k)
    return a, b


def root_c(sigma, zeta):
    from scipy.optimize import brentq

    def g(c):
        return sigma * math.tanh(sigma * c) + zeta * math.tanh(zeta * c) - (sigma - zeta)

    hi = 1.0
    while g(hi) <= 0.0:
        hi *= 2.0
    return brentq(g, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


def logcosh(z):
    return float(np.logaddexp(z, -z)) - LOG2


class Reference:
    """Closed-form targets of one instance of the family."""

    def __init__(self, k, sigma, zeta, variant="fourblock"):
        self.k, self.sigma, self.zeta, self.variant = k, sigma, zeta, variant
        c = root_c(sigma, zeta)
        self.c = c
        self.delta = (sigma - zeta) * c - logcosh(sigma * c) - logcosh(zeta * c)
        f4 = 8.0 * k * LOG2 - 4.0 * k * self.delta
        self.f_star = f4 if variant == "fourblock" else f4 / 2.0  # h is even
        self.xstar_norm_sq = c * c * k * (k + 1) * (2 * k + 1) / 6.0
        self.x_star = c * np.arange(1, k + 1, dtype=float)
        scale_sq = sum(s * s for s, _ in blocks(sigma, zeta, variant))
        self.a_norm = 2.0 * math.sqrt(scale_sq) * math.cos(math.pi / (2 * k + 1))
        self.n_rows = k * len(blocks(sigma, zeta, variant))


def span_bound(T, a_norm, d0_sq):
    return 3.0 * a_norm**2 * d0_sq / (32.0 * (2 * T + 1) * (4 * T + 1))


def general_bound(T, a_norm, d0_sq):
    return 3.0 * a_norm**2 * d0_sq / (32.0 * (4 * T + 3) * (8 * T + 5))


def dense_loss(m, b, x):
    """Logistic loss h(Mx) - b'Mx and its gradient for a dense matrix M."""
    u = m @ x
    value = float(np.sum(2.0 * np.logaddexp(0.5 * u, -0.5 * u)) - b @ u)
    return value, m.T @ (np.tanh(0.5 * u) - b)


def replay(method, m, b, T, step):
    """Iterates x_0..x_T of a method's update rule against the dense loss."""
    k = m.shape[1]
    x = np.zeros(k)
    xs = [x]
    if method == "agd":
        x_prev, y = x, x
        for t in range(1, T + 1):
            x_new = y - step * dense_loss(m, b, y)[1]
            y = x_new + ((t - 1) / (t + 2)) * (x_new - x_prev)
            x_prev = x_new
            xs.append(x_new)
    elif method == "heavyball":
        x_prev = x
        for _ in range(T):
            x_new = x - step * dense_loss(m, b, x)[1] + MOMENTUM * (x - x_prev)
            x_prev, x = x, x_new
            xs.append(x)
    else:
        ones = np.full(k, 1.0 / math.sqrt(k))
        for _ in range(T):
            g = dense_loss(m, b, x)[1]
            x = x - step * g
            if method == "denseprobe":
                x = x + PROBE_SCALE * float(np.linalg.norm(g)) * ones
            xs.append(x)
    return xs


# ------------------------------------------------------------------- parsing

def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["t", "value", "gap", "dist_sq", "grad_norm"]:
        raise ValueError("bad trace header")
    return np.array([[float(v) for v in r] for r in rows[1:]])


def read_matrix_csv(path):
    with open(path) as fh:
        lines = fh.read().split("\n")
    return np.array([[float(v) for v in line.split(",")] for line in lines if line])


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


# -------------------------------------------------------------------- checks

def check_a_norm(report, ref, rel_tol=1e-12):
    """The report's measured ||A|| against the closed form."""
    got = report["measured"]["a_norm"]
    err = _rel(got, ref.a_norm)
    if err > rel_tol:
        return [f"a_norm {got!r} is {err:.2e} relative from {ref.a_norm!r}"]
    return []


def _check_config(report, method, T, k, sigma, zeta):
    cfg = report["config"]
    want = {"method": method, "T": T, "k": k, "sigma": sigma, "zeta": zeta,
            "variant": "fourblock"}
    return [f"config {key}={cfg.get(key)!r}, expected {val!r}"
            for key, val in want.items() if cfg.get(key) != val]


def check_race_cell(report, trace, method, T, ref):
    """Checks of one race cell on the dimension-2T instance."""
    problems = _check_config(report, method, T, 2 * T, ref.sigma, ref.zeta)
    if trace.shape[0] != T + 1 or list(trace[:, 0]) != list(range(T + 1)):
        return problems + [f"trace has {trace.shape[0]} rows, expected {T + 1}"]
    values = trace[:, 1]
    gaps = values - ref.f_star
    tol = 1e-12 * np.abs(values)
    if np.any(np.abs(trace[:, 2] - gaps) > tol):
        problems.append("trace gap column disagrees with value - f*")
    span = method != "denseprobe"
    if report["measured"]["span_method"] is not span:
        problems.append(f"span_method is {report['measured']['span_method']}")
    if not span:
        if np.any(gaps < -tol):
            problems.append("gap below zero")
        return problems
    trapped = 4.0 * (ref.k - np.arange(T + 1)) * ref.delta
    (below,) = np.nonzero(gaps < trapped - tol)
    if below.size:
        problems.append(f"subspace trapping violated at t={below[0]}")
    d0 = ref.xstar_norm_sq
    if not gaps[-1] > span_bound(T, ref.a_norm, d0):
        problems.append("final gap not above the span lower bound")
    if not trace[-1, 3] > d0 / 8.0:
        problems.append("final dist_sq not above ||x*||^2/8")
    if method == "agd":
        lips = 0.5 * ref.a_norm**2
        if not gaps[-1] <= 2.0 * lips * d0 / (T + 1) ** 2:
            problems.append("agd gap above its upper bound")
    return problems


def check_rotation(u, ref, tol=1e-10):
    k = ref.k
    problems = []
    if u.shape != (k, k):
        return [f"rotation shape {u.shape}, expected {(k, k)}"]
    ortho = float(np.max(np.abs(u.T @ u - np.eye(k))))
    if ortho > tol:
        problems.append(f"rotation not orthogonal: {ortho:.2e}")
    a_w = np.zeros(k)  # A'b = sum_i s_i l_i W 1, and W 1 = e_k
    a_w[k - 1] = sum(s * lab for s, lab in blocks(ref.sigma, ref.zeta, ref.variant))
    moved = float(np.max(np.abs(u.T @ a_w - a_w)))
    if moved > tol * max(1.0, float(np.max(np.abs(a_w)))):
        problems.append(f"rotation moves A'b by {moved:.2e}")
    return problems


def rotated_rows(u, ref):
    """The stacked blocks of A U, built from the literal W rows."""
    wu = np.empty_like(u)
    for i in range(1, ref.k + 1):
        wu[i - 1] = sum(val * u[col] for col, val in w_row(ref.k, i))
    bl = blocks(ref.sigma, ref.zeta, ref.variant)
    return np.vstack([s * wu for s, _ in bl]), np.repeat([float(lab) for _, lab in bl], ref.k)


def check_rotated_libsvm(path, au, b):
    """Every label, and the values of a fixed sample of rows, against A U."""
    n, k = au.shape
    sample = {round(j * (n - 1) / (LIBSVM_SAMPLE_ROWS - 1)) for j in range(LIBSVM_SAMPLE_ROWS)}
    problems = []
    count = 0
    with open(path) as fh:
        for r, line in enumerate(fh):
            count += 1
            label, _, rest = line.partition(" ")
            if r >= n or int(label) != b[r]:
                problems.append(f"label of row {r} is {label}")
                break
            if r in sample:
                row = np.zeros(k)
                for item in rest.split():
                    j, _, v = item.partition(":")
                    row[int(j) - 1] = float(v)
                scale = float(np.max(np.abs(au[r])))
                if np.max(np.abs(row - au[r])) > 1e-14 * scale:
                    problems.append(f"row {r} differs from A U")
    if count != n:
        problems.append(f"{count} rows, expected {n}")
    return problems


def check_resist(report, trace, u, libsvm_path, method, T, ref):
    """Checks of one resist run on the dimension-(4T+2) rotated instance."""
    problems = _check_config(report, method, T, 4 * T + 2, ref.sigma, ref.zeta)
    if trace.shape[0] != T + 1:
        return problems + [f"trace has {trace.shape[0]} rows, expected {T + 1}"]
    problems += check_rotation(u, ref)
    if problems:
        return problems
    au, b = rotated_rows(u, ref)
    problems += check_rotated_libsvm(libsvm_path, au, b)
    step = 2.0 / report["measured"]["a_norm"] ** 2
    xs = replay(method, au, b, T, step)
    values = np.array([dense_loss(au, b, x)[0] for x in xs])
    drift = float(np.max(np.abs(values - trace[:, 1]) / np.abs(trace[:, 1])))
    if drift > 1e-8:
        problems.append(f"replay values differ from the trace by {drift:.2e} relative")
    d0 = ref.xstar_norm_sq
    if not values[-1] - ref.f_star > general_bound(T, ref.a_norm, d0):
        problems.append("replayed final gap not above the general lower bound")
    diff = xs[-1] - u.T @ ref.x_star
    if not float(diff @ diff) > d0 / 8.0:
        problems.append("replayed final distance not above ||z*||^2/8")
    return problems


def check_verify(rc, output, names=VERIFY_INVARIANTS):
    problems = [] if rc == 0 else [f"exit code {rc}"]
    lines = [line for line in output.splitlines() if line.strip()]
    seen = [line.split()[1].rstrip(":") for line in lines[:-1]]
    if seen != list(names):
        problems.append(f"invariants {seen}, expected {list(names)}")
    problems += [f"not ok: {line}" for line in lines[:-1] if not line.startswith("ok ")]
    if not lines or lines[-1] != "0 failure(s)":
        problems.append("missing '0 failure(s)'")
    return problems


def _read_generated(path, fmt, k):
    """Rows as {column: value} dicts and integer labels, from csv or libsvm."""
    rows, labels = [], []
    with open(path) as fh:
        if fmt == "csv":
            header = fh.readline().rstrip("\n").split(",")
            if header != [f"feature_{j + 1}" for j in range(k)] + ["label"]:
                raise ValueError("bad csv header")
            for line in fh:
                *vals, lab = line.rstrip("\n").split(",")
                rows.append({j: float(v) for j, v in enumerate(vals) if float(v) != 0.0})
                labels.append(int(lab))
        else:
            for line in fh:
                lab, *items = line.split()
                row = {}
                for item in items:
                    j, _, v = item.partition(":")
                    row[int(j) - 1] = float(v)
                rows.append(row)
                labels.append(int(lab))
    return rows, labels


def check_generate(data_path, meta_path, fmt, ref, rel_tol=1e-10):
    """The data file equals the reference A and b exactly; the sidecar's
    analytic entries match the references."""
    problems = []
    rows, labels = _read_generated(data_path, fmt, ref.k)
    bl = blocks(ref.sigma, ref.zeta, ref.variant)
    if len(rows) != ref.n_rows:
        return [f"{len(rows)} rows, expected {ref.n_rows}"]
    for r, (row, lab) in enumerate(zip(rows, labels)):
        s, want_lab = bl[r // ref.k]
        want = {col: s * val for col, val in w_row(ref.k, r % ref.k + 1)}
        if lab != want_lab or row != want:
            problems.append(f"row {r} differs from the reference")
            break
    with open(meta_path) as fh:
        meta = json.load(fh)
    for key, want in (("k", ref.k), ("N", ref.n_rows)):
        if meta.get(key) != want:
            problems.append(f"sidecar {key}={meta.get(key)!r}, expected {want}")
    for key in ("c", "f_star", "xstar_norm_sq"):
        if _rel(meta[key], getattr(ref, key)) > rel_tol:
            problems.append(f"sidecar {key}={meta[key]!r}, reference {getattr(ref, key)!r}")
    return problems
