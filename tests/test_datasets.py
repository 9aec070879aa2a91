import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardlogit import (
    RotatedInstance,
    Rotation,
    Variant,
    WorstCaseInstance,
    build_instance,
    build_w,
    constant_c_ratio,
    datasets,
    export,
    invariants,
    loss,
)
from conftest import (
    dense_ab,
    dense_w,
    orthogonality_reference,
    random_orthogonal,
    reflector_product,
    rotated_ab,
    w_rows_times,
)


class TestWOperator:
    def test_k1_single_entry(self):
        assert build_w(1).dense().tolist() == [[1.0]]

    def test_k3_rows(self):
        expected = [[0, -1, 1], [-1, 1, 0], [1, 0, 0]]
        assert build_w(3).dense().tolist() == expected

    def test_maps_ones_to_last_basis(self):
        w = build_w(5)
        assert np.array_equal(w.apply(np.ones(5)), np.eye(5)[4])

    @pytest.mark.parametrize("k", [1, 2, 7, 33])
    def test_maps_ramp_to_ones(self, k):
        c = 0.37
        out = build_w(k).apply(c * np.arange(1, k + 1, dtype=float))
        assert np.allclose(out, c * np.ones(k), rtol=0, atol=1e-15)

    def test_symmetry_inner_products(self, rng):
        for k in (2, 5, 16, 41):
            w = build_w(k)
            for _ in range(20):
                x = rng.standard_normal(k)
                y = rng.standard_normal(k)
                lhs = w.apply(x) @ y
                rhs = x @ w.apply(y)
                assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_apply_matches_dense_rule(self, rng):
        for k in range(1, 65):
            w = build_w(k)
            W = dense_w(k)
            assert np.array_equal(w.dense(), W)
            x = rng.standard_normal(k)
            ref = W @ x
            got = w.apply(x)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_invalid_dimension(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="invalid dimension"):
                build_w(bad)
        with pytest.raises(ValueError):
            build_w(2.5)

    def test_dimension_mismatch(self):
        for bad in (np.ones(5), np.ones((5, 4)), np.ones((3, 4)), np.ones((4, 2, 2)),
                    np.float64(1.0)):
            with pytest.raises(ValueError, match="dimension mismatch"):
                build_w(4).apply(bad)

    def test_apply_to_columns(self, rng):
        # W @ X column by column, each entry one exact subtraction
        for k in (1, 2, 7, 40):
            w = build_w(k)
            X = rng.standard_normal((k, 3))
            X[:, 2] = 0.5  # W maps a constant column to a multiple of e_k
            got = w.apply(X)
            assert np.array_equal(got, np.column_stack([w.apply(c) for c in X.T]))
            assert np.array_equal(got, w_rows_times(X))
            assert np.count_nonzero(got[:, 2]) == 1


class TestBuildInstance:
    def test_four_block_layout(self):
        inst = build_instance(4, 1.3, 1.0)
        assert inst.n_rows == 16
        atb = inst.dense().T @ inst.labels
        expected = np.zeros(4)
        expected[3] = 4.0 * (1.3 - 1.0)
        assert np.max(np.abs(atb - expected)) <= 1e-15

    def test_two_block_layout(self):
        inst = build_instance(3, 2.0, 1.0, "twoblock")  # sigma = 2*zeta is a valid instance
        assert inst.n_rows == 6
        assert inst.labels.tolist() == [1, 1, 1, -1, -1, -1]
        atb = inst.dense().T @ inst.labels
        assert np.allclose(atb, [0, 0, 2.0 * (2.0 - 1.0)], atol=1e-15)

    def test_ramp_gives_constant_blocks(self):
        k, sigma, zeta, c = 6, 1.3, 1.0, 0.25
        inst = build_instance(k, sigma, zeta)
        out = inst.dense() @ (c * np.arange(1, k + 1, dtype=float))
        ones = np.ones(k)
        expected = np.concatenate(
            [2 * sigma * c * ones, -2 * zeta * c * ones,
             -2 * sigma * c * ones, 2 * zeta * c * ones]
        )
        assert np.allclose(out, expected, rtol=0, atol=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="invalid parameters"):
            build_instance(2, 1.0, 1.0)
        with pytest.raises(ValueError, match="invalid parameters"):
            build_instance(2, 0.5, 1.0)
        with pytest.raises(ValueError, match="invalid parameters"):
            build_instance(2, 1.0, -1.0)
        with pytest.raises(ValueError, match="invalid dimension"):
            build_instance(0, 1.3, 1.0)

    def test_ratio_constant_raises_when_bracket_undefined(self):
        # sigma >= 2*zeta builds a valid instance; the ratio constant, the
        # one quantity undefined there, raises instead
        for sigma in (2.0, 2.5):
            inst = build_instance(3, sigma, 1.0)
            with pytest.raises(ValueError, match="undefined constant"):
                constant_c_ratio(inst.sigma, inst.zeta)
            with pytest.raises(ValueError, match="undefined constant"):
                invariants.ratio_constant(inst)

    def test_variant_parsing(self):
        assert build_instance(2, 1.3, 1.0, "four_block").variant is Variant.FOUR_BLOCK
        assert build_instance(2, 1.3, 1.0, "Four-Block").variant is Variant.FOUR_BLOCK
        assert build_instance(2, 1.3, 1.0, " TWO_block ").variant is Variant.TWO_BLOCK
        with pytest.raises(ValueError, match="variant"):
            build_instance(2, 1.3, 1.0, "sixblock")


class TestRotation:
    """The compact-WY operator against its reflectors multiplied out."""

    @pytest.mark.parametrize("k", [1, 2, 7, 40])
    def test_matches_the_reflector_product(self, k, rng):
        U = random_orthogonal(k, seed=k)
        assert len(U) == k
        P = reflector_product(U)
        assert np.max(np.abs(U.dense() - P)) <= 1e-14
        x, g = rng.standard_normal(k), rng.standard_normal(k)
        assert np.max(np.abs(U.apply(x) - P @ x)) <= 1e-14 * np.linalg.norm(x)
        assert np.max(np.abs(U.apply_t(g) - P.T @ g)) <= 1e-14 * np.linalg.norm(g)
        X, G = rng.standard_normal((5, k)), rng.standard_normal((5, k))
        assert np.max(np.abs(U.apply(X) - X @ P.T)) <= 1e-14 * np.max(np.abs(X)) * np.sqrt(k)
        assert np.max(np.abs(U.apply_t(G) - G @ P)) <= 1e-14 * np.max(np.abs(G)) * np.sqrt(k)
        # a row of the batched form is the vector form, and U' undoes U
        assert np.max(np.abs(U.apply(X)[2] - U.apply(X[2]))) <= 1e-15 * np.linalg.norm(X[2])
        assert np.max(np.abs(U.apply_t(U.apply(x)) - x)) <= 1e-14 * np.linalg.norm(x)

    def test_triangular_factor_is_upper_with_the_betas(self):
        U = random_orthogonal(9, seed=3)
        assert np.array_equal(U.triangular, np.triu(U.triangular))
        assert np.array_equal(np.diag(U.triangular), [2.0 / (v @ v) for v in U.V])
        # reflector i acts on the leading k - i coordinates only
        for i, v in enumerate(U.V):
            assert not np.any(v[9 - i:])

    def test_no_reflector_is_a_bitwise_copy(self, rng):
        U = Rotation(6)
        x, X = rng.standard_normal(6), rng.standard_normal((3, 6))
        for out, src in ((U.apply(x), x), (U.apply_t(x), x), (U.apply(X), X),
                         (U.apply_t(X), X)):
            assert out is not src and np.array_equal(out, src)
        assert np.array_equal(U.dense(), np.eye(6))

    def test_newest_reflector_alone(self, rng):
        # after one reflector, H x by ``apply_newest`` is ``apply`` bit for bit
        U = Rotation(8)
        U.append(rng.standard_normal(6))
        x = rng.standard_normal(8)
        assert np.array_equal(U.apply_newest(x), U.apply(x))
        U.append(rng.standard_normal(4))
        H = np.eye(8)
        v = U.V[1]
        H -= np.outer((2.0 / (v @ v)) * v, v)
        assert np.max(np.abs(U.apply_newest(x) - H @ x)) <= 1e-15 * np.linalg.norm(x)

    @pytest.mark.parametrize("k,j", [(1, 1), (2, 1), (9, 4), (130, 1), (130, 40), (602, 5)])
    def test_row_blocks_are_the_dense_rows(self, k, j, rng):
        # over any partition of the rows, one-row blocks included, each row
        # is the one dense() builds, bit for bit: a one-row block computed
        # on its own (numpy's GEMV) differed in 442 of 8,000 rows checked
        U = Rotation(k)
        for i in range(j):
            U.append(rng.standard_normal(max(k - 2 * i - 1, 1)))
        dense = U.dense().view(np.int64)
        for bounds in _partitions(k, rng):
            blocks = list(U.row_blocks(bounds))
            assert [len(b) for b in blocks] == [hi - lo for lo, hi in bounds]
            assert np.array_equal(np.vstack(blocks).view(np.int64), dense)
        assert np.array_equal(np.vstack(list(U.row_blocks())).view(np.int64), dense)

    def test_append_checks_the_reflector(self):
        U = Rotation(4)
        for bad in (np.ones(5), np.ones(0), np.ones((2, 2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                U.append(bad)
        assert len(U) == 0


def _partitions(k, rng):
    """Row bounds (lo, hi) covering 0..k-1: one block, one row per block, and
    random cuts with both ends cut off as one-row blocks."""
    cuts = np.unique(np.concatenate(([0, 1, k - 1, k], rng.integers(0, k, k // 3 + 1))))
    return [[(0, k)], [(i, i + 1) for i in range(k)],
            [(lo, hi) for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()) if lo < hi]]


FAMILY = ("k", "sigma", "zeta", "variant", "n_rows", "w", "block_scales", "block_labels")


def _same_family(a, b):
    for name in FAMILY:
        assert getattr(a, name) == getattr(b, name), name
    assert np.array_equal(a.labels, b.labels)
    assert a.a_norm() == b.a_norm()
    assert a.spectral_norm_bound() == b.spectral_norm_bound()


class TestRotatedInstance:
    """A rotated instance is the same member of the family, with U."""

    @pytest.mark.parametrize("variant", ["fourblock", "twoblock"])
    def test_identity_rotation_is_the_base(self, variant, tmp_path, rng):
        k = 9
        inst = build_instance(k, 1.3, 0.7, variant)
        rot = RotatedInstance(inst, Rotation(k))
        for _ in range(5):
            x = rng.standard_normal(k)
            got, ref = loss(rot, x), loss(inst, x)
            assert got.value == ref.value
            assert np.array_equal(got.gradient, ref.gradient)
            assert np.array_equal(rot.dense() @ x, inst.dense() @ x)
            v = rng.standard_normal(inst.n_rows)
            assert np.array_equal(v @ rot.dense(), v @ inst.dense())
        for fmt in ("csv", "libsvm"):
            export(inst, fmt, tmp_path / f"base.{fmt}")
            export(rot, fmt, tmp_path / f"rot.{fmt}")
            assert (tmp_path / f"rot.{fmt}").read_bytes() == (
                tmp_path / f"base.{fmt}").read_bytes()

    @pytest.mark.parametrize("variant", ["fourblock", "twoblock"])
    def test_inherits_the_family(self, variant):
        inst = build_instance(7, 1.3, 0.7, variant)
        rot = RotatedInstance(inst, random_orthogonal(7, seed=1))
        assert isinstance(rot, WorstCaseInstance)
        assert not hasattr(rot, "base")
        _same_family(rot, inst)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rot.U = np.eye(7)

    def test_rotating_replaces_the_rotation(self, rng):
        inst = build_instance(8, 1.3, 1.0)
        U1, U2 = random_orthogonal(8, seed=1), random_orthogonal(8, seed=2)
        twice = RotatedInstance(RotatedInstance(inst, U1), U2)
        once = RotatedInstance(inst, U2)
        assert twice.U is U2
        _same_family(twice, once)
        assert np.array_equal(twice.dense(), once.dense())
        x = rng.standard_normal(8)
        assert loss(twice, x).value == loss(once, x).value
        assert np.array_equal(loss(twice, x).gradient, loss(once, x).gradient)

    def test_rotation_must_be_orthogonal(self):
        # a reflector row moved off by 1e-6 leaves U non-orthogonal: the
        # verdict measures ||U'U - I||_F on the factors, which is the dense
        # reference's to within rounding and at least its largest entry, and fails
        inst = build_instance(3, 1.3, 1.0)
        U = random_orthogonal(3, seed=2)
        U.V[0, 0] += 1e-6
        found = invariants.rotation_orthogonal(RotatedInstance(inst, U))
        residual = found.measured["orthogonality_residual"]
        dense = U.dense()
        drift = float(np.max(np.abs(dense.T @ dense - np.eye(3))))
        fro, bound = orthogonality_reference(U)
        assert abs(residual - fro) <= bound and residual >= drift - bound and drift > 1e-8
        (check,) = found.checks
        assert not check.passed
        assert check.margin == invariants.ROTATION_TOL - residual < 0.0

    def test_construction_builds_no_dense_rotation(self, rng):
        # the constructor checks the dimension and copies the fields and U;
        # a dense U at k = 4000 would be 128 MB
        k = 4000
        U = Rotation(k)
        U.append(rng.standard_normal(k))
        base = build_instance(k, 1.3, 1.0)
        tracemalloc.start()
        try:
            rot = RotatedInstance(base, U)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert rot.U is U
        assert [f.name for f in dataclasses.fields(rot)] == [
            f.name for f in dataclasses.fields(WorstCaseInstance)] + ["U"]
        with pytest.raises(ValueError, match="dimension mismatch"):
            RotatedInstance(build_instance(6, 1.3, 1.0), Rotation(5))

    def test_orthogonality_is_measured_on_every_row(self, rng):
        # a defect confined to the trailing coordinates of a k = 300
        # rotation shows in the factor measurement as in the dense U'U
        k = 300
        U = Rotation(k)
        v = np.zeros(k)
        v[280:] = rng.standard_normal(20)
        U.append(v)
        U.triangular[0, 0] *= 1.0 + 1e-6
        dense = U.dense()
        drift = float(np.max(np.abs(dense.T @ dense - np.eye(k))))
        found = invariants.rotation_orthogonal(RotatedInstance(build_instance(k, 1.3, 1.0), U))
        residual = found.measured["orthogonality_residual"]
        fro, bound = orthogonality_reference(U)
        assert drift > 1e-8 and residual >= drift - bound
        assert abs(residual - fro) <= bound
        assert not found.checks[0].passed

    def test_nan_in_the_rotation_fails_the_orthogonality_check(self, rng):
        # a NaN in one reflector makes U all NaN; the measurement on the
        # factors must not drop it
        k = 300
        U = Rotation(k)
        v = rng.standard_normal(k)
        v[7] = np.nan
        U.append(v)
        inst = RotatedInstance(build_instance(k, 1.3, 1.0), U)
        found = invariants.rotation_orthogonal(inst)
        assert np.isnan(found.measured["orthogonality_residual"])
        (check,) = found.checks
        assert not check.passed and np.isnan(check.margin)
        assert not invariants.data_direction_fixed(inst).checks[0].passed


def _svd_norm(k, sigma, zeta, variant):
    A, _ = dense_ab(k, sigma, zeta, variant)
    return float(np.linalg.svd(A, compute_uv=False)[0])


class TestSpectralNorm:
    def test_k1_exact(self):
        sigma, zeta = 1.3, 1.0
        inst = build_instance(1, sigma, zeta)
        expected = 2.0 * np.sqrt(2.0 * (sigma**2 + zeta**2))
        assert abs(inst.a_norm() - expected) <= 1e-15 * expected

    @pytest.mark.parametrize("variant", ["fourblock", "twoblock"])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_matches_dense_svd(self, variant, scale):
        # the closed form holds to relative machine precision at any scale
        for k in list(range(1, 60)) + [100, 200, 500]:
            sigma, zeta = 1.3 * scale, scale
            ref = _svd_norm(k, sigma, zeta, variant)
            got = build_instance(k, sigma, zeta, variant).a_norm()
            assert abs(got - ref) <= 1e-14 * ref, (k, got, ref)

    def test_k10_matches_dense_svd(self):
        inst = build_instance(10, 1.3, 1.0)
        ref = np.linalg.svd(inst.dense(), compute_uv=False)[0]
        assert abs(inst.a_norm() - ref) <= 1e-14 * ref

    def test_below_closed_form_bound(self):
        for variant in ("fourblock", "twoblock"):
            for k in (1, 2, 3, 5, 13, 50, 120, 200):
                inst = build_instance(k, 1.3, 1.0, variant)
                assert inst.a_norm() < inst.spectral_norm_bound()

    def test_k50_below_eight_sigma(self):
        sigma = 1.3
        inst = build_instance(50, sigma, sigma / 1.3)
        assert inst.a_norm() < 8.0 * sigma

    def test_scale_equivariance(self):
        base = build_instance(9, 1.3, 1.0).a_norm()
        for alpha in (1e-8, 0.5, 3.0, 1e8):
            scaled = build_instance(9, 1.3 * alpha, 1.0 * alpha).a_norm()
            assert abs(scaled - alpha * base) <= 1e-15 * alpha * base

    @settings(max_examples=300, deadline=None)
    @given(
        ratio=st.floats(1.0, 1e4, exclude_min=True),
        mantissa=st.floats(1.0, 2.0),
        exps=st.tuples(st.integers(-997, 996), st.integers(-997, 996)),
        k=st.integers(1, 500),
        variant=st.sampled_from(("fourblock", "twoblock")),
    )
    def test_norm_at_any_scale(self, ratio, mantissa, exps, k, variant):
        # zeta and 2**e * zeta anywhere in about [1e-300, 1e300]: ||A|| scales
        # by exactly 2**e and stays below the bound; at 1.3e-200 it read 0,
        # at 1.3e200 inf
        (a, b), zeta = exps, mantissa
        sigma = ratio * zeta
        if not sigma > zeta:  # the product rounded down onto zeta
            return
        insts = [build_instance(k, np.ldexp(sigma, e), np.ldexp(zeta, e), variant)
                 for e in (a, b)]
        norms = [inst.a_norm() for inst in insts]
        assert norms[1] == np.ldexp(norms[0], b - a)
        for inst, norm in zip(insts, norms):
            assert 0.0 < norm < inst.spectral_norm_bound() < np.inf

    @pytest.mark.parametrize("variant", ["fourblock", "twoblock"])
    def test_norm_and_bound_past_the_plain_squares(self, variant):
        # a block scale below 2**-511 has a subnormal square, one past 2**511
        # overflows it: both norms are the closed form's at 1.3 and 1.0, scaled
        for scale in (2.0**-700, 2.0**-512, 2.0**512, 2.0**900):
            inst = build_instance(7, 1.3 * scale, scale, variant)
            unit = build_instance(7, 1.3, 1.0, variant)
            assert inst.a_norm() == unit.a_norm() * scale
            bound = inst.spectral_norm_bound()
            assert abs(bound - unit.spectral_norm_bound() * scale) <= 1e-15 * bound

    def test_rotated_norm_matches_base(self):
        inst = build_instance(8, 1.3, 1.0)
        rot = RotatedInstance(inst, random_orthogonal(8, seed=3))
        assert rot.a_norm() == inst.a_norm()
        ref = np.linalg.svd(rot.dense(), compute_uv=False)[0]
        assert abs(rot.a_norm() - ref) <= 1e-14 * ref


def _parse_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(v) for v in row[:-1]] for row in rows])
    labels = np.array([float(row[-1]) for row in rows])
    return header, data, labels


def _parse_libsvm(path, k):
    data, labels = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            labels.append(float(parts[0]))
            row = np.zeros(k)
            for pair in parts[1:]:
                idx, val = pair.split(":")
                row[int(idx) - 1] = float(val)
            data.append(row)
    return np.array(data), np.array(labels)


def _dense_text(inst, fmt):
    """The file ``export`` must write, from every cell of ``inst.dense()``:
    csv writes each in "%.17g" ("-0" where a negative scale meets a zero),
    libsvm the nonzeros with their 1-based columns."""
    rows = inst.dense()
    if fmt == "csv":
        lines = [",".join(f"feature_{j}" for j in range(1, inst.k + 1)) + ",label"]
        lines += [",".join("%.17g" % v for v in row) + ",%d" % lab
                  for row, lab in zip(rows, inst.labels)]
    else:
        lines = ["%d" % lab + "".join(" %d:%.17g" % (j + 1, v) for j, v in enumerate(row) if v)
                 for row, lab in zip(rows, inst.labels)]
    return "\n".join(lines) + "\n"


@st.composite
def _export_cases(draw):
    """An instance of either variant, k from 1 to 64, at a normal or a
    subnormal scale, left alone or rotated by 0 to 8 reflectors (each on a
    leading block of random length, with random entries or two values),
    and a chunk size ``CHUNK_CELLS`` from 1 to 4k entries."""
    k = draw(st.integers(1, 64))
    variant = draw(st.sampled_from(["fourblock", "twoblock"]))
    if draw(st.booleans()):  # many s * (W U) entries underflow to +-0
        sigma, zeta = 1.3e-322, 1e-322
    else:
        zeta = 10.0 ** draw(st.floats(-3.0, 3.0))
        sigma = zeta * draw(st.floats(1.01, 10.0))
    inst = build_instance(k, sigma, zeta, variant)
    j = draw(st.integers(0, 8))
    if j or draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        U = Rotation(k)
        for _ in range(j):
            m = draw(st.integers(1, k))
            U.append(rng.standard_normal(m) if draw(st.booleans())
                     else np.append(np.ones(m - 1), -3.0))
        inst = RotatedInstance(inst, U)
    return inst, draw(st.integers(1, 4 * k))


@settings(max_examples=100, deadline=None)
@given(case=_export_cases())
def test_export_is_the_dense_text(case, tmp_path_factory):
    # both formats, byte for byte, over chunks of any size: one-row chunks,
    # chunks that split a block's nonzeros, and the whole block in one
    inst, cells = case
    out = tmp_path_factory.mktemp("export")
    default = datasets.CHUNK_CELLS
    datasets.CHUNK_CELLS = cells
    try:
        for fmt in ("csv", "libsvm"):
            export(inst, fmt, out / f"data.{fmt}")
    finally:
        datasets.CHUNK_CELLS = default
    for fmt in ("csv", "libsvm"):
        assert (out / f"data.{fmt}").read_bytes() == _dense_text(inst, fmt).encode()


class TestExport:
    def test_csv_k1(self, tmp_path):
        sigma, zeta = 1.3, 1.0
        inst = build_instance(1, sigma, zeta)
        path = tmp_path / "k1.csv"
        export(inst, "csv", path)
        header, data, labels = _parse_csv(path)
        assert header == ["feature_1", "label"]
        assert data[:, 0].tolist() == [2 * sigma, -2 * zeta, -2 * sigma, 2 * zeta]
        assert labels.tolist() == [1, 1, -1, -1]

    def test_libsvm_sparse_rows(self, tmp_path):
        inst = build_instance(2, 1.3, 1.0)
        path = tmp_path / "k2.libsvm"
        export(inst, "libsvm", path)
        with open(path) as fh:
            for line in fh:
                assert len(line.split()) - 1 <= 2

    @pytest.mark.parametrize("fmt", ["csv", "libsvm"])
    def test_roundtrip_matvec(self, fmt, tmp_path, rng):
        inst = build_instance(6, 1.3, 1.0)
        path = tmp_path / f"data.{fmt}"
        export(inst, fmt, path)
        if fmt == "csv":
            _, data, labels = _parse_csv(path)
        else:
            data, labels = _parse_libsvm(path, inst.k)
        assert np.array_equal(labels, inst.labels)
        x = rng.standard_normal(inst.k)
        assert np.array_equal(data @ x, inst.dense() @ x)
        A, b = dense_ab(inst.k, 1.3, 1.0)
        assert np.array_equal(data, A)
        assert np.array_equal(labels, b)

    def test_json_meta_schema(self, tmp_path):
        # every export writes its sidecar beside the data file: the family
        # fields merged with extra_meta, whatever the format or instance
        extra = {"c": 0.1, "f_star": 2.0, "xstar_norm_sq": 3.0}
        cases = [(build_instance(4, 1.3, 1.0, variant), variant, 4 * blocks)
                 for variant, blocks in (("fourblock", 4), ("twoblock", 2))]
        rot = RotatedInstance(build_instance(5, 1.7, 1.1), random_orthogonal(5, seed=3))
        cases.append((rot, "fourblock", 20))
        for n, (inst, variant, rows) in enumerate(cases):
            for fmt in ("csv", "libsvm"):
                path = tmp_path / f"data{n}.{fmt}"
                sidecar = export(inst, fmt, path, extra_meta=extra)
                assert sidecar == tmp_path / f"data{n}.{fmt}.meta.json"
                meta = json.loads(sidecar.read_text())
                assert meta == {"k": inst.k, "sigma": inst.sigma, "zeta": inst.zeta,
                                "variant": variant, "N": rows,
                                "spectral_norm_bound": inst.spectral_norm_bound(), **extra}
                assert sidecar.read_text() == json.dumps(meta, indent=2, sort_keys=True) + "\n"
        sidecar = export(rot, "csv", str(tmp_path / "plain.csv"))  # a str path, no extra
        assert sidecar == tmp_path / "plain.csv.meta.json"
        assert set(json.loads(sidecar.read_text())) == {
            "k", "sigma", "zeta", "variant", "N", "spectral_norm_bound"}

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_meta_writes_nothing(self, tmp_path, bad):
        # a sidecar must be valid JSON: no Infinity or NaN, and no data file
        # written before the sidecar is refused
        inst = build_instance(4, 1.3, 1.0)
        for fmt in ("csv", "libsvm"):
            path = tmp_path / f"data.{fmt}"
            with pytest.raises(ValueError, match="xstar_norm_sq"):
                export(inst, fmt, path, extra_meta={"c": 0.1, "xstar_norm_sq": bad})
        assert list(tmp_path.iterdir()) == []

    def test_rotated_export_uses_effective_matrix(self, tmp_path):
        inst = build_instance(5, 1.3, 1.0)
        U = random_orthogonal(5, seed=11)
        rot = RotatedInstance(inst, U)
        AU, b = rotated_ab(U.dense(), 1.3, 1.0)
        assert np.array_equal(rot.dense(), AU)
        path = tmp_path / "rot.csv"
        export(rot, "csv", path)
        _, data, labels = _parse_csv(path)
        assert np.array_equal(data, AU)
        assert np.array_equal(labels, b)

    @pytest.mark.parametrize("variant", ["fourblock", "twoblock"])
    @pytest.mark.parametrize("fmt", ["csv", "libsvm"])
    def test_base_export_bytes(self, variant, fmt, tmp_path):
        # the exact text: 17 significant digits, "-0" where a negative block
        # scales a zero, integer labels, no trailing spaces
        k, sigma, zeta = 4, 1.3, 0.7
        A, b = dense_ab(k, sigma, zeta, variant)
        if fmt == "csv":
            lines = [",".join(f"feature_{j}" for j in range(1, k + 1)) + ",label"]
            lines += [
                ",".join("%.17g" % v for v in row) + ",%d" % lab for row, lab in zip(A, b)
            ]
        else:
            lines = [
                "%d" % lab + "".join(" %d:%.17g" % (j + 1, v) for j, v in enumerate(row) if v)
                for row, lab in zip(A, b)
            ]
        path = tmp_path / f"data.{fmt}"
        export(build_instance(k, sigma, zeta, variant), fmt, path)
        assert path.read_text() == "\n".join(lines) + "\n"
        first = {
            "csv": "0,0,-2.6000000000000001,2.6000000000000001,1",
            "libsvm": "1 3:-2.6000000000000001 4:2.6000000000000001",
        }[fmt]
        assert lines[1 if fmt == "csv" else 0] == first
        if (variant, fmt) == ("fourblock", "csv"):
            assert lines[k + 1] == "-0,-0,1.3999999999999999,-1.3999999999999999,1"

    @pytest.mark.parametrize("variant", ["fourblock", "twoblock"])
    def test_rotated_libsvm_bytes_drop_underflow(self, variant, tmp_path):
        # at a subnormal scale many s * (W U) entries underflow to +-0 and
        # must be dropped exactly as a scan of the dense rows drops them
        rot = RotatedInstance(build_instance(20, 1.3e-322, 1e-322, variant),
                              random_orthogonal(20, seed=5))
        rows = rot.dense()
        w_rows = np.tile(rot.w_block(), (len(rot.block_scales), 1))
        assert np.any((rows == 0) & (w_rows != 0))
        lines = [
            "%d" % lab + "".join(" %d:%.17g" % (j + 1, v) for j, v in enumerate(row) if v)
            for row, lab in zip(rows, rot.labels)
        ]
        path = tmp_path / "rot.libsvm"
        export(rot, "libsvm", path)
        assert path.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("case", [
        *[(variant, k, None) for variant in ("fourblock", "twoblock") for k in (1, 2, 5, 400)],
        ("fourblock", 12, "reflectors"), ("twoblock", 12, "reflectors"),
        ("fourblock", 20, "subnormal"),  # many s * (W U) entries underflow to +-0
    ], ids=lambda case: f"{case[0]}-k{case[1]}-{case[2] or 'base'}")
    def test_csv_bytes_are_the_dense_rows(self, case, tmp_path):
        # every cell of inst.dense() in "%.17g", "-0" wherever a negative
        # scale meets a zero, though the writer formats only the nonzeros
        variant, k, rotation = case
        sigma, zeta = (1.3e-322, 1e-322) if rotation == "subnormal" else (1.7, 1.1)
        inst = build_instance(k, sigma, zeta, variant)
        if rotation == "reflectors":  # a dense leading block and a zero tail
            U = Rotation(k)
            for m, seed in ((k - 2, 1), (k - 5, 2)):
                U.append(np.random.default_rng(seed).standard_normal(m))
            inst = RotatedInstance(inst, U)
        elif rotation == "subnormal":
            inst = RotatedInstance(inst, random_orthogonal(k, seed=5))
        rows = inst.dense()
        texts = ["%.17g" % v for v in rows.ravel()]
        if variant == "fourblock" and k > 1:
            assert "-0" in texts
        lines = [",".join(f"feature_{j}" for j in range(1, k + 1)) + ",label"]
        lines += [",".join(texts[i * k : (i + 1) * k]) + ",%d" % lab
                  for i, lab in enumerate(inst.labels)]
        path = tmp_path / "data.csv"
        export(inst, "csv", path)
        text = path.read_text()
        assert text.endswith("\n")
        assert text[:-1].split("\n") == lines  # a list: a failure names its first line

    def test_w_nonzeros_closed_form(self, rng):
        # the writer's (rows, cols, vals), chunk by chunk over any partition
        # of the rows: each chunk holds its own rows, and together they are
        # the block's nonzeros in row-major order, as np.nonzero lists them,
        # bit for bit; W from the closed form, W U from the rows of U it needs
        def check(inst, block):
            rows, cols = np.nonzero(block)
            for bounds in _partitions(inst.k, rng):
                chunks = list(inst.w_nonzeros(bounds))
                assert len(chunks) == len(bounds)
                for (lo, hi), (r, _, _) in zip(bounds, chunks):
                    assert np.all((lo <= r) & (r < hi))
                got_rows, got_cols, got_vals = (np.concatenate(x) for x in zip(*chunks))
                assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)
                assert np.array_equal(got_vals.view(np.int64), block[rows, cols].view(np.int64))

        for k in list(range(1, 25)) + [100, 401]:
            check(build_instance(k, 1.3, 1.0), dense_w(k))
        for k, j in ((1, 1), (9, 9), (40, 3), (131, 1)):
            U = Rotation(k)
            for i in range(j):
                U.append(rng.standard_normal(max(k - 2 * i - 1, 1)))
            check(RotatedInstance(build_instance(k, 1.3, 1.0), U), w_rows_times(U.dense()))

    @pytest.mark.parametrize("reflector, formats, bound", [
        ("two-valued", ("libsvm", "csv"), 8),
        ("leading-100", ("libsvm", "csv"), 8),
        ("leading-400", ("libsvm",), 14),
    ], ids=["two-valued", "leading-100", "leading-400"])
    def test_rotated_export_holds_one_chunk(self, reflector, formats, bound, tmp_path,
                                            monkeypatch):
        # no k x k array: at k = 1602 the export peaks below ``bound`` chunks
        # of CHUNK_CELLS floats, a fifth of one k x k array or less.  W U's
        # nonzeros fit in one chunk when U's rows take two values (as the
        # adversary's one reflection makes them) or after a reflector on the
        # leading 100 coordinates (13k), so the block is read once and held
        # for all blocks: 8 chunks (4.0 and 4.7 measured).  After one on the
        # leading 400 (163k) it is read again for each block, a chunk at a
        # time: 14 chunks (10.3 measured); holding its nonzeros whole measured
        # 23, and a dense W U 88.  The re-read takes the chunks of the loop
        # both formats share, so it is timed in one (8 s under tracemalloc)
        k = 1602
        U = Rotation(k)
        U.append(np.append(np.ones(k - 3), -3.0) if reflector == "two-valued"
                 else np.random.default_rng(2).standard_normal(int(reflector[8:])))
        inst = RotatedInstance(build_instance(k, 1.3, 1.0, "twoblock"), U)
        nonzeros = sum(len(w) for _, _, w in inst.w_nonzeros(datasets._row_bounds(k, k)))
        assert (nonzeros > datasets.CHUNK_CELLS) == (reflector == "leading-400")

        def no_dense(_):
            raise AssertionError("export built U")

        monkeypatch.setattr(Rotation, "dense", no_dense)
        chunk = (datasets.CHUNK_CELLS // k) * k * 8
        for fmt in formats:
            tracemalloc.start()
            try:
                export(inst, fmt, tmp_path / f"data.{fmt}")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * chunk <= k * k * 8 / 5

    def test_unwritable_path(self, tmp_path):
        inst = build_instance(2, 1.3, 1.0)
        with pytest.raises(OSError):
            export(inst, "csv", tmp_path / "missing_dir" / "x.csv")

    def test_unknown_format(self, tmp_path):
        inst = build_instance(2, 1.3, 1.0)
        with pytest.raises(ValueError, match="unknown format"):
            export(inst, "parquet", tmp_path / "x.bin")

    @pytest.mark.parametrize("fmt", ["json-meta", "CSV", "lib_svm"])
    def test_only_the_cli_formats(self, fmt, tmp_path):
        # exactly the CLI's two choices: no case folding, no '_' for '-', and
        # the sidecar is no format of its own; nothing is written
        inst = build_instance(2, 1.3, 1.0)
        with pytest.raises(ValueError, match=f"unknown format '{fmt}'"):
            export(inst, fmt, tmp_path / "x.bin")
        assert list(tmp_path.iterdir()) == []
