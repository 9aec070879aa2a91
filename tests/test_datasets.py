import collections
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardlogit import (
    RotatedInstance,
    Rotation,
    WorstCaseInstance,
    build_instance,
    build_w,
    constant_c_ratio,
    datasets,
    export,
    invariants,
    loss,
    resist,
)
from conftest import (
    dense_ab,
    dense_w,
    instance,
    libsvm_text,
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
        for k in [*range(1, 65), 401]:
            w = build_w(k)
            W = dense_w(k)
            assert np.array_equal(w.dense().view(np.int64), W.view(np.int64))  # -0 is not +0
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
        # the message names both shapes apply takes, as the loss kernel's does
        for bad in (np.ones(5), np.ones((5, 4)), np.ones((3, 4)), np.ones((4, 2, 2)),
                    np.float64(1.0)):
            expected = f"dimension mismatch: expected (4,) or (4, m), got {np.shape(bad)}"
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
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
        # the CLI's half: blocks 0 and 3 of the four-block instance, bit for bit
        inst = instance(3, 2.0, 1.0, "twoblock")  # sigma = 2*zeta is a valid instance
        assert (inst.block_scales, inst.block_labels) == ((4.0, 2.0), (1.0, -1.0))
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
        for k in (1, 2, 6, 602):  # -0 is not +0
            assert np.array_equal(Rotation(k).dense().view(np.int64), np.eye(k).view(np.int64))

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
        chunks = datasets._row_bounds(k, k)  # CHUNK_CELLS entries a block
        assert np.array_equal(np.vstack(list(U.row_blocks(chunks))).view(np.int64), dense)

    def test_row_blocks_holds_one_block(self):
        # a reader that drops each block holds one: the generator releases
        # its block before the next one's GEMM (holding it peaked at 2.17
        # blocks here).  U is the denseprobe adversary's: one reflector
        # whose coefficients are equal but for its last
        k = 1602
        U = Rotation(k)
        v = np.ones(k - 2)
        v[-1] = -2.0
        U.append(v)
        bounds = datasets._row_bounds(k, k)
        block = 8 * k * (bounds[0][1] - bounds[0][0])
        tracemalloc.start()
        try:
            collections.deque(U.row_blocks(bounds), maxlen=0)  # keeps no block
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(bounds) > 2
        assert peak <= 1.5 * block

    def test_append_checks_the_reflector(self):
        U = Rotation(4)
        for bad in (np.ones(5), np.ones(0), np.ones((2, 2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                U.append(bad)
        assert len(U) == 0
        # v'v of 0, underflowing to 0, NaN, overflowing, or so small that
        # 2/(v'v) overflows: each raises, with no warning, and U keeps its factors
        U.append(np.array([1.0, 2.0]))
        V, T = U.V.copy(), U.triangular.copy()
        for bad in (np.zeros(3), [1e-200, 0.0], [np.nan, 1.0], [1e200, 1.0], [1e-155, 0.0],
                    [np.inf, 0.0]):
            with pytest.raises(ValueError, match="invalid reflector"):
                U.append(bad)
            assert len(U) == 1
            assert np.array_equal(U.V, V) and np.array_equal(U.triangular, T)
        # a 0-d reflector has no length: it raises the dimension error, not
        # an IndexError, and U keeps its factors
        for bad in (np.float64(2.0), np.array(-1.0), 3.0):
            with pytest.raises(ValueError, match=re.escape("reflector of shape () in dimension 4")):
                U.append(bad)
            assert len(U) == 1
            assert np.array_equal(U.V, V) and np.array_equal(U.triangular, T)
        # beside a tiny first reflector, a tiny second one overflows T's new
        # column, -beta T (V v): it raises with no warning and leaves U, and
        # the next reflector appends as if it had never been offered
        U, fresh = Rotation(3), Rotation(3)
        U.append([1.1e-154])
        fresh.append([1.1e-154])
        V, T = U.V.copy(), U.triangular.copy()
        with pytest.raises(ValueError, match="invalid reflector"):
            U.append([1.1e-154, 1e-160])
        assert len(U) == 1
        assert np.array_equal(U.V, V) and np.array_equal(U.triangular, T)
        U.append([1.0])
        fresh.append([1.0])
        assert np.array_equal(U.V, fresh.V) and np.array_equal(U.triangular, fresh.triangular)
        assert np.isfinite(U.dense()).all()


def _partitions(k, rng):
    """Row bounds (lo, hi) covering 0..k-1: one block, one row per block, and
    random cuts with both ends cut off as one-row blocks."""
    cuts = np.unique(np.concatenate(([0, 1, k - 1, k], rng.integers(0, k, k // 3 + 1))))
    return [[(0, k)], [(i, i + 1) for i in range(k)],
            [(lo, hi) for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()) if lo < hi]]


FAMILY = ("k", "sigma", "zeta", "n_rows", "w", "block_scales", "block_labels")


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
        inst = instance(k, 1.3, 0.7, variant)
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
        inst = instance(7, 1.3, 0.7, variant)
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

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 200), data=st.data())
    @example(k=522, data=None)
    def test_w_block_is_the_row_rule(self, k, data):
        # W U, by WOperator.apply on the dense U, has the bits of the literal
        # row rule on U's rows (row i < k-1 is U[k-1-i] - U[k-2-i], row k-1
        # is U[0]), and so has every nonzero the libsvm writer reads: over 0
        # to 5 reflectors of any support, random or equal but for the last
        # coefficient (as denseprobe's), at scales 10^[-5, 5]; the example
        # is the denseprobe resist cell's one reflection
        U = Rotation(k)
        if data is None:
            U.append(np.append(np.ones(k - 3), -3.0))
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            for _ in range(data.draw(st.integers(0, 5))):
                v = rng.standard_normal(data.draw(st.integers(1, k)))
                if data.draw(st.booleans()):
                    v[:-1] = v[0]
                U.append(v * 10.0 ** data.draw(st.floats(-5.0, 5.0)))
        inst = RotatedInstance(build_instance(k, 1.3, 1.0), U)
        block = inst.w_block()
        assert np.array_equal(block.view(np.int64), w_rows_times(U.dense()).view(np.int64))
        rows, cols = np.nonzero(block)
        chunks = list(datasets._chunks(inst, datasets._row_bounds(k, k)))
        got = [np.concatenate(part) for part in list(zip(*chunks))[2:]]
        assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
        assert np.array_equal(got[2].view(np.int64), block[rows, cols].view(np.int64))

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
        # factors must not drop it.  ``append`` refuses such a reflector, so
        # the NaN is planted in V afterwards, as a fault would leave it
        k = 300
        U = Rotation(k)
        U.append(rng.standard_normal(k))
        U.V[0, 7] = np.nan
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
            got = instance(k, sigma, zeta, variant).a_norm()
            assert abs(got - ref) <= 1e-14 * ref, (k, got, ref)

    def test_k10_matches_dense_svd(self):
        inst = build_instance(10, 1.3, 1.0)
        ref = np.linalg.svd(inst.dense(), compute_uv=False)[0]
        assert abs(inst.a_norm() - ref) <= 1e-14 * ref

    def test_below_closed_form_bound(self):
        for variant in ("fourblock", "twoblock"):
            for k in (1, 2, 3, 5, 13, 50, 120, 200):
                inst = instance(k, 1.3, 1.0, variant)
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
        insts = [instance(k, np.ldexp(sigma, e), np.ldexp(zeta, e), variant)
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
            inst = instance(7, 1.3 * scale, scale, variant)
            unit = instance(7, 1.3, 1.0, variant)
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
    """The file ``export`` must write, from every cell of the dense rows of
    ``inst``, those of ``inst.dense()``, 256 rows of a block s * ``w_block()``
    at a time: csv writes each in "%.17g" ("-0" where a negative scale meets
    a zero), libsvm the nonzeros with their 1-based columns.  A csv row is
    cut where a cell's bits differ from the cell before, and each run of
    equal cells is one text repeated, so a four-block csv at k = 2100 (17.6M
    cells) takes under half a second."""
    block, k = inst.w_block(), inst.k
    lines = [",".join(f"feature_{j}" for j in range(1, k + 1)) + ",label"] * (fmt == "csv")
    for s, lab in zip(inst.block_scales, inst.block_labels):
        for lo in range(0, k, 256):
            rows = s * block[lo : lo + 256]
            if fmt == "csv":
                bits = rows.view(np.int64)
                r, c = np.nonzero(bits[:, 1:] != bits[:, :-1])
                c += 1  # the first cell of a run
            else:
                r, c = np.nonzero(rows)
            at, c = np.searchsorted(r, np.arange(len(rows) + 1)).tolist(), c.tolist()
            for i, row in enumerate(rows):
                cols = c[at[i] : at[i + 1]]
                if fmt == "csv":
                    cuts = [0, *cols, k]
                    lines.append("".join(("%.17g," % row[a]) * (b - a)
                                         for a, b in zip(cuts, cuts[1:])) + "%d" % lab)
                else:
                    lines.append("%d" % lab + "".join(" %d:%.17g" % (j + 1, row[j]) for j in cols))
    return "\n".join(lines) + "\n"


@st.composite
def _export_cases(draw):
    """An instance or its two-block half, a chunk size ``CHUNK_CELLS`` from
    1 to 4k entries and the formats to write.  A third of the draws are a
    base instance, written from W's closed form, in one format: k from 1 to
    2100, sigma/zeta in (1, 1e4] and zeta in 10^[-8, 8].  The rest, in
    both formats (csv refused where U holds a reflector), have k from 1 to
    64, at a normal or a subnormal scale, left alone or rotated by 0 to 8
    reflectors (each on a leading block of random length, with random
    entries or two values)."""
    variant = draw(st.sampled_from(["fourblock", "twoblock"]))
    if draw(st.integers(0, 2)) == 0:
        k = draw(st.integers(1, 2100))
        zeta = 10.0 ** draw(st.floats(-8.0, 8.0))
        sigma = zeta * draw(st.floats(1.0, 1e4, exclude_min=True))  # ratio > 1: sigma > zeta
        return (instance(k, sigma, zeta, variant), draw(st.integers(1, 4 * k)),
                (draw(st.sampled_from(datasets.FORMATS)),))
    k = draw(st.integers(1, 64))
    if draw(st.booleans()):  # many s * (W U) entries underflow to +-0
        sigma, zeta = 1.3e-322, 1e-322
    else:
        zeta = 10.0 ** draw(st.floats(-3.0, 3.0))
        sigma = zeta * draw(st.floats(1.01, 10.0))
    inst = instance(k, sigma, zeta, variant)
    j = draw(st.integers(0, 8))
    if j or draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        U = Rotation(k)
        for _ in range(j):
            m = draw(st.integers(1, k))
            U.append(rng.standard_normal(m) if draw(st.booleans())
                     else np.append(np.ones(m - 1), -3.0))
        inst = RotatedInstance(inst, U)
    return inst, draw(st.integers(1, 4 * k)), datasets.FORMATS


@settings(max_examples=150, deadline=None)
@given(case=_export_cases())
@example(case=(build_instance(1, 1.3, 1.0), 1, datasets.FORMATS))
@example(case=(instance(1, 1.3, 1.0, "twoblock"), 4, datasets.FORMATS))
@example(case=(instance(2, 1.7, 1.1, "twoblock"), 3, datasets.FORMATS))
@example(case=(build_instance(3, 3.9e6, 1e3), 6, datasets.FORMATS))
@example(case=(build_instance(3, 1.3e-322, 1e-322), 1, datasets.FORMATS))
@example(case=(build_instance(2100, 1e-4, 1e-8), 4 * 2100, ("libsvm",)))
def test_export_is_the_dense_text(case, tmp_path_factory):
    # the formats drawn, byte for byte, over chunks of any size: one-row
    # chunks, chunks that split a block's nonzeros, and the whole block in
    # one; an instance whose U holds a reflector has no csv, and no file
    # is opened for it
    inst, cells, formats = case
    refused = {"csv"} if isinstance(inst, RotatedInstance) and len(inst.U) else set()
    out = tmp_path_factory.mktemp("export")
    default = datasets.CHUNK_CELLS
    datasets.CHUNK_CELLS = cells
    try:
        for fmt in formats:
            if fmt in refused:
                with pytest.raises(ValueError, match="libsvm only"):
                    export(inst, fmt, out / f"data.{fmt}")
            else:
                export(inst, fmt, out / f"data.{fmt}")
    finally:
        datasets.CHUNK_CELLS = default
    assert sorted(p.name for p in out.iterdir()) == sorted(
        name for fmt in set(formats) - refused for name in (f"data.{fmt}", f"data.{fmt}.meta.json"))
    for fmt in set(formats) - refused:
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
        cases = [(instance(4, 1.3, 1.0, variant), 4 * blocks, datasets.FORMATS)
                 for variant, blocks in (("fourblock", 4), ("twoblock", 2))]
        rot = RotatedInstance(build_instance(5, 1.7, 1.1), random_orthogonal(5, seed=3))
        cases.append((RotatedInstance(rot, Rotation(5)), 20, datasets.FORMATS))
        cases.append((rot, 20, ("libsvm",)))  # with a reflector, libsvm only
        for n, (inst, rows, formats) in enumerate(cases):
            for fmt in formats:
                path = tmp_path / f"data{n}.{fmt}"
                sidecar = export(inst, fmt, path, extra_meta=extra)
                assert sidecar == tmp_path / f"data{n}.{fmt}.meta.json"
                meta = json.loads(sidecar.read_text())
                assert meta == {"k": inst.k, "sigma": inst.sigma, "zeta": inst.zeta,
                                "N": rows,
                                "spectral_norm_bound": inst.spectral_norm_bound(), **extra}
                assert sidecar.read_text() == json.dumps(meta, indent=2, sort_keys=True) + "\n"
        sidecar = export(rot, "libsvm", str(tmp_path / "plain.libsvm"))  # a str path, no extra
        assert sidecar == tmp_path / "plain.libsvm.meta.json"
        assert set(json.loads(sidecar.read_text())) == {
            "k", "sigma", "zeta", "N", "spectral_norm_bound"}

    @pytest.mark.parametrize("bad", [np.inf, np.nan, pytest.param(np.float32(0.5), id="float32")])
    def test_non_finite_meta_writes_nothing(self, tmp_path, bad):
        # a sidecar must be valid JSON: no Infinity or NaN, and nothing JSON
        # cannot encode (a float32), so no data file is written before the
        # sidecar is refused, and no sidecar is left cut off
        inst = build_instance(4, 1.3, 1.0)
        error, match = (ValueError, "xstar_norm_sq") if isinstance(bad, float) else (
            TypeError, "float32")
        for fmt in ("csv", "libsvm"):
            path = tmp_path / f"data.{fmt}"
            with pytest.raises(error, match=match):
                export(inst, fmt, path, extra_meta={"c": 0.1, "xstar_norm_sq": bad})
        assert list(tmp_path.iterdir()) == []

    def test_rotated_csv_is_refused(self, tmp_path):
        # with a reflector in U there is no csv of A U: export raises before
        # it opens a file, so a file already at the path keeps its bytes and
        # no sidecar is written; with no reflector both formats are written
        base = build_instance(6, 1.3, 1.0)
        U = Rotation(6)
        U.append(np.array([1.0, 2.0, -3.0]))
        path = tmp_path / "data.csv"
        path.write_bytes(b"kept\n")
        with pytest.raises(ValueError, match=r"\(1 reflectors\) is written as libsvm only"):
            export(RotatedInstance(base, U), "csv", path)
        assert path.read_bytes() == b"kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]
        export(RotatedInstance(base, U), "libsvm", tmp_path / "data.libsvm")
        for fmt in datasets.FORMATS:
            export(RotatedInstance(base, Rotation(6)), fmt, tmp_path / f"plain.{fmt}")
        assert len(list(tmp_path.iterdir())) == 7

    def test_rotated_export_uses_effective_matrix(self, tmp_path):
        inst = build_instance(5, 1.3, 1.0)
        U = random_orthogonal(5, seed=11)
        rot = RotatedInstance(inst, U)
        AU, b = rotated_ab(U.dense(), 1.3, 1.0)
        assert np.array_equal(rot.dense(), AU)
        path = tmp_path / "rot.libsvm"
        export(rot, "libsvm", path)
        data, labels = _parse_libsvm(path, 5)
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
        export(instance(k, sigma, zeta, variant), fmt, path)
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
        rot = RotatedInstance(instance(20, 1.3e-322, 1e-322, variant),
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
        (variant, k, None) for variant in ("fourblock", "twoblock") for k in (1, 2, 5, 400)
    ], ids=lambda case: f"{case[0]}-k{case[1]}-{case[2] or 'base'}")
    def test_csv_bytes_are_the_dense_rows(self, case, tmp_path):
        # every cell of inst.dense() in "%.17g", "-0" wherever a negative
        # scale meets a zero, though the writer formats only the nonzeros
        variant, k, _ = case
        inst = instance(k, 1.7, 1.1, variant)
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

    def test_chunks_hold_their_rows(self, rng, monkeypatch):
        # chunk by chunk, each chunk holds its own rows, bit for bit.  A base
        # block's text from W's closed form, in both formats and at row
        # steps of one row, two, a random few and the whole block, is the
        # dense text of those rows; ``_chunks`` over any partition of W U's
        # rows, with runs joined under budgets of 1 to 64 nonzeros, holds
        # the nonzeros of the literal row rule on the dense U, in row-major
        # order, every value bit for bit
        for k in list(range(1, 25)) + [100, 401]:
            inst = build_instance(k, 1.3, 1.0)
            assert np.array_equal(inst.w_block(), dense_w(k))
            for fmt, width in (("csv", k), ("libsvm", 2)):
                lines = _dense_text(inst, fmt).splitlines(keepends=True)[fmt == "csv":]
                for step in {1, 2, max(k - 1, 1), k, *rng.integers(1, k + 1, 3).tolist()}:
                    monkeypatch.setattr(datasets, "CHUNK_CELLS", step * width)
                    bounds = datasets._row_bounds(k, width)
                    assert [hi - lo for lo, hi in bounds] == [min(step, k - lo) for lo, _ in bounds]
                    texts = list(datasets._w_texts(inst, fmt == "libsvm"))
                    assert texts == ["".join(lines[b * k + lo : b * k + hi])
                                     for b in range(4) for lo, hi in bounds]
        for k, j in ((1, 1), (9, 9), (40, 3), (131, 1)):
            U = Rotation(k)
            for i in range(j):
                U.append(rng.standard_normal(max(k - 2 * i - 1, 1)))
            inst = RotatedInstance(build_instance(k, 1.3, 1.0), U)
            block = w_rows_times(U.dense())
            assert np.array_equal(inst.w_block().view(np.int64), block.view(np.int64))
            rows, cols = np.nonzero(block)
            for bounds in _partitions(k, rng):
                ends = {hi for _, hi in bounds}
                for cells in (8, 8 * 5, 8 * 64):  # budgets of 1, 5 and 64 nonzeros
                    monkeypatch.setattr(datasets, "CHUNK_CELLS", cells)
                    chunks = list(datasets._chunks(inst, bounds))
                    # each run is whole chunks of the partition, in order
                    assert [c[0] for c in chunks] == [0] + [c[1] for c in chunks[:-1]]
                    assert chunks[-1][1] == k and all(c[1] in ends for c in chunks)
                    for lo, hi, r, _, _ in chunks:
                        assert np.all((lo <= r) & (r < hi))
                    got = [np.concatenate(part) for part in list(zip(*chunks))[2:]]
                    assert np.array_equal(got[0], rows) and np.array_equal(got[1], cols)
                    assert np.array_equal(got[2].view(np.int64), block[rows, cols].view(np.int64))

    def test_no_reflector_text_is_the_gemm_path(self, rng, tmp_path, monkeypatch):
        # U = I: the export is chosen from the instance and takes W's closed
        # form, reading no row of U, and writes byte for byte what the
        # rotated writers write from W U's rows read by GEMM over U's rows
        # (0 - (+-0) is +0, the diagonal 1.0): the libsvm token writer, and
        # resist's row-delta writer on s * ``w_block()`` for csv, in both
        # formats and over chunks of one row to the whole block; a libsvm
        # row holds W's two nonzeros at most, so the export of the agd cell
        # (k = 602) writes each block at once
        def no_gemm(*_):
            raise AssertionError("read the rows of U")

        for k in list(range(1, 20)) + [131, 602]:
            rot = RotatedInstance(build_instance(k, 1.3, 1.0), Rotation(k))
            block = rot.w_block()
            csv = io.StringIO()
            for s, label in zip(rot.block_scales, rot.block_labels):
                resist._write_rows(csv, [s * block], ",%d\n" % label)
            references = {"csv": csv.getvalue(), "libsvm": "".join(datasets._libsvm_texts(rot))}
            for fmt, reference in references.items():
                for cells in {1, 2, 3, k, 4 * k, datasets.CHUNK_CELLS} if k < 20 else {None}:
                    with monkeypatch.context() as patch:
                        patch.setattr(Rotation, "row_blocks", no_gemm)
                        if cells:
                            patch.setattr(datasets, "CHUNK_CELLS", cells)
                        export(rot, fmt, tmp_path / f"data.{fmt}")
                    text = (tmp_path / f"data.{fmt}").read_text()
                    assert text.split("\n", fmt == "csv")[-1] == reference  # past csv's header
        assert datasets._row_bounds(602, 2) == [(0, 602)]
        # with a reflector the libsvm export reads the rows of U, and csv is
        # refused before any row is read
        U = Rotation(602)
        U.append(rng.standard_normal(600))
        monkeypatch.setattr(Rotation, "row_blocks", no_gemm)
        rot = RotatedInstance(build_instance(602, 1.3, 1.0), U)
        with pytest.raises(AssertionError, match="read the rows of U"):
            export(rot, "libsvm", tmp_path / "rot.libsvm")
        with pytest.raises(ValueError, match="libsvm only"):
            export(rot, "csv", tmp_path / "rot.csv")

    @pytest.mark.parametrize("k, rotation, cells, reads_and_writes", [
        (602, "identity", None, (1, 1)),  # the agd cell: W's closed form
        (522, "two-valued", None, (9, 1)),  # the denseprobe cell: 9 dense reads
        (2000, None, None, (1, 1)),  # the analytic sweep's base libsvm
        # runs of at most 65 nonzeros over 3-row reads of 6 outside the
        # reflector's support, so a run of 60 closes where 66 would pass it
        (131, "leading-20", 8 * 65, None),
        (131, "leading-60", 8 * 64, None),  # reads over the budget go out alone
    ], ids=["identity-602", "two-valued-522", "base-2000", "leading-20", "leading-60"])
    def test_libsvm_writes_runs_of_nonzeros(self, k, rotation, cells, reads_and_writes,
                                            tmp_path, monkeypatch):
        # consecutive chunks of a block's nonzeros go out as one write while
        # they total at most CHUNK_CELLS // 8, greedily and never split, and
        # the bytes are those of the dense rows.  W's closed form reads no
        # nonzeros; its chunks hold CHUNK_CELLS, past the budget but at a
        # block's end, so the same rule makes each chunk one write
        if cells:
            monkeypatch.setattr(datasets, "CHUNK_CELLS", cells)
        cells = datasets.CHUNK_CELLS
        budget, n = cells // 8, len(datasets._row_bounds(k, k))
        inst = build_instance(k, 1.7, 1.1)
        if rotation:
            U = Rotation(k)
            if rotation == "two-valued":  # equal coefficients, as denseprobe's one reflection
                U.append(np.append(np.ones(k - 3), -3.0))
            elif rotation != "identity":
                U.append(np.random.default_rng(k).standard_normal(int(rotation[8:])))
            inst = RotatedInstance(inst, U)
        if rotation in (None, "identity"):  # W's closed form: two nonzeros a row, one the last
            reads = [2 * (hi - lo) - (hi == k) for lo, hi in datasets._row_bounds(k, 2)]
            monkeypatch.setattr(Rotation, "row_blocks", None)
        else:  # per read of U's rows, the nonzeros of the chunk of W U it gives
            reads, row_blocks, chunks = [], Rotation.row_blocks, datasets._row_bounds(k, k)
            nonzeros = [np.count_nonzero(w_rows_times(U.dense())[lo:hi]) for lo, hi in chunks]

            def counted(self, bounds):
                for u in row_blocks(self, bounds):
                    reads.append(nonzeros[len(reads) % n])
                    yield u

            monkeypatch.setattr(Rotation, "row_blocks", counted)
        path = tmp_path / "data.libsvm"
        writes = []

        class Recording:
            def __init__(self, name, *args):
                self.name, self.fh = name, open(name, *args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                if self.name == path:
                    writes.append(text)
                return self.fh.write(text)

            def writelines(self, texts):
                for text in texts:
                    self.write(text)

        monkeypatch.setattr(datasets, "open", Recording, raising=False)
        export(inst, "libsvm", path)
        monkeypatch.undo()
        if rotation not in (None, "identity"):  # W U is read once if its nonzeros fit a chunk
            held = sum(reads[:n]) <= cells
            assert reads == reads[:n] * (1 if held else len(inst.block_scales))
            reads = reads[:n]
        text = path.read_text()
        assert text == libsvm_text(inst)
        assert "".join(writes) == text and all(w.endswith("\n") for w in writes)
        per_block = len(writes) // len(inst.block_scales)
        assert len(writes) == per_block * len(inst.block_scales)
        # the greedy runs of the reads: a run goes out when the next read
        # would take it past the budget, or once it reaches the budget
        runs, count = [], 0
        for n in reads:
            if count and count + n > budget:
                runs, count = runs + [count], 0
            count += n
            if count >= budget:
                runs, count = runs + [count], 0
        runs += [count] if count else []
        assert [w.count(":") for w in writes[:per_block]] == runs
        if reads_and_writes:
            assert (len(reads), per_block) == reads_and_writes
        else:
            assert len(reads) > per_block > 1

    @pytest.mark.parametrize("reflector, bound", [
        ("two-valued", 8), ("leading-100", 8), ("leading-400", 14),
    ], ids=["two-valued", "leading-100", "leading-400"])
    def test_rotated_export_holds_one_chunk(self, reflector, bound, tmp_path, monkeypatch):
        # no k x k array: at k = 1602 the export peaks below ``bound`` chunks
        # of CHUNK_CELLS floats, a fifth of one k x k array or less.  For
        # libsvm, W U's nonzeros fit in one chunk when U's rows take two
        # values (as the adversary's one reflection makes them) or after a
        # reflector on the leading 100 coordinates (13k), so the block is
        # read once and held for all blocks: 8 chunks (4.5 and 6.3
        # measured).  After one on the leading 400 (163k) it is read again
        # for each block, a chunk at a time: 14 chunks (10.2 measured);
        # holding its nonzeros whole measured 23, and a dense W U 88.  There
        # is no csv of a rotated instance
        k = 1602
        U = Rotation(k)
        U.append(np.append(np.ones(k - 3), -3.0) if reflector == "two-valued"
                 else np.random.default_rng(2).standard_normal(int(reflector[8:])))
        inst = RotatedInstance(instance(k, 1.3, 1.0, "twoblock"), U)
        nonzeros = np.count_nonzero(inst.w_block())
        assert (nonzeros > datasets.CHUNK_CELLS) == (reflector == "leading-400")

        def no_dense(_):
            raise AssertionError("export built U")

        monkeypatch.setattr(Rotation, "dense", no_dense)
        chunk = (datasets.CHUNK_CELLS // k) * k * 8
        tracemalloc.start()
        try:
            export(inst, "libsvm", tmp_path / "data.libsvm")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * chunk <= k * k * 8 / 5
        with pytest.raises(ValueError, match="libsvm only"):
            export(inst, "csv", tmp_path / "data.csv")

    @pytest.mark.parametrize("fmt, k", [("libsvm", 2000), ("csv", 400)])
    def test_base_export_holds_one_chunk(self, fmt, k, tmp_path):
        # W's closed form writes a chunk of rows at a time (every row of a
        # block at k = 2000 in libsvm, 81 rows of 400 in csv), so the export
        # peaks below 3.5 chunks of text: the chunk's rows, their join and
        # the bytes the file encodes (2.7 and 3.1 measured).  That is less
        # than a block's text in csv, and than the file's in libsvm
        inst = build_instance(k, 1.7, 1.1)
        path = tmp_path / f"data.{fmt}"
        export(inst, fmt, path)  # the first call's one-off allocations are not the writer's
        tracemalloc.start()
        try:
            export(inst, fmt, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = path.read_text().splitlines(keepends=True)[fmt == "csv":]
        bounds = datasets._row_bounds(k, 2 if fmt == "libsvm" else k)
        chunk = max(sum(map(len, lines[b * k + lo : b * k + hi]))
                    for b in range(4) for lo, hi in bounds)
        blocks = [sum(map(len, lines[b * k : (b + 1) * k])) for b in range(4)]
        assert peak < 3.5 * chunk < (max(blocks) if fmt == "csv" else sum(blocks))

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
