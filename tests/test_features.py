import math
import tracemalloc

import numpy as np
import pytest

from hlvc.cli import main
from hlvc.features import (
    BLOCK_ROWS,
    DEFAULT_EPSILON,
    L2_FLOOR,
    ConvergenceError,
    NormalizerStats,
    apply_normalizer,
    fit_pca_whitening,
    fit_znorm,
    jacobi_eigh,
    l2_normalize,
)


class TestL2Normalize:
    def test_rows_have_unit_norm(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 8)) * 10.0
        out, degenerate = l2_normalize(x)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)
        assert not degenerate.any()

    def test_direction_preserved(self):
        x = np.array([[3.0, 4.0]])
        out, _ = l2_normalize(x)
        np.testing.assert_allclose(out, [[0.6, 0.8]], rtol=1e-15)

    def test_degenerate_rows_pass_through(self):
        x = np.array([[0.0, 0.0], [1.0, 0.0], [L2_FLOOR / 2, 0.0]])
        out, degenerate = l2_normalize(x)
        assert degenerate.tolist() == [True, False, True]
        np.testing.assert_array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[2], x[2])

    def test_single_vector(self):
        out, degenerate = l2_normalize(np.array([0.0, 5.0]))
        np.testing.assert_allclose(out, [0.0, 1.0])
        assert degenerate.shape == ()


class TestZnorm:
    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(loc=3.0, scale=2.5, size=(500, 16))
        stats = fit_znorm(x)
        np.testing.assert_allclose(stats.mean, x.mean(axis=0), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(stats.scale, x.std(axis=0), rtol=1e-10)

    def test_stable_under_large_offset(self):
        # single-pass moment accumulation must survive mean >> std
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2000, 3)) + 1e8
        stats = fit_znorm(x)
        np.testing.assert_allclose(stats.scale, x.std(axis=0), rtol=1e-6)

    def test_population_variance_convention(self):
        x = np.array([[0.0], [2.0]])
        stats = fit_znorm(x)
        np.testing.assert_allclose(stats.mean, [1.0])
        np.testing.assert_allclose(stats.scale, [1.0])  # sqrt(((1)^2+(1)^2)/2)

    def test_constant_dimension_clamped_to_epsilon(self):
        x = np.ones((10, 2))
        x[:, 1] = np.arange(10.0)
        stats = fit_znorm(x, epsilon=1e-6)
        assert stats.scale[0] == 1e-6
        out = apply_normalizer(stats, x)
        # constant dim centers to exactly zero, no blow-up
        np.testing.assert_array_equal(out[:, 0], np.zeros(10))

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_znorm(np.ones((1, 4)))
        with pytest.raises(ValueError):
            fit_znorm(np.ones((0, 4)))

    def test_transform_standardizes_fitting_set(self):
        rng = np.random.default_rng(6)
        x = rng.normal(loc=-7.0, scale=4.0, size=(3000, 8))
        stats = fit_znorm(x, l2_after=False)
        out = apply_normalizer(stats, x)
        assert np.abs(out.mean(axis=0)).max() < 1e-12
        np.testing.assert_allclose(out.var(axis=0), 1.0, atol=1e-10)


def known_spectrum(rng, eigvals):
    """Q diag(eigvals) Q^T for a random orthogonal Q (from QR): a matrix whose
    spectrum is known without calling an eigensolver."""
    n = len(eigvals)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q @ np.diag(eigvals) @ q.T


def eig_atol(eigvals) -> float:
    """c * eps * ||A||_2: the Weyl bound of a backward-stable eigensolver."""
    return 10 * len(eigvals) * np.finfo(np.float64).eps * np.abs(eigvals).max()


class TestJacobiEigh:
    def test_recovers_known_spectrum_spd(self):
        rng = np.random.default_rng(7)
        for n in (2, 5, 16, 33):
            lam = rng.uniform(0.5, 10.0, size=n)
            a = known_spectrum(rng, lam)
            vals, vecs = jacobi_eigh(a)
            np.testing.assert_allclose(vals, np.sort(lam)[::-1], rtol=0, atol=eig_atol(lam))
            # reconstruction and orthonormality pin the eigenvectors
            np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-9)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-12)

    def test_indefinite_matrix(self):
        rng = np.random.default_rng(8)
        lam = rng.uniform(-5.0, 5.0, size=10)
        a = known_spectrum(rng, lam)
        vals, vecs = jacobi_eigh(a)
        assert (np.diff(vals) <= 0).all()  # decreasing order
        np.testing.assert_allclose(vals, np.sort(lam)[::-1], rtol=0, atol=eig_atol(lam))
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-9)

    def test_diagonal_matrix_is_fixed_point(self):
        a = np.diag([3.0, -1.0, 2.0])
        vals, vecs = jacobi_eigh(a)
        np.testing.assert_array_equal(vals, [3.0, 2.0, -1.0])
        np.testing.assert_allclose(np.abs(vecs), np.eye(3)[:, [0, 2, 1]])

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(9)
        b = rng.normal(size=(6, 6))
        a = b @ b.T
        _, vecs = jacobi_eigh(a)
        peaks = vecs[np.abs(vecs).argmax(axis=0), np.arange(6)]
        assert (peaks > 0).all()

    def test_near_degenerate_eigenvalues(self):
        # eigenvalues 1 and 1+1e-9 must stay apart
        a = known_spectrum(np.random.default_rng(10), [1.0, 1.0 + 1e-9, 0.5, 2.0])
        vals, vecs = jacobi_eigh(a)
        np.testing.assert_allclose(sorted(vals), [0.5, 1.0, 1.0 + 1e-9, 2.0], rtol=1e-12)
        np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, a, atol=1e-12)

    def test_wide_dynamic_range(self):
        # a backward-stable solver pins each eigenvalue only to within
        # c * eps * ||A||, so the small ones are checked absolutely
        lam = np.array([1e12, 1.0, 1e-12])
        m = known_spectrum(np.random.default_rng(11), lam)
        vals, vecs = jacobi_eigh(m)
        np.testing.assert_allclose(vals, lam, rtol=0, atol=eig_atol(lam))
        assert abs(vals.sum() - np.trace(m)) < 1e-9 * np.trace(m)
        assert np.abs(vecs @ np.diag(vals) @ vecs.T - m).max() < 1e-9 * 1e12

    def test_rejects_asymmetric_and_nonsquare(self):
        with pytest.raises(ValueError):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            jacobi_eigh(np.zeros((2, 3)))

    def test_lapack_failure_raises_convergence_error(self, tmp_path, monkeypatch, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--out", str(data), "--num-verticals", "3",
                     "--num-entities", "6", "--dim", "4", "--num-train", "40",
                     "--num-val", "10"]) == 0

        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError):
            jacobi_eigh(np.array([[1.0, 0.5], [0.5, 1.0]]))
        capsys.readouterr()
        code = main(["train", "--vocab", str(data / "vocab.txt"),
                     "--train", str(data / "train.shard"), "--out", str(tmp_path / "o.ckpt"),
                     "--model", "logreg", "--norm", "pca", "--iters", "1"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_input_not_mutated(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        keep = a.copy()
        jacobi_eigh(a)
        np.testing.assert_array_equal(a, keep)


class TestPcaWhitening:
    def test_whitened_covariance_is_identity(self):
        rng = np.random.default_rng(12)
        mix = rng.normal(size=(6, 6))
        x = rng.normal(size=(4000, 6)) @ mix.T + rng.normal(size=6) * 5.0
        stats = fit_pca_whitening(x, l2_after=False, epsilon=1e-10)
        out = apply_normalizer(stats, x)
        cov = np.cov(out, rowvar=False, bias=True)
        assert np.abs(cov - np.eye(6)).max() < 1e-4
        assert np.abs(out.mean(axis=0)).max() < 1e-8

    def test_matches_eigh_reference_transform(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(900, 5)) @ rng.normal(size=(5, 5))
        stats = fit_pca_whitening(x, l2_after=False, epsilon=1e-6)
        cov = np.cov(x, rowvar=False, bias=True)
        vals, vecs = np.linalg.eigh(cov)
        ref = vecs[:, ::-1].T / np.sqrt(vals[::-1] + 1e-6)[:, None]
        got = apply_normalizer(stats, x)
        want = (x - x.mean(axis=0)) @ ref.T
        # rows of the transform are sign-ambiguous; compare row-wise
        for r in range(5):
            close = np.allclose(got[:, r], want[:, r], atol=1e-8)
            flipped = np.allclose(got[:, r], -want[:, r], atol=1e-8)
            assert close or flipped

    def test_stable_under_large_offset(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2000, 3)) + np.array([1e7, -1e7, 5e6])
        stats = fit_pca_whitening(x, l2_after=False, epsilon=1e-10)
        out = apply_normalizer(stats, x)
        cov = np.cov(out, rowvar=False, bias=True)
        assert np.abs(cov - np.eye(3)).max() < 1e-4

    def test_rank_deficient_data(self):
        # one dimension is a copy of another: eigenvalue 0, epsilon keeps it finite
        rng = np.random.default_rng(16)
        base = rng.normal(size=(500, 2))
        x = np.column_stack([base, base[:, 0]])
        stats = fit_pca_whitening(x, l2_after=False, epsilon=1e-6)
        out = apply_normalizer(stats, x)
        assert np.isfinite(out).all()

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            fit_pca_whitening(np.ones((1, 3)))


@pytest.mark.parametrize("fit", [fit_znorm, fit_pca_whitening], ids=["znorm", "pca"])
class TestFitInput:
    def test_float32_fit_equals_float64_upcast_bitwise(self, fit):
        rng = np.random.default_rng(14)
        x = rng.normal(loc=2.0, size=(1300, 4)).astype(np.float32)  # crosses 512-row slices
        a = fit(x)
        b = fit(x.astype(np.float64))
        np.testing.assert_array_equal(a.mean, b.mean)
        np.testing.assert_array_equal(a.scale, b.scale)

    def test_fit_holds_two_float64_blocks_and_writes_no_input(self, fit):
        """Besides the D x D sums and product, fitting holds the new float64
        block an input object returns and the one buffer that block is
        shifted into; numpy may add a ufunc buffer.
        A plain ndarray's blocks are views, and the fit must not write them."""
        n, d = 20000, 64
        x = np.random.default_rng(15).normal(loc=2.0, size=(n, d))

        class Rows:
            shape = x.shape

            def __getitem__(self, rows):
                return x[rows].copy()

        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            got = fit(Rows())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 8 * (2 * BLOCK_ROWS * d + 2 * d * d + np.getbufsize())
        before = x.copy()
        want = fit(x)
        np.testing.assert_array_equal(x, before, strict=True)
        np.testing.assert_array_equal(got.mean, want.mean)
        np.testing.assert_array_equal(got.scale, want.scale)

    def test_generator_and_1d_input_rejected(self, fit):
        x = np.ones((10, 3))
        with pytest.raises(ValueError):
            fit(row for row in x)
        with pytest.raises(ValueError):
            fit(x[:, 0])


class TestApplyNormalizer:
    def test_single_vector_matches_batch_row(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(50, 6))
        for stats in (fit_znorm(x), fit_pca_whitening(x)):
            batch = apply_normalizer(stats, x)
            one = apply_normalizer(stats, x[7])
            # gemm vs gemv kernels may differ in the last ulp
            np.testing.assert_allclose(one, batch[7], rtol=1e-13, atol=1e-15)

    def test_l2_after_flag(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(40, 5))
        with_l2 = apply_normalizer(fit_znorm(x, l2_after=True), x)
        np.testing.assert_allclose(np.linalg.norm(with_l2, axis=1), 1.0, atol=1e-9)
        without = apply_normalizer(fit_znorm(x, l2_after=False), x)
        assert not np.allclose(np.linalg.norm(without, axis=1), 1.0)

    def test_dim_mismatch_rejected(self):
        stats = fit_znorm(np.random.default_rng(19).normal(size=(10, 4)))
        with pytest.raises(ValueError):
            apply_normalizer(stats, np.zeros(5))

    def test_stats_validation(self):
        with pytest.raises(ValueError):
            NormalizerStats("bogus", np.zeros(3), np.ones(3))
        with pytest.raises(ValueError):
            NormalizerStats("znorm", np.zeros(3), np.ones(4))
        with pytest.raises(ValueError):
            NormalizerStats("pca", np.zeros(3), np.ones(3))  # needs (3, 3)
        with pytest.raises(ValueError):
            NormalizerStats("znorm", np.array([np.nan, 0.0]), np.ones(2))
