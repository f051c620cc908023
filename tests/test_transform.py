import tracemalloc

import numpy as np
import pytest

from svbackend import transform
from svbackend.corpus import EmbeddingSet
from svbackend.errors import (
    DegenerateScatterError,
    InsufficientClassesError,
    ParseError,
    ShapeError,
    ZeroVectorError,
)
from svbackend.transform import apply_lda, fit_lda, length_normalize

from oracles import relative_error


def two_class_set(rng, n_per_class=60, dim=2, sep=1.0):
    a = rng.standard_normal((n_per_class, dim)) * 0.3 + np.array([sep] + [0.0] * (dim - 1))
    b = rng.standard_normal((n_per_class, dim)) * 0.3 - np.array([sep] + [0.0] * (dim - 1))
    vectors = np.vstack([a, b])
    ids = [f"u{k}" for k in range(2 * n_per_class)]
    speakers = ["spkA"] * n_per_class + ["spkB"] * n_per_class
    return EmbeddingSet(ids, speakers, vectors)


def random_speaker_set(rng, n_speakers=5, utts=30, dim=8):
    rows, ids, speakers = [], [], []
    means = rng.standard_normal((n_speakers, dim)) * 2.0
    for s in range(n_speakers):
        for k in range(utts):
            rows.append(means[s] + rng.standard_normal(dim))
            ids.append(f"s{s}u{k}")
            speakers.append(f"spk{s}")
    return EmbeddingSet(ids, speakers, np.array(rows))


class TestFitLda:
    def test_symmetry_forced_direction(self):
        # cross-shaped offsets give exactly isotropic within-class scatter
        offsets = np.array([[0.3, 0.0], [-0.3, 0.0], [0.0, 0.3], [0.0, -0.3]])
        vectors = np.vstack([np.array([1.0, 0.0]) + offsets, np.array([-1.0, 0.0]) + offsets])
        s = EmbeddingSet(
            [f"u{k}" for k in range(8)], ["spkA"] * 4 + ["spkB"] * 4, vectors
        )
        t = fit_lda(s, 1)
        direction = t.W[:, 0] / np.linalg.norm(t.W[:, 0])
        assert abs(abs(direction[0]) - 1.0) < 1e-8

    def test_eigenvalues_match_dense_oracle(self):
        rng = np.random.default_rng(1)
        embeddings = random_speaker_set(rng)
        d = 4
        t = fit_lda(embeddings, d)
        s_w, s_b = transform.scatter_matrices(embeddings.vectors, embeddings.speakers)
        s_w_reg = s_w + transform.SCATTER_EPS * np.trace(s_w) / 8 * np.eye(8)
        # independent dense solve of the explicitly formed S_w^-1 S_b
        vals = np.linalg.eigvals(np.linalg.inv(s_w_reg) @ s_b)
        vals = np.sort(np.real(vals))[::-1][:d]
        assert relative_error(t.eigenvalues, vals) < 1e-8

    def test_paper_scale_configuration_accepted(self):
        rng = np.random.default_rng(2)
        rows, ids, speakers = [], [], []
        means = rng.standard_normal((210, 512))
        for s in range(210):
            for k in range(2):
                rows.append(means[s] * 2.0 + rng.standard_normal(512))
                ids.append(f"s{s}u{k}")
                speakers.append(f"spk{s}")
        embeddings = EmbeddingSet(ids, speakers, np.array(rows))
        t = fit_lda(embeddings, 200)
        assert t.W.shape == (512, 200)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        embeddings = random_speaker_set(rng)
        t1 = fit_lda(embeddings, 3)
        t2 = fit_lda(embeddings, 3)
        assert np.array_equal(t1.W, t2.W)
        assert np.array_equal(t1.mean, t2.mean)

    def test_single_speaker_rejected(self):
        s = EmbeddingSet(["u1", "u2"], ["a", "a"], [[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(InsufficientClassesError):
            fit_lda(s, 1)

    def test_identical_vectors_rejected(self):
        s = EmbeddingSet(["u1", "u2"], ["a", "b"], [[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(DegenerateScatterError):
            fit_lda(s, 1)

    def test_identical_vectors_with_inexact_mean_rejected(self):
        # the mean of three 0.1 entries is 0.1 + 1.4e-17, not 0.1
        s = EmbeddingSet(["u1", "u2", "u3"], ["a", "a", "b"], [[0.1, 0.1]] * 3)
        with pytest.raises(DegenerateScatterError, match="identical"):
            fit_lda(s, 1)

    def test_peak_memory_below_one_and_a_half_inputs(self):
        rng = np.random.default_rng(17)
        embeddings = random_speaker_set(rng, n_speakers=50, utts=40, dim=64)
        fit_lda(embeddings, 16)  # warm-up: numpy allocates its caches once
        tracemalloc.start()
        try:
            fit_lda(embeddings, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * embeddings.vectors.nbytes

    def test_singular_within_scatter_rejected(self):
        # each speaker's vectors coincide: S_w and its relative ridge are zero
        s = EmbeddingSet(["u1", "u2", "u3", "u4"], ["a", "a", "b", "b"],
                         [[1.0, 2.0], [1.0, 2.0], [3.0, 5.0], [3.0, 5.0]])
        with pytest.raises(DegenerateScatterError, match="singular"):
            fit_lda(s, 1)

    @pytest.mark.parametrize("n_speakers,dim,d,pre_normalize", [
        (2, 2, 1, False), (6, 4, 3, False), (30, 16, 10, False), (30, 16, 16, True),
        (80, 64, 40, False),
    ])
    def test_matches_scipy_generalized_eigh(self, n_speakers, dim, d, pre_normalize):
        import scipy.linalg
        rng = np.random.default_rng(dim + d)
        embeddings = random_speaker_set(rng, n_speakers=n_speakers, utts=10, dim=dim)
        got = fit_lda(embeddings, d, pre_normalize=pre_normalize)
        X = length_normalize(embeddings.vectors) if pre_normalize else embeddings.vectors
        s_w, s_b = transform.scatter_matrices(X, embeddings.speakers)
        ridge = transform.SCATTER_EPS * np.trace(s_w) / dim
        vals, vecs = scipy.linalg.eigh(s_b, s_w + ridge * np.eye(dim))
        order = np.argsort(-vals, kind="stable")[:d]
        W = vecs[:, order] / np.linalg.norm(vecs[:, order], axis=0)
        W *= np.where(W[np.argmax(np.abs(W), axis=0), np.arange(d)] < 0, -1.0, 1.0)
        assert np.max(np.abs(got.W - W)) <= 1e-12
        assert np.max(np.abs(got.eigenvalues - vals[order])) <= 1e-12 * np.max(np.abs(vals))

    def test_dim_above_speaker_count_warns(self):
        rng = np.random.default_rng(4)
        embeddings = two_class_set(rng, dim=4)
        with pytest.warns(UserWarning):
            fit_lda(embeddings, 3)  # > n_speakers - 1 = 1

    def test_leading_eigenvalues_positive_on_synthetic_data(self):
        from svbackend import synth

        cfg = synth.SynthConfig(20, 10, 6, seed=5)
        embeddings, _ = synth.generate(cfg)
        t = fit_lda(embeddings, 6)
        assert np.all(t.eigenvalues > 0)


class TestApplyLda:
    def test_mean_maps_to_zero(self):
        rng = np.random.default_rng(5)
        embeddings = random_speaker_set(rng)
        t = fit_lda(embeddings, 4)
        np.testing.assert_allclose(apply_lda(t, t.mean), np.zeros(4), atol=1e-12)

    def test_identity_transform(self):
        t = transform.LdaTransform(mean=np.zeros(3), W=np.eye(3))
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(apply_lda(t, x), x)

    def test_linearity_with_zero_mean(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((5, 3))
        t = transform.LdaTransform(mean=np.zeros(5), W=W)
        x1, x2 = rng.standard_normal(5), rng.standard_normal(5)
        lhs = apply_lda(t, x1 + x2) + apply_lda(t, np.zeros(5))
        rhs = apply_lda(t, x1) + apply_lda(t, x2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        embeddings = random_speaker_set(rng)
        t = fit_lda(embeddings, 4)
        X = rng.standard_normal((10, 8))
        batch = apply_lda(t, X)
        for k in range(10):
            # matrix and vector BLAS paths may differ in the last ulp
            np.testing.assert_allclose(batch[k], apply_lda(t, X[k]), atol=1e-12)

    def test_shape_error(self):
        t = transform.LdaTransform(mean=np.zeros(3), W=np.eye(3))
        with pytest.raises(ShapeError):
            apply_lda(t, np.ones(4))


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(length_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        v = np.array([0.0, 1.0, 0.0])
        np.testing.assert_array_equal(length_normalize(v), v)

    def test_unit_norm_output(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            v = rng.standard_normal(12) * rng.uniform(0.1, 100)
            assert abs(np.linalg.norm(length_normalize(v)) - 1.0) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            v = rng.standard_normal(6)
            c = rng.uniform(1e-6, 1e6)
            np.testing.assert_allclose(
                length_normalize(c * v), length_normalize(v), atol=1e-12
            )

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            length_normalize(np.zeros(4))
        with pytest.raises(ZeroVectorError):
            length_normalize(np.full(4, 1e-13))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        embeddings = random_speaker_set(rng)
        t = fit_lda(embeddings, 4)
        path = tmp_path / "proj.txt"
        transform.save_lda(t, path)
        back = transform.load_lda(path)
        assert np.array_equal(back.W, t.W)
        assert np.array_equal(back.mean, t.mean)
        assert back.pre_normalize == t.pre_normalize

    def test_pre_normalize_flag_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        embeddings = random_speaker_set(rng)
        t = fit_lda(embeddings, 2, pre_normalize=True)
        path = tmp_path / "proj.txt"
        transform.save_lda(t, path)
        back = transform.load_lda(path)
        assert back.pre_normalize
        x = rng.standard_normal(8) * 3.0
        np.testing.assert_array_equal(apply_lda(back, x), apply_lda(t, x))

    def test_non_finite_entry_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        t = fit_lda(random_speaker_set(rng), 4)
        path = tmp_path / "proj.txt"
        transform.save_lda(t, path)
        lines = path.read_text().splitlines()
        lines[3] = " ".join(lines[3].split()[:-1] + ["nan"])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="proj.txt: non-finite"):
            transform.load_lda(path)

    def test_header_format(self, tmp_path):
        rng = np.random.default_rng(12)
        t = fit_lda(random_speaker_set(rng), 4)
        path = tmp_path / "proj.txt"
        transform.save_lda(t, path)
        assert path.read_text().splitlines()[0] == "lda 8 4"
