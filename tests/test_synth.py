import numpy as np
import pytest

from svbackend import corpus, jb, metrics, synth
from svbackend.errors import ConfigError, InsufficientClassesError

from oracles import oracle_llr_density


class TestCovarianceRecipes:
    def test_isotropic_identity(self):
        cfg = synth.SynthConfig(2, 1, 3, cu_spec=synth.Isotropic(1.0))
        c_u, _ = synth.make_covariances(cfg)
        np.testing.assert_array_equal(c_u, np.eye(3))

    def test_diagonal(self):
        cfg = synth.SynthConfig(2, 1, 3, cn_spec=synth.Diagonal((1.0, 2.0, 3.0)))
        _, c_n = synth.make_covariances(cfg)
        np.testing.assert_array_equal(c_n, np.diag([1.0, 2.0, 3.0]))

    def test_random_spd_condition_cap(self):
        cfg = synth.SynthConfig(
            2, 1, 10, cu_spec=synth.RandomSpd(seed=3, cond_cap=100.0)
        )
        c_u, _ = synth.make_covariances(cfg)
        eigs = np.linalg.eigvalsh(c_u)
        assert eigs.min() > 0
        assert eigs.max() / eigs.min() <= 100.0 * (1 + 1e-9)

    def test_random_spd_deterministic(self):
        spec = synth.RandomSpd(seed=11, cond_cap=30.0)
        a = synth.make_covariances(synth.SynthConfig(2, 1, 6, cu_spec=spec))[0]
        b = synth.make_covariances(synth.SynthConfig(2, 1, 6, cu_spec=spec))[0]
        np.testing.assert_array_equal(a, b)

    def test_bad_recipes_rejected(self):
        with pytest.raises(ConfigError):
            synth.make_covariances(
                synth.SynthConfig(2, 1, 3, cn_spec=synth.Isotropic(0.0))
            )
        with pytest.raises(ConfigError):
            synth.make_covariances(
                synth.SynthConfig(2, 1, 3, cu_spec=synth.Diagonal((1.0,)))
            )
        with pytest.raises(InsufficientClassesError):
            synth.SynthConfig(1, 1, 3)
        with pytest.raises(ConfigError):
            synth.SynthConfig(2, 1, 3, mismatch=synth.HeavyTail(dof=2.0))


class TestGenerate:
    def test_deterministic(self):
        cfg = synth.SynthConfig(10, 5, 4, seed=42)
        a, _ = synth.generate(cfg)
        b, _ = synth.generate(cfg)
        assert a.ids == b.ids
        assert a.speakers == b.speakers
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_shapes_and_labels(self):
        cfg = synth.SynthConfig(7, 3, 5, seed=1)
        embeddings, (c_u, c_n) = synth.generate(cfg)
        assert len(embeddings) == 21
        assert embeddings.dim == 5
        assert len(set(embeddings.speakers)) == 7
        assert c_u.shape == (5, 5) and c_n.shape == (5, 5)

    def test_zero_speaker_variance_collapses_speaker_means(self):
        cfg = synth.SynthConfig(
            30, 200, 4, cu_spec=synth.Isotropic(0.0), seed=2
        )
        embeddings, _ = synth.generate(cfg)
        labels = np.asarray(embeddings.speakers)
        means = np.stack(
            [embeddings.vectors[labels == s].mean(axis=0) for s in np.unique(labels)]
        )
        # with no speaker variability the means scatter shrinks like 1/utts
        assert np.cov(means.T).trace() < 0.15 * 4

    def test_moment_recovery(self):
        cfg = synth.SynthConfig(
            500, 10, 16,
            cu_spec=synth.RandomSpd(seed=45, cond_cap=50),
            cn_spec=synth.RandomSpd(seed=77, cond_cap=50),
            seed=4,
        )
        embeddings, (c_u, c_n) = synth.generate(cfg)
        labels = np.asarray(embeddings.speakers)
        speakers = np.unique(labels)
        means = np.stack([embeddings.vectors[labels == s].mean(axis=0) for s in speakers])
        pooled = np.zeros((16, 16))
        for s in speakers:
            rows = embeddings.vectors[labels == s]
            centered = rows - rows.mean(axis=0)
            pooled += centered.T @ centered
        pooled /= len(embeddings) - len(speakers)  # unbiased pooled estimator
        assert np.linalg.norm(pooled - c_n) / np.linalg.norm(c_n) < 0.10
        mean_cov = np.cov(means.T, bias=True)
        expected = c_u + c_n / 10.0
        assert np.linalg.norm(mean_cov - expected) / np.linalg.norm(expected) < 0.15

    def test_heavy_tail_keeps_covariance(self):
        cfg = synth.SynthConfig(
            400, 25, 6,
            cu_spec=synth.Isotropic(0.0),
            mismatch=synth.HeavyTail(dof=5.0),
            seed=5,
        )
        embeddings, (_, c_n) = synth.generate(cfg)
        sample = np.cov(embeddings.vectors.T, bias=True)
        assert np.linalg.norm(sample - c_n) / np.linalg.norm(c_n) < 0.15

    def test_channel_shift_moves_a_fraction(self):
        cfg = synth.SynthConfig(
            100, 10, 8,
            cu_spec=synth.Isotropic(0.0),
            mismatch=synth.ChannelShift(fraction=0.5, offset_norm=50.0),
            seed=6,
        )
        embeddings, _ = synth.generate(cfg)
        norms = np.linalg.norm(embeddings.vectors, axis=1)
        shifted = norms > 25.0
        assert 0.4 < shifted.mean() < 0.6

    def test_utterance_range(self):
        cfg = synth.SynthConfig(50, (2, 6), 3, seed=7)
        embeddings, _ = synth.generate(cfg)
        labels = np.asarray(embeddings.speakers)
        counts = [int((labels == s).sum()) for s in np.unique(labels)]
        assert min(counts) >= 2 and max(counts) <= 6
        assert len(set(counts)) > 1


class TestSampleTrials:
    def test_composition(self):
        cfg = synth.SynthConfig(20, 5, 3, seed=8)
        embeddings, _ = synth.generate(cfg)
        trials = synth.sample_trials(embeddings, 1000, 0.3, seed=1)
        labels = trials.labels()
        assert labels is not None
        assert labels.sum() == 300

    def test_labels_audit(self):
        cfg = synth.SynthConfig(30, 4, 3, seed=9)
        embeddings, _ = synth.generate(cfg)
        trials = synth.sample_trials(embeddings, 10000, 0.5, seed=2)
        violations = 0
        for t in trials:
            same = (
                embeddings.speakers[embeddings.row(t.enroll_id)]
                == embeddings.speakers[embeddings.row(t.test_id)]
            )
            if same != (t.label is corpus.TrialLabel.SAME):
                violations += 1
            if t.enroll_id == t.test_id:
                violations += 1
        assert violations == 0

    def test_deterministic(self):
        cfg = synth.SynthConfig(15, 4, 3, seed=10)
        embeddings, _ = synth.generate(cfg)
        a = synth.sample_trials(embeddings, 50, 0.5, seed=3)
        b = synth.sample_trials(embeddings, 50, 0.5, seed=3)
        assert a.trials == b.trials


class TestOracleOptimality:
    def test_fitted_model_cannot_beat_oracle(self):
        cfg = synth.SynthConfig(
            300, 10, 8,
            cu_spec=synth.Diagonal(tuple(np.linspace(2.0, 3.0, 8))),
            cn_spec=synth.Isotropic(1.0),
            seed=11,
        )
        embeddings, (c_u, c_n) = synth.generate(cfg)
        trials = synth.sample_trials(embeddings, 8000, 0.5, seed=12)
        enroll, test = trials.index_arrays(embeddings)
        oracle_scores = oracle_llr_density(
            c_u, c_n, embeddings.vectors[enroll], embeddings.vectors[test]
        )
        oracle_eer = metrics.compute_eer(corpus.ScoreSet(trials, oracle_scores))[0]
        X = embeddings.vectors - embeddings.vectors.mean(axis=0)
        fitted = jb.fit_jb_em(X, embeddings.speakers)
        fitted_scores = jb.score_llr(fitted, X[enroll], X[test])
        fitted_eer = metrics.compute_eer(corpus.ScoreSet(trials, fitted_scores))[0]
        assert fitted_eer >= oracle_eer - 0.002
