import numpy as np
import pytest

from svbackend import jb, synth
from svbackend.errors import (
    IllConditionedError,
    NotNegativeSemidefiniteError,
    ParseError,
    ShapeError,
    UnidentifiableModelError,
)
from svbackend.jb import (
    EmConfig,
    derive_ag,
    factorize_nsd,
    fit_jb_em,
    jb_log_likelihood,
    score_llr,
    score_llr_factored,
)

import oracles
from oracles import _grouped_floor_pd, oracle_llr_density, stacked_speaker_loglik


def random_cov_pair(rng, d, lo=0.5, hi=2.0):
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    c_u = (q1 * rng.uniform(lo, hi, d)) @ q1.T
    c_n = (q2 * rng.uniform(lo, hi, d)) @ q2.T
    return c_u, c_n


class TestDeriveAg:
    def test_scalar_closed_form(self):
        A, G = derive_ag(np.array([[1.0]]), np.array([[1.0]]))
        assert abs(A[0, 0] - (-1.0 / 6.0)) < 1e-12
        assert abs(G[0, 0] - (-1.0 / 3.0)) < 1e-12

    def test_zero_speaker_covariance(self):
        A, G = derive_ag(np.zeros((3, 3)), np.eye(3))
        np.testing.assert_allclose(A, 0.0, atol=1e-12)
        np.testing.assert_allclose(G, 0.0, atol=1e-12)

    def test_g_is_cross_block_of_inverse_pair_covariance(self):
        rng = np.random.default_rng(0)
        c_u, c_n = random_cov_pair(rng, 8)
        _, G = derive_ag(c_u, c_n)
        total = c_u + c_n
        cov_same = np.block([[total, c_u], [c_u, total]])
        cross_block = np.linalg.inv(cov_same)[:8, 8:]
        np.testing.assert_allclose(G, cross_block, atol=1e-8)

    def test_both_nsd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            c_u, c_n = random_cov_pair(rng, 5)
            A, G = derive_ag(c_u, c_n)
            assert np.linalg.eigvalsh(A).max() < 1e-10
            assert np.linalg.eigvalsh(G).max() < 1e-10

    def test_non_pd_noise_rejected(self):
        with pytest.raises(IllConditionedError):
            derive_ag(np.eye(2), -np.eye(2))


class TestFactorizeNsd:
    def test_scalar(self):
        p = factorize_nsd(np.array([[-1.0 / 6.0]]))
        assert abs(p[0, 0] - 1.0 / np.sqrt(6.0)) < 1e-12

    def test_zero_matrix(self):
        p = factorize_nsd(np.zeros((4, 4)))
        np.testing.assert_array_equal(p, np.zeros((4, 4)))

    def test_reconstruction(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = rng.standard_normal((6, 6))
            m = -(q @ q.T)
            p = factorize_nsd(m)
            assert p.shape == (6, 6)
            assert np.linalg.norm(m + p @ p.T) < 1e-8 * max(1.0, np.linalg.norm(m))

    def test_rank_deficient_keeps_full_columns(self):
        q = np.random.default_rng(3).standard_normal((5, 2))
        p = factorize_nsd(-(q @ q.T))
        assert p.shape == (5, 5)  # zero columns retained

    def test_positive_eigenvalue_rejected(self):
        with pytest.raises(NotNegativeSemidefiniteError):
            factorize_nsd(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected(self):
        with pytest.raises(ShapeError):
            factorize_nsd(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestScoring:
    def test_scalar_chain(self):
        model = synth.ground_truth_model(np.array([[1.0]]), np.array([[1.0]]))
        r = score_llr(model, np.array([1.0]), np.array([1.0]))
        assert abs(r - 1.0 / 3.0) < 1e-12
        rf = score_llr_factored(model.P_A, model.P_G, np.array([1.0]), np.array([1.0]))
        assert abs(rf - 1.0 / 3.0) < 1e-12

    def test_zero_model_scores_zero(self):
        model = synth.ground_truth_model(np.zeros((3, 3)), np.eye(3))
        rng = np.random.default_rng(4)
        h = rng.standard_normal((20, 3))
        np.testing.assert_allclose(score_llr(model, h, h[::-1]), 0.0, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        c_u, c_n = random_cov_pair(rng, 4)
        model = synth.ground_truth_model(c_u, c_n)
        for _ in range(20):
            hi, hj = rng.standard_normal(4), rng.standard_normal(4)
            assert abs(score_llr(model, hi, hj) - score_llr(model, hj, hi)) < 1e-12

    def test_factored_matches_quadratic(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            c_u, c_n = random_cov_pair(rng, d)
            model = synth.ground_truth_model(c_u, c_n)
            hi, hj = rng.standard_normal(d), rng.standard_normal(d)
            r = score_llr(model, hi, hj)
            rf = score_llr_factored(model.P_A, model.P_G, hi, hj)
            assert abs(r - rf) < 1e-8

    def test_factored_column_count_check(self):
        with pytest.raises(ShapeError):
            score_llr_factored(np.ones((2, 2)), np.ones((2, 3)), np.ones(2), np.ones(2))

    def test_shape_error(self):
        model = synth.ground_truth_model(np.eye(2), np.eye(2))
        with pytest.raises(ShapeError):
            score_llr(model, np.ones(3), np.ones(3))


class TestOracleDensity:
    def test_scalar_values(self):
        c = np.array([[1.0]])
        v = oracle_llr_density(c, c, np.array([1.0]), np.array([1.0]))
        assert abs(v - (0.5 * np.log(4.0 / 3.0) + 1.0 / 6.0)) < 1e-12
        at_zero = oracle_llr_density(c, c, np.array([0.0]), np.array([0.0]))
        assert abs(at_zero - 0.5 * np.log(4.0 / 3.0)) < 1e-12

    def test_zero_speaker_covariance_gives_zero(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal((10, 3))
        v = oracle_llr_density(np.zeros((3, 3)), np.eye(3), h, h[::-1])
        np.testing.assert_allclose(v, 0.0, atol=1e-12)

    def test_affine_equivalence_with_quadratic_score(self):
        # quadratic score = 2 * (density ratio - density ratio at the origin)
        rng = np.random.default_rng(8)
        for d in (1, 2, 4, 8):
            for _ in range(10):
                c_u, c_n = random_cov_pair(rng, d)
                model = synth.ground_truth_model(c_u, c_n)
                hi, hj = rng.standard_normal(d), rng.standard_normal(d)
                r = score_llr(model, hi, hj)
                ratio = oracle_llr_density(c_u, c_n, hi, hj)
                at_zero = oracle_llr_density(c_u, c_n, np.zeros(d), np.zeros(d))
                assert abs(r - 2.0 * (ratio - at_zero)) < 1e-8


class TestLogLikelihood:
    def test_scalar_gaussian(self):
        model = synth.ground_truth_model(np.array([[0.0]]), np.array([[1.0]]))
        x = 0.7
        ll = jb_log_likelihood(model, np.array([[x]]), ["spk0"])
        assert abs(ll - (-0.5 * x * x - 0.5 * np.log(2 * np.pi))) < 1e-12

    def test_two_utterances_match_dense_density(self):
        model = synth.ground_truth_model(np.array([[1.0]]), np.array([[1.0]]))
        X = np.array([[0.3], [-1.2]])
        ll = jb_log_likelihood(model, X, ["a", "a"])
        dense = stacked_speaker_loglik(model.C_u, model.C_n, X)
        assert abs(ll - dense) < 1e-10

    def test_matches_dense_oracle_multidim(self):
        rng = np.random.default_rng(9)
        c_u, c_n = random_cov_pair(rng, 4)
        model = synth.ground_truth_model(c_u, c_n)
        X = rng.standard_normal((9, 4))
        speakers = ["a"] * 4 + ["b"] * 3 + ["c"] * 2
        ll = jb_log_likelihood(model, X, speakers)
        dense = sum(
            stacked_speaker_loglik(c_u, c_n, X[[k for k, s in enumerate(speakers) if s == spk]])
            for spk in ("a", "b", "c")
        )
        assert abs(ll - dense) < 1e-8

    def test_additive_over_disjoint_speakers(self):
        rng = np.random.default_rng(10)
        c_u, c_n = random_cov_pair(rng, 3)
        model = synth.ground_truth_model(c_u, c_n)
        Xa = rng.standard_normal((4, 3))
        Xb = rng.standard_normal((6, 3))
        both = jb_log_likelihood(
            model, np.vstack([Xa, Xb]), ["a"] * 4 + ["b"] * 6
        )
        separate = jb_log_likelihood(model, Xa, ["a"] * 4) + jb_log_likelihood(
            model, Xb, ["b"] * 6
        )
        assert abs(both - separate) < 1e-10


class TestEmFit:
    def test_recovers_known_covariances(self):
        cfg = synth.SynthConfig(
            n_speakers=500,
            utts_per_speaker=10,
            dim=16,
            cu_spec=synth.RandomSpd(seed=45, cond_cap=50),
            cn_spec=synth.RandomSpd(seed=77, cond_cap=50),
            seed=4,
        )
        embeddings, (c_u, c_n) = synth.generate(cfg)
        X = embeddings.vectors - embeddings.vectors.mean(axis=0)
        model = fit_jb_em(X, embeddings.speakers)
        err_u = np.linalg.norm(model.C_u - c_u) / np.linalg.norm(c_u)
        err_n = np.linalg.norm(model.C_n - c_n) / np.linalg.norm(c_n)
        assert err_u < 0.15
        assert err_n < 0.15
        model.validate()

    def test_log_likelihood_non_decreasing(self):
        cfg = synth.SynthConfig(n_speakers=40, utts_per_speaker=6, dim=5, seed=6)
        embeddings, _ = synth.generate(cfg)
        X = embeddings.vectors - embeddings.vectors.mean(axis=0)
        model = fit_jb_em(X, embeddings.speakers, EmConfig(max_iters=80))
        lls = np.array(model.em_log_likelihoods)
        assert len(lls) >= 2
        assert np.all(np.diff(lls) >= -1e-8)

    def test_log_likelihood_non_decreasing_on_arbitrary_data(self):
        # monotonicity must hold even when the data does not follow the model
        rng = np.random.default_rng(30)
        for trial in range(5):
            n_spk = int(rng.integers(5, 20))
            d = int(rng.integers(1, 5))
            rows, speakers = [], []
            for s in range(n_spk):
                m = int(rng.integers(1, 6)) if s else 2  # ensure one multi-utt speaker
                vecs = rng.uniform(-2, 2, size=(m, d)) ** 3  # skewed, non-Gaussian
                rows.append(vecs)
                speakers += [f"s{s}"] * m
            X = np.vstack(rows)
            X -= X.mean(axis=0)
            model = fit_jb_em(X, speakers, EmConfig(max_iters=60))
            lls = np.array(model.em_log_likelihoods)
            assert np.all(np.diff(lls) >= -1e-8), f"trial {trial}"

    def test_singleton_speakers_rejected(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((6, 3))
        with pytest.raises(UnidentifiableModelError):
            fit_jb_em(X, [f"s{k}" for k in range(6)])

    def test_uncentered_data_warns(self):
        cfg = synth.SynthConfig(n_speakers=20, utts_per_speaker=4, dim=3, seed=7)
        embeddings, _ = synth.generate(cfg)
        shifted = embeddings.vectors + 5.0
        with pytest.warns(UserWarning, match="centered"):
            fit_jb_em(shifted, embeddings.speakers, EmConfig(max_iters=3))

    def test_em_like_variant_runs(self):
        cfg = synth.SynthConfig(n_speakers=30, utts_per_speaker=5, dim=4, seed=8)
        embeddings, _ = synth.generate(cfg)
        X = embeddings.vectors - embeddings.vectors.mean(axis=0)
        exact = fit_jb_em(X, embeddings.speakers)
        momentish = fit_jb_em(
            X, embeddings.speakers, EmConfig(drop_posterior_cov=True)
        )
        assert not np.allclose(exact.C_u, momentish.C_u)

    def test_variable_utterance_counts(self):
        cfg = synth.SynthConfig(n_speakers=50, utts_per_speaker=(2, 9), dim=4, seed=9)
        embeddings, _ = synth.generate(cfg)
        X = embeddings.vectors - embeddings.vectors.mean(axis=0)
        model = fit_jb_em(X, embeddings.speakers)
        model.validate()


def max_rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestCholeskyAgainstScipy:
    """numpy's Cholesky path against the scipy `cho_factor`/`cho_solve` oracles."""

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    def test_spd_inverse(self, d):
        c_u, c_n = random_cov_pair(np.random.default_rng(60 + d), d)
        for m in (c_u + c_n, c_n, 2.0 * c_u + c_n):
            want = oracles._spd_inverse(m, "m")
            assert max_rel_diff(jb._spd_inverse(m, "m"), want) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
    def test_derive_ag(self, d):
        c_u, c_n = random_cov_pair(np.random.default_rng(70 + d), d)
        for got, want in zip(derive_ag(c_u, c_n), oracles.derive_ag(c_u, c_n)):
            assert max_rel_diff(got, want) <= 1e-12

    def test_jitter_retry_factors_a_singular_psd_matrix(self):
        m = np.diag([2.0, 1.0, 0.0])
        L, L_inv = jb._spd_factor(m, "m")
        want = oracles._spd_factor(m, "m")[0]
        np.testing.assert_array_equal(np.diag(L), np.diag(want))
        np.testing.assert_allclose(L @ L_inv, np.eye(3), atol=1e-12)
        with pytest.raises(IllConditionedError, match="m is not positive definite"):
            jb._spd_factor(m, "m", jitter=False)

    def test_indefinite_matrix_rejected(self):
        m = np.diag([1.0, -1e-3, 1.0])
        with pytest.raises(IllConditionedError):
            oracles._spd_factor(m, "m")
        with pytest.raises(IllConditionedError, match="m is not positive definite"):
            jb._spd_factor(m, "m")
        with pytest.raises(IllConditionedError) as want:
            oracles.derive_ag(np.eye(3), m)
        with pytest.raises(IllConditionedError, match=str(want.value)):
            derive_ag(np.eye(3), m)


class TestFloorPd:
    # numpy's Cholesky decides positive definiteness as scipy's does in the
    # oracle: kept as is, bumped once, or rejected
    @pytest.mark.parametrize("shift", [1.0, -1e-9, -1.0])
    def test_matches_scipy_oracle(self, shift):
        B = np.random.default_rng(50).standard_normal((6, 3))
        m = B @ B.T + shift * np.eye(6)
        try:
            want = _grouped_floor_pd(m, "test matrix")
        except IllConditionedError:
            with pytest.raises(IllConditionedError, match="cannot be floored"):
                jb._floor_pd(m, "test matrix")
            return
        got = jb._floor_pd(m, "test matrix")
        assert (got is m) == (want is m)
        np.testing.assert_array_equal(got, want)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        c_u, c_n = random_cov_pair(rng, 5)
        model = synth.ground_truth_model(c_u, c_n)
        path = tmp_path / "model.txt"
        jb.save_jb(model, path)
        back = jb.load_jb(path)
        np.testing.assert_array_equal(back.C_u, model.C_u)
        np.testing.assert_array_equal(back.C_n, model.C_n)
        np.testing.assert_array_equal(back.P_A, model.P_A)
        np.testing.assert_allclose(back.A, model.A, atol=1e-12)

    @pytest.mark.parametrize("row", [1, 7])  # a C_u row; a P_A row
    def test_non_finite_entry_rejected(self, tmp_path, row):
        # NaN passed the factor consistency check, since nan > tol is False
        rng = np.random.default_rng(14)
        c_u, c_n = random_cov_pair(rng, 3)
        path = tmp_path / "model.txt"
        jb.save_jb(synth.ground_truth_model(c_u, c_n), path)
        lines = path.read_text().splitlines()
        lines[row] = " ".join(["nan"] + lines[row].split()[1:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="model.txt: non-finite"):
            jb.load_jb(path)

    def test_inconsistent_factors_rejected(self, tmp_path):
        rng = np.random.default_rng(13)
        c_u, c_n = random_cov_pair(rng, 3)
        model = synth.ground_truth_model(c_u, c_n)
        path = tmp_path / "model.txt"
        jb.save_jb(model, path)
        lines = path.read_text().splitlines()
        lines[7] = " ".join(["9.9"] * 3)  # corrupt a P_A row
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            jb.load_jb(path)
