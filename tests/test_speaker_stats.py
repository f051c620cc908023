"""The shared per-speaker statistics, the one-product scatter and the EM in
the diagonalizing basis, checked against the per-speaker and per-count-group
code they replaced (tests/oracles.py).

Summation order differs, so agreement is to a tolerance fixed beforehand:
1e-12 of the largest magnitude of each matrix, and of each log-likelihood.
"""

import numpy as np
import pytest

from svbackend import jb, synth, transform
from svbackend.corpus import SpeakerStats
from svbackend.errors import IllConditionedError, ShapeError

import oracles

REL_TOL = 1e-12


def rel(have, want):
    want = np.asarray(want, dtype=np.float64)
    return float(np.max(np.abs(np.asarray(have) - want)) / np.max(np.abs(want)))


def make_corpus(n_speakers, utts, dim, seed, cu=None, singletons=0):
    cfg = synth.SynthConfig(
        n_speakers=n_speakers, utts_per_speaker=utts, dim=dim,
        cu_spec=cu or synth.RandomSpd(seed=seed + 1, cond_cap=20),
        cn_spec=synth.RandomSpd(seed=seed + 2, cond_cap=20), seed=seed,
    )
    embeddings, _ = synth.generate(cfg)
    X, speakers = embeddings.vectors, list(embeddings.speakers)
    if singletons:
        extra = np.random.default_rng(seed).standard_normal((singletons, dim))
        X = np.vstack([X, extra])
        speakers += [f"single{k}" for k in range(singletons)]
    return X - X.mean(axis=0), speakers


CORPORA = {
    # 60 speakers of 5 utterances in 4 dimensions: one group, QR-factored
    "one-group-qr": lambda: make_corpus(60, 5, 4, seed=1),
    # 2..40 utterances in 12 dimensions: many groups of few speakers each
    "many-small-groups": lambda: make_corpus(40, (2, 40), 12, seed=2),
    "with-singletons": lambda: make_corpus(30, (1, 6), 5, seed=3, singletons=7),
}
# Corpora on which the moment-style update keeps the smallest eigenvalue of
# C_u above 1. Where that update drives C_u singular, the grouped oracle,
# which inverts C_u, loses all precision (see the singular test below).
STRONG_CU = synth.Diagonal((5.0, 5.4, 5.8, 6.2, 6.6, 7.0))
DROP_CORPORA = {
    "one-group-qr": lambda: make_corpus(60, 5, 6, seed=2, cu=STRONG_CU),
    "many-small-groups": lambda: make_corpus(40, (2, 40), 6, seed=2, cu=STRONG_CU),
}


class TestStatistics:
    def test_counts_sums_means_within(self):
        X, speakers = CORPORA["with-singletons"]()
        stats = SpeakerStats(X, speakers)
        labels = sorted(set(speakers))
        for k, label in enumerate(labels):
            rows = X[[s == label for s in speakers]]
            assert stats.counts[k] == rows.shape[0]
            np.testing.assert_allclose(stats.sums[k], rows.sum(axis=0), rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(stats.means[k], rows.mean(axis=0), rtol=1e-13, atol=1e-13)
        s_w, _ = oracles.loop_scatter_matrices(X, speakers)
        assert rel(stats.within / len(X), s_w) <= REL_TOL
        np.testing.assert_array_equal(stats.within, stats.within.T)

    def test_integer_codes_equal_labels(self):
        X, speakers = CORPORA["many-small-groups"]()
        codes = np.unique(speakers, return_inverse=True)[1]
        by_label = SpeakerStats(X, speakers)
        by_code = SpeakerStats(X, codes)
        np.testing.assert_array_equal(by_label.within, by_code.within)
        np.testing.assert_array_equal(by_label.sums, by_code.sums)

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            SpeakerStats(np.zeros((4, 2)), ["a", "b", "c"])


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_scatter_matches_loop(name):
    X, speakers = CORPORA[name]()
    s_w, s_b = transform.scatter_matrices(X, speakers)
    want_w, want_b = oracles.loop_scatter_matrices(X, speakers)
    assert rel(s_w, want_w) <= REL_TOL
    assert rel(s_b, want_b) <= REL_TOL
    np.testing.assert_array_equal(s_b, s_b.T)


def check_em_matches_oracle(X, speakers, drop):
    model = jb.fit_jb_em(X, speakers, jb.EmConfig(drop_posterior_cov=drop))
    C_u, C_n, history = oracles.grouped_em_fit(X, speakers, drop_posterior_cov=drop)
    assert len(model.em_log_likelihoods) == len(history)
    for have, want in zip(model.em_log_likelihoods, history):
        assert abs(have - want) <= REL_TOL * abs(want)
    A, G = jb.derive_ag(C_u, C_n)
    for have, want in ((model.C_u, C_u), (model.C_n, C_n), (model.A, A), (model.G, G)):
        assert rel(have, want) <= REL_TOL


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_em_matches_grouped_oracle(name):
    check_em_matches_oracle(*CORPORA[name](), drop=False)


@pytest.mark.parametrize("name", sorted(DROP_CORPORA))
def test_em_like_matches_grouped_oracle(name):
    check_em_matches_oracle(*DROP_CORPORA[name](), drop=True)


def test_groups_with_more_speakers_than_dimensions_are_factored():
    X, speakers = CORPORA["one-group-qr"]()
    ms, n_g, rows, row_group = jb._count_groups(SpeakerStats(X, speakers))
    assert list(ms) == [5] and list(n_g) == [60]
    assert rows.shape == (4, 4) and list(row_group) == [0] * 4
    X, speakers = CORPORA["many-small-groups"]()
    ms, n_g, rows, row_group = jb._count_groups(SpeakerStats(X, speakers))
    assert rows.shape == (40, 12) and np.all(n_g < 12)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_log_likelihood_matches_grouped_oracle(name):
    X, speakers = CORPORA[name]()
    rng = np.random.default_rng(0)
    d = X.shape[1]
    q = rng.standard_normal((d, d))
    model = synth.ground_truth_model(q @ q.T / d, np.eye(d) + 0.1 * q.T @ q / d)
    want = oracles.grouped_marginal_loglik(
        model.C_u, model.C_n, oracles.GroupedSpeakerStats(X, speakers))
    assert abs(jb.jb_log_likelihood(model, X, speakers) - want) <= REL_TOL * abs(want)


def test_moment_style_update_survives_a_singular_speaker_covariance():
    # Here the update without posterior covariance terms drives one
    # eigenvalue of C_u to zero. The fit never inverts C_u, so it still
    # converges to finite covariances with C_n positive definite.
    X, speakers = make_corpus(60, 5, 4, seed=1)
    model = jb.fit_jb_em(X, speakers, jb.EmConfig(drop_posterior_cov=True))
    assert len(model.em_log_likelihoods) < 201
    assert np.all(np.isfinite(model.em_log_likelihoods))
    assert abs(np.linalg.eigvalsh(model.C_u).min()) < 1e-8 * np.linalg.norm(model.C_u)
    assert np.linalg.eigvalsh(model.C_n).min() > 0


def bare_model(C_u, C_n):
    zero = np.zeros_like(C_u)
    return jb.JbModel(C_u=C_u, C_n=C_n, A=zero, G=zero, P_A=zero, P_G=zero)


def test_noise_covariance_not_positive_definite_raises():
    X, speakers = CORPORA["one-group-qr"]()
    with pytest.raises(IllConditionedError, match="C_n is not positive definite"):
        jb.jb_log_likelihood(bare_model(np.eye(4), -np.eye(4)), X, speakers)


def test_non_positive_marginal_covariance_raises():
    X, speakers = CORPORA["one-group-qr"]()  # m = 5: 1 + 5 psi <= 0 at psi = -1
    with pytest.raises(IllConditionedError, match="C_n \\+ m C_u"):
        jb.jb_log_likelihood(bare_model(-np.eye(4), np.eye(4)), X, speakers)
