import math
import tracemalloc
import warnings

import numpy as np
import pytest

from svbackend import corpus, hybrid, jb, synth, transform
from svbackend.errors import (
    ConfigError,
    DegenerateBatchError,
    InvalidCostError,
    NumericError,
    ParseError,
    ShapeError,
    ZeroVectorError,
)
from svbackend.hybrid import (
    AdamState,
    Batch,
    LossConfig,
    RestrictMode,
    SiameseModel,
    TrainConfig,
    Variant,
    adam_step,
    forward,
    forward_md,
    init_from_generative,
    init_random,
    loss,
    loss_and_grad,
    restrict,
    sample_minibatch,
    train,
)

from oracles import finite_diff_gradients, relative_error


def scalar_toy():
    """l = d = 1 pipeline with unit speaker and noise variances."""
    t = transform.LdaTransform(mean=np.zeros(1), W=np.eye(1))
    model = synth.ground_truth_model(np.array([[1.0]]), np.array([[1.0]]))
    return t, model


def fitted_pipeline(seed=0, n_speakers=40, utts=8, l=6, d=4):
    cfg = synth.SynthConfig(
        n_speakers, utts, l,
        cu_spec=synth.RandomSpd(seed=5, cond_cap=10),
        cn_spec=synth.RandomSpd(seed=6, cond_cap=10),
        seed=seed,
    )
    embeddings, _ = synth.generate(cfg)
    lda = transform.fit_lda(embeddings, d)
    projected = transform.length_normalize(transform.apply_lda(lda, embeddings.vectors))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = jb.fit_jb_em(projected, embeddings.speakers)
    return embeddings, lda, model


def random_batch(rng, net, size=8):
    xi = rng.standard_normal((size, net.input_dim))
    xj = rng.standard_normal((size, net.input_dim))
    labels = (np.arange(size) % 2).astype(np.int8)
    return Batch(xi, xj, labels)


class TestInitFromGenerative:
    def test_scalar_toy_score(self):
        t, model = scalar_toy()
        net = init_from_generative(t, model)
        r, f = forward(net, np.array([1.0]), np.array([1.0]))
        assert abs(r - 1.0 / 3.0) < 1e-12
        assert net.alpha == 1.0 and net.beta == 0.0

    def test_matches_generative_scores(self):
        embeddings, lda, model = fitted_pipeline()
        net = init_from_generative(lda, model)
        rng = np.random.default_rng(1)
        idx = rng.integers(0, len(embeddings), size=(100, 2))
        xi = embeddings.vectors[idx[:, 0]]
        xj = embeddings.vectors[idx[:, 1]]
        r, _ = forward(net, xi, xj)
        projected = transform.length_normalize(
            transform.apply_lda(lda, embeddings.vectors)
        )
        reference = jb.score_llr(model, projected[idx[:, 0]], projected[idx[:, 1]])
        assert np.abs(r - reference).max() < 1e-10

    def test_dimension_mismatch(self):
        t = transform.LdaTransform(mean=np.zeros(3), W=np.ones((3, 2)))
        model = synth.ground_truth_model(np.eye(3), np.eye(3))
        with pytest.raises(ShapeError):
            init_from_generative(t, model)


class TestInitRandom:
    def test_deterministic(self):
        a = init_random(16, 8, seed=3)
        b = init_random(16, 8, seed=3)
        assert np.array_equal(a.W, b.W)
        assert np.array_equal(a.P_A, b.P_A)
        assert np.array_equal(a.P_G, b.P_G)

    def test_seeds_differ(self):
        assert not np.array_equal(init_random(8, 4, 0).W, init_random(8, 4, 1).W)

    def test_fan_in_scaling(self):
        net = init_random(512, 200, seed=4)
        assert abs(net.W.std() - math.sqrt(2.0 / 512)) < 0.1 * math.sqrt(2.0 / 512)
        assert abs(net.P_A.std() - math.sqrt(2.0 / 200)) < 0.1 * math.sqrt(2.0 / 200)

    def test_mahalanobis_variant(self):
        net = init_random(6, 3, seed=5, variant=Variant.MAHALANOBIS)
        assert net.P.shape == (3, 3)
        assert net.d0 == 0.0 and net.lam == 1.0


class TestForward:
    def test_sigmoid_midpoint(self):
        t, model = scalar_toy()
        net = init_from_generative(t, model)
        net.P_A = np.zeros((1, 1))
        net.P_G = np.zeros((1, 1))
        r, f = forward(net, np.array([2.0]), np.array([-1.0]))
        assert r == 0.0 and f == 0.5

    def test_zero_projection_rejected(self):
        t, model = scalar_toy()
        net = init_from_generative(t, model)
        from svbackend.errors import ZeroVectorError

        with pytest.raises(ZeroVectorError):
            forward(net, np.array([0.0]), np.array([1.0]))

    def test_variant_guard(self):
        net = init_random(4, 2, 0, variant=Variant.MAHALANOBIS)
        with pytest.raises(ConfigError):
            forward(net, np.ones(4), np.ones(4))
        tb = init_random(4, 2, 0)
        with pytest.raises(ConfigError):
            forward_md(tb, np.ones(4), np.ones(4))


class TestForwardMd:
    def test_identical_inputs(self):
        net = init_random(5, 3, seed=6, variant=Variant.MAHALANOBIS)
        net.d0 = 0.7
        net.lam = 2.0
        x = np.arange(1.0, 6.0)
        dist, p = forward_md(net, x, x)
        assert dist == 0.0
        assert p == pytest.approx(1.0 / (1.0 + math.exp(-2.0 * 0.7)), abs=1e-15)

    def test_orthogonal_unit_vectors(self):
        net = SiameseModel(
            variant=Variant.MAHALANOBIS, mean=np.zeros(2), W=np.eye(2),
            P=np.eye(2), d0=0.0, lam=1.0,
        )
        dist, _ = forward_md(net, np.array([3.0, 0.0]), np.array([0.0, 5.0]))
        assert abs(dist - 2.0) < 1e-12

    def test_negated_distance_equals_tied_two_branch(self):
        embeddings, lda, model = fitted_pipeline()
        net = init_from_generative(lda, model)
        tied = restrict(net, RestrictMode.G_FROM_A)
        md = init_from_generative(lda, model, variant=Variant.MAHALANOBIS)
        rng = np.random.default_rng(7)
        xi = rng.standard_normal((50, net.input_dim))
        xj = rng.standard_normal((50, net.input_dim))
        r, _ = forward(tied, xi, xj)
        dist, _ = forward_md(md, xi, xj)
        assert np.abs(r + dist).max() < 1e-10


def scoring_case(rng, n_utts, l, d, n_trials, variant, pre_normalize=False):
    """Random model, embedding set and trial list, plus the trial rows."""
    net = init_random(l, d, seed=int(rng.integers(1 << 31)), variant=variant)
    net.mean = rng.standard_normal(l)
    net.pre_normalize = pre_normalize
    embeddings = corpus.EmbeddingSet(
        [f"u{k}" for k in range(n_utts)], ["s"] * n_utts,
        rng.standard_normal((n_utts, l)),
    )
    enroll = rng.integers(0, n_utts, n_trials)
    test = rng.integers(0, n_utts, n_trials)
    trials = corpus.TrialList(
        [corpus.Trial(f"u{a}", f"u{b}") for a, b in zip(enroll, test)])
    return net, embeddings, trials, enroll, test


def pairwise_scores(net, embeddings, enroll, test):
    """`batch_scores` on both sides of every trial gathered first."""
    batch = Batch(embeddings.vectors[enroll], embeddings.vectors[test],
                  np.zeros(enroll.size, dtype=np.int8))
    return np.atleast_1d(hybrid.batch_scores(net, batch)[0])


class TestExpit:
    def test_within_four_ulp_of_scipy(self):
        from scipy.special import expit
        z = np.concatenate([np.linspace(-1000.0, 1000.0, 400_001),
                            np.linspace(-40.0, 40.0, 400_001)])
        got, want = hybrid._expit(z), expit(z)
        # both lie in [0, 1], where the int64 view of a double is monotone
        assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4

    def test_saturates_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            f = hybrid._expit(np.array([-1000.0, 1000.0]))
        assert f.tolist() == [0.0, 1.0]


class TestScoreTrials:
    """Per-utterance projection with gathered pair scores."""

    @pytest.mark.parametrize("setting", ["mahalanobis", "full"] + [m.value for m in RestrictMode])
    def test_swapping_enroll_and_test_keeps_every_bit(self, setting):
        rng = np.random.default_rng(46)
        variant = Variant.MAHALANOBIS if setting == "mahalanobis" else Variant.TWO_BRANCH
        net, emb, trials, enroll, test = scoring_case(rng, 300, 16, 8, 5000, variant)
        if setting in {m.value for m in RestrictMode}:
            net = restrict(net, RestrictMode(setting))
        swapped = corpus.TrialList([corpus.Trial(t.test_id, t.enroll_id) for t in trials.trials])
        scores = hybrid.score_trials(net, emb, trials).scores
        assert np.array_equal(scores, hybrid.score_trials(net, emb, swapped).scores)
        xi, xj = emb.vectors[enroll], emb.vectors[test]
        labels = (np.arange(enroll.size) % 2).astype(np.int8)
        assert np.array_equal(pairwise_scores(net, emb, enroll, test),
                              pairwise_scores(net, emb, test, enroll))
        cfg = LossConfig(kind="bce")
        assert (loss_and_grad(net, Batch(xi, xj, labels), cfg)[0]
                == loss_and_grad(net, Batch(xj, xi, labels), cfg)[0])

    @pytest.mark.parametrize("variant", list(Variant))
    def test_same_bits_as_pairwise_path_at_scale(self, variant):
        # every GEMM here is above OpenBLAS' small-matrix cut-off (~1e6
        # multiply-adds), where each output row has the same bits at any height
        rng = np.random.default_rng(40)
        net, emb, trials, enroll, test = scoring_case(rng, 1500, 64, 32, 20000, variant)
        got = hybrid.score_trials(net, emb, trials).scores
        assert np.array_equal(got, pairwise_scores(net, emb, enroll, test))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_pairwise_path_on_small_shapes(self, variant):
        # small GEMMs use kernels whose row bits depend on the matrix height
        rng = np.random.default_rng(41)
        for case in range(30):
            n_utts, l, d = (int(v) for v in rng.integers(1, 40, 3))
            net, emb, trials, enroll, test = scoring_case(
                rng, n_utts, l, d, int(rng.integers(1, 300)), variant,
                pre_normalize=bool(case % 2))
            got = hybrid.score_trials(net, emb, trials).scores
            ref = pairwise_scores(net, emb, enroll, test)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_ablation_shares_one_projection(self):
        rng = np.random.default_rng(42)
        net, emb, trials, _, _ = scoring_case(rng, 50, 8, 5, 400, Variant.TWO_BRANCH)
        settings = ["full"] + [m.value for m in RestrictMode]
        for setting, got in zip(settings, hybrid.score_ablation(net, emb, trials, settings)):
            scorer = net if setting == "full" else restrict(net, RestrictMode(setting))
            assert np.array_equal(got.scores, hybrid.score_trials(scorer, emb, trials).scores)
            assert got.trials.trials == trials.trials

    def test_zero_vector_only_when_referenced(self):
        rng = np.random.default_rng(43)
        net, emb, _, _, _ = scoring_case(rng, 4, 3, 2, 1, Variant.TWO_BRANCH)
        vectors = emb.vectors.copy()
        vectors[3] = net.mean  # projects to zero
        emb = corpus.EmbeddingSet(emb.ids, emb.speakers, vectors)
        ok = corpus.TrialList([corpus.Trial("u0", "u1"), corpus.Trial("u2", "u1")])
        assert len(hybrid.score_trials(net, emb, ok)) == 2
        bad = corpus.TrialList([corpus.Trial("u0", "u1"), corpus.Trial("u2", "u3")])
        with pytest.raises(ZeroVectorError):
            hybrid.score_trials(net, emb, bad)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("dim", [1, 4, 9])
    def test_dimension_mismatch_raises_shape_error(self, variant, dim):
        rng = np.random.default_rng(45)
        net, emb, trials, _, _ = scoring_case(rng, 20, 6, 3, 50, variant)
        other = corpus.EmbeddingSet(emb.ids, emb.speakers, emb.vectors[:, :1].repeat(dim, 1))
        with pytest.raises(ShapeError, match="input dimension 6"):
            hybrid.score_trials(net, other, trials)
        with pytest.raises(ShapeError, match="input dimension 6"):
            hybrid.score_ablation(net, other, trials, ["full"])

    def test_peak_memory_does_not_grow_with_dims_per_trial(self):
        # Fixed utterances, 10k -> 100k trials: the peak may grow only by a
        # few 8-byte words per trial (row indices, np.unique's temporaries,
        # the score), not by anything of length l or d. Gathering both input
        # vectors costs 2 * 8 * l bytes per trial, the branch outputs 3 * 8 * d.
        rng = np.random.default_rng(44)
        net, emb, trials, _, _ = scoring_case(rng, 1000, 128, 32, 100_000, Variant.TWO_BRANCH)
        peaks = []
        for n in (10_000, 100_000):
            subset = corpus.TrialList(trials.trials[:n])
            tracemalloc.start()
            try:
                hybrid.score_trials(net, emb, subset)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        per_trial = (peaks[1] - peaks[0]) / 90_000
        assert per_trial < 24 * 8, f"{per_trial:.0f} bytes per trial"


class TestLoss:
    def test_bce_midpoint(self):
        cfg = LossConfig(kind="bce")
        assert loss(np.array([0.5]), np.array([1]), cfg) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_dem_perfect_separation(self):
        cfg = LossConfig(kind="dem", p_tar=0.3)
        value = loss(np.array([1.0, 1.0, 0.0]), np.array([1, 1, 0]), cfg)
        assert value == 0.0

    def test_dem_hand_value(self):
        cfg = LossConfig(kind="dem", p_tar=0.01)
        value = loss(np.array([0.8, 0.3]), np.array([1, 0]), cfg)
        assert value == pytest.approx(0.01 * 0.2 + 0.99 * 0.3, abs=1e-12)

    def test_wbce_weights(self):
        cfg = LossConfig(kind="wbce", w_s=0.25)
        f = np.array([0.9, 0.2, 0.3])
        y = np.array([1, 0, 0])
        expected = 0.25 * (-math.log(0.9)) + 0.75 * (
            -(math.log(0.8) + math.log(0.7)) / 2.0
        )
        assert loss(f, y, cfg) == pytest.approx(expected, abs=1e-12)

    def test_dem_bounds(self):
        rng = np.random.default_rng(8)
        cfg = LossConfig(kind="dem", p_tar=0.2, c_miss=3.0, c_fa=0.5)
        for _ in range(50):
            f = rng.uniform(0, 1, 30)
            y = (rng.uniform(size=30) < 0.4).astype(np.int8)
            if y.sum() in (0, 30):
                continue
            value = loss(f, y, cfg)
            assert 0.0 <= value <= 0.2 * 3.0 + 0.8 * 0.5

    def test_single_class_rejected_for_wbce_and_dem(self):
        for kind in ("wbce", "dem"):
            with pytest.raises(DegenerateBatchError):
                loss(np.array([0.5, 0.5]), np.array([1, 1]), LossConfig(kind=kind))

    def test_empty_batch_rejected(self):
        with pytest.raises(DegenerateBatchError):
            loss(np.zeros(0), np.zeros(0, dtype=np.int8), LossConfig(kind="bce"))


class TestGradients:
    def _fd_check(self, net, batch, cfg, tol=1e-5):
        _, grads = loss_and_grad(net, batch, cfg)
        params = net.params()

        def eval_loss(p):
            candidate = net.replace_params(p)
            if net.variant is Variant.TWO_BRANCH:
                _, f = forward(candidate, batch.xi, batch.xj)
            else:
                _, f = forward_md(candidate, batch.xi, batch.xj)
            return loss(f, batch.labels, cfg)

        reference = finite_diff_gradients(eval_loss, params)
        for name in net.param_names():
            assert relative_error(grads[name], reference[name]) < tol, name

    def test_two_branch_all_losses(self):
        _, lda, model = fitted_pipeline(l=5, d=3)
        net = init_from_generative(lda, model)
        rng = np.random.default_rng(9)
        batch = random_batch(rng, net, size=6)
        for kind in ("bce", "wbce", "dem"):
            self._fd_check(net, batch, LossConfig(kind=kind, p_tar=0.3, w_s=0.4))

    def test_mahalanobis_all_losses(self):
        _, lda, model = fitted_pipeline(l=5, d=3)
        net = init_from_generative(lda, model, variant=Variant.MAHALANOBIS)
        net.d0 = 0.6
        net.lam = 1.5
        rng = np.random.default_rng(10)
        batch = random_batch(rng, net, size=6)
        for kind in ("bce", "wbce", "dem"):
            self._fd_check(net, batch, LossConfig(kind=kind, p_tar=0.3, w_s=0.4))

    def test_zero_branches_zero_w_gradient(self):
        net = init_random(5, 3, seed=11)
        net.P_A = np.zeros((3, 3))
        net.P_G = np.zeros((3, 3))
        rng = np.random.default_rng(12)
        batch = random_batch(rng, net)
        _, grads = loss_and_grad(net, batch, LossConfig(kind="bce"))
        np.testing.assert_array_equal(grads["W"], np.zeros_like(net.W))

    def test_dem_gradient_linear_in_costs(self):
        net = init_random(4, 3, seed=13)
        rng = np.random.default_rng(14)
        batch = random_batch(rng, net)
        g1 = loss_and_grad(net, batch, LossConfig(kind="dem", c_miss=2.0, c_fa=3.0))[1]
        g2 = loss_and_grad(net, batch, LossConfig(kind="dem", c_miss=4.0, c_fa=6.0))[1]
        for name in net.param_names():
            assert np.array_equal(np.asarray(g2[name]), 2.0 * np.asarray(g1[name]))

    def test_frozen_parameters_get_zero(self):
        net = init_random(4, 3, seed=15)
        rng = np.random.default_rng(16)
        batch = random_batch(rng, net)
        grads = hybrid.grad(net, batch, LossConfig(kind="bce"), freeze=frozenset({"W", "alpha"}))
        np.testing.assert_array_equal(grads["W"], np.zeros_like(net.W))
        assert grads["alpha"] == 0.0
        assert np.any(grads["P_G"] != 0.0)

    def test_unknown_freeze_name_rejected(self):
        net = init_random(4, 3, seed=17)
        rng = np.random.default_rng(18)
        batch = random_batch(rng, net)
        with pytest.raises(ConfigError):
            loss_and_grad(net, batch, LossConfig(kind="bce"), freeze=frozenset({"Q"}))


class TestAdam:
    def _zero_grads(self, net):
        return {
            name: np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0
            for name, v in net.params().items()
        }

    def test_zero_learning_rate(self):
        net = init_random(4, 3, seed=19)
        grads = self._zero_grads(net)
        grads["P_A"] = np.ones((3, 3))
        stepped, _ = adam_step(net, grads, AdamState(), lr=0.0)
        assert np.array_equal(stepped.P_A, net.P_A)
        assert np.array_equal(stepped.W, net.W)

    def test_first_step_magnitude(self):
        net = init_random(4, 3, seed=20)
        grads = self._zero_grads(net)
        grads["alpha"] = 0.5
        stepped, state = adam_step(net, grads, AdamState(), lr=0.01)
        # bias-corrected first step is lr * g / (|g| + eps') ~ lr
        assert stepped.alpha == pytest.approx(net.alpha - 0.01, rel=1e-6)
        assert state.t == 1

    def test_deterministic(self):
        net = init_random(4, 3, seed=21)
        rng = np.random.default_rng(22)
        batch = random_batch(rng, net)
        grads = hybrid.grad(net, batch, LossConfig(kind="bce"))
        a, _ = adam_step(net, grads, AdamState(), lr=1e-3)
        b, _ = adam_step(net, grads, AdamState(), lr=1e-3)
        assert np.array_equal(a.W, b.W) and a.alpha == b.alpha

    def test_non_finite_gradient_names_parameter(self):
        net = init_random(4, 3, seed=23)
        grads = self._zero_grads(net)
        grads["P_G"] = np.full((3, 3), np.nan)
        with pytest.raises(NumericError, match="P_G"):
            adam_step(net, grads, AdamState(), lr=1e-3)


class TestMinibatch:
    def test_forced_composition(self):
        cfg = synth.SynthConfig(10, 6, 4, seed=24)
        embeddings, _ = synth.generate(cfg)
        batch = sample_minibatch(
            embeddings,
            TrainConfig(batch_size=4, pos_fraction=0.5),
            np.random.default_rng(0),
        )
        assert batch.labels.sum() == 2 and len(batch) == 4

    def test_label_audit_large_sample(self):
        cfg = synth.SynthConfig(25, 8, 4, seed=25)
        embeddings, _ = synth.generate(cfg)
        batch = sample_minibatch(
            embeddings,
            TrainConfig(batch_size=10000, pos_fraction=0.5),
            np.random.default_rng(1),
        )
        speakers = np.asarray(embeddings.speakers)
        same = speakers[batch.enroll_idx] == speakers[batch.test_idx]
        assert np.array_equal(same, batch.labels == 1)
        assert np.all(batch.enroll_idx[batch.labels == 1] != batch.test_idx[batch.labels == 1])

    def test_deterministic_given_state(self):
        cfg = synth.SynthConfig(10, 6, 4, seed=26)
        embeddings, _ = synth.generate(cfg)
        tc = TrainConfig(batch_size=32, pos_fraction=0.25)
        a = sample_minibatch(embeddings, tc, np.random.default_rng(5))
        b = sample_minibatch(embeddings, tc, np.random.default_rng(5))
        assert np.array_equal(a.enroll_idx, b.enroll_idx)
        assert np.array_equal(a.labels, b.labels)


class TestTrain:
    def _setup(self, seed=0):
        embeddings, lda, model = fitted_pipeline(seed=seed, n_speakers=30, utts=8, l=6, d=4)
        net = init_from_generative(lda, model)
        return embeddings, net

    def test_zero_epochs_is_noop(self):
        embeddings, net = self._setup()
        trained, history = train(
            net, embeddings, TrainConfig(epochs=0, batch_size=64), LossConfig(kind="dem")
        )
        assert history == []
        assert np.array_equal(trained.W, net.W)
        assert np.array_equal(trained.P_A, net.P_A)

    def test_selection_never_worse_than_init(self):
        embeddings, net = self._setup()
        cfg = TrainConfig(epochs=5, batch_size=64, pos_fraction=0.3, seed=1)
        trained, history = train(net, embeddings, cfg, LossConfig(kind="dem", p_tar=0.5))
        assert history[0][0] == 0 and math.isnan(history[0][1])
        val_losses = [h[2] for h in history]
        assert min(val_losses[1:] + [val_losses[0]]) <= val_losses[0]
        assert len(history) == 6

    def test_bit_identical_histories(self):
        embeddings, net = self._setup()
        cfg = TrainConfig(epochs=3, batch_size=64, pos_fraction=0.3, seed=2)
        loss_cfg = LossConfig(kind="wbce", w_s=0.3)
        _, h1 = train(net, embeddings, cfg, loss_cfg)
        _, h2 = train(net, embeddings, cfg, loss_cfg)
        assert h1 == h2

    def test_freeze_keeps_parameters(self):
        embeddings, net = self._setup()
        cfg = TrainConfig(
            epochs=2, batch_size=64, pos_fraction=0.3, seed=3,
            freeze=frozenset({"alpha", "beta"}),
        )
        trained, _ = train(net, embeddings, cfg, LossConfig(kind="bce"))
        assert trained.alpha == net.alpha and trained.beta == net.beta

    def test_jb_init_beats_random_init_on_mismatch(self):
        # single-seed sanity check; the 10-seed median lives in the acceptance suite
        cfg = synth.SynthConfig(
            200, 10, 6,
            cu_spec=synth.Diagonal(tuple(np.linspace(5.0, 7.0, 6))),
            cn_spec=synth.Isotropic(1.0),
            mismatch=synth.ChannelShift(fraction=0.5, offset_norm=6.0 * math.sqrt(6.0)),
            seed=27,
        )
        embeddings, _ = synth.generate(cfg)
        lda = transform.fit_lda(embeddings, 6)
        projected = transform.length_normalize(transform.apply_lda(lda, embeddings.vectors))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = jb.fit_jb_em(projected, embeddings.speakers)
        tc = TrainConfig(epochs=5, batch_size=512, pos_fraction=0.3, seed=4)
        lc = LossConfig(kind="dem", p_tar=0.5)
        _, hist_jb = train(init_from_generative(lda, model), embeddings, tc, lc)
        _, hist_rnd = train(init_random(6, 6, seed=28), embeddings, tc, lc)
        assert min(h[2] for h in hist_jb) < min(h[2] for h in hist_rnd)


class TestRestrict:
    def test_scalar_cross_term_only(self):
        t, model = scalar_toy()
        net = restrict(init_from_generative(t, model), RestrictMode.G_ONLY)
        r, _ = forward(net, np.array([1.0]), np.array([1.0]))
        assert abs(r - 2.0 / 3.0) < 1e-12

    def test_self_term_only_is_nonpositive(self):
        embeddings, lda, model = fitted_pipeline()
        net = restrict(init_from_generative(lda, model), RestrictMode.A_ONLY)
        rng = np.random.default_rng(29)
        x = rng.standard_normal((20, net.input_dim))
        r, _ = forward(net, x, x)
        assert np.all(r <= 0.0)

    def test_copy_semantics(self):
        net = init_random(4, 3, seed=30)
        original = net.P_G.copy()
        _ = restrict(net, RestrictMode.A_ONLY)
        assert np.array_equal(net.P_G, original)

    def test_tied_branches_negate_distance(self):
        embeddings, lda, model = fitted_pipeline()
        net = init_from_generative(lda, model)
        rng = np.random.default_rng(31)
        xi = rng.standard_normal((40, net.input_dim))
        xj = rng.standard_normal((40, net.input_dim))
        for mode, source in ((RestrictMode.G_FROM_A, "P_A"), (RestrictMode.A_FROM_G, "P_G")):
            tied = restrict(net, mode)
            md = SiameseModel(
                variant=Variant.MAHALANOBIS, mean=net.mean.copy(), W=net.W.copy(),
                P=getattr(net, source).copy(), d0=0.0, lam=1.0,
            )
            r, _ = forward(tied, xi, xj)
            dist, _ = forward_md(md, xi, xj)
            assert np.abs(r + dist).max() < 1e-10

    def test_mahalanobis_rejected(self):
        net = init_random(4, 3, seed=32, variant=Variant.MAHALANOBIS)
        with pytest.raises(ConfigError):
            restrict(net, RestrictMode.A_ONLY)


class TestConfigValidation:
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1e-3])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(ConfigError):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("costs", [
        dict(c_miss=math.inf), dict(c_miss=math.nan), dict(c_fa=math.nan), dict(c_fa=-math.inf),
    ])
    def test_non_finite_costs_rejected(self, costs):
        with pytest.raises(InvalidCostError):
            LossConfig(**costs)


class TestSerialization:
    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, token):
        net = init_random(3, 2, seed=34)
        path = tmp_path / "net.txt"
        hybrid.save_model(net, path)
        lines = path.read_text().splitlines()
        lines[2] = " ".join([token] + lines[2].split()[1:])  # first entry of W
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="net.txt: non-finite"):
            hybrid.load_model(path)

    def test_two_branch_round_trip(self, tmp_path):
        embeddings, lda, model = fitted_pipeline()
        net = init_from_generative(lda, model)
        net.alpha = 1.7
        net.beta = -0.3
        path = tmp_path / "net.txt"
        hybrid.save_model(net, path)
        back = hybrid.load_model(path)
        assert back.variant is Variant.TWO_BRANCH
        for attr in ("mean", "W", "P_A", "P_G"):
            np.testing.assert_array_equal(getattr(back, attr), getattr(net, attr))
        assert back.alpha == net.alpha and back.beta == net.beta

    def test_mahalanobis_round_trip(self, tmp_path):
        net = init_random(5, 3, seed=33, variant=Variant.MAHALANOBIS)
        net.d0 = 0.9
        net.lam = 2.5
        path = tmp_path / "net.txt"
        hybrid.save_model(net, path)
        back = hybrid.load_model(path)
        assert back.variant is Variant.MAHALANOBIS
        np.testing.assert_array_equal(back.P, net.P)
        assert back.d0 == net.d0 and back.lam == net.lam

    @pytest.mark.parametrize("variant", list(Variant))
    def test_pre_normalized_round_trip(self, tmp_path, variant):
        net = init_random(5, 3, seed=35, variant=variant)
        net.pre_normalize = True
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        hybrid.save_model(net, first)
        assert first.read_text().splitlines()[0].endswith(" prenorm")
        back = hybrid.load_model(first)
        hybrid.save_model(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert back.variant is variant and back.pre_normalize
        for attr in ("mean", "W", "P_A", "P_G", "P", "alpha", "beta", "d0", "lam"):
            np.testing.assert_array_equal(getattr(back, attr), getattr(net, attr))

    def test_history_csv(self, tmp_path):
        history = [(0, math.nan, 0.5), (1, 0.4, 0.45)]
        path = tmp_path / "history.csv"
        hybrid.write_history_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert lines[1].startswith("0,nan,")
        assert len(lines) == 3
