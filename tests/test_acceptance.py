"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The synthetic end-to-end experiments (criteria 7-9) share module-scoped
fixtures so the seed sweeps run once.
"""

import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import expit

from svbackend import cli, corpus, hybrid, jb, metrics, synth, transform

from oracles import (
    brute_force_eer,
    brute_force_min_dcf,
    finite_diff_gradients,
    oracle_llr_density,
    relative_error,
)

warnings.filterwarnings("ignore", message=".*centered.*")


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status} {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_cov(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (q * rng.uniform(0.5, 2.0, d)) @ q.T


# --------------------------------------------------------------------------
# shared end-to-end machinery
# --------------------------------------------------------------------------

def speaker_holdout_split(embeddings, n_eval_speakers):
    speakers = sorted(set(embeddings.speakers))
    train = set(speakers[:-n_eval_speakers])
    held_out = set(speakers[-n_eval_speakers:])
    return embeddings.subset_by_speakers(train), embeddings.subset_by_speakers(held_out)


def fit_backend(train_emb, d):
    lda = transform.fit_lda(train_emb, d)
    projected = transform.length_normalize(transform.apply_lda(lda, train_emb.vectors))
    model = jb.fit_jb_em(projected, train_emb.speakers)
    return lda, model


def backend_scores(lda, model, embeddings, trials):
    projected = transform.length_normalize(transform.apply_lda(lda, embeddings.vectors))
    enroll, test = trials.index_arrays(embeddings)
    return jb.score_llr(model, projected[enroll], projected[test])


def eer_of(trials, scores):
    return metrics.compute_eer(corpus.ScoreSet(trials, scores))[0]


MATCHED_CU = synth.Diagonal(tuple(np.linspace(2.4, 3.6, 32)))
MATCHED_CN = synth.Diagonal(tuple(np.linspace(0.8, 1.2, 32)))

MISMATCH_DIM = 12
MISMATCH_CU = synth.Diagonal(tuple(np.linspace(5.0, 7.0, MISMATCH_DIM)))
MISMATCH_CN = synth.Diagonal((1.0,) * MISMATCH_DIM)
MISMATCH = synth.ChannelShift(fraction=0.5, offset_norm=6.0 * math.sqrt(MISMATCH_DIM))

TRAIN_CFG = dict(epochs=20, lr=5e-4, batch_size=4096, pos_fraction=0.5, split=0.9)
DEM_BALANCED = hybrid.LossConfig(kind="dem", p_tar=0.5)


@pytest.fixture(scope="module")
def matched_experiment():
    t0 = time.time()
    embeddings, (c_u, c_n) = synth.generate(
        synth.SynthConfig(600, 10, 32, MATCHED_CU, MATCHED_CN, None, seed=1000)
    )
    train_emb, eval_emb = speaker_holdout_split(embeddings, 200)
    trials = synth.sample_trials(eval_emb, 10000, 0.5, seed=3000)
    enroll, test = trials.index_arrays(eval_emb)
    oracle_scores = oracle_llr_density(
        c_u, c_n, eval_emb.vectors[enroll], eval_emb.vectors[test]
    )
    lda, model = fit_backend(train_emb, 32)
    jb_scores = backend_scores(lda, model, eval_emb, trials)
    net = hybrid.init_from_generative(lda, model)
    trained, _ = hybrid.train(
        net, train_emb, hybrid.TrainConfig(seed=0, **TRAIN_CFG), DEM_BALANCED
    )
    hybrid_scores = hybrid.score_trials(trained, eval_emb, trials).scores
    return {
        "eer_oracle": eer_of(trials, oracle_scores),
        "eer_jb": eer_of(trials, jb_scores),
        "eer_hybrid": eer_of(trials, hybrid_scores),
        "seconds": time.time() - t0,
    }


@pytest.fixture(scope="module")
def mismatch_experiment():
    """Ten-seed sweep on the channel-shift corpus.

    Per seed: fit the generative backend, fine-tune from generative and
    random initializations with the balanced detection-cost objective, and
    fine-tune from the generative initialization with class-weighted cross
    entropy; score a 20k-trial held-out set.
    """
    t0 = time.time()
    rows = []
    for seed in range(10):
        embeddings, _ = synth.generate(
            synth.SynthConfig(
                1200, 10, MISMATCH_DIM, MISMATCH_CU, MISMATCH_CN, MISMATCH,
                seed=1000 + seed,
            )
        )
        train_emb, eval_emb = speaker_holdout_split(embeddings, 200)
        trials = synth.sample_trials(eval_emb, 20000, 0.2, seed=5000 + seed)
        lda, model = fit_backend(train_emb, MISMATCH_DIM)
        jb_scores = backend_scores(lda, model, eval_emb, trials)
        train_cfg = hybrid.TrainConfig(seed=seed, **TRAIN_CFG)
        net = hybrid.init_from_generative(lda, model)
        trained_jb, hist_jb = hybrid.train(net, train_emb, train_cfg, DEM_BALANCED)
        random_net = hybrid.init_random(
            MISMATCH_DIM, MISMATCH_DIM, seed=9000 + seed
        )
        _, hist_rnd = hybrid.train(random_net, train_emb, train_cfg, DEM_BALANCED)
        trained_wbce, _ = hybrid.train(
            net, train_emb, train_cfg, hybrid.LossConfig(kind="wbce", w_s=0.5)
        )
        dem_scores = hybrid.score_trials(trained_jb, eval_emb, trials).scores
        wbce_scores = hybrid.score_trials(trained_wbce, eval_emb, trials).scores
        score_set = lambda s: corpus.ScoreSet(trials, s)
        rows.append(
            {
                "eer_jb": eer_of(trials, jb_scores),
                "eer_hybrid": eer_of(trials, dem_scores),
                "val_jb_init": min(h[2] for h in hist_jb),
                "val_rand_init": min(h[2] for h in hist_rnd),
                "dcf_dem": metrics.compute_min_dcf(score_set(dem_scores), 0.001)[1],
                "dcf_wbce": metrics.compute_min_dcf(score_set(wbce_scores), 0.001)[1],
            }
        )
    return {"rows": rows, "seconds": time.time() - t0}


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def test_criterion_01_llr_correctness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_oracle = 0.0
    worst_factored = 0.0
    for d in (1, 2, 4, 8):
        for _ in range(50):
            c_u, c_n = random_cov(rng, d), random_cov(rng, d)
            model = synth.ground_truth_model(c_u, c_n)
            h_i, h_j = rng.standard_normal(d), rng.standard_normal(d)
            r = jb.score_llr(model, h_i, h_j)
            ratio = oracle_llr_density(c_u, c_n, h_i, h_j)
            at_zero = oracle_llr_density(c_u, c_n, np.zeros(d), np.zeros(d))
            worst_oracle = max(worst_oracle, abs(r - 2.0 * (ratio - at_zero)))
            r_f = jb.score_llr_factored(model.P_A, model.P_G, h_i, h_j)
            worst_factored = max(worst_factored, abs(r - r_f))
    elapsed = time.time() - t0
    _report(
        1, "LLR correctness", worst_oracle < 1e-8 and worst_factored < 1e-8 and elapsed < 5.0,
        f"max |r - 2*density ratio| = {worst_oracle:.2e}, "
        f"max |r - factored| = {worst_factored:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_scalar_closed_form():
    one = np.array([[1.0]])
    A, G = jb.derive_ag(one, one)
    model = synth.ground_truth_model(one, one)
    r = jb.score_llr(model, np.array([1.0]), np.array([1.0]))
    ratio = oracle_llr_density(one, one, np.array([1.0]), np.array([1.0]))
    expected_ratio = 0.5 * math.log(4.0 / 3.0) + 1.0 / 6.0
    checks = (
        abs(A[0, 0] + 1.0 / 6.0) < 1e-10,
        abs(G[0, 0] + 1.0 / 3.0) < 1e-10,
        abs(r - 1.0 / 3.0) < 1e-10,
        abs(ratio - expected_ratio) < 1e-10,
    )
    _report(
        2, "scalar closed form", all(checks),
        f"A={A[0, 0]:.10f} G={G[0, 0]:.10f} r={r:.10f} ratio={ratio:.6f}",
    )


def test_criterion_03_em_recovery():
    t0 = time.time()
    cfg = synth.SynthConfig(
        n_speakers=500, utts_per_speaker=10, dim=16,
        cu_spec=synth.RandomSpd(seed=45, cond_cap=50),
        cn_spec=synth.RandomSpd(seed=77, cond_cap=50),
        seed=4,
    )
    embeddings, (c_u, c_n) = synth.generate(cfg)
    centered = embeddings.vectors - embeddings.vectors.mean(axis=0)
    model = jb.fit_jb_em(centered, embeddings.speakers)
    err_u = np.linalg.norm(model.C_u - c_u) / np.linalg.norm(c_u)
    err_n = np.linalg.norm(model.C_n - c_n) / np.linalg.norm(c_n)
    lls = np.array(model.em_log_likelihoods)
    monotone = bool(np.all(np.diff(lls) >= -1e-8))
    elapsed = time.time() - t0
    _report(
        3, "EM recovery", err_u < 0.15 and err_n < 0.15 and monotone and elapsed < 60.0,
        f"rel err C_u={err_u:.3f}, C_n={err_n:.3f}, "
        f"{len(lls)} log-likelihood points monotone={monotone}, {elapsed:.1f}s",
    )


def test_criterion_04_gradient_audit():
    t0 = time.time()
    worst = {}
    cfg = synth.SynthConfig(
        40, 8, 6,
        cu_spec=synth.RandomSpd(seed=5, cond_cap=10),
        cn_spec=synth.RandomSpd(seed=6, cond_cap=10),
        seed=0,
    )
    embeddings, _ = synth.generate(cfg)
    lda = transform.fit_lda(embeddings, 4)
    projected = transform.length_normalize(transform.apply_lda(lda, embeddings.vectors))
    model = jb.fit_jb_em(projected, embeddings.speakers)
    rng = np.random.default_rng(404)
    xi = rng.standard_normal((8, 6))
    xj = rng.standard_normal((8, 6))
    labels = np.array([1, 0, 1, 0, 1, 0, 0, 1], dtype=np.int8)
    batch = hybrid.Batch(xi, xj, labels)
    nets = {
        "two-branch": hybrid.init_from_generative(lda, model),
        "one-branch": hybrid.init_from_generative(lda, model, hybrid.Variant.MAHALANOBIS),
    }
    nets["one-branch"].d0 = 0.5
    nets["one-branch"].lam = 1.2
    for tag, net in nets.items():
        for kind in ("bce", "wbce", "dem"):
            loss_cfg = hybrid.LossConfig(kind=kind, p_tar=0.3, c_miss=2.0, c_fa=1.5, w_s=0.35)
            _, grads = hybrid.loss_and_grad(net, batch, loss_cfg)

            def eval_loss(params, net=net, loss_cfg=loss_cfg):
                candidate = net.replace_params(params)
                if candidate.variant is hybrid.Variant.TWO_BRANCH:
                    _, f = hybrid.forward(candidate, batch.xi, batch.xj)
                else:
                    _, f = hybrid.forward_md(candidate, batch.xi, batch.xj)
                return hybrid.loss(f, batch.labels, loss_cfg)

            reference = finite_diff_gradients(eval_loss, net.params(), step=1e-5)
            for name in net.param_names():
                worst[f"{tag}/{kind}/{name}"] = relative_error(grads[name], reference[name])
    elapsed = time.time() - t0
    worst_name = max(worst, key=worst.get)
    _report(
        4, "gradient audit", max(worst.values()) < 1e-5 and elapsed < 10.0,
        f"worst rel err {worst[worst_name]:.2e} at {worst_name}, "
        f"{len(worst)} parameter/loss combinations, {elapsed:.1f}s",
    )


def test_criterion_05_generative_equivalence_at_init():
    cfg = synth.SynthConfig(
        60, 8, 10,
        cu_spec=synth.RandomSpd(seed=15, cond_cap=20),
        cn_spec=synth.RandomSpd(seed=16, cond_cap=20),
        seed=5,
    )
    embeddings, _ = synth.generate(cfg)
    lda, model = fit_backend(embeddings, 8)
    net = hybrid.init_from_generative(lda, model)
    trials = synth.sample_trials(embeddings, 1000, 0.5, seed=55)
    enroll, test = trials.index_arrays(embeddings)
    projected = transform.length_normalize(transform.apply_lda(lda, embeddings.vectors))
    generative = jb.score_llr(model, projected[enroll], projected[test])
    forwarded, _ = hybrid.forward(
        net, embeddings.vectors[enroll], embeddings.vectors[test]
    )
    max_diff = float(np.abs(generative - forwarded).max())
    eer_a = eer_of(trials, generative)
    eer_b = eer_of(trials, forwarded)
    dcf_a = metrics.compute_min_dcf(corpus.ScoreSet(trials, generative), 0.01)[:2]
    dcf_b = metrics.compute_min_dcf(corpus.ScoreSet(trials, forwarded), 0.01)[:2]
    _report(
        5, "generative equivalence at init",
        max_diff < 1e-10 and eer_a == eer_b and dcf_a == dcf_b,
        f"max |score diff| = {max_diff:.2e} over 1000 pairs, "
        f"EER {eer_a:.4f} == {eer_b:.4f}, minDCF {dcf_a[1]:.4f} == {dcf_b[1]:.4f}",
    )


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(606)
    exact = True
    for _ in range(100):
        n_tar = int(rng.integers(1, 100))
        n_non = int(rng.integers(1, 100))
        tar = rng.standard_normal(n_tar) + rng.uniform(0, 2)
        non = rng.standard_normal(n_non)
        trials = [corpus.Trial(f"t{k}", f"u{k}", corpus.TrialLabel.SAME) for k in range(n_tar)]
        trials += [corpus.Trial(f"n{k}", f"v{k}", corpus.TrialLabel.DIFFERENT) for k in range(n_non)]
        scores = corpus.ScoreSet(corpus.TrialList(trials), np.concatenate([tar, non]))
        labels = scores.trials.labels()
        if metrics.compute_eer(scores)[0] != brute_force_eer(scores.scores, labels):
            exact = False
            break
        p_tar = float(rng.uniform(0.001, 0.5))
        raw, normalized, _ = metrics.compute_min_dcf(scores, p_tar)
        if (raw, normalized) != brute_force_min_dcf(scores.scores, labels, p_tar):
            exact = False
            break
    sep = corpus.ScoreSet(
        corpus.TrialList(
            [
                corpus.Trial("a", "b", corpus.TrialLabel.SAME),
                corpus.Trial("c", "d", corpus.TrialLabel.DIFFERENT),
            ]
        ),
        np.array([1.0, -1.0]),
    )
    perfect = metrics.compute_eer(sep)[0] == 0.0 and metrics.compute_min_dcf(sep, 0.01)[0] == 0.0
    invariant = True
    for mapper in (lambda s: 2.0 * s + 3.0, expit):
        s = corpus.ScoreSet(
            scores.trials, scores.scores
        )  # reuse the last random set
        mapped = corpus.ScoreSet(s.trials, mapper(s.scores))
        if metrics.compute_eer(s)[0] != metrics.compute_eer(mapped)[0]:
            invariant = False
        if metrics.compute_min_dcf(s, 0.01)[:2] != metrics.compute_min_dcf(mapped, 0.01)[:2]:
            invariant = False
    _report(
        6, "metric oracles", exact and perfect and invariant,
        f"100 random score sets exact={exact}, perfect separation={perfect}, "
        f"calibration invariance={invariant}",
    )


def test_criterion_07_matched_end_to_end(matched_experiment):
    r = matched_experiment
    gap = r["eer_jb"] - r["eer_oracle"]
    degradation = r["eer_hybrid"] - r["eer_jb"]
    _report(
        7, "matched-condition end to end",
        gap <= 0.010 and degradation <= 0.005,
        f"oracle EER={r['eer_oracle']:.4f}, backend EER={r['eer_jb']:.4f} "
        f"(gap {100 * gap:.2f}pp <= 1pp), fine-tuned EER={r['eer_hybrid']:.4f} "
        f"(change {100 * degradation:+.2f}pp <= 0.5pp), {r['seconds']:.0f}s",
    )


def test_criterion_08_mismatched_end_to_end(mismatch_experiment):
    rows = mismatch_experiment["rows"]
    med = lambda key: float(np.median([r[key] for r in rows]))
    eer_ok = med("eer_hybrid") < med("eer_jb")
    val_ok = med("val_jb_init") < med("val_rand_init")
    elapsed = mismatch_experiment["seconds"]
    _report(
        8, "mismatched-condition end to end",
        eer_ok and val_ok and elapsed < 600.0,
        f"median EER backend={med('eer_jb'):.4f} -> fine-tuned={med('eer_hybrid'):.4f}, "
        f"median best val loss generative-init={med('val_jb_init'):.4f} vs "
        f"random-init={med('val_rand_init'):.4f}, {elapsed:.0f}s over 10 seeds",
    )


def test_criterion_09_ablation_identities(mismatch_experiment):
    cfg = synth.SynthConfig(
        50, 8, 8,
        cu_spec=synth.RandomSpd(seed=25, cond_cap=20),
        cn_spec=synth.RandomSpd(seed=26, cond_cap=20),
        seed=9,
    )
    embeddings, _ = synth.generate(cfg)
    lda, model = fit_backend(embeddings, 6)
    net = hybrid.init_from_generative(lda, model)
    rng = np.random.default_rng(909)
    xi = rng.standard_normal((1000, 8))
    xj = rng.standard_normal((1000, 8))

    tied = hybrid.restrict(net, hybrid.RestrictMode.G_FROM_A)
    md = hybrid.SiameseModel(
        variant=hybrid.Variant.MAHALANOBIS, mean=net.mean.copy(), W=net.W.copy(),
        P=net.P_A.copy(), d0=0.0, lam=1.0,
    )
    r_tied, _ = hybrid.forward(tied, xi, xj)
    dist, _ = hybrid.forward_md(md, xi, xj)
    tied_err = float(np.abs(r_tied + dist).max())

    projected_i = transform.length_normalize(transform.apply_lda(lda, xi))
    projected_j = transform.length_normalize(transform.apply_lda(lda, xj))
    g_only, _ = hybrid.forward(hybrid.restrict(net, hybrid.RestrictMode.G_ONLY), xi, xj)
    g_expected = 2.0 * np.sum((projected_i @ net.P_G) * (projected_j @ net.P_G), axis=1)
    a_only, _ = hybrid.forward(hybrid.restrict(net, hybrid.RestrictMode.A_ONLY), xi, xj)
    a_i = projected_i @ net.P_A
    a_j = projected_j @ net.P_A
    a_expected = -np.sum(a_i * a_i, axis=1) - np.sum(a_j * a_j, axis=1)
    g_err = float(np.abs(g_only - g_expected).max())
    a_err = float(np.abs(a_only - a_expected).max())

    rows = mismatch_experiment["rows"]
    dcf_dem = float(np.median([r["dcf_dem"] for r in rows]))
    dcf_wbce = float(np.median([r["dcf_wbce"] for r in rows]))
    _report(
        9, "ablation identities",
        tied_err < 1e-10 and g_err < 1e-10 and a_err < 1e-10 and dcf_dem <= dcf_wbce,
        f"|tied - (-distance)| = {tied_err:.2e}, cross-term err = {g_err:.2e}, "
        f"self-term err = {a_err:.2e}; median minDCF(0.001) "
        f"detection-cost-trained={dcf_dem:.4f} <= cross-entropy-trained={dcf_wbce:.4f}",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def chain(root):
        root.mkdir()
        paths = {
            "emb": root / "emb.txt", "truth": root / "truth.txt",
            "trials": root / "trials.txt", "lda": root / "lda.txt",
            "jb": root / "jb.txt", "net": root / "net.txt",
            "trained": root / "trained.txt", "history": root / "history.csv",
            "scores": root / "scores.txt", "report": root / "report.txt",
            "det": root / "det.csv", "hist": root / "hist.csv",
        }
        steps = [
            ["synth", "--speakers", "80", "--utts", "8", "--dim", "6", "--seed", "7",
             "--cu", "diagonal:5.0,5.4,5.8,6.2,6.6,7.0", "--cn", "isotropic:1.0",
             "--mismatch", "channel-shift", "--shift-fraction", "0.5",
             "--out", str(paths["emb"]), "--truth-out", str(paths["truth"])],
            ["make-trials", "--embeddings", str(paths["emb"]), "--n", "500",
             "--pos-fraction", "0.5", "--seed", "3", "--out", str(paths["trials"])],
            ["fit-lda", "--embeddings", str(paths["emb"]), "--dim", "6",
             "--out", str(paths["lda"])],
            ["fit-jb", "--embeddings", str(paths["emb"]), "--lda", str(paths["lda"]),
             "--out", str(paths["jb"])],
            ["init-hybrid", "--init", "jb", "--lda", str(paths["lda"]),
             "--jb", str(paths["jb"]), "--out", str(paths["net"])],
            ["train", "--model", str(paths["net"]), "--embeddings", str(paths["emb"]),
             "--loss", "dem", "--p-tar", "0.5", "--batch-size", "256", "--epochs", "3",
             "--pos-fraction", "0.3", "--seed", "11",
             "--out", str(paths["trained"]), "--history-out", str(paths["history"])],
            ["score", "--model", str(paths["trained"]), "--embeddings", str(paths["emb"]),
             "--trials", str(paths["trials"]), "--out", str(paths["scores"])],
            ["eval", "--scores", str(paths["scores"]), "--trials", str(paths["trials"]),
             "--out", str(paths["report"]), "--det-out", str(paths["det"]),
             "--hist-out", str(paths["hist"])],
        ]
        for argv in steps:
            assert cli.main(argv) == 0, argv[0]
        return paths

    compared = ("scores", "report", "det", "hist", "history", "trained")
    first = chain(tmp_path / "run1")
    second = chain(tmp_path / "run2")
    rerun_identical = all(
        first[key].read_bytes() == second[key].read_bytes() for key in compared
    )

    # replay the recorded manifests in chain order after deleting every artifact
    baseline = {key: first[key].read_bytes() for key in compared}
    manifests = [
        f"{first[key]}.manifest.json"
        for key in ("emb", "trials", "lda", "jb", "net", "trained", "scores", "report")
    ]
    for key in first:
        first[key].unlink()
    for manifest in manifests:
        assert cli.main(["replay", manifest]) == 0, manifest
    replay_identical = all(
        first[key].read_bytes() == baseline[key] for key in compared
    )
    _report(
        10, "end-to-end determinism", rerun_identical and replay_identical,
        "score, report, DET, histogram, history, and model files byte-identical "
        "across a fresh chain re-run and a manifest replay",
    )
