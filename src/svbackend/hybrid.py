"""Trainable two-branch pairwise scorer and its objectives.

Forward path per side: h = W'(x - mean), h~ = h/||h||, then the two
branches a = P_A'h~ and g = P_G'h~ give the pair score
r = 2 g_i'g_j - a_i'a_i - a_j'a_j, mapped to a probability through the
calibrated sigmoid f = sigmoid(alpha * r + beta). Initialized from the
fitted projection and covariance factors, this reproduces the generative
pipeline score exactly; gradient training then refines W, P_A, P_G and
the calibration. A one-branch variant scores the squared distance
dist = ||P'(h~_i - h~_j)||^2 with p = sigmoid(lambda * (d0 - dist)).

All gradients are exact analytic derivatives of the selected objective,
including the length-normalization Jacobian (I - h~h~')/||h||.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import corpus
from .errors import (
    ConfigError,
    DegenerateBatchError,
    InvalidCostError,
    NumericError,
    ParseError,
    ShapeError,
    ZeroVectorError,
)
from .jb import JbModel
from .transform import LdaTransform

LOG_CLAMP = 1e-12  # floor on log arguments; saturated sigmoids stay finite


def _expit(z):
    """Logistic sigmoid 1/(1 + exp(-z)), scipy.special.expit's formula; for
    z below about -709 exp(-z) overflows to inf and the value is exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _pair_score(g_i, g_j, a_sq_i, a_sq_j):
    """Two-branch score 2 g_i'g_j - (|a_i|^2 + |a_j|^2), bit-symmetric in i, j."""
    return 2.0 * np.sum(g_i * g_j, axis=1) - (a_sq_i + a_sq_j)


class Variant(str, enum.Enum):
    TWO_BRANCH = "two-branch"
    MAHALANOBIS = "mahalanobis"


class LossKind(str, enum.Enum):
    BCE = "bce"    # plain binary cross entropy, summed over the batch
    WBCE = "wbce"  # class-normalized weighted cross entropy
    DEM = "dem"    # soft detection-cost surrogate


class RestrictMode(str, enum.Enum):
    A_ONLY = "a-only"
    G_ONLY = "g-only"
    G_FROM_A = "g-from-a"
    A_FROM_G = "a-from-g"


@dataclass
class LossConfig:
    kind: LossKind = LossKind.DEM
    p_tar: float = 0.01
    c_miss: float = 1.0
    c_fa: float = 1.0
    w_s: float = 0.01

    def __post_init__(self):
        self.kind = LossKind(self.kind)
        if not 0.0 < self.p_tar < 1.0:
            raise ConfigError(f"p_tar must lie in (0, 1), got {self.p_tar}")
        if not (math.isfinite(self.c_miss) and math.isfinite(self.c_fa)):
            raise InvalidCostError(
                f"costs must be finite, got c_miss={self.c_miss}, c_fa={self.c_fa}"
            )
        if self.c_miss < 0 or self.c_fa < 0:
            raise InvalidCostError("costs must be non-negative")
        if self.c_miss + self.c_fa <= 0:
            raise InvalidCostError("at least one of c_miss, c_fa must be positive")
        if not 0.0 < self.w_s < 1.0:
            raise ConfigError(f"w_s must lie in (0, 1), got {self.w_s}")


@dataclass
class TrainConfig:
    lr: float = 5e-4
    batch_size: int = 4096
    epochs: int = 20
    pos_fraction: float = 0.1
    split: float = 0.9
    seed: int = 0
    freeze: frozenset[str] = frozenset()

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.pos_fraction < 1.0:
            raise ConfigError(f"pos_fraction must lie in (0, 1), got {self.pos_fraction}")
        if not 0.0 < self.split < 1.0:
            raise ConfigError(f"split must lie in (0, 1), got {self.split}")
        self.freeze = frozenset(self.freeze)


_PARAM_NAMES = {
    Variant.TWO_BRANCH: ("W", "P_A", "P_G", "alpha", "beta"),
    Variant.MAHALANOBIS: ("W", "P", "d0", "lambda"),
}


@dataclass
class SiameseModel:
    """Parameters of the pairwise scorer; `mean` is a frozen offset."""

    variant: Variant
    mean: np.ndarray
    W: np.ndarray
    P_A: np.ndarray | None = None
    P_G: np.ndarray | None = None
    alpha: float = 1.0
    beta: float = 0.0
    P: np.ndarray | None = None
    d0: float | None = None
    lam: float | None = None
    pre_normalize: bool = False

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]

    @property
    def output_dim(self) -> int:
        return self.W.shape[1]

    def copy(self) -> "SiameseModel":
        def dup(m):
            return None if m is None else m.copy()

        return replace(
            self, mean=self.mean.copy(), W=self.W.copy(), P_A=dup(self.P_A),
            P_G=dup(self.P_G), P=dup(self.P),
        )

    def param_names(self) -> tuple[str, ...]:
        return _PARAM_NAMES[self.variant]

    def params(self) -> dict:
        if self.variant is Variant.TWO_BRANCH:
            return {"W": self.W, "P_A": self.P_A, "P_G": self.P_G,
                    "alpha": self.alpha, "beta": self.beta}
        return {"W": self.W, "P": self.P, "d0": self.d0, "lambda": self.lam}

    def replace_params(self, params: dict) -> "SiameseModel":
        out = self.copy()
        out.W = np.asarray(params["W"], dtype=np.float64)
        if self.variant is Variant.TWO_BRANCH:
            out.P_A = np.asarray(params["P_A"], dtype=np.float64)
            out.P_G = np.asarray(params["P_G"], dtype=np.float64)
            out.alpha = float(params["alpha"])
            out.beta = float(params["beta"])
        else:
            out.P = np.asarray(params["P"], dtype=np.float64)
            out.d0 = float(params["d0"])
            out.lam = float(params["lambda"])
        return out


@dataclass
class Batch:
    """Pairs of raw embeddings with 1/0 (same/different) labels."""

    xi: np.ndarray
    xj: np.ndarray
    labels: np.ndarray
    enroll_idx: np.ndarray | None = None
    test_idx: np.ndarray | None = None

    def __len__(self) -> int:
        return self.labels.size


def init_from_generative(transform: LdaTransform, model: JbModel,
                         variant: Variant = Variant.TWO_BRANCH) -> SiameseModel:
    """Copy the fitted projection and covariance factors into the network.

    With alpha=1, beta=0 the two-branch forward score equals the
    generative pipeline score for every pair. The one-branch variant takes
    P from P_A with d0=0 and lambda=1, so its probability matches the
    restricted (P_G = P_A) two-branch model at initialization.
    """
    if transform.output_dim != model.dim:
        raise ShapeError(
            f"projection output dimension {transform.output_dim} != model "
            f"dimension {model.dim}"
        )
    variant = Variant(variant)
    common = dict(
        mean=transform.mean.copy(),
        W=transform.W.copy(),
        pre_normalize=transform.pre_normalize,
    )
    if variant is Variant.TWO_BRANCH:
        return SiameseModel(variant=variant, P_A=model.P_A.copy(),
                            P_G=model.P_G.copy(), alpha=1.0, beta=0.0, **common)
    return SiameseModel(variant=variant, P=model.P_A.copy(), d0=0.0, lam=1.0, **common)


def init_random(input_dim: int, output_dim: int, seed: int,
                variant: Variant = Variant.TWO_BRANCH) -> SiameseModel:
    """Zero-mean normal init with std sqrt(2 / fan_in) per weight matrix.

    Draw order is fixed (W, then the branch weights) so a seed pins every
    parameter. Calibration starts at alpha=1, beta=0 (d0=0, lambda=1).
    """
    if input_dim < 1 or output_dim < 1:
        raise ShapeError(f"bad dimensions ({input_dim}, {output_dim})")
    variant = Variant(variant)
    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, math.sqrt(2.0 / input_dim), size=(input_dim, output_dim))
    common = dict(mean=np.zeros(input_dim), W=W)
    branch_std = math.sqrt(2.0 / output_dim)
    if variant is Variant.TWO_BRANCH:
        P_A = rng.normal(0.0, branch_std, size=(output_dim, output_dim))
        P_G = rng.normal(0.0, branch_std, size=(output_dim, output_dim))
        return SiameseModel(variant=variant, P_A=P_A, P_G=P_G, alpha=1.0, beta=0.0, **common)
    P = rng.normal(0.0, branch_std, size=(output_dim, output_dim))
    return SiameseModel(variant=variant, P=P, d0=0.0, lam=1.0, **common)


def _as_pairs(x_i, x_j, dim: int):
    x_i = np.asarray(x_i, dtype=np.float64)
    x_j = np.asarray(x_j, dtype=np.float64)
    squeeze = x_i.ndim == 1 and x_j.ndim == 1
    x_i = np.atleast_2d(x_i)
    x_j = np.atleast_2d(x_j)
    if x_i.shape != x_j.shape or x_i.shape[1] != dim:
        raise ShapeError(
            f"pair shapes {x_i.shape} / {x_j.shape} do not match input dimension {dim}"
        )
    return x_i, x_j, squeeze


def _project(model: SiameseModel, x: np.ndarray):
    """Center, project, and length-normalize; keeps what the backward needs."""
    if model.pre_normalize:
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        if np.any(norms < 1e-12):
            raise ZeroVectorError("cannot length-normalize a (near-)zero input")
        x = x / norms
    centered = x - model.mean
    h = centered @ model.W
    norms = np.linalg.norm(h, axis=1)
    if np.any(norms < 1e-12):
        raise ZeroVectorError("projected vector has (near-)zero norm")
    return centered, h / norms[:, None], norms


def forward(model: SiameseModel, x_i, x_j):
    """Two-branch pair score and calibrated probability: (r, f)."""
    if model.variant is not Variant.TWO_BRANCH:
        raise ConfigError(f"forward needs a two-branch model, got {model.variant.value}")
    x_i, x_j, squeeze = _as_pairs(x_i, x_j, model.input_dim)
    _, ht_i, _ = _project(model, x_i)
    _, ht_j, _ = _project(model, x_j)
    a_i = ht_i @ model.P_A
    a_j = ht_j @ model.P_A
    r = _pair_score(ht_i @ model.P_G, ht_j @ model.P_G,
                    np.sum(a_i * a_i, axis=1), np.sum(a_j * a_j, axis=1))
    f = _expit(model.alpha * r + model.beta)
    if squeeze:
        return float(r[0]), float(f[0])
    return r, f


def forward_md(model: SiameseModel, x_i, x_j):
    """One-branch squared distance and probability: (dist, p)."""
    if model.variant is not Variant.MAHALANOBIS:
        raise ConfigError(f"forward_md needs a one-branch model, got {model.variant.value}")
    x_i, x_j, squeeze = _as_pairs(x_i, x_j, model.input_dim)
    _, ht_i, _ = _project(model, x_i)
    _, ht_j, _ = _project(model, x_j)
    q = (ht_i - ht_j) @ model.P
    dist = np.sum(q * q, axis=1)
    p = _expit(model.lam * (model.d0 - dist))
    if squeeze:
        return float(dist[0]), float(p[0])
    return dist, p


def batch_scores(model: SiameseModel, batch: Batch):
    """Per-trial (score, probability); score is r, or -dist for one-branch."""
    if model.variant is Variant.TWO_BRANCH:
        return forward(model, batch.xi, batch.xj)
    dist, p = forward_md(model, batch.xi, batch.xj)
    return -dist, p


_SCORE_BLOCK = 8192  # trials per gather: memory stays O(utterances + block)


def _project_trials(model: SiameseModel, embeddings: corpus.EmbeddingSet,
                    trials: corpus.TrialList):
    """Projection h~ of each utterance the trials reference, once, and the
    (enroll, test) rows of each trial into it."""
    enroll, test = trials.index_arrays(embeddings)
    if embeddings.dim != model.input_dim:
        shape = (enroll.size, embeddings.dim)
        raise ShapeError(
            f"pair shapes {shape} / {shape} do not match input dimension {model.input_dim}"
        )
    rows, inverse = np.unique(np.concatenate([enroll, test]), return_inverse=True)
    _, ht, _ = _project(model, embeddings.vectors[rows])
    return ht, inverse[: enroll.size], inverse[enroll.size :]


def _gather_scores(model: SiameseModel, ht: np.ndarray, enroll: np.ndarray,
                   test: np.ndarray) -> np.ndarray:
    """`batch_scores` of the pairs (ht[enroll[k]], ht[test[k]]).

    The branch outputs of each utterance are computed once and gathered
    per pair. Every step works row by row, so these are the bits of the
    pairwise path wherever BLAS gives a GEMM row the same bits at any
    matrix height: OpenBLAS does above about 1e6 multiply-adds, and its
    small-matrix kernels do not (scores then differ by ~1e-15 of their
    scale). Blocks hold at least _SCORE_BLOCK trials, or all of them.
    """
    if model.variant is Variant.TWO_BRANCH:
        a = ht @ model.P_A
        g = ht @ model.P_G
        a_sq = np.sum(a * a, axis=1)
    scores = np.empty(enroll.size)
    bounds = np.linspace(0, enroll.size, max(1, enroll.size // _SCORE_BLOCK) + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        e, t = enroll[lo:hi], test[lo:hi]
        if model.variant is Variant.TWO_BRANCH:
            scores[lo:hi] = _pair_score(g[e], g[t], a_sq[e], a_sq[t])
        else:
            q = (ht[e] - ht[t]) @ model.P
            scores[lo:hi] = -np.sum(q * q, axis=1)
    return scores


def score_trials(model: SiameseModel, embeddings: corpus.EmbeddingSet,
                 trials: corpus.TrialList) -> corpus.ScoreSet:
    """Score a trial list in order; output order matches input order."""
    scores = _gather_scores(model, *_project_trials(model, embeddings, trials))
    return corpus.ScoreSet(corpus.TrialList(list(trials.trials)), scores)


def score_ablation(model: SiameseModel, embeddings: corpus.EmbeddingSet,
                   trials: corpus.TrialList, settings) -> list[corpus.ScoreSet]:
    """`score_trials` of the full model ("full") or of `restrict(model,
    setting)`, per setting. Restriction keeps W and the mean, so every
    setting shares one projection of the utterances."""
    ht, enroll, test = _project_trials(model, embeddings, trials)
    out = []
    for setting in settings:
        scorer = model if setting == "full" else restrict(model, RestrictMode(setting))
        scores = _gather_scores(scorer, ht, enroll, test)
        out.append(corpus.ScoreSet(corpus.TrialList(list(trials.trials)), scores))
    return out


def _clamped_log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_CLAMP))


def _check_batch_labels(labels: np.ndarray, kind: LossKind) -> tuple[np.ndarray, np.ndarray]:
    if labels.size == 0:
        raise DegenerateBatchError("empty batch")
    tar = labels == 1
    non = ~tar
    if kind is not LossKind.BCE and (not tar.any() or not non.any()):
        raise DegenerateBatchError(
            f"{kind.value} needs at least one trial of each label per batch"
        )
    return tar, non


def loss(f, labels, cfg: LossConfig) -> float:
    """Objective value on per-trial probabilities f with 1/0 labels."""
    f = np.atleast_1d(np.asarray(f, dtype=np.float64))
    labels = np.atleast_1d(np.asarray(labels))
    tar, non = _check_batch_labels(labels, cfg.kind)
    if cfg.kind is LossKind.BCE:
        return float(-(np.sum(_clamped_log(f[tar])) + np.sum(_clamped_log(1.0 - f[non]))))
    if cfg.kind is LossKind.WBCE:
        loss_same = -float(np.mean(_clamped_log(f[tar])))
        loss_diff = -float(np.mean(_clamped_log(1.0 - f[non])))
        return cfg.w_s * loss_same + (1.0 - cfg.w_s) * loss_diff
    soft_miss = float(np.mean(1.0 - f[tar]))
    soft_fa = float(np.mean(f[non]))
    return cfg.p_tar * cfg.c_miss * soft_miss + (1.0 - cfg.p_tar) * cfg.c_fa * soft_fa


def _loss_df(f: np.ndarray, labels: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Exact d(loss)/df per trial, consistent with the clamped logs."""
    tar, non = _check_batch_labels(labels, cfg.kind)
    df = np.zeros_like(f)
    # log(max(x, c)) has zero derivative in the clamped region
    live_tar = tar & (f > LOG_CLAMP)
    live_non = non & ((1.0 - f) > LOG_CLAMP)
    if cfg.kind is LossKind.BCE:
        df[live_tar] = -1.0 / f[live_tar]
        df[live_non] = 1.0 / (1.0 - f[live_non])
    elif cfg.kind is LossKind.WBCE:
        df[live_tar] = -cfg.w_s / (tar.sum() * f[live_tar])
        df[live_non] = (1.0 - cfg.w_s) / (non.sum() * (1.0 - f[live_non]))
    else:
        df[tar] = -cfg.p_tar * cfg.c_miss / tar.sum()
        df[non] = (1.0 - cfg.p_tar) * cfg.c_fa / non.sum()
    return df


def _backprop_length_norm(d_ht: np.ndarray, ht: np.ndarray, norms: np.ndarray) -> np.ndarray:
    # exact Jacobian of h -> h/||h||: (I - h~h~') / ||h||
    return (d_ht - np.sum(d_ht * ht, axis=1, keepdims=True) * ht) / norms[:, None]


def loss_and_grad(model: SiameseModel, batch: Batch, cfg: LossConfig,
                  freeze: frozenset = frozenset()):
    """Objective value and exact analytic gradients for one batch.

    Returns (loss, grads) with one gradient entry per trainable parameter;
    names listed in `freeze` get exact zeros.
    """
    unknown = set(freeze) - set(model.param_names())
    if unknown:
        raise ConfigError(f"cannot freeze unknown parameters {sorted(unknown)}")
    xi, xj, _ = _as_pairs(batch.xi, batch.xj, model.input_dim)
    labels = np.atleast_1d(np.asarray(batch.labels))
    if labels.size != xi.shape[0]:
        raise ShapeError(f"{labels.size} labels for {xi.shape[0]} pairs")
    xc_i, ht_i, n_i = _project(model, xi)
    xc_j, ht_j, n_j = _project(model, xj)

    if model.variant is Variant.TWO_BRANCH:
        a_i = ht_i @ model.P_A
        a_j = ht_j @ model.P_A
        g_i = ht_i @ model.P_G
        g_j = ht_j @ model.P_G
        r = _pair_score(g_i, g_j, np.sum(a_i * a_i, axis=1), np.sum(a_j * a_j, axis=1))
        f = _expit(model.alpha * r + model.beta)
        value = loss(f, labels, cfg)
        df = _loss_df(f, labels, cfg)
        dz = df * f * (1.0 - f)          # d loss / d (alpha r + beta)
        d_alpha = float(np.dot(dz, r))
        d_beta = float(np.sum(dz))
        dr = dz * model.alpha
        wi = dr[:, None] * ht_i
        wj = dr[:, None] * ht_j
        d_pa = -2.0 * (wi.T @ a_i + wj.T @ a_j)
        d_pg = 2.0 * (wi.T @ g_j + wj.T @ g_i)
        d_ht_i = 2.0 * dr[:, None] * (g_j @ model.P_G.T - a_i @ model.P_A.T)
        d_ht_j = 2.0 * dr[:, None] * (g_i @ model.P_G.T - a_j @ model.P_A.T)
        grads = {"P_A": d_pa, "P_G": d_pg, "alpha": d_alpha, "beta": d_beta}
    else:
        delta = ht_i - ht_j
        q = delta @ model.P
        dist = np.sum(q * q, axis=1)
        p = _expit(model.lam * (model.d0 - dist))
        value = loss(p, labels, cfg)
        dp = _loss_df(p, labels, cfg)
        dz = dp * p * (1.0 - p)
        d_lam = float(np.dot(dz, model.d0 - dist))
        d_d0 = float(np.sum(dz)) * model.lam
        ddist = -dz * model.lam
        d_p = 2.0 * (delta * ddist[:, None]).T @ q
        d_delta = 2.0 * ddist[:, None] * (q @ model.P.T)
        d_ht_i = d_delta
        d_ht_j = -d_delta
        grads = {"P": d_p, "d0": d_d0, "lambda": d_lam}

    d_h_i = _backprop_length_norm(d_ht_i, ht_i, n_i)
    d_h_j = _backprop_length_norm(d_ht_j, ht_j, n_j)
    grads["W"] = xc_i.T @ d_h_i + xc_j.T @ d_h_j
    for name in freeze:
        grads[name] = np.zeros_like(grads[name]) if isinstance(grads[name], np.ndarray) else 0.0
    return value, grads


def grad(model: SiameseModel, batch: Batch, cfg: LossConfig,
         freeze: frozenset = frozenset()) -> dict:
    """Gradients only; see `loss_and_grad`."""
    return loss_and_grad(model, batch, cfg, freeze)[1]


@dataclass
class AdamState:
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(model: SiameseModel, grads: dict, state: AdamState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    """One Adam update with bias correction; returns (model, state)."""
    params = model.params()
    t = state.t + 1
    new_m, new_v, new_params = {}, {}, {}
    for name in model.param_names():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        m = beta1 * state.m.get(name, 0.0) + (1.0 - beta1) * g
        v = beta2 * state.v.get(name, 0.0) + (1.0 - beta2) * np.square(g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_params[name] = params[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return model.replace_params(new_params), AdamState(t=t, m=new_m, v=new_v)


def sample_minibatch(embeddings: corpus.EmbeddingSet, cfg: TrainConfig, rng) -> Batch:
    """Labeled pair batch: ceil(pos_fraction * batch_size) same-speaker
    pairs (clamped so both classes appear), the rest different-speaker."""
    n_pos = min(cfg.batch_size - 1, max(1, math.ceil(cfg.pos_fraction * cfg.batch_size)))
    idx_i, idx_j, labels = corpus.sample_pair_indices(
        embeddings.speaker_codes(), n_pos, cfg.batch_size - n_pos, rng
    )
    return Batch(
        xi=embeddings.vectors[idx_i],
        xj=embeddings.vectors[idx_j],
        labels=labels,
        enroll_idx=idx_i,
        test_idx=idx_j,
    )


def _speaker_split(embeddings: corpus.EmbeddingSet, ratio: float, rng):
    speakers = sorted(set(embeddings.speakers))
    if len(speakers) < 2:
        raise ConfigError("need at least 2 speakers for a speaker-disjoint split")
    perm = rng.permutation(len(speakers))
    n_train = min(len(speakers) - 1, max(1, int(round(ratio * len(speakers)))))
    train_speakers = {speakers[k] for k in perm[:n_train]}
    val_speakers = {speakers[k] for k in perm[n_train:]}
    return (
        embeddings.subset_by_speakers(train_speakers),
        embeddings.subset_by_speakers(val_speakers),
    )


def _batch_probs(model: SiameseModel, batch: Batch) -> np.ndarray:
    return np.atleast_1d(batch_scores(model, batch)[1])


def train(model: SiameseModel, embeddings: corpus.EmbeddingSet,
          train_cfg: TrainConfig, loss_cfg: LossConfig):
    """Minibatch Adam training with speaker-disjoint validation.

    The embedding set is split into train/validation speakers at
    `train_cfg.split`; a fixed validation trial batch is drawn once from a
    derived seed so per-epoch losses are comparable. Each epoch runs
    ceil(N_train / batch_size) steps; the returned model is the snapshot
    with the lowest validation loss (the untrained model competes too).
    History rows are (epoch, mean train loss, validation loss), with NaN
    train loss on the epoch-0 row. Deterministic given the seed.
    """
    if train_cfg.epochs == 0:
        return model.copy(), []
    split_ss, batch_ss, val_ss = np.random.SeedSequence(train_cfg.seed).spawn(3)
    train_set, val_set = _speaker_split(
        embeddings, train_cfg.split, np.random.default_rng(split_ss)
    )
    val_batch = sample_minibatch(val_set, train_cfg, np.random.default_rng(val_ss))
    batch_rng = np.random.default_rng(batch_ss)

    current = model.copy()
    val_loss = loss(_batch_probs(current, val_batch), val_batch.labels, loss_cfg)
    history = [(0, math.nan, val_loss)]
    best_model, best_val = current, val_loss
    steps = max(1, math.ceil(len(train_set) / train_cfg.batch_size))
    state = AdamState()
    for epoch in range(1, train_cfg.epochs + 1):
        epoch_losses = []
        for _ in range(steps):
            batch = sample_minibatch(train_set, train_cfg, batch_rng)
            value, grads = loss_and_grad(current, batch, loss_cfg, train_cfg.freeze)
            current, state = adam_step(current, grads, state, train_cfg.lr)
            epoch_losses.append(value)
        val_loss = loss(_batch_probs(current, val_batch), val_batch.labels, loss_cfg)
        history.append((epoch, float(np.mean(epoch_losses)), val_loss))
        if val_loss < best_val:
            best_val = val_loss
            best_model = current
    return best_model.copy(), history


def restrict(model: SiameseModel, mode: RestrictMode) -> SiameseModel:
    """Copy of the model with one branch zeroed or tied to the other."""
    if model.variant is not Variant.TWO_BRANCH:
        raise ConfigError("restrict applies to two-branch models only")
    mode = RestrictMode(mode)
    out = model.copy()
    if mode is RestrictMode.A_ONLY:
        out.P_G = np.zeros_like(out.P_G)
    elif mode is RestrictMode.G_ONLY:
        out.P_A = np.zeros_like(out.P_A)
    elif mode is RestrictMode.G_FROM_A:
        out.P_G = out.P_A.copy()
    else:
        out.P_A = out.P_G.copy()
    return out


def write_history_csv(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for epoch, train_loss, val_loss in history:
            fh.write(f"{epoch},{corpus.fmt_float(train_loss)},{corpus.fmt_float(val_loss)}\n")


def save_model(model: SiameseModel, path) -> None:
    """Header `siamese <variant> <l> <d>`, then mean, W rows, and the
    variant's branch weights and calibration scalars."""
    header = f"siamese {model.variant.value} {model.input_dim} {model.output_dim}"
    if model.pre_normalize:
        header += " prenorm"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write(" ".join(corpus.fmt_float(v) for v in model.mean) + "\n")
        for row in model.W:
            fh.write(" ".join(corpus.fmt_float(v) for v in row) + "\n")
        if model.variant is Variant.TWO_BRANCH:
            for m in (model.P_A, model.P_G):
                for row in m:
                    fh.write(" ".join(corpus.fmt_float(v) for v in row) + "\n")
            fh.write(corpus.fmt_float(model.alpha) + "\n")
            fh.write(corpus.fmt_float(model.beta) + "\n")
        else:
            for row in model.P:
                fh.write(" ".join(corpus.fmt_float(v) for v in row) + "\n")
            fh.write(corpus.fmt_float(model.d0) + "\n")
            fh.write(corpus.fmt_float(model.lam) + "\n")


def load_model(path) -> SiameseModel:
    with corpus.open_text(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    if not lines or lines[0][:1] != ["siamese"] or len(lines[0]) not in (4, 5):
        raise ParseError(f"{path}: missing 'siamese <variant> <l> <d>' header")
    head = lines[0]
    if len(head) == 5 and head[4] != "prenorm":
        raise ParseError(f"{path}: malformed header {' '.join(head)!r}")
    try:
        variant = Variant(head[1])
    except ValueError:
        raise ParseError(f"{path}: unknown variant {head[1]!r}") from None
    try:
        l, d = int(head[2]), int(head[3])
    except ValueError:
        raise ParseError(f"{path}: non-integer dimensions in header") from None
    pre_normalize = len(head) == 5
    n_branch = 2 * d if variant is Variant.TWO_BRANCH else d
    expected = 1 + 1 + l + n_branch + 2
    if len(lines) != expected:
        raise ParseError(f"{path}: expected {expected} lines, got {len(lines)}")
    values = corpus.float_rows(path, lines[1:], "entry")
    mean = values[0]
    if mean.size != l:
        raise ParseError(f"{path}: mean length {mean.size} != {l}")
    w_rows = values[1 : 1 + l]
    if any(r.size != d for r in w_rows):
        raise ParseError(f"{path}: W row length does not match {d}")
    W = np.stack(w_rows)
    branch_rows = values[1 + l : 1 + l + n_branch]
    if any(r.size != d for r in branch_rows):
        raise ParseError(f"{path}: branch row length does not match {d}")
    s1, s2 = values[-2], values[-1]
    if s1.size != 1 or s2.size != 1:
        raise ParseError(f"{path}: calibration scalars must be single values")
    if variant is Variant.TWO_BRANCH:
        return SiameseModel(
            variant=variant, mean=mean, W=W,
            P_A=np.stack(branch_rows[:d]), P_G=np.stack(branch_rows[d:]),
            alpha=float(s1[0]), beta=float(s2[0]), pre_normalize=pre_normalize,
        )
    return SiameseModel(
        variant=variant, mean=mean, W=W, P=np.stack(branch_rows),
        d0=float(s1[0]), lam=float(s2[0]), pre_normalize=pre_normalize,
    )
