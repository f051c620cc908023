"""Synthetic embedding corpora with known ground-truth covariances.

The generator samples exactly from the additive speaker-plus-noise model,
so the returned (C_u, C_n) can serve as an oracle for estimator tests.
Two controlled violations of the Gaussian noise assumption are available
for stress-testing discriminative fine-tuning: heavy-tailed noise
(multivariate t rescaled to the same covariance) and a fixed channel
offset added to a random fraction of utterances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import corpus, jb
from .errors import ConfigError, InsufficientClassesError


class _FiniteFields:
    """Rejects a recipe field that is not finite (None keeps a default)."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            for v in value if isinstance(value, tuple) else (value,):
                if v is not None and not math.isfinite(v):
                    raise ConfigError(f"{type(self).__name__} {f.name} {v} must be finite")


@dataclass(frozen=True)
class Isotropic(_FiniteFields):
    variance: float


@dataclass(frozen=True)
class Diagonal(_FiniteFields):
    values: tuple[float, ...]


@dataclass(frozen=True)
class RandomSpd:
    """Random rotation with log-uniform eigenvalues in [1, cond_cap]."""

    seed: int
    cond_cap: float = 100.0

    def __post_init__(self):
        if not (math.isfinite(self.cond_cap) and self.cond_cap >= 1):
            raise ConfigError(f"condition cap {self.cond_cap} must be finite and >= 1")


@dataclass(frozen=True)
class HeavyTail(_FiniteFields):
    """Noise from a multivariate t, rescaled so its covariance stays C_n."""

    dof: float = 4.0


@dataclass(frozen=True)
class ChannelShift(_FiniteFields):
    """Fixed offset added to a random fraction of utterances.

    offset_norm defaults to sqrt(trace(C_n)) when left unset.
    """

    fraction: float = 0.5
    offset_norm: float | None = None


@dataclass(frozen=True)
class SynthConfig:
    n_speakers: int
    utts_per_speaker: int | tuple[int, int]
    dim: int
    cu_spec: object = Isotropic(1.0)
    cn_spec: object = Isotropic(1.0)
    mismatch: HeavyTail | ChannelShift | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_speakers < 2:
            raise InsufficientClassesError(
                f"need at least 2 speakers, got {self.n_speakers}"
            )
        utts = self.utts_per_speaker
        if isinstance(utts, tuple):
            if len(utts) != 2 or utts[0] < 1 or utts[1] < utts[0]:
                raise ConfigError(f"bad utterance-count range {utts}")
        elif utts < 1:
            raise ConfigError(f"utts_per_speaker must be >= 1, got {utts}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if isinstance(self.mismatch, HeavyTail) and not self.mismatch.dof > 2:
            raise ConfigError("heavy-tail dof must exceed 2 to have a covariance")
        if isinstance(self.mismatch, ChannelShift):
            if not 0.0 <= self.mismatch.fraction <= 1.0:
                raise ConfigError("channel-shift fraction must lie in [0, 1]")


def _build_cov(spec, dim: int, name: str, require_pd: bool) -> np.ndarray:
    if isinstance(spec, Isotropic):
        if spec.variance < 0 or (require_pd and spec.variance <= 0):
            raise ConfigError(f"{name}: isotropic variance {spec.variance} out of range")
        return spec.variance * np.eye(dim)
    if isinstance(spec, Diagonal):
        values = np.asarray(spec.values, dtype=np.float64)
        if values.shape != (dim,):
            raise ConfigError(f"{name}: {values.size} diagonal values for dimension {dim}")
        if np.any(values < 0) or (require_pd and np.any(values <= 0)):
            raise ConfigError(f"{name}: diagonal values out of range")
        return np.diag(values)
    if isinstance(spec, RandomSpd):
        rng = np.random.default_rng(spec.seed)
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        signs = np.sign(np.diag(r))
        signs[signs == 0] = 1.0
        q = q * signs  # deterministic orientation
        lam = np.exp(rng.uniform(0.0, np.log(spec.cond_cap), size=dim))
        return (q * lam) @ q.T
    raise ConfigError(f"{name}: unknown covariance recipe {type(spec).__name__}")


def make_covariances(cfg: SynthConfig) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth (C_u, C_n) from the configured recipes."""
    c_u = _build_cov(cfg.cu_spec, cfg.dim, "cu_spec", require_pd=False)
    c_n = _build_cov(cfg.cn_spec, cfg.dim, "cn_spec", require_pd=True)
    return c_u, c_n


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.T) / 2.0)
    w = np.clip(w, 0.0, None)
    return v * np.sqrt(w)


def generate(cfg: SynthConfig):
    """Sample a labeled embedding set; returns (embeddings, (C_u, C_n)).

    Each speaker draws one identity vector; every utterance adds fresh
    noise. Fully deterministic given the seed.
    """
    rng = np.random.default_rng(cfg.seed)
    c_u, c_n = make_covariances(cfg)
    if isinstance(cfg.utts_per_speaker, tuple):
        lo, hi = cfg.utts_per_speaker
        counts = rng.integers(lo, hi + 1, size=cfg.n_speakers)
    else:
        counts = np.full(cfg.n_speakers, cfg.utts_per_speaker, dtype=int)
    n_total = int(counts.sum())
    identity = rng.standard_normal((cfg.n_speakers, cfg.dim)) @ _psd_sqrt(c_u).T
    z = rng.standard_normal((n_total, cfg.dim))
    if isinstance(cfg.mismatch, HeavyTail):
        dof = cfg.mismatch.dof
        scale = c_n * (dof - 2.0) / dof
        noise = z @ _psd_sqrt(scale).T
        gammas = rng.chisquare(dof, size=n_total)
        noise *= np.sqrt(dof / gammas)[:, None]
    else:
        noise = z @ _psd_sqrt(c_n).T
        if isinstance(cfg.mismatch, ChannelShift):
            direction = rng.standard_normal(cfg.dim)
            direction /= np.linalg.norm(direction)
            norm = cfg.mismatch.offset_norm
            if norm is None:
                norm = float(np.sqrt(np.trace(c_n)))
            shifted = rng.random(n_total) < cfg.mismatch.fraction
            noise[shifted] += norm * direction
    vectors = np.repeat(identity, counts, axis=0) + noise
    ids, speakers = [], []
    for s, m in enumerate(counts):
        spk = f"spk{s:04d}"
        for k in range(m):
            ids.append(f"{spk}_utt{k:03d}")
            speakers.append(spk)
    return corpus.EmbeddingSet(ids, speakers, vectors), (c_u, c_n)


def ground_truth_model(c_u: np.ndarray, c_n: np.ndarray) -> jb.JbModel:
    """Wrap ground-truth covariances as a scoring model (oracle detector)."""
    return jb.JbModel.from_covariances(c_u, c_n)


def sample_trials(embeddings: corpus.EmbeddingSet, n_trials: int, pos_fraction: float, seed: int) -> corpus.TrialList:
    """Labeled evaluation trials sampled uniformly over valid pairs."""
    if n_trials < 2:
        raise ConfigError(f"need at least 2 trials, got {n_trials}")
    if not 0.0 < pos_fraction < 1.0:
        raise ConfigError(f"pos_fraction must lie in (0, 1), got {pos_fraction}")
    n_same = min(n_trials - 1, max(1, int(round(pos_fraction * n_trials))))
    rng = np.random.default_rng(seed)
    idx_i, idx_j, labels = corpus.sample_pair_indices(
        embeddings.speaker_codes(), n_same, n_trials - n_same, rng
    )
    trials = [
        corpus.Trial(
            embeddings.ids[a],
            embeddings.ids[b],
            corpus.TrialLabel.SAME if y else corpus.TrialLabel.DIFFERENT,
        )
        for a, b, y in zip(idx_i, idx_j, labels)
    ]
    return corpus.TrialList(trials)
