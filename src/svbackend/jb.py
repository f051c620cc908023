"""Gaussian speaker/noise covariance model with closed-form pair scoring.

Each embedding is modeled as x = u + n: a speaker component u shared by
all utterances of one speaker, u ~ N(0, C_u), plus per-utterance noise
n ~ N(0, C_n). Under this model a pair (x_i, x_j) is jointly Gaussian
under either hypothesis (same or different speaker), and the
log-likelihood-ratio score reduces to the quadratic form

    r(h_i, h_j) = h_i' A h_i + h_j' A h_j - 2 h_i' G h_j

with A and G functions of (C_u, C_n) only. Both are negative semidefinite,
so they factor as A = -P_A P_A' and G = -P_G P_G'; the factors are the
bridge to the trainable pairwise model in `hybrid`.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import SpeakerStats, float_rows, fmt_float, open_text
from .errors import (
    ConfigError,
    IllConditionedError,
    NotNegativeSemidefiniteError,
    NumericError,
    ParseError,
    ShapeError,
    UnidentifiableModelError,
)

_LOG_2PI = float(np.log(2.0 * np.pi))
_JITTER = 1e-10  # one-shot relative diagonal bump before giving up


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _spd_factor(m: np.ndarray, what: str, jitter: bool = True):
    """Lower Cholesky factor L of a symmetric PD matrix and its inverse, so
    that L^-1 m L^-T = I and m^-1 = L^-T L^-1. With `jitter`, a failed
    factorization is retried once after a small relative diagonal bump."""
    bumps = [0.0, _JITTER * float(np.trace(m)) / m.shape[0]] if jitter else [0.0]
    for bump in bumps:
        try:
            L = np.linalg.cholesky(m + bump * np.eye(m.shape[0]) if bump else m)
        except np.linalg.LinAlgError:
            continue
        return L, np.linalg.inv(L)
    raise IllConditionedError(f"{what} is not positive definite")


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    L_inv = _spd_factor(m, what)[1]
    return _sym(L_inv.T @ L_inv)


@dataclass
class EmConfig:
    """Stopping rule and variant switches for the covariance fit."""

    max_iters: int = 200
    rel_tol: float = 1e-6
    verbose: bool = False
    # Moment-style update that omits the posterior covariance terms in the
    # M-step; not guaranteed monotone in marginal log-likelihood.
    drop_posterior_cov: bool = False

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ConfigError(f"rel_tol must be finite and > 0, got {self.rel_tol}")


@dataclass
class JbModel:
    """Fitted covariances plus the derived scoring matrices and factors."""

    C_u: np.ndarray
    C_n: np.ndarray
    A: np.ndarray
    G: np.ndarray
    P_A: np.ndarray
    P_G: np.ndarray
    em_log_likelihoods: list[float] | None = field(default=None, repr=False)

    @classmethod
    def from_covariances(cls, C_u, C_n, em_log_likelihoods=None) -> "JbModel":
        """The model of (C_u, C_n), with A, G and their factors derived."""
        C_u = np.asarray(C_u, dtype=np.float64)
        C_n = np.asarray(C_n, dtype=np.float64)
        A, G = derive_ag(C_u, C_n)
        return cls(C_u, C_n, A, G, factorize_nsd(A), factorize_nsd(G), em_log_likelihoods)

    @property
    def dim(self) -> int:
        return self.C_u.shape[0]

    def validate(self) -> None:
        """Check symmetry, (semi)definiteness, and factor reconstruction."""
        for name, m in (("C_u", self.C_u), ("C_n", self.C_n), ("A", self.A), ("G", self.G)):
            if m.shape != (self.dim, self.dim):
                raise ShapeError(f"{name} has shape {m.shape}, expected square {self.dim}")
            if not np.allclose(m, m.T, atol=1e-10 * max(1.0, float(np.abs(m).max()))):
                raise NumericError(f"{name} is not symmetric")
        cu_eigs = np.linalg.eigvalsh(self.C_u)
        if cu_eigs.min() < -1e-10 * max(1.0, float(np.abs(cu_eigs).max())):
            raise NumericError("C_u has a significantly negative eigenvalue")
        if np.linalg.eigvalsh(self.C_n).min() <= 0:
            raise IllConditionedError("C_n is not positive definite")
        for name, m, p in (("A", self.A, self.P_A), ("G", self.G, self.P_G)):
            top = np.linalg.eigvalsh(m).max()
            scale = max(1.0, float(np.linalg.norm(m, 2)))
            if top > 1e-8 * scale:
                raise NotNegativeSemidefiniteError(
                    f"{name} has eigenvalue {top:g} above the NSD tolerance"
                )
            err = np.linalg.norm(m + p @ p.T)
            if err > 1e-8 * max(1.0, np.linalg.norm(m)):
                raise NumericError(f"-{name} factor reconstruction error {err:g}")


def derive_ag(C_u: np.ndarray, C_n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scoring matrices from the covariances.

    A = (C_u+C_n)^-1 - [(C_u+C_n) - C_u (C_u+C_n)^-1 C_u]^-1 and
    G = -(2 C_u + C_n)^-1 C_u C_n^-1; both are symmetrized to scrub
    round-off and are negative semidefinite for valid inputs.
    """
    C_u = np.asarray(C_u, dtype=np.float64)
    C_n = np.asarray(C_n, dtype=np.float64)
    if C_u.shape != C_n.shape or C_u.ndim != 2 or C_u.shape[0] != C_u.shape[1]:
        raise ShapeError(f"covariance shapes {C_u.shape} and {C_n.shape} must match and be square")
    total = C_u + C_n
    total_inv = _spd_inverse(total, "C_u + C_n")
    inner = total - C_u @ total_inv @ C_u
    A = _sym(total_inv - _spd_inverse(inner, "same-speaker Schur complement"))
    cn_inv = _spd_inverse(C_n, "C_n")
    G = _sym(-_spd_inverse(2.0 * C_u + C_n, "2 C_u + C_n") @ C_u @ cn_inv)
    return A, G


def factorize_nsd(m: np.ndarray) -> np.ndarray:
    """Factor a symmetric NSD matrix as m = -P P' with P square.

    Eigenvalues of -m below 1e-10 of the largest are clamped to zero; the
    zero columns are kept so P always has full d columns.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.abs(m).max()) if m.size else 0.0
    if not np.allclose(m, m.T, atol=1e-10 * max(1.0, scale)):
        raise ShapeError("matrix is not symmetric")
    w, v = np.linalg.eigh(-_sym(m))  # ascending eigenvalues of -m
    spectral = float(np.max(np.abs(w))) if w.size else 0.0
    if -w.min() > 1e-8 * spectral:
        raise NotNegativeSemidefiniteError(
            f"matrix has eigenvalue {-w.min():g} above zero (tolerance {1e-8 * spectral:g})"
        )
    clamp = 1e-10 * max(float(w.max()), 0.0)
    w = np.where(w < clamp, 0.0, w)
    p = v * np.sqrt(w)
    err = np.linalg.norm(m + p @ p.T)
    if err > 1e-8 * max(1.0, np.linalg.norm(m)):
        raise NumericError(f"NSD factor reconstruction error {err:g}")
    return p


def _pair_arrays(h_i, h_j, dim: int):
    h_i = np.asarray(h_i, dtype=np.float64)
    h_j = np.asarray(h_j, dtype=np.float64)
    squeeze = h_i.ndim == 1 and h_j.ndim == 1
    h_i = np.atleast_2d(h_i)
    h_j = np.atleast_2d(h_j)
    if h_i.shape != h_j.shape or h_i.shape[1] != dim:
        raise ShapeError(
            f"pair shapes {h_i.shape} / {h_j.shape} do not match dimension {dim}"
        )
    return h_i, h_j, squeeze


def score_llr(model: JbModel, h_i, h_j):
    """Quadratic pair score h_i'A h_i + h_j'A h_j - 2 h_i'G h_j.

    Accepts single vectors or aligned (N, d) batches; symmetric in its
    arguments.
    """
    h_i, h_j, squeeze = _pair_arrays(h_i, h_j, model.dim)
    r = (
        np.einsum("nd,de,ne->n", h_i, model.A, h_i)
        + np.einsum("nd,de,ne->n", h_j, model.A, h_j)
        - 2.0 * np.einsum("nd,de,ne->n", h_i, model.G, h_j)
    )
    return float(r[0]) if squeeze else r


def score_llr_factored(P_A: np.ndarray, P_G: np.ndarray, h_i, h_j):
    """Same score through the factors: 2 g_i'g_j - a_i'a_i - a_j'a_j."""
    P_A = np.asarray(P_A, dtype=np.float64)
    P_G = np.asarray(P_G, dtype=np.float64)
    if P_A.shape[1] != P_G.shape[1]:
        raise ShapeError(
            f"factor column counts differ: {P_A.shape[1]} != {P_G.shape[1]}"
        )
    if P_A.shape[0] != P_G.shape[0]:
        raise ShapeError(f"factor row counts differ: {P_A.shape[0]} != {P_G.shape[0]}")
    h_i, h_j, squeeze = _pair_arrays(h_i, h_j, P_A.shape[0])
    a_i = h_i @ P_A
    a_j = h_j @ P_A
    g_i = h_i @ P_G
    g_j = h_j @ P_G
    r = 2.0 * np.sum(g_i * g_j, axis=1) - np.sum(a_i * a_i, axis=1) - np.sum(a_j * a_j, axis=1)
    return float(r[0]) if squeeze else r


def _count_groups(stats: SpeakerStats):
    """Distinct utterance counts m, speakers per count n_g, and factor rows R
    with each row's group: R_g'R_g sums s s' over group g's speaker sums s,
    and a group of more speakers than dimensions becomes its d-row QR factor.
    """
    ms, n_g = np.unique(stats.counts, return_counts=True)
    rows = [stats.sums[stats.counts == m] for m in ms]
    rows = [np.linalg.qr(r, mode="r") if len(r) > stats.d else r for r in rows]
    return ms, n_g, np.vstack(rows), np.repeat(np.arange(ms.size), [len(r) for r in rows])


def _em_step(C_u, C_n, stats: SpeakerStats, groups, drop_posterior_cov: bool):
    """Marginal log-likelihood at (C_u, C_n) and the EM update from there.

    In the basis V with V'C_n V = I and V'C_u V = diag(psi), the posterior
    of V'u for a speaker with m utterances and projected sum y is diagonal,
    with mean y psi/(1+m psi) and variances psi/(1+m psi); B = C_n V maps
    back. V = L^-T Q, with L the Cholesky factor of C_n and Q the
    eigenvectors of L^-1 C_u L^-T, the whitening `fit_lda` uses too.
    """
    ms, n_g, R, row_group = groups
    L, L_inv = _spd_factor(C_n, "C_n", jitter=False)
    psi, Q = np.linalg.eigh(L_inv @ C_u @ L_inv.T)
    V = L_inv.T @ Q
    t = 1.0 + np.outer(ms, psi)  # per group: 1 + m psi
    if not np.all(t > 0):
        raise IllConditionedError("C_n + m C_u is not positive definite")
    Y = R @ V
    m_rows = ms[row_group][:, None]
    t_rows = t[row_group]
    ll = -0.5 * (
        stats.n_total * (stats.d * _LOG_2PI + 2.0 * np.sum(np.log(np.diag(L))))
        + float(n_g @ np.log(t).sum(axis=1))
        + float(np.sum(V * (stats.within @ V)))
        + float(np.sum(Y * Y / (m_rows * t_rows)))
    )
    post_var = psi / t
    means = Y * post_var[row_group]  # posterior speaker means, one per row
    resid = Y / (np.sqrt(m_rows) * t_rows)  # y/sqrt(m) - sqrt(m) * mean
    sum_uu = means.T @ means
    sum_resid = resid.T @ resid
    if not drop_posterior_cov:
        sum_uu += np.diag(n_g @ post_var)
        sum_resid += np.diag((n_g * ms) @ post_var)
    B = C_n @ V
    C_u_new = _sym(B @ sum_uu @ B.T) / stats.counts.size
    return ll, C_u_new, _sym(stats.within + B @ sum_resid @ B.T) / stats.n_total


def jb_log_likelihood(model: JbModel, vectors, speakers) -> float:
    """Total marginal log-likelihood of labeled vectors under the model."""
    stats = SpeakerStats(vectors, speakers)
    return _em_step(model.C_u, model.C_n, stats, _count_groups(stats), False)[0]


def _floor_pd(m: np.ndarray, what: str) -> np.ndarray:
    """`m`, or `m` with a small diagonal bump, whichever is PD first."""
    try:
        np.linalg.cholesky(m)
        return m
    except np.linalg.LinAlgError:
        pass
    bumped = m + 1e-6 * float(np.mean(np.diag(m))) * np.eye(m.shape[0])
    try:
        np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"initial {what} cannot be floored to PD") from exc
    return bumped


def fit_jb_em(vectors, speakers, cfg: EmConfig | None = None) -> JbModel:
    """Fit (C_u, C_n) by expectation-maximization and derive A, G, P_A, P_G.

    Data is assumed centered (a warning fires otherwise). Initialization
    uses the moment estimates; each iteration computes the marginal
    log-likelihood of the current parameters first, so the recorded
    sequence is non-decreasing for the exact update. Iteration stops at
    `max_iters` or when both the relative Frobenius parameter change and
    the relative log-likelihood change drop below `rel_tol`.
    """
    cfg = cfg if cfg is not None else EmConfig()
    X = np.asarray(vectors, dtype=np.float64)
    stats = SpeakerStats(X, speakers)
    if stats.counts.max() < 2:
        raise UnidentifiableModelError(
            "every speaker has a single utterance; speaker and noise "
            "covariances are not separable"
        )
    mean_norm = float(np.linalg.norm(X.mean(axis=0)))
    typical = float(np.mean(np.linalg.norm(X, axis=1)))
    if mean_norm > 1e-6 * typical:
        warnings.warn(
            f"data mean norm {mean_norm:.3g} exceeds 1e-6 of the typical vector "
            f"norm {typical:.3g}; the model assumes centered data",
            stacklevel=2,
        )
    # moment initialization: covariance of the speaker means, pooled within scatter
    offsets = stats.means - stats.means.mean(axis=0)
    C_u = _floor_pd(offsets.T @ offsets / stats.counts.size, "speaker covariance")
    C_n = _floor_pd(stats.within / stats.n_total, "noise covariance")
    groups = _count_groups(stats)
    history: list[float] = []
    prev_ll = None
    for iteration in range(cfg.max_iters):
        try:
            ll, C_u_new, C_n_new = _em_step(C_u, C_n, stats, groups, cfg.drop_posterior_cov)
        except IllConditionedError as exc:
            raise IllConditionedError(f"EM iteration {iteration}: {exc}") from exc
        history.append(ll)
        if cfg.verbose:
            print(f"em iter {iteration}: loglik={ll:.8f}", file=sys.stderr)
        rel_param = max(
            float(np.linalg.norm(C_u_new - C_u)) / max(float(np.linalg.norm(C_u)), 1e-300),
            float(np.linalg.norm(C_n_new - C_n)) / max(float(np.linalg.norm(C_n)), 1e-300),
        )
        rel_ll = (
            abs(ll - prev_ll) / max(1.0, abs(ll)) if prev_ll is not None else np.inf
        )
        C_u, C_n = C_u_new, C_n_new
        prev_ll = ll
        if rel_param < cfg.rel_tol and rel_ll < cfg.rel_tol:
            break
    history.append(_em_step(C_u, C_n, stats, groups, cfg.drop_posterior_cov)[0])
    return JbModel.from_covariances(C_u, C_n, history)


def _write_matrix(fh, m: np.ndarray) -> None:
    for row in m:
        fh.write(" ".join(fmt_float(v) for v in row) + "\n")


def save_jb(model: JbModel, path) -> None:
    """Write header `jb <d>` then the rows of C_u, C_n, P_A, P_G."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"jb {model.dim}\n")
        for m in (model.C_u, model.C_n, model.P_A, model.P_G):
            _write_matrix(fh, m)


def load_jb(path) -> JbModel:
    """Read a model file; A and G are recomputed and cross-checked."""
    with open_text(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    if not lines or lines[0][:1] != ["jb"] or len(lines[0]) != 2:
        raise ParseError(f"{path}: missing 'jb <d>' header")
    try:
        d = int(lines[0][1])
    except ValueError:
        raise ParseError(f"{path}: non-integer dimension in header") from None
    if len(lines) != 1 + 4 * d:
        raise ParseError(f"{path}: expected {1 + 4 * d} lines, got {len(lines)}")
    rows = float_rows(path, lines[1:], "matrix entry")
    if any(r.size != d for r in rows):
        raise ParseError(f"{path}: row length does not match dimension {d}")
    blocks = [np.stack(rows[k * d : (k + 1) * d]) for k in range(4)]
    C_u, C_n, P_A, P_G = blocks
    A, G = derive_ag(C_u, C_n)
    for name, m, p in (("A", A, P_A), ("G", G, P_G)):
        err = float(np.linalg.norm(m + p @ p.T))
        if err > 1e-8 * max(1.0, float(np.linalg.norm(m))):
            raise ParseError(
                f"{path}: stored {name} factor is inconsistent with the "
                f"covariances (reconstruction error {err:g})"
            )
    return JbModel(C_u=C_u, C_n=C_n, A=A, G=G, P_A=P_A, P_G=P_G)
