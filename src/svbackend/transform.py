"""Discriminant projection and length normalization.

The projection maximizes the between- to within-speaker scatter ratio of
the training set; the global training mean is folded into the transform so
downstream consumers see (approximately) centered data.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import EmbeddingSet, SpeakerStats, float_rows, fmt_float, open_text
from .errors import (
    DegenerateScatterError,
    IllConditionedError,
    InsufficientClassesError,
    ParseError,
    ShapeError,
    ZeroVectorError,
)
from .jb import _spd_factor

SCATTER_EPS = 1e-6  # relative ridge on the within-class scatter diagonal


@dataclass
class LdaTransform:
    """Rank-d discriminant projection with a frozen centering offset."""

    mean: np.ndarray          # global training mean, length l
    W: np.ndarray             # l x d, columns sorted by decreasing eigenvalue
    pre_normalize: bool = False
    eigenvalues: np.ndarray = field(default=None, repr=False)

    @property
    def input_dim(self) -> int:
        return self.W.shape[0]

    @property
    def output_dim(self) -> int:
        return self.W.shape[1]


def length_normalize(h, min_norm: float = 1e-12):
    """Scale vector(s) to unit Euclidean norm along the last axis."""
    h = np.asarray(h, dtype=np.float64)
    norms = np.linalg.norm(h, axis=-1, keepdims=True)
    if np.any(norms < min_norm):
        raise ZeroVectorError("cannot length-normalize a (near-)zero vector")
    return h / norms


def scatter_matrices(vectors: np.ndarray, speakers) -> tuple[np.ndarray, np.ndarray]:
    """Within- and between-speaker scatter of a labeled vector set.

    S_w pools per-speaker scatter around the speaker means, S_b scatters
    the speaker means around the global mean, both normalized by the total
    utterance count (speaker terms weighted by their utterance share).
    """
    X = np.asarray(vectors, dtype=np.float64)
    stats = SpeakerStats(X, speakers)
    offsets = np.sqrt(stats.counts)[:, None] * (stats.means - X.mean(axis=0))
    return stats.within / stats.n_total, offsets.T @ offsets / stats.n_total


def fit_lda(embeddings: EmbeddingSet, d: int, pre_normalize: bool = False) -> LdaTransform:
    """Fit the projection on a labeled embedding set.

    Columns of W solve the generalized eigenproblem S_b w = lambda S_w w,
    through the Cholesky factor L of S_w (eigenvectors q of L^-1 S_b L^-T,
    w = L^-T q), sorted by decreasing eigenvalue (stable, index tie-break) with the
    largest-magnitude component of each column made positive, so the fit
    is deterministic. S_w gets a small relative diagonal ridge so the
    problem stays solvable on rank-deficient scatter.
    """
    n_speakers = len(set(embeddings.speakers))
    if n_speakers < 2:
        raise InsufficientClassesError(
            f"need at least 2 speakers to fit a discriminant projection, got {n_speakers}"
        )
    dim = embeddings.dim
    if not 1 <= d <= dim:
        raise ShapeError(f"target dimension {d} outside [1, {dim}]")
    if d > n_speakers - 1:
        warnings.warn(
            f"target dimension {d} exceeds #speakers-1 = {n_speakers - 1}; "
            f"trailing directions carry no between-speaker signal",
            stacklevel=2,
        )
    X = embeddings.vectors
    if pre_normalize:
        X = length_normalize(X)
    if not np.any(np.ptp(X, axis=0)):  # exact, and no n x d temporary
        raise DegenerateScatterError("all vectors are identical; scatter is zero")
    mean = X.mean(axis=0)
    s_w, s_b = scatter_matrices(X, embeddings.speaker_codes())
    ridge = SCATTER_EPS * np.trace(s_w) / dim
    try:
        _, L_inv = _spd_factor(s_w + ridge * np.eye(dim), "S_w", jitter=False)
    except IllConditionedError:
        raise DegenerateScatterError(
            "within-speaker scatter is singular even after regularization"
        ) from None
    eigvals, eigvecs = np.linalg.eigh(L_inv @ s_b @ L_inv.T)
    order = np.argsort(-eigvals, kind="stable")[:d]
    vals = eigvals[order]
    W = L_inv.T @ eigvecs[:, order]
    W = W / np.linalg.norm(W, axis=0)  # unit-norm columns (direction convention)
    for col in range(W.shape[1]):
        lead = np.argmax(np.abs(W[:, col]))
        if W[lead, col] < 0:
            W[:, col] = -W[:, col]
    W = np.ascontiguousarray(W)
    return LdaTransform(mean=mean, W=W, pre_normalize=pre_normalize, eigenvalues=vals)


def apply_lda(transform: LdaTransform, x):
    """Project vector(s): W' (x - mean). Accepts one vector or a matrix."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != transform.input_dim:
        raise ShapeError(
            f"input dimension {x.shape[-1]} != transform input dimension "
            f"{transform.input_dim}"
        )
    if transform.pre_normalize:
        x = length_normalize(x)
    return (x - transform.mean) @ transform.W


def save_lda(transform: LdaTransform, path) -> None:
    """Write header `lda <l> <d>`, the mean, then the d columns of W."""
    header = f"lda {transform.input_dim} {transform.output_dim}"
    if transform.pre_normalize:
        header += " prenorm"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.write(" ".join(fmt_float(v) for v in transform.mean) + "\n")
        for col in range(transform.output_dim):
            fh.write(" ".join(fmt_float(v) for v in transform.W[:, col]) + "\n")


def load_lda(path) -> LdaTransform:
    with open_text(path) as fh:
        lines = [line.split() for line in fh if line.strip()]
    if not lines or lines[0][:1] != ["lda"]:
        raise ParseError(f"{path}: missing 'lda <l> <d>' header")
    head = lines[0]
    if len(head) not in (3, 4) or (len(head) == 4 and head[3] != "prenorm"):
        raise ParseError(f"{path}: malformed header {' '.join(head)!r}")
    try:
        l, d = int(head[1]), int(head[2])
    except ValueError:
        raise ParseError(f"{path}: non-integer dimensions in header") from None
    pre_normalize = len(head) == 4
    if len(lines) != 2 + d:
        raise ParseError(f"{path}: expected {2 + d} lines, got {len(lines)}")
    mean, *cols = float_rows(path, lines[1:], "matrix entry")
    if mean.size != l or any(c.size != l for c in cols):
        raise ParseError(f"{path}: row length does not match dimension {l}")
    return LdaTransform(mean=mean, W=np.stack(cols, axis=1), pre_normalize=pre_normalize)
