"""Detection metrics: equal error rate, minimum detection cost, DET curve.

Threshold semantics: a trial is accepted as same-speaker iff score >= t.
The sweep visits the midpoints between consecutive distinct scores plus
-inf and +inf, so every achievable (P_fa, P_miss) operating point appears
exactly once. The equal error rate interpolates both rates linearly
between the two sweep points where P_miss - P_fa changes sign (not a ROC
convex hull), which keeps the value deterministic and comparable across
implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import ScoreSet, fmt_float
from .errors import ConfigError, DegenerateLabelsError, InvalidCostError


def _tar_non(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    labels = scores.trials.labels()
    if labels is None:
        raise DegenerateLabelsError("score set has unlabeled trials")
    tar = scores.scores[labels == 1]
    non = scores.scores[labels == 0]
    if tar.size == 0 or non.size == 0:
        raise DegenerateLabelsError(
            f"need both label classes, got {tar.size} target / {non.size} non-target"
        )
    return tar, non


def _sweep(tar: np.ndarray, non: np.ndarray):
    """Thresholds (midpoints plus +-inf) with P_miss and P_fa at each."""
    distinct = np.unique(np.concatenate([tar, non]))
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    thresholds = np.concatenate([[-np.inf], mids, [np.inf]])
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    p_miss = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    p_fa = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size
    return thresholds, p_miss, p_fa


def compute_eer(scores: ScoreSet) -> tuple[float, float]:
    """Equal error rate and its threshold.

    Rates are interpolated linearly between the adjacent sweep points
    where P_miss - P_fa changes sign; if one side of the crossing sits at
    an infinite threshold the finite endpoint is reported.
    """
    tar, non = _tar_non(scores)
    thresholds, p_miss, p_fa = _sweep(tar, non)
    diff = p_miss - p_fa  # non-decreasing in the threshold
    k = int(np.argmax(diff >= 0.0))
    if diff[k] == 0.0:
        return float(p_miss[k]), float(thresholds[k])
    frac = -diff[k - 1] / (diff[k] - diff[k - 1])
    eer = p_miss[k - 1] + frac * (p_miss[k] - p_miss[k - 1])
    lo, hi = thresholds[k - 1], thresholds[k]
    if np.isinf(lo):
        threshold = hi
    elif np.isinf(hi):
        threshold = lo
    else:
        threshold = lo + frac * (hi - lo)
    return float(eer), float(threshold)


def compute_min_dcf(
    scores: ScoreSet, p_tar: float, c_miss: float = 1.0, c_fa: float = 1.0
) -> tuple[float, float, float]:
    """Minimum detection cost over the threshold sweep.

    Returns (raw, normalized, threshold); the normalizer is the better of
    the two do-nothing decisions, min(p_tar*c_miss, (1-p_tar)*c_fa). Ties
    resolve to the smallest threshold.
    """
    if not 0.0 < p_tar < 1.0:
        raise ConfigError(f"p_tar must lie in (0, 1), got {p_tar}")
    if not (0 <= c_miss < np.inf and 0 <= c_fa < np.inf and c_miss + c_fa > 0):
        raise InvalidCostError(f"invalid costs c_miss={c_miss}, c_fa={c_fa}")
    tar, non = _tar_non(scores)
    thresholds, p_miss, p_fa = _sweep(tar, non)
    dcf = p_tar * c_miss * p_miss + (1.0 - p_tar) * c_fa * p_fa
    k = int(np.argmin(dcf))  # first minimum = smallest threshold
    raw = float(dcf[k])
    divisor = min(p_tar * c_miss, (1.0 - p_tar) * c_fa)
    normalized = raw / divisor if divisor > 0 else 0.0  # raw is 0 when divisor is
    return raw, normalized, float(thresholds[k])


def det_curve(scores: ScoreSet) -> np.ndarray:
    """(P_fa, P_miss, threshold) rows for every sweep threshold.

    Includes the endpoints (1, 0) at -inf and (0, 1) at +inf; P_fa is
    non-increasing and P_miss non-decreasing along the rows.
    """
    tar, non = _tar_non(scores)
    thresholds, p_miss, p_fa = _sweep(tar, non)
    return np.column_stack([p_fa, p_miss, thresholds])


def score_histograms(scores: ScoreSet, n_bins: int):
    """Per-class score histograms over shared bin edges.

    Returns (edges, same_counts, diff_counts). A zero-width score range is
    widened by 1e-9 so every score still lands in a bin.
    """
    if n_bins < 1:
        raise ConfigError(f"n_bins must be >= 1, got {n_bins}")
    tar, non = _tar_non(scores)
    lo = float(min(tar.min(), non.min()))
    hi = float(max(tar.max(), non.max()))
    if hi - lo == 0.0:
        lo -= 0.5e-9
        hi += 0.5e-9
    edges = np.linspace(lo, hi, n_bins + 1)
    same_counts, _ = np.histogram(tar, bins=edges)
    diff_counts, _ = np.histogram(non, bins=edges)
    return edges, same_counts, diff_counts


@dataclass
class EvalReport:
    """Summary of one evaluation: EER plus minDCF per operating point."""

    eer: float
    eer_threshold: float
    # (p_tar, c_miss, c_fa) -> (raw, normalized, threshold)
    min_dcf: dict[tuple[float, float, float], tuple[float, float, float]]
    det: np.ndarray


def evaluate(
    scores: ScoreSet,
    p_tars=(0.01, 0.001),
    c_miss: float = 1.0,
    c_fa: float = 1.0,
) -> EvalReport:
    eer, threshold = compute_eer(scores)
    min_dcf = {
        (p, c_miss, c_fa): compute_min_dcf(scores, p, c_miss, c_fa) for p in p_tars
    }
    return EvalReport(eer=eer, eer_threshold=threshold, min_dcf=min_dcf, det=det_curve(scores))


def summary_line(report: EvalReport) -> str:
    """One-line summary, normalized minDCF per operating point."""
    parts = [f"EER={report.eer:.6f}"]
    for (p_tar, _, _), (_, normalized, _) in report.min_dcf.items():
        parts.append(f"minDCF({p_tar:g})={normalized:.6f}")
    return " ".join(parts)


def write_det_csv(det: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("p_fa,p_miss,threshold\n")
        for p_fa, p_miss, threshold in det:
            fh.write(f"{fmt_float(p_fa)},{fmt_float(p_miss)},{fmt_float(threshold)}\n")


def write_histogram_csv(edges: np.ndarray, same_counts, diff_counts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count_same,count_diff\n")
        for k in range(len(edges) - 1):
            fh.write(
                f"{fmt_float(edges[k])},{fmt_float(edges[k + 1])},"
                f"{int(same_counts[k])},{int(diff_counts[k])}\n"
            )
