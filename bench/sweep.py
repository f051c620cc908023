"""Reference EER and minDCF, written independently of svbackend.metrics.

Both follow the definitions in svbackend's documentation: a trial is
accepted iff score >= t; the sweep visits -inf, the midpoints between
consecutive distinct scores, and +inf; the EER interpolates both error
rates linearly between the two sweep points where P_miss - P_fa changes
sign; minDCF is normalized by min(p_tar * c_miss, (1 - p_tar) * c_fa).
The rates at every threshold come from cumulative label counts over the
sorted scores, so each sweep point is an exact count.
"""

from __future__ import annotations

import math

import numpy as np


def read_labeled_scores(scores_path, trials_path) -> tuple[np.ndarray, np.ndarray]:
    """Scores with 1/0 labels; the score file must list the trials in order."""
    values, labels = [], []
    with open(scores_path, "r", encoding="utf-8") as sf, \
            open(trials_path, "r", encoding="utf-8") as tf:
        score_lines, trial_lines = sf.read().split("\n"), tf.read().split("\n")
    if len(score_lines) != len(trial_lines):
        raise ValueError(f"{len(score_lines)} score lines for {len(trial_lines)} trial lines")
    for k, (score_line, trial_line) in enumerate(zip(score_lines, trial_lines)):
        if not trial_line:
            continue
        enroll, test, value = score_line.split()
        t_enroll, t_test, label = trial_line.split()
        if (enroll, test) != (t_enroll, t_test):
            raise ValueError(f"line {k + 1}: score pair does not match trial pair")
        values.append(float(value))
        labels.append(1 if label == "target" else 0)
    return np.array(values), np.array(labels, dtype=np.int64)


def rates(scores: np.ndarray, labels: np.ndarray):
    """(P_miss, P_fa) at every sweep threshold, in increasing threshold order."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    y = labels[order]
    n_tar = int(y.sum())
    n_non = y.size - n_tar
    if n_tar == 0 or n_non == 0:
        raise ValueError(f"need both classes, got {n_tar} target / {n_non} non-target")
    # index k = number of trials below the threshold
    cut = np.concatenate([[0], np.flatnonzero(s[1:] != s[:-1]) + 1, [s.size]])
    tar_below = np.concatenate([[0], np.cumsum(y)])[cut]
    non_below = cut - tar_below
    return tar_below / n_tar, (n_non - non_below) / n_non


def eer(scores: np.ndarray, labels: np.ndarray) -> float:
    p_miss, p_fa = rates(scores, labels)
    gap = p_miss - p_fa
    k = int(np.flatnonzero(gap >= 0.0)[0])
    if gap[k] == 0.0:
        return float(p_miss[k])
    w = -gap[k - 1] / (gap[k] - gap[k - 1])
    return float(p_miss[k - 1] + w * (p_miss[k] - p_miss[k - 1]))


def min_dcf(scores: np.ndarray, labels: np.ndarray, p_tar: float,
            c_miss: float = 1.0, c_fa: float = 1.0) -> float:
    p_miss, p_fa = rates(scores, labels)
    cost = p_tar * c_miss * p_miss + (1.0 - p_tar) * c_fa * p_fa
    return float(cost.min() / min(p_tar * c_miss, (1.0 - p_tar) * c_fa))


def brute_force_rates(scores, labels):
    """Literal per-threshold counting; quadratic, for small self-test inputs."""
    distinct = sorted(set(float(v) for v in scores))
    thresholds = [-math.inf]
    thresholds += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    thresholds.append(math.inf)
    n_tar = sum(1 for y in labels if y == 1)
    n_non = len(labels) - n_tar
    p_miss = [sum(1 for s, y in zip(scores, labels) if y == 1 and s < t) / n_tar
              for t in thresholds]
    p_fa = [sum(1 for s, y in zip(scores, labels) if y == 0 and s >= t) / n_non
            for t in thresholds]
    return np.array(p_miss), np.array(p_fa)


def parse_report(path) -> dict[str, float]:
    """`EER=... minDCF(0.01)=...` summary line -> {'eer': ..., 'min_dcf_0.01': ...}."""
    with open(path, "r", encoding="utf-8") as fh:
        fields = fh.read().split()
    out = {}
    for field in fields:
        key, value = field.split("=")
        if key == "EER":
            out["eer"] = float(value)
        elif key.startswith("minDCF(") and key.endswith(")"):
            out[f"min_dcf_{key[7:-1]}"] = float(value)
    return out
