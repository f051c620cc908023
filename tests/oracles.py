"""Independent reference implementations used only to cross-check results.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit counting loops, per-coordinate finite differences) and
shares no code with the package paths it checks.
"""

import numpy as np


def mvn_logpdf(x, cov):
    """Dense multivariate normal log density at x with zero mean."""
    x = np.asarray(x, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    sign, logdet = np.linalg.slogdet(cov)
    assert sign > 0, "covariance must be positive definite"
    quad = float(x @ np.linalg.solve(cov, x))
    return -0.5 * (x.size * np.log(2.0 * np.pi) + logdet + quad)


def stacked_speaker_loglik(c_u, c_n, utterances):
    """Log density of one speaker's stacked utterances under the additive
    model, built as an explicit md x md covariance via Kronecker products."""
    utterances = np.asarray(utterances, dtype=np.float64)
    m = utterances.shape[0]
    cov = np.kron(np.eye(m), c_n) + np.kron(np.ones((m, m)), c_u)
    return mvn_logpdf(utterances.ravel(), cov)


def brute_force_eer(scores, labels):
    """EER by explicit counting at every midpoint threshold plus +-inf.

    Uses the same linear interpolation convention as the package: find the
    adjacent thresholds where P_miss - P_fa changes sign and interpolate
    both rates to the crossing.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tar = sorted(scores[labels == 1])
    non = sorted(scores[labels == 0])
    distinct = sorted(set(scores.tolist()))
    thresholds = [-np.inf]
    for a, b in zip(distinct[:-1], distinct[1:]):
        thresholds.append((a + b) / 2.0)
    thresholds.append(np.inf)
    p_miss, p_fa = [], []
    for t in thresholds:
        p_miss.append(sum(1 for s in tar if s < t) / len(tar))
        p_fa.append(sum(1 for s in non if s >= t) / len(non))
    prev = None
    for k in range(len(thresholds)):
        diff = p_miss[k] - p_fa[k]
        if diff >= 0.0:
            if diff == 0.0:
                return p_miss[k]
            assert prev is not None
            frac = -prev / (diff - prev)
            return p_miss[k - 1] + frac * (p_miss[k] - p_miss[k - 1])
        prev = diff
    raise AssertionError("no crossing found")


def brute_force_min_dcf(scores, labels, p_tar, c_miss=1.0, c_fa=1.0):
    """Raw and normalized minimum cost by explicit counting at every
    midpoint threshold plus +-inf."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    tar = scores[labels == 1]
    non = scores[labels == 0]
    distinct = sorted(set(scores.tolist()))
    thresholds = [-np.inf]
    for a, b in zip(distinct[:-1], distinct[1:]):
        thresholds.append((a + b) / 2.0)
    thresholds.append(np.inf)
    best = np.inf
    for t in thresholds:
        pm = sum(1 for s in tar if s < t) / len(tar)
        pf = sum(1 for s in non if s >= t) / len(non)
        cost = p_tar * c_miss * pm + (1 - p_tar) * c_fa * pf
        if cost < best:
            best = cost
    return best, best / min(p_tar * c_miss, (1 - p_tar) * c_fa)


def finite_diff_gradients(eval_loss, params, step=1e-5):
    """Central finite differences of a scalar function of a parameter dict.

    `eval_loss` receives a dict with the same keys; scalars stay scalars.
    """
    grads = {}
    for name, value in params.items():
        if np.ndim(value) == 0:
            plus = dict(params)
            plus[name] = float(value) + step
            minus = dict(params)
            minus[name] = float(value) - step
            grads[name] = (eval_loss(plus) - eval_loss(minus)) / (2.0 * step)
            continue
        value = np.asarray(value, dtype=np.float64)
        g = np.zeros_like(value)
        for idx in np.ndindex(value.shape):
            bumped = value.copy()
            bumped[idx] += step
            plus = dict(params)
            plus[name] = bumped
            bumped = value.copy()
            bumped[idx] -= step
            minus = dict(params)
            minus[name] = bumped
            g[idx] = (eval_loss(plus) - eval_loss(minus)) / (2.0 * step)
        grads[name] = g
    return grads


def relative_error(analytic, reference) -> float:
    analytic = np.atleast_1d(np.asarray(analytic, dtype=np.float64)).ravel()
    reference = np.atleast_1d(np.asarray(reference, dtype=np.float64)).ravel()
    denom = max(float(np.linalg.norm(reference)), 1e-12)
    return float(np.linalg.norm(analytic - reference)) / denom


def pool_sample_pair_indices(codes, n_same, n_diff, rng):
    """Pair sampler that materializes every same-speaker pair.

    The pool lists each speaker's unordered pairs in `np.triu_indices`
    order, speakers in sorted code order, and draws `n_same` uniform
    indices into it; different-speaker pairs come from rejection sampling.
    Returns None where a pair class cannot be formed.
    """
    codes = np.asarray(codes)
    firsts, seconds = [], []
    for code in np.unique(codes):
        idx = np.flatnonzero(codes == code)
        if idx.size >= 2:
            a, b = np.triu_indices(idx.size, k=1)
            firsts.append(idx[a])
            seconds.append(idx[b])
    if n_same > 0 and not firsts:
        return None
    parts_i, parts_j = [], []
    if n_same > 0:
        pool_i = np.concatenate(firsts)
        pool_j = np.concatenate(seconds)
        pick = rng.integers(0, pool_i.size, size=n_same)
        parts_i.append(pool_i[pick])
        parts_j.append(pool_j[pick])
    if n_diff > 0:
        if np.unique(codes).size < 2:
            return None
        remaining = n_diff
        while remaining > 0:
            a = rng.integers(0, codes.size, size=remaining)
            b = rng.integers(0, codes.size, size=remaining)
            ok = codes[a] != codes[b]
            parts_i.append(a[ok])
            parts_j.append(b[ok])
            remaining -= int(ok.sum())
    return np.concatenate(parts_i), np.concatenate(parts_j)


def loader_outcome(reader, path):
    """What `reader(path)` gives: the parsed ids, speakers and vector bits,
    or the type and message of the exception it raises."""
    try:
        s = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return s.ids, s.speakers, s.vectors.shape, s.vectors.tobytes()
