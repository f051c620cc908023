"""Independent reference implementations used only to cross-check results.

Everything here is deliberately written the slow, obvious way (dense
matrices, explicit counting loops, per-coordinate finite differences) and
shares no code with the package paths it checks.
"""

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from svbackend.errors import IllConditionedError


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


def oracle_llr_density(C_u, C_n, h_i, h_j):
    """Log density ratio of the stacked pair under the two hypotheses.

    Builds the 2d x 2d covariances explicitly (same-speaker: C_u in the
    off-diagonal blocks; different-speaker: block diagonal) and evaluates
    both Gaussian log densities directly. Accepts single vectors or aligned
    (N, d) batches.
    """
    C_u = np.asarray(C_u, dtype=np.float64)
    C_n = np.asarray(C_n, dtype=np.float64)
    d = C_u.shape[0]
    squeeze = np.ndim(h_i) == 1 and np.ndim(h_j) == 1
    z = np.hstack([np.atleast_2d(np.asarray(h_i, dtype=np.float64)),
                   np.atleast_2d(np.asarray(h_j, dtype=np.float64))])
    assert z.shape[1] == 2 * d, "pair shapes do not match the covariances"
    total = C_u + C_n
    cov_same = np.block([[total, C_u], [C_u, total]])
    cov_diff = np.block([[total, np.zeros_like(C_u)], [np.zeros_like(C_u), total]])
    out = np.zeros(z.shape[0])
    for cov, sign in ((cov_same, +1.0), (cov_diff, -1.0)):
        factor = _spd_factor(cov, "pair covariance")
        quad = np.sum(z * cho_solve(factor, z.T).T, axis=1)
        out += sign * (-0.5) * (2 * d * np.log(2.0 * np.pi) + _logdet(factor) + quad)
    return float(out[0]) if squeeze else out


def derive_ag(C_u, C_n):
    """A and G from the covariances through scipy Cholesky solves."""
    total = C_u + C_n
    total_inv = _spd_inverse(total, "C_u + C_n")
    inner = total - C_u @ total_inv @ C_u
    A = _sym(total_inv - _spd_inverse(inner, "same-speaker Schur complement"))
    cn_inv = _spd_inverse(C_n, "C_n")
    G = _sym(-_spd_inverse(2.0 * C_u + C_n, "2 C_u + C_n") @ C_u @ cn_inv)
    return A, G


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


# -- per-speaker statistics, scatter and covariance EM, written per group ----
#
# These are the scatter loop and the count-group EM the package used before
# it fitted from one shared statistics object in the diagonalizing basis.
# They keep their own copies of the Cholesky helpers, in scipy, as the
# package used them before it ran on numpy alone; `oracle_llr_density` and
# `derive_ag` above use them too.


def _sym(m):
    return (m + m.T) / 2.0


def _spd_factor(m, what):
    try:
        return cho_factor(m, lower=True)
    except np.linalg.LinAlgError:
        pass
    bump = 1e-10 * float(np.trace(m)) / m.shape[0]
    try:
        return cho_factor(m + bump * np.eye(m.shape[0]), lower=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"{what} is not positive definite") from exc


def _spd_inverse(m, what):
    return _sym(cho_solve(_spd_factor(m, what), np.eye(m.shape[0])))


def _logdet(factor):
    return 2.0 * float(np.sum(np.log(np.diag(factor[0]))))


def loop_scatter_matrices(vectors, speakers):
    """S_w and S_b as one rank-m update per speaker, selected by label mask."""
    X = np.asarray(vectors, dtype=np.float64)
    n, dim = X.shape
    mean = X.mean(axis=0)
    labels = np.asarray(speakers)
    s_w = np.zeros((dim, dim))
    s_b = np.zeros((dim, dim))
    for spk in np.unique(labels):
        rows = X[labels == spk]
        mu = rows.mean(axis=0)
        centered = rows - mu
        s_w += centered.T @ centered
        offset = mu - mean
        s_b += rows.shape[0] * np.outer(offset, offset)
    return s_w / n, s_b / n


class GroupedSpeakerStats:
    """Per-speaker sums grouped by utterance count, plus X'X."""

    def __init__(self, vectors, speakers):
        X = np.asarray(vectors, dtype=np.float64)
        labels = np.asarray(speakers)
        self.n_total, self.d = X.shape
        self.xtx = X.T @ X
        codes = np.unique(labels, return_inverse=True)[1]
        counts = np.bincount(codes)
        sums = np.zeros((counts.size, self.d))
        np.add.at(sums, codes, X)
        self.n_speakers = counts.size
        self.groups = [(int(m), sums[counts == m]) for m in np.unique(counts)]
        self.max_count = int(counts.max())

    def speaker_mean_stats(self):
        total = np.zeros((self.d, self.d))
        mean_sum = np.zeros(self.d)
        for m, sums in self.groups:
            mu = sums / m
            total += mu.T @ mu
            mean_sum += mu.sum(axis=0)
        grand = mean_sum / self.n_speakers
        return _sym(total / self.n_speakers - np.outer(grand, grand))


def grouped_marginal_loglik(C_u, C_n, stats):
    """Marginal log-likelihood with one Cholesky of C_n + m C_u per count group."""
    cn_factor = _spd_factor(C_n, "C_n")
    cn_inv = cho_solve(cn_factor, np.eye(stats.d))
    logdet_cn = _logdet(cn_factor)
    ll = -0.5 * (stats.n_total * stats.d * np.log(2.0 * np.pi)
                 + float(np.sum(cn_inv * stats.xtx)))
    for m, sums in stats.groups:
        t_factor = _spd_factor(C_n + m * C_u, f"C_n + {m} C_u")
        n_g = sums.shape[0]
        ll -= 0.5 * n_g * ((m - 1) * logdet_cn + _logdet(t_factor))
        quad_t = np.sum(sums * cho_solve(t_factor, sums.T).T, axis=1)
        quad_n = np.sum(sums * (sums @ cn_inv), axis=1)
        ll -= 0.5 * float(np.sum(quad_t - quad_n)) / m
    return ll


def _grouped_floor_pd(m, what):
    try:
        cho_factor(m, lower=True)
        return m
    except np.linalg.LinAlgError:
        pass
    bumped = m + 1e-6 * float(np.mean(np.diag(m))) * np.eye(m.shape[0])
    try:
        cho_factor(bumped, lower=True)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"initial {what} cannot be floored to PD") from exc
    return bumped


def grouped_moment_init(stats):
    within = stats.xtx.copy()
    for m, sums in stats.groups:
        mu = sums / m
        within -= m * (mu.T @ mu)
    within = _sym(within / stats.n_total)
    return (_grouped_floor_pd(stats.speaker_mean_stats(), "speaker covariance"),
            _grouped_floor_pd(within, "noise covariance"))


def grouped_em_update(C_u, C_n, stats, drop_posterior_cov):
    """One EM step with a posterior precision inverse per count group."""
    cu_inv = _spd_inverse(C_u, "C_u")
    cn_inv = _spd_inverse(C_n, "C_n")
    d = stats.d
    sum_uu = np.zeros((d, d))
    sum_mu_s = np.zeros((d, d))
    sum_m_mumu = np.zeros((d, d))
    sum_m_cov = np.zeros((d, d))
    for m, sums in stats.groups:
        lam_inv = _spd_inverse(cu_inv + m * cn_inv, "posterior precision")
        mu = sums @ cn_inv @ lam_inv
        n_g = sums.shape[0]
        mu_outer = mu.T @ mu
        sum_uu += mu_outer
        sum_mu_s += mu.T @ sums
        sum_m_mumu += m * mu_outer
        if not drop_posterior_cov:
            sum_uu += n_g * lam_inv
            sum_m_cov += m * n_g * lam_inv
    C_u_new = _sym(sum_uu / stats.n_speakers)
    residual = stats.xtx - sum_mu_s - sum_mu_s.T + sum_m_mumu
    return C_u_new, _sym((residual + sum_m_cov) / stats.n_total)


def grouped_em_fit(vectors, speakers, max_iters=200, rel_tol=1e-6,
                   drop_posterior_cov=False):
    """(C_u, C_n, log-likelihoods) from the per-group EM, same stopping rule."""
    stats = GroupedSpeakerStats(vectors, speakers)
    C_u, C_n = grouped_moment_init(stats)
    history = []
    prev_ll = None
    for _ in range(max_iters):
        ll = grouped_marginal_loglik(C_u, C_n, stats)
        C_u_new, C_n_new = grouped_em_update(C_u, C_n, stats, drop_posterior_cov)
        history.append(ll)
        rel_param = max(
            float(np.linalg.norm(C_u_new - C_u)) / max(float(np.linalg.norm(C_u)), 1e-300),
            float(np.linalg.norm(C_n_new - C_n)) / max(float(np.linalg.norm(C_n)), 1e-300),
        )
        rel_ll = abs(ll - prev_ll) / max(1.0, abs(ll)) if prev_ll is not None else np.inf
        C_u, C_n = C_u_new, C_n_new
        prev_ll = ll
        if rel_param < rel_tol and rel_ll < rel_tol:
            break
    history.append(grouped_marginal_loglik(C_u, C_n, stats))
    return C_u, C_n, history
