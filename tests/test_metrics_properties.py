"""Property test: detection metrics depend on the score order only. Needs
hypothesis (the `test` extra) and is skipped without it."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svbackend import metrics  # noqa: E402
from svbackend.corpus import ScoreSet, Trial, TrialLabel, TrialList  # noqa: E402

# Scores are multiples of 1/8 in [-64, 64], so ties occur; every map below is
# strictly increasing there with images far enough apart that rounding keeps
# distinct scores distinct.
_SCORES = st.lists(st.integers(-512, 512).map(lambda k: k / 8.0), min_size=1, max_size=60)
_MAPS = {
    "affine": lambda s: 2.5 * s - 7.0,
    "cubic": lambda s: s**3 + s,
    "exp": lambda s: np.exp(s / 16.0),
    "arcsinh": np.arcsinh,
    "negated-reciprocal": lambda s: -1.0 / (s + 65.0),
}


@settings(max_examples=150, deadline=None)
@given(tar=_SCORES, non=_SCORES, name=st.sampled_from(sorted(_MAPS)),
       p_tar=st.sampled_from([0.5, 0.1, 0.01, 0.001]))
def test_metrics_invariant_under_increasing_maps(tar, non, name, p_tar):
    scores = np.array(tar + non)
    mapped = _MAPS[name](scores)
    # the premise: the map kept the order and merged no two distinct scores
    order = np.argsort(scores, kind="stable")
    assert np.array_equal(np.sign(np.diff(mapped[order])), np.sign(np.diff(scores[order])))
    labels = [TrialLabel.SAME] * len(tar) + [TrialLabel.DIFFERENT] * len(non)
    trials = TrialList([Trial(f"e{k}", f"t{k}", label) for k, label in enumerate(labels)])
    before = metrics.evaluate(ScoreSet(trials, scores), p_tars=(p_tar, 0.01, 0.001))
    after = metrics.evaluate(ScoreSet(trials, mapped), p_tars=(p_tar, 0.01, 0.001))
    assert after.eer == before.eer
    for key, (raw, normalized, _) in before.min_dcf.items():
        assert after.min_dcf[key][:2] == (raw, normalized)
    np.testing.assert_array_equal(after.det[:, :2], before.det[:, :2])
