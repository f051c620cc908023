"""Randomized differential test of the embedding loader; needs hypothesis
(the `test` extra) and is skipped without it."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from svbackend import corpus  # noqa: E402

from oracles import loader_outcome  # noqa: E402

_FLOAT_TOKENS = st.floats(allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([corpus.fmt_float(x), repr(x), f"{x:.3e}"]))
# Spellings that both readers accept, that only float() accepts, or that
# neither accepts.
_ODD_TOKENS = st.sampled_from([
    "1_0", "#", "#1", "1.5.5", "nan", "-inf", "Infinity", "1e400", "-0", "+1", "1.",
    ".5", "0x10", "\u0661", "1,5", "x", "1d0", '"1"', "\x00",
])
_SEPARATORS = st.sampled_from([" ", " ", "  ", "\t", "\xa0", "\u2003", "\x0c", "\x0b",
                               "\x1c", "\x85", "\u2028", "\u3000"])


@st.composite
def _embedding_files(draw):
    """A valid embedding file with up to two mutations: an odd token, a
    dropped or extra value (ragged rows, two-field lines), a duplicate id."""
    dim = draw(st.integers(1, 4))
    rows = [[f"u{k}", draw(st.sampled_from(["a", "b"]))]
            + draw(st.lists(_FLOAT_TOKENS, min_size=dim, max_size=dim))
            for k in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        kind = draw(st.sampled_from(["token", "drop", "extra", "dup"]))
        if kind == "token" and len(row) > 2:
            row[draw(st.integers(2, len(row) - 1))] = draw(_ODD_TOKENS)
        elif kind == "drop":
            row.pop()
        elif kind == "extra":
            row.append(draw(_FLOAT_TOKENS))
        else:
            row[0] = "u0"
    lines = []
    for row in rows:
        line = row[0]
        for field in row[1:]:
            line += draw(_SEPARATORS) + field
        lines.append(line + draw(st.sampled_from(["", "", " ", "\xa0"])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestEmbeddingLoaderDifferential:
    """The fast loader against the per-token reference reader."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_embedding_files())
    def test_same_bits_or_same_error(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        assert loader_outcome(corpus.load_embeddings, path) == loader_outcome(
            corpus._load_embeddings_by_token, path)
