import errno
import hashlib
import os
import threading

import numpy as np
import pytest

from svbackend import corpus, hybrid, jb, transform
from svbackend.corpus import EmbeddingSet, ScoreSet, Trial, TrialLabel, TrialList
from svbackend.errors import (
    DegenerateCorpusError,
    DuplicateIdError,
    InvalidIdError,
    MissingReferenceError,
    NumericError,
    ParseError,
    ShapeError,
)

from oracles import loader_outcome, pool_sample_pair_indices


def small_set():
    return EmbeddingSet(
        ["u1", "u2", "u3"],
        ["spkA", "spkB", "spkA"],
        [[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]],
    )


class TestEmbeddingSet:
    def test_basic_invariants(self):
        s = small_set()
        assert len(s) == 3
        assert s.dim == 2
        assert s.row("u2") == 1
        np.testing.assert_array_equal(s.vector("u3"), [3.0, -1.0])

    def test_duplicate_id_rejected(self):
        with pytest.raises(DuplicateIdError):
            EmbeddingSet(["u1", "u1"], ["a", "b"], [[1.0], [2.0]])

    def test_vectors_are_read_only(self):
        s = small_set()
        with pytest.raises(ValueError):
            s.vectors[0, 0] = 5.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ShapeError):
            EmbeddingSet(["u1"], ["a", "b"], [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            EmbeddingSet(["u1"], ["a"], [[np.nan]])

    def test_unknown_id(self):
        with pytest.raises(MissingReferenceError):
            small_set().row("nope")

    def test_speaker_codes_computed_once(self):
        s = EmbeddingSet(["a", "b", "c", "d"], ["z", "x", "z", "y"], np.zeros((4, 1)))
        codes = s.speaker_codes()
        assert codes is s.speaker_codes()
        np.testing.assert_array_equal(codes, [2, 0, 2, 1])  # sorted-label order
        with pytest.raises(ValueError):
            codes[0] = 5

    def test_subset_by_speakers(self):
        sub = small_set().subset_by_speakers({"spkA"})
        assert sub.ids == ["u1", "u3"]
        assert sub.speakers == ["spkA", "spkA"]

    def test_caller_array_is_neither_frozen_nor_shared(self):
        mine = np.arange(6.0).reshape(3, 2)
        s = EmbeddingSet(["u1", "u2", "u3"], ["a", "b", "a"], mine)
        assert mine.flags.writeable and not np.shares_memory(s.vectors, mine)
        mine[0, 0] = 99.0
        assert s.vectors[0, 0] == 0.0
        for view in (mine[::2], mine.T.T):  # views of the caller's memory
            assert not np.shares_memory(EmbeddingSet(["x", "y", "z"][: len(view)],
                                                     ["a"] * len(view), view).vectors, mine)

    def test_read_only_float64_array_is_kept_without_a_copy(self):
        frozen = np.arange(4.0).reshape(2, 2)
        frozen.setflags(write=False)
        assert EmbeddingSet(["u1", "u2"], ["a", "b"], frozen).vectors is frozen

    def test_loaders_hand_over_read_only_arrays(self, tmp_path, monkeypatch):
        path = tmp_path / "emb.txt"
        corpus.save_embeddings(small_set(), path)
        os.remove(f"{path}.npz")
        handed, init = [], EmbeddingSet.__init__

        def recording_init(self, ids, speakers, vectors):
            handed.append(vectors.flags.writeable)
            init(self, ids, speakers, vectors)

        monkeypatch.setattr(EmbeddingSet, "__init__", recording_init)
        corpus.load_embeddings(path)  # parses the text and writes the sidecar
        corpus.load_embeddings(path)  # reads the sidecar
        corpus._load_embeddings_by_token(path)
        assert handed == [False, False, False]


class TestEmbeddingIo:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 spkA 1.0 2.0\nu2 spkB 0.0 1.0\n")
        s = corpus.load_embeddings(path)
        assert len(s) == 2 and s.dim == 2
        assert s.ids == ["u1", "u2"]
        assert s.speakers == ["spkA", "spkB"]
        np.testing.assert_array_equal(s.vectors, [[1.0, 2.0], [0.0, 1.0]])

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        vectors = rng.standard_normal((20, 5)) * np.pi  # non-terminating decimals
        s = EmbeddingSet([f"u{k}" for k in range(20)], ["s"] * 10 + ["t"] * 10, vectors)
        path = tmp_path / "emb.txt"
        corpus.save_embeddings(s, path)
        back = corpus.load_embeddings(path)
        assert back.ids == s.ids
        assert back.speakers == s.speakers
        assert np.array_equal(back.vectors, s.vectors)  # bit-exact

    def test_non_numeric_token_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 spkA 1.0 2.0\nu2 spkB 0.0 1.0\nu3 spkC 1.0 x\n")
        with pytest.raises(ParseError, match=":3:"):
            corpus.load_embeddings(path)

    def test_inconsistent_dimension_names_line(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 spkA 1.0 2.0\nu2 spkB 0.5\n")
        with pytest.raises(ParseError, match=":2:"):
            corpus.load_embeddings(path)

    def test_duplicate_id_in_file(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("u1 spkA 1.0\nu1 spkB 2.0\n")
        with pytest.raises(DuplicateIdError):
            corpus.load_embeddings(path)

    def test_save_formats_like_fmt_float(self, tmp_path):
        vectors = np.array([[-0.0, 5e-324, 2.5e-310, 1 / 3], [1e300, -1e-300, 0.1, 7.0]])
        s = EmbeddingSet(["u1", "u2"], ["a", "b"], vectors)
        path = tmp_path / "emb.txt"
        corpus.save_embeddings(s, path)
        expected = "".join(
            f"{u} {spk} " + " ".join(corpus.fmt_float(v) for v in row) + "\n"
            for u, spk, row in zip(s.ids, s.speakers, vectors)
        )
        assert path.read_text() == expected
        for x in (-0.0, 5e-324, float("nan"), float("inf"), -float("inf"), 1 / 3):
            assert "%.17g" % x == corpus.fmt_float(x)


class TestEmbeddingLoaderDifferential:
    """The fast loader against the per-token reference reader; the
    randomized version is in test_corpus_properties.py."""

    @pytest.mark.parametrize("text", [
        "u1 s 1_0 2\n",                    # float() accepts, the C parser does not
        "u1 s 1 2\nu2 s # 3\n",            # a '#' is data, not a comment
        "u1 s 1 #2\n",
        "u1 s 1.5.5\n",
        "u1 s 1\xa02\u20033\n",            # Unicode whitespace separates values
        "u1 s\n",                          # two fields
        "u1 s 1 2\nu2 s 3\n",              # ragged rows
        "u1 s 1\nu1 t 2\n",                # duplicate id
        "u1 s nan\n", "u1 s inf\n",
        "\n\n",
    ])
    def test_edge_cases(self, tmp_path, text):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        assert loader_outcome(corpus.load_embeddings, path) == loader_outcome(
            corpus._load_embeddings_by_token, path)


class TestSavedIds:
    @pytest.mark.parametrize("ids, speakers", [
        (["u1 x", "u2 y"], ["5", "6"]),    # reloads as a 3-D corpus
        (["", "u2"], ["a", "b"]),
        (["u1", "u2"], ["a\tb", "c"]),
        (["u1\n", "u2"], ["a", "b"]),
        (["u1", "u2"], ["a", "\u2003b"]),   # Unicode whitespace splits too
    ])
    def test_unwritable_id_raises_before_opening(self, tmp_path, ids, speakers):
        path = tmp_path / "emb.txt"
        with pytest.raises(InvalidIdError):
            corpus.save_embeddings(EmbeddingSet(ids, speakers, [[1.0, 2.0], [3.0, 4.0]]), path)
        assert list(tmp_path.iterdir()) == []


class TestNonUtf8Input:
    @pytest.mark.parametrize("load", [
        corpus.load_embeddings, corpus.load_trials, corpus.load_scores,
        transform.load_lda, jb.load_jb, hybrid.load_model,
    ])
    @pytest.mark.parametrize("blank_lines", [0, 500])  # in the first block or later
    def test_parse_error_names_file(self, tmp_path, load, blank_lines):
        path = tmp_path / "bad.txt"
        path.write_bytes((b" " * 99 + b"\n") * blank_lines + b"u\xff s 1 2\n")
        with pytest.raises(ParseError, match="bad.txt: not UTF-8"):
            load(path)

    def test_embeddings_after_valid_records(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(b"u%d s 1 2\n" % k for k in range(5000)) + b"u s \xff\n")
        with pytest.raises(ParseError, match="bad.txt: not UTF-8"):
            corpus.load_embeddings(path)
        assert not (tmp_path / "bad.txt.npz").exists()


SIDECAR_TEXT = "a\x00 s\x00 1.5 -0\nb s 0.1 2e-310\nc t 3 4\n"


def pack(names):
    return np.frombuffer("\n".join(names).encode("utf-8"), dtype=np.uint8)


def sidecar_fields(path):
    """The sidecar layout for the text now in `path`, with a distinct payload
    (vectors + 1) so that using the sidecar would show in the result."""
    parsed = corpus._parse_embeddings(path)
    return {
        "sha256": pack([hashlib.sha256(path.read_bytes()).hexdigest()]),
        "vectors": parsed.vectors + 1.0,
        "ids": pack(parsed.ids), "speakers": pack(parsed.speakers),
    }


def _bad_sidecar(kind, path):
    fields = sidecar_fields(path)
    if kind == "digest":
        fields["sha256"] = pack(["0" * 64])
    elif kind == "dtype":
        fields["vectors"] = fields["vectors"].astype(np.float32)
    elif kind == "byte-order":
        fields["vectors"] = fields["vectors"].astype(">f8")
    elif kind == "ndim":
        fields["vectors"] = fields["vectors"].ravel()
    elif kind == "length":
        fields["ids"] = pack(corpus._parse_embeddings(path).ids[:-1])
    elif kind == "unicode-ids":
        fields["ids"] = np.array(corpus._parse_embeddings(path).ids)
    elif kind == "missing-key":
        del fields["speakers"]
    elif kind == "non-finite":
        fields["vectors"][0, 0] = np.inf
    elif kind == "duplicate-id":
        fields["ids"] = pack(["b", "b", "c"])
    np.savez(f"{path}.npz", **fields)
    if kind == "truncated":
        sidecar = f"{path}.npz"
        with open(sidecar, "r+b") as fh:
            fh.truncate(os.path.getsize(sidecar) // 2)
    elif kind == "garbage":
        with open(f"{path}.npz", "wb") as fh:
            fh.write(b"not a zip archive")


class TestSidecar:
    def write_text(self, tmp_path, text=SIDECAR_TEXT):
        path = tmp_path / "emb.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def no_parse(self, monkeypatch):
        def fail(path):
            raise AssertionError("the text was parsed")
        monkeypatch.setattr(corpus, "_parse_embeddings", fail)

    def test_sidecar_load_equals_text_parse(self, tmp_path, monkeypatch):
        path = self.write_text(tmp_path)
        parsed = loader_outcome(corpus._load_embeddings_by_token, path)
        assert parsed[0] == ["a\x00", "b", "c"] and parsed[1] == ["s\x00", "s", "t"]
        assert loader_outcome(corpus.load_embeddings, path) == parsed  # writes it
        assert (tmp_path / "emb.txt.npz").exists()
        self.no_parse(monkeypatch)
        assert loader_outcome(corpus.load_embeddings, path) == parsed

    def test_save_writes_matching_sidecar(self, tmp_path, monkeypatch):
        s = EmbeddingSet(["a\x00", "b"], ["x", "y\x00"], [[-0.0, 5e-324], [1 / 3, 7.0]])
        path = tmp_path / "emb.txt"
        corpus.save_embeddings(s, path)
        parsed = loader_outcome(corpus._load_embeddings_by_token, path)
        assert parsed == (s.ids, s.speakers, s.vectors.shape, s.vectors.tobytes())
        self.no_parse(monkeypatch)
        assert loader_outcome(corpus.load_embeddings, path) == parsed

    @pytest.mark.parametrize("kind", [
        "digest", "dtype", "byte-order", "ndim", "length", "unicode-ids",
        "missing-key", "non-finite", "duplicate-id", "truncated", "garbage",
    ])
    def test_bad_sidecar_is_never_used(self, tmp_path, kind):
        path = self.write_text(tmp_path)
        _bad_sidecar(kind, path)
        expected = loader_outcome(corpus._load_embeddings_by_token, path)
        assert loader_outcome(corpus.load_embeddings, path) == expected
        # and it was replaced by a good one
        with np.load(f"{path}.npz") as stored:
            assert stored["vectors"].tobytes() == expected[3]

    def test_stale_sidecar_after_new_text(self, tmp_path):
        path = tmp_path / "emb.txt"
        corpus.save_embeddings(EmbeddingSet(["u1"], ["s"], [[1.0]]), path)
        path.write_text("u1 s 2\nu2 s 3\n")
        assert corpus.load_embeddings(path).vectors.tolist() == [[2.0], [3.0]]

    def test_rewritten_in_place_reloads_new_content(self, tmp_path):
        path = self.write_text(tmp_path)
        corpus.load_embeddings(path)
        before = os.stat(path)
        with open(path, "r+b") as fh:  # same size, same inode, same mtime
            fh.write(b"z")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        assert corpus.load_embeddings(path).ids == ["z\x00", "b", "c"]

    def test_file_changed_during_parse_gets_no_sidecar(self, tmp_path, monkeypatch):
        path = self.write_text(tmp_path)
        parse = corpus._parse_embeddings

        def parse_then_append(p):
            parsed = parse(p)
            with open(p, "a", encoding="utf-8") as fh:
                fh.write("d t 5 6\n")
            return parsed

        monkeypatch.setattr(corpus, "_parse_embeddings", parse_then_append)
        assert len(corpus.load_embeddings(path)) == 3
        assert not (tmp_path / "emb.txt.npz").exists()
        monkeypatch.undo()
        assert len(corpus.load_embeddings(path)) == 4

    def test_unwritable_directory_still_loads(self, tmp_path):
        path = self.write_text(tmp_path)
        expected = loader_outcome(corpus._load_embeddings_by_token, path)
        tmp_path.chmod(0o555)
        try:
            if os.access(tmp_path, os.W_OK):
                pytest.skip("permission bits do not bind this user")
            assert loader_outcome(corpus.load_embeddings, path) == expected
            assert [p.name for p in tmp_path.iterdir()] == ["emb.txt"]
        finally:
            tmp_path.chmod(0o755)

    @pytest.mark.parametrize("owner, name", [
        (corpus.tempfile, "mkstemp"), (corpus.os, "fsync"), (corpus.os, "replace"),
    ])
    def test_write_failure_leaves_no_temporary_file(self, tmp_path, monkeypatch, owner, name):
        path = self.write_text(tmp_path)
        expected = loader_outcome(corpus._load_embeddings_by_token, path)

        def fail(*args, **kwargs):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(owner, name, fail)
        assert loader_outcome(corpus.load_embeddings, path) == expected
        corpus.save_embeddings(corpus._parse_embeddings(path), tmp_path / "out.txt")
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["emb.txt", "out.txt"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_fifo_is_parsed_without_sidecar(self, tmp_path, monkeypatch):
        fifo = tmp_path / "emb.fifo"
        os.mkfifo(fifo)

        def no_hash(path):  # hashing would consume the pipe
            raise AssertionError("the pipe was hashed")

        monkeypatch.setattr(corpus, "_sha256", no_hash)
        writer = threading.Thread(target=fifo.write_text, args=("u1 s 1 2\nu2 t 3 4\n",),
                                  daemon=True)
        writer.start()
        s = corpus.load_embeddings(fifo)
        writer.join(timeout=10)
        assert s.ids == ["u1", "u2"] and s.vectors.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert [p.name for p in tmp_path.iterdir()] == ["emb.fifo"]


class TestTrialIo:
    def test_labeled_and_unlabeled(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("u1 u2 target\nu1 u3 nontarget\nu2 u3\n")
        trials = corpus.load_trials(path, small_set())
        assert trials[0].label is TrialLabel.SAME
        assert trials[1].label is TrialLabel.DIFFERENT
        assert trials[2].label is None
        assert trials.labels() is None  # one trial unlabeled

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "trials.txt"
        lines = [f"u1 u2 target\n", f"u3 u1 nontarget\n", f"u2 u3 target\n"]
        path.write_text("".join(lines))
        trials = corpus.load_trials(path, small_set())
        assert [(t.enroll_id, t.test_id) for t in trials] == [
            ("u1", "u2"), ("u3", "u1"), ("u2", "u3"),
        ]

    def test_unknown_id_rejected(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("u1 u9 target\n")
        with pytest.raises(MissingReferenceError):
            corpus.load_trials(path, small_set())
        # validation can be deferred
        trials = corpus.load_trials(path, small_set(), validate=False)
        assert len(trials) == 1

    def test_bad_label_token(self, tmp_path):
        path = tmp_path / "trials.txt"
        path.write_text("u1 u2 yes\n")
        with pytest.raises(ParseError):
            corpus.load_trials(path, small_set())

    def test_trial_round_trip(self, tmp_path):
        trials = TrialList(
            [Trial("u1", "u2", TrialLabel.SAME), Trial("u2", "u3", None)]
        )
        path = tmp_path / "trials.txt"
        corpus.save_trials(trials, path)
        back = corpus.load_trials(path)
        assert back.trials == trials.trials


class TestScoreIo:
    def test_save_format(self, tmp_path):
        scores = ScoreSet(TrialList([Trial("u1", "u2")]), np.array([0.25]))
        path = tmp_path / "scores.txt"
        corpus.save_scores(scores, path)
        assert path.read_text() == "u1 u2 0.25\n"

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        trials = TrialList([Trial(f"a{k}", f"b{k}") for k in range(50)])
        scores = ScoreSet(trials, rng.standard_normal(50) * 1e3)
        path = tmp_path / "scores.txt"
        corpus.save_scores(scores, path)
        back = corpus.load_scores(path)
        assert np.array_equal(back.scores, scores.scores)
        assert back.trials.trials == trials.trials

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "scores.txt"
        corpus.save_scores(ScoreSet(TrialList([]), np.zeros(0)), path)
        assert path.read_text() == ""
        assert len(corpus.load_scores(path)) == 0

    def test_with_labels_checks_ids(self):
        scores = ScoreSet(TrialList([Trial("u1", "u2")]), np.array([1.0]))
        good = TrialList([Trial("u1", "u2", TrialLabel.SAME)])
        labeled = scores.with_labels(good)
        assert labeled.trials[0].label is TrialLabel.SAME
        bad = TrialList([Trial("u2", "u1", TrialLabel.SAME)])
        with pytest.raises(MissingReferenceError):
            scores.with_labels(bad)


class TestPairSampling:
    def test_composition_and_labels(self):
        rng = np.random.default_rng(0)
        codes = np.array([0, 0, 0, 1, 1, 2])
        i, j, y = corpus.sample_pair_indices(codes, 40, 60, rng)
        assert y.sum() == 40 and y.size == 100
        same = y == 1
        assert np.all(codes[i[same]] == codes[j[same]])
        assert np.all(i[same] != j[same])  # never an utterance with itself
        assert np.all(codes[i[~same]] != codes[j[~same]])

    def test_uniformity_over_same_pairs(self):
        # speaker 0 has 3 utts (3 pairs), speaker 1 has 2 utts (1 pair)
        rng = np.random.default_rng(1)
        codes = np.array([0, 0, 0, 1, 1])
        i, j, _ = corpus.sample_pair_indices(codes, 40000, 0, rng)
        frac_spk1 = np.mean(codes[i] == 1)
        assert abs(frac_spk1 - 0.25) < 0.01  # 1 of 4 valid pairs

    def test_no_same_pair_possible(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DegenerateCorpusError):
            corpus.sample_pair_indices(np.array([0, 1, 2]), 1, 1, rng)

    @pytest.mark.parametrize("codes", [
        [3, 1, 3, 0, 1, 3, 2, 1],                 # unsorted
        [500, -7, 500, 10**9, -7, 500, 42],       # non-contiguous, negative
        [5, 5, 9, 1, 1, 1, 7],                    # singletons between pairs
        ["b", "a", "b", "c", "a", "a"],           # string labels
        list(np.repeat([4, 0, 2], [1, 40, 3])),   # one large speaker
    ])
    def test_matches_pool_oracle(self, codes):
        for seed in range(5):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            i, j, y = corpus.sample_pair_indices(codes, 37, 11, rng)
            ref_i, ref_j = pool_sample_pair_indices(codes, 37, 11, ref_rng)
            np.testing.assert_array_equal(i, ref_i)
            np.testing.assert_array_equal(j, ref_j)
            np.testing.assert_array_equal(y, [1] * 37 + [0] * 11)
            assert rng.integers(1 << 62) == ref_rng.integers(1 << 62)  # same draws

    def test_single_speaker_blocks_diff_pairs(self):
        rng = np.random.default_rng(3)
        with pytest.raises(DegenerateCorpusError):
            corpus.sample_pair_indices(np.array([0, 0]), 1, 1, rng)
