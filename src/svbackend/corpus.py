"""Data model and text I/O for embeddings, trial lists, and score files.

All formats are line oriented, space separated UTF-8 text:

    embeddings:  <utt-id> <speaker-id> <v1> ... <vl>
    trials:      <enroll-id> <test-id> [target|nontarget]
    scores:      <enroll-id> <test-id> <score>

Floats are written with 17 significant digits, which round-trips IEEE
64-bit values exactly. Loaded sets are immutable after construction.

An embedding file that is a regular file gets a binary sidecar,
`<file>.npz`, holding its parsed contents and the sha256 of the text it
came from. The text stays the format of record: the sidecar is used only
while that digest matches the file, and deleting it is always safe.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import itertools
import os
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateCorpusError,
    DuplicateIdError,
    InvalidIdError,
    MissingReferenceError,
    NumericError,
    ParseError,
    ShapeError,
)


def fmt_float(x: float) -> str:
    """Render one float as decimal text that parses back bit-exactly."""
    return format(float(x), ".17g")


@contextlib.contextmanager
def open_text(path):
    """Open a UTF-8 text input; bytes that do not decode raise a ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def float_rows(path, token_rows, what: str) -> list[np.ndarray]:
    """One float array per row of tokens, for the model file readers.

    Raises ParseError naming the file unless every token is a finite number.
    """
    try:
        rows = [np.array([float(t) for t in tokens]) for tokens in token_rows]
    except ValueError:
        raise ParseError(f"{path}: non-numeric {what}") from None
    if not all(np.isfinite(row).all() for row in rows):
        raise ParseError(f"{path}: non-finite {what}")
    return rows


class TrialLabel(enum.Enum):
    """Hypothesis tag of a trial; enum values are the on-disk tokens."""

    SAME = "target"
    DIFFERENT = "nontarget"


_LABEL_FROM_TOKEN = {label.value: label for label in TrialLabel}


@dataclass(frozen=True)
class Trial:
    enroll_id: str
    test_id: str
    label: TrialLabel | None = None


class EmbeddingSet:
    """Immutable labeled collection of fixed-dimension embedding vectors."""

    def __init__(self, ids, speakers, vectors):
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.flags.writeable:  # a caller's array: never freeze or share it
            vectors = vectors.copy()
        ids = [str(u) for u in ids]
        speakers = [str(s) for s in speakers]
        if vectors.ndim != 2:
            raise ShapeError(f"expected a 2-D vector matrix, got shape {vectors.shape}")
        n, dim = vectors.shape
        if n < 1 or dim < 1:
            raise ShapeError("need at least one vector of dimension >= 1")
        if len(ids) != n or len(speakers) != n:
            raise ShapeError(
                f"{len(ids)} ids / {len(speakers)} speakers for {n} vectors"
            )
        if not np.all(np.isfinite(vectors)):
            raise NumericError("embedding vectors must be finite")
        seen = set()
        for utt in ids:
            if utt in seen:
                raise DuplicateIdError(f"duplicate utterance id {utt!r}")
            seen.add(utt)
        vectors.setflags(write=False)
        codes = np.unique(np.asarray(speakers), return_inverse=True)[1]
        codes.setflags(write=False)
        self.ids = ids
        self.speakers = speakers
        self.vectors = vectors
        self._codes = codes
        self._row = {utt: k for k, utt in enumerate(ids)}

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def row(self, utt_id: str) -> int:
        try:
            return self._row[utt_id]
        except KeyError:
            raise MissingReferenceError(f"unknown utterance id {utt_id!r}") from None

    def vector(self, utt_id: str) -> np.ndarray:
        return self.vectors[self.row(utt_id)]

    def speaker_codes(self) -> np.ndarray:
        """Integer speaker code per utterance (codes follow sorted labels)."""
        return self._codes

    def subset(self, indices) -> "EmbeddingSet":
        indices = np.asarray(indices, dtype=int)
        return EmbeddingSet(
            [self.ids[k] for k in indices],
            [self.speakers[k] for k in indices],
            _frozen(self.vectors[indices]),
        )

    def subset_by_speakers(self, keep) -> "EmbeddingSet":
        keep = set(keep)
        indices = [k for k, s in enumerate(self.speakers) if s in keep]
        if not indices:
            raise DegenerateCorpusError("speaker subset selects no utterances")
        return self.subset(indices)


class SpeakerStats:
    """Per-speaker sufficient statistics of a labeled vector matrix.

    `counts`, `sums` and `means` have one row per speaker, in sorted label
    order; `within` is the centered within-speaker scatter, the sum over
    utterances of (x - speaker mean)(x - speaker mean)', as one product.
    """

    def __init__(self, vectors, speakers):
        X = np.asarray(vectors, dtype=np.float64)
        labels = np.asarray(speakers)
        if X.ndim != 2 or labels.shape != X.shape[:1]:
            raise ShapeError(f"{labels.shape} labels for vectors of shape {X.shape}")
        codes = np.unique(labels, return_inverse=True)[1]
        self.n_total, self.d = X.shape
        self.counts = np.bincount(codes)
        self.sums = np.zeros((self.counts.size, self.d))
        np.add.at(self.sums, codes, X)
        self.means = self.sums / self.counts[:, None]
        centered = self.means[codes]
        np.subtract(X, centered, out=centered)
        self.within = centered.T @ centered  # one symmetric rank-k product


@dataclass
class TrialList:
    """Ordered list of trials; order in the file is order in memory."""

    trials: list[Trial]

    def __len__(self) -> int:
        return len(self.trials)

    def __iter__(self):
        return iter(self.trials)

    def __getitem__(self, k):
        return self.trials[k]

    def index_arrays(self, embeddings: EmbeddingSet):
        """Row indices of (enroll, test) utterances in `embeddings`."""
        enroll = np.array([embeddings.row(t.enroll_id) for t in self.trials], dtype=int)
        test = np.array([embeddings.row(t.test_id) for t in self.trials], dtype=int)
        return enroll, test

    def labels(self) -> np.ndarray | None:
        """Per-trial 1/0 labels, or None if any trial is unlabeled."""
        if any(t.label is None for t in self.trials):
            return None
        return np.array(
            [1 if t.label is TrialLabel.SAME else 0 for t in self.trials], dtype=np.int8
        )


@dataclass
class ScoreSet:
    """One real-valued score per trial."""

    trials: TrialList
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1 or len(self.scores) != len(self.trials):
            raise ShapeError(
                f"{len(self.scores)} scores for {len(self.trials)} trials"
            )
        if not np.all(np.isfinite(self.scores)):
            raise NumericError("scores must be finite")

    def __len__(self) -> int:
        return len(self.trials)

    def with_labels(self, trials: TrialList) -> "ScoreSet":
        """Attach labels from a trial list with identical (enroll, test) order."""
        if len(trials) != len(self.trials):
            raise MissingReferenceError(
                f"{len(trials)} trials cannot label {len(self.trials)} scores"
            )
        for k, (mine, theirs) in enumerate(zip(self.trials, trials)):
            if (mine.enroll_id, mine.test_id) != (theirs.enroll_id, theirs.test_id):
                raise MissingReferenceError(
                    f"trial {k}: score pair ({mine.enroll_id}, {mine.test_id}) does "
                    f"not match trial pair ({theirs.enroll_id}, {theirs.test_id})"
                )
        return ScoreSet(TrialList(list(trials.trials)), self.scores.copy())


def load_embeddings(path) -> EmbeddingSet:
    """Read an embedding file; dimension is inferred from the first record.

    A regular file is hashed first. If its sidecar records the same sha256,
    the set comes from the sidecar; otherwise the text is parsed and the
    sidecar is written, provided the file did not change during the parse.
    Any other path (a pipe, /dev/stdin) is parsed once and never hashed.
    """
    if not _is_regular(path):
        return _parse_embeddings(path)
    digest = _sha256(path)
    embeddings = _read_sidecar(path, digest)
    if embeddings is None:
        embeddings = _parse_embeddings(path)
        if _sha256(path) == digest:
            _write_sidecar(embeddings, path, digest)
    return embeddings


def _parse_embeddings(path) -> EmbeddingSet:
    """Parse the text of an embedding file.

    The ids are split off each line here and the numeric tails go to
    NumPy's C parser. A file that parser rejects, or one with a short line
    or a repeated id, is read again by `_load_embeddings_by_token`, which
    raises the error. The C parser accepts a subset of what `float()`
    accepts and rounds the same way, so both readers give the same bits
    on every file they both accept.
    """
    ids, speakers, seen = [], [], set()
    irregular = False

    def tails(fh):
        nonlocal irregular
        for line in fh:
            fields = line.split(maxsplit=2)
            if not fields:
                continue
            if len(fields) < 3 or fields[0] in seen:
                irregular = True
                return
            seen.add(fields[0])
            ids.append(fields[0])
            speakers.append(fields[1])
            yield fields[2]

    with open_text(path) as fh:
        records = tails(fh)
        first = next(records, None)  # loadtxt warns on an empty input
        try:
            vectors = None if first is None else np.loadtxt(
                itertools.chain([first], records), dtype=np.float64,
                comments=None, ndmin=2,  # the default comments="#" drops data
            )
        except ValueError:
            vectors = None
    if vectors is None or irregular or vectors.shape[0] != len(ids):
        return _load_embeddings_by_token(path)
    return EmbeddingSet(ids, speakers, _frozen(vectors))


def _frozen(fresh: np.ndarray) -> np.ndarray:
    """Mark an array no one else holds read-only, so EmbeddingSet keeps it."""
    fresh.setflags(write=False)
    return fresh


def _load_embeddings_by_token(path) -> EmbeddingSet:
    """Reference reader: one `float()` per token, errors with file:line."""
    ids, speakers, rows = [], [], []
    seen = set()
    dim = None
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) < 3:
                raise ParseError(
                    f"{path}:{lineno}: expected '<utt> <speaker> <v1> ...', "
                    f"got {len(tokens)} fields"
                )
            utt, speaker = tokens[0], tokens[1]
            try:
                values = [float(tok) for tok in tokens[2:]]
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric vector value") from None
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise ParseError(
                    f"{path}:{lineno}: dimension {len(values)} != {dim} "
                    f"of the first record"
                )
            if utt in seen:
                raise DuplicateIdError(f"{path}:{lineno}: duplicate utterance id {utt!r}")
            seen.add(utt)
            ids.append(utt)
            speakers.append(speaker)
            rows.append(values)
    if not rows:
        raise ParseError(f"{path}: no embedding records")
    return EmbeddingSet(ids, speakers, _frozen(np.array(rows, dtype=np.float64)))


def save_embeddings(embeddings: EmbeddingSet, path) -> None:
    """Write the text file and, for a regular file, its sidecar.

    Raises InvalidIdError, before the file is opened, for an id or speaker
    that would not read back as the same single token.
    """
    for name in itertools.chain(embeddings.ids, embeddings.speakers):
        if name.split() != [name]:
            raise InvalidIdError(
                f"{path}: utterance or speaker id {name!r} is empty or contains whitespace"
            )
    # '%.17g' % x is the same text as fmt_float(x), one format call per row
    line = "%s %s " + " ".join(["%.17g"] * embeddings.dim) + "\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for utt, speaker, vec in zip(embeddings.ids, embeddings.speakers, embeddings.vectors):
            data = (line % (utt, speaker, *vec.tolist())).encode("utf-8")
            digest.update(data)
            fh.write(data)
    if _is_regular(path):
        # single-token ids and 17-digit floats parse back to this very set
        _write_sidecar(embeddings, path, digest.digest())


def _is_regular(path) -> bool:
    try:
        return stat.S_ISREG(os.stat(path).st_mode)
    except (OSError, ValueError):  # the text reader raises the caller's error
        return False


def _sha256(path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.digest()


def _sidecar_path(path) -> str:
    return os.fspath(path) + ".npz"


def _pack_names(names) -> np.ndarray:
    # UTF-8 bytes, not a "U" array: that would drop trailing NUL characters
    return np.frombuffer("\n".join(names).encode("utf-8"), dtype=np.uint8)


def _unpack_names(packed: np.ndarray) -> list[str]:
    if packed.dtype != np.uint8 or packed.ndim != 1:
        raise ValueError("names must be a 1-D uint8 array")
    return packed.tobytes().decode("utf-8").split("\n")


def _read_sidecar(path, digest: bytes) -> EmbeddingSet | None:
    """The set stored in the sidecar of `path` if it records `digest`, else None.

    A sidecar that is missing, unreadable, malformed or stale is ignored.
    """
    try:
        with np.load(_sidecar_path(path), allow_pickle=False) as stored:
            if _unpack_names(stored["sha256"]) != [digest.hex()]:
                return None
            vectors = _frozen(stored["vectors"])
            ids = _unpack_names(stored["ids"])
            speakers = _unpack_names(stored["speakers"])
        if vectors.dtype != np.float64:  # the constructor would convert it
            return None
        # the constructor checks shapes, lengths, finiteness and unique ids
        return EmbeddingSet(ids, speakers, vectors)
    except Exception:  # any failure means: parse the text instead
        return None


def _write_sidecar(embeddings: EmbeddingSet, path, digest: bytes) -> None:
    """Store `embeddings` as the sidecar of `path`; skipped on an OSError.

    The sidecar is written to a temporary file, forced to disk and renamed,
    so a reader sees either the old sidecar or the complete new one.
    """
    target = _sidecar_path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=os.path.basename(target) + ".", suffix=".tmp",
            dir=os.path.dirname(target) or ".",
        )
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh, sha256=_pack_names([digest.hex()]), vectors=embeddings.vectors,
                ids=_pack_names(embeddings.ids), speakers=_pack_names(embeddings.speakers),
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))  # mkstemp made it 0600
        os.replace(tmp, target)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)


def load_trials(path, embeddings: EmbeddingSet | None = None, validate: bool = True) -> TrialList:
    """Parse a trial file; ids are checked against `embeddings` when given."""
    trials = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) not in (2, 3):
                raise ParseError(
                    f"{path}:{lineno}: expected '<enroll> <test> [label]', "
                    f"got {len(tokens)} fields"
                )
            label = None
            if len(tokens) == 3:
                try:
                    label = _LABEL_FROM_TOKEN[tokens[2]]
                except KeyError:
                    raise ParseError(
                        f"{path}:{lineno}: bad label token {tokens[2]!r} "
                        f"(expected 'target' or 'nontarget')"
                    ) from None
            if embeddings is not None and validate:
                for utt in tokens[:2]:
                    if utt not in embeddings._row:
                        raise MissingReferenceError(
                            f"{path}:{lineno}: unknown utterance id {utt!r}"
                        )
            trials.append(Trial(tokens[0], tokens[1], label))
    return TrialList(trials)


def save_trials(trials: TrialList, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trials:
            tail = f" {t.label.value}" if t.label is not None else ""
            fh.write(f"{t.enroll_id} {t.test_id}{tail}\n")


def save_scores(scores: ScoreSet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trial, score in zip(scores.trials, scores.scores):
            fh.write(f"{trial.enroll_id} {trial.test_id} {fmt_float(score)}\n")


def load_scores(path) -> ScoreSet:
    """Parse a score file; trials come back unlabeled."""
    trials, values = [], []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 3:
                raise ParseError(
                    f"{path}:{lineno}: expected '<enroll> <test> <score>', "
                    f"got {len(tokens)} fields"
                )
            try:
                values.append(float(tokens[2]))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric score") from None
            trials.append(Trial(tokens[0], tokens[1]))
    return ScoreSet(TrialList(trials), np.array(values, dtype=np.float64))


def sample_pair_indices(speaker_codes, n_same: int, n_diff: int, rng):
    """Sample utterance index pairs for trials or training batches.

    Same-speaker pairs are uniform over all unordered pairs of distinct
    utterances sharing a speaker; different-speaker pairs are uniform over
    ordered cross-speaker pairs (rejection sampling). Deterministic given
    the generator state.
    """
    codes = np.asarray(speaker_codes)
    n = codes.size
    parts_i, parts_j, parts_y = [], [], []
    if n_same > 0:
        # The pool of pairs lists each speaker's pairs (a, b), a < b, in
        # row-major order, speakers in code order. In code-sorted order the
        # row at position s opens end - 1 - s pairs, `end` being one past
        # its speaker's run, so one search in the cumulative counts unranks
        # a pool index without building the pool.
        order = np.argsort(codes, kind="stable")
        ordered = codes[order]
        last = np.ones(n, dtype=bool)  # last position of each speaker's run
        last[:-1] = ordered[1:] != ordered[:-1]
        ends = np.flatnonzero(last) + 1
        opened = np.repeat(ends, np.diff(ends, prepend=0)) - 1 - np.arange(n)
        cum = np.cumsum(opened)
        total = int(cum[-1]) if n else 0
        if total == 0:
            raise DegenerateCorpusError(
                "no speaker has two utterances; cannot form same-speaker pairs"
            )
        pick = rng.integers(0, total, size=n_same)
        first = np.searchsorted(cum, pick, side="right")
        second = first + 1 + pick - (cum[first] - opened[first])
        parts_i.append(order[first])
        parts_j.append(order[second])
        parts_y.append(np.ones(n_same, dtype=np.int8))
    if n_diff > 0:
        if n == 0 or np.all(codes == codes[0]):
            raise DegenerateCorpusError(
                "need at least two speakers for different-speaker pairs"
            )
        got_i, got_j = [], []
        remaining = n_diff
        while remaining > 0:
            a = rng.integers(0, n, size=remaining)
            b = rng.integers(0, n, size=remaining)
            ok = codes[a] != codes[b]
            got_i.append(a[ok])
            got_j.append(b[ok])
            remaining -= int(ok.sum())
        parts_i.append(np.concatenate(got_i))
        parts_j.append(np.concatenate(got_j))
        parts_y.append(np.zeros(n_diff, dtype=np.int8))
    if not parts_i:
        raise DegenerateCorpusError("requested an empty pair sample")
    return (
        np.concatenate(parts_i),
        np.concatenate(parts_j),
        np.concatenate(parts_y),
    )
