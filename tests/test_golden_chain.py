"""Golden record of criterion 10's CLI chain.

`golden_chain.json` holds what the chain wrote when it was recorded: the
sha256 of every output, with the BLAS runtime kernel, thread count and
numpy version it was recorded under; the numbers of every model, score,
DET, history and histogram file; and the report text. Every number must
agree within 1e-12 of the largest magnitude in its file on any machine;
the sha256 values are compared only under the recorded kernel, thread
count and numpy version, since other BLAS kernels round differently.

The record changes only with a change that states why the bits move.
Rewrite it with

    PYTHONPATH=src python tests/test_golden_chain.py --write
"""

import ctypes
import glob
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from svbackend import cli

GOLDEN = Path(__file__).with_name("golden_chain.json")
REL_TOL = 1e-12
NUMERIC = ("truth", "lda", "jb", "net", "trained", "history", "scores", "det", "hist")
FILES = {
    "emb": "emb.txt", "truth": "truth.txt", "trials": "trials.txt", "lda": "lda.txt",
    "jb": "jb.txt", "net": "net.txt", "trained": "trained.txt",
    "history": "history.csv", "scores": "scores.txt", "report": "report.txt",
    "det": "det.csv", "hist": "hist.csv",
}
# the chain of test_acceptance.test_criterion_10_cli_determinism
STEPS = [
    ["synth", "--speakers", "80", "--utts", "8", "--dim", "6", "--seed", "7",
     "--cu", "diagonal:5.0,5.4,5.8,6.2,6.6,7.0", "--cn", "isotropic:1.0",
     "--mismatch", "channel-shift", "--shift-fraction", "0.5",
     "--out", "emb.txt", "--truth-out", "truth.txt"],
    ["make-trials", "--embeddings", "emb.txt", "--n", "500",
     "--pos-fraction", "0.5", "--seed", "3", "--out", "trials.txt"],
    ["fit-lda", "--embeddings", "emb.txt", "--dim", "6", "--out", "lda.txt"],
    ["fit-jb", "--embeddings", "emb.txt", "--lda", "lda.txt", "--out", "jb.txt"],
    ["init-hybrid", "--init", "jb", "--lda", "lda.txt", "--jb", "jb.txt",
     "--out", "net.txt"],
    ["train", "--model", "net.txt", "--embeddings", "emb.txt",
     "--loss", "dem", "--p-tar", "0.5", "--batch-size", "256", "--epochs", "3",
     "--pos-fraction", "0.3", "--seed", "11",
     "--out", "trained.txt", "--history-out", "history.csv"],
    ["score", "--model", "trained.txt", "--embeddings", "emb.txt",
     "--trials", "trials.txt", "--out", "scores.txt"],
    ["eval", "--scores", "scores.txt", "--trials", "trials.txt",
     "--out", "report.txt", "--det-out", "det.csv", "--hist-out", "hist.csv"],
]


def blas_runtime():
    """(kernel, threads) of numpy's bundled OpenBLAS, or ("unknown", None)."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
            corename = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        threads.argtypes, threads.restype = [], ctypes.c_int
        return corename().decode(), int(threads())
    return "unknown", None


def numbers(path):
    """Every token of a text or CSV file that parses as a float, in order;
    a non-finite one (history.csv's first training loss) is kept as text."""
    values = []
    for token in re.split(r"[\s,]+", Path(path).read_text(encoding="utf-8")):
        try:
            value = float(token)
        except ValueError:
            continue
        values.append(value if math.isfinite(value) else token)
    return values


def split_text(values):
    """(position -> text of the non-finite entries, array with those zeroed)."""
    text = {k: v for k, v in enumerate(values) if isinstance(v, str)}
    return text, np.array([0.0 if isinstance(v, str) else v for v in values])


def run_chain(root):
    """Run the chain in `root`; returns the golden record of its outputs."""
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in STEPS:
            assert cli.main(argv) == 0, argv[0]
    finally:
        os.chdir(cwd)
    kernel, threads = blas_runtime()
    return {
        "blas_kernel": kernel,
        "blas_threads": threads,
        "numpy": np.__version__,
        "sha256": {
            key: hashlib.sha256((Path(root) / name).read_bytes()).hexdigest()
            for key, name in FILES.items()
        },
        "numbers": {key: numbers(Path(root) / FILES[key]) for key in NUMERIC},
        "report": (Path(root) / FILES["report"]).read_text(encoding="utf-8"),
    }


def test_chain_matches_golden_record(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_chain(tmp_path)
    assert got["report"] == golden["report"]
    for key in NUMERIC:
        want_text, want = split_text(golden["numbers"][key])
        have_text, have = split_text(got["numbers"][key])
        assert have.shape == want.shape and have_text == want_text, key
        scale = max(float(np.max(np.abs(want), initial=0.0)), np.finfo(float).tiny)
        worst = float(np.max(np.abs(have - want), initial=0.0)) / scale
        assert worst <= REL_TOL, f"{key}: relative difference {worst:.3g}"
    setting = ("blas_kernel", "blas_threads", "numpy")
    if all(got[key] == golden[key] for key in setting):
        assert got["sha256"] == golden["sha256"]
    else:
        print("sha256 not compared: recorded under "
              + ", ".join(f"{key} {golden[key]}" for key in setting)
              + "; running under " + ", ".join(f"{key} {got[key]}" for key in setting))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_chain.py --write")
    with tempfile.TemporaryDirectory() as root:
        record = run_chain(root)
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
