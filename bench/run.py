#!/usr/bin/env python3
"""Benchmark of the svbackend command-line chain.

    python3 bench/run.py --workload paper-chain --seed 1 --seconds 20 --trace 0

Each run generates its workload's files from --seed with `synth` and
`make-trials` (the set-up), then runs the chain of CLI commands on them.

With --trace 0 every command runs in a fresh `python -m svbackend.cli`
subprocess, one at a time; the chain is repeated for up to --seconds
(always at least once) and each end-to-end metric is the median over the
repetitions. With --trace 1 the set-up runs in-process under the span
tracer of spans.py, then the chain runs on its files once through the
CLI, once in-process untraced and once in-process traced, and the
per-layer metrics are printed.

Every command is one operation. An operation fails on a nonzero exit, a
missing output, a non-finite score, an EER/minDCF that disagrees with the
reference sweep in sweep.py, or an output whose sha256 differs from the
same command's output in an earlier repetition or execution mode. The
last line of stdout is the JSON result; the full record (per-repetition
values, workload properties, environment) is written under .bench_work/.
Exit status: 0 if every operation succeeded, 1 otherwise, 2 if the
checkout holds no svbackend sources.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spans
import sweep

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 150.0
IMPORT_PROBES = 5
SYNC_MIN_BYTES = 1 << 20
# The eval report prints six decimals, so it can differ from the exact
# reference by half a unit in the last place.
REPORT_TOL = 5e-7 + 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]          # synth flags other than --seed/--out
    n_trials: int
    trial_pos_fraction: float
    lda_dim: int
    trains: tuple[tuple[str, tuple[str, ...]], ...]   # (output stem, flags)
    ablate: tuple[str, ...] = ()
    corpora: int = 1                # corpus seeds swept per repetition


def _channel_shift_synth(speakers: int, utts: int) -> tuple[str, ...]:
    # the criterion-8 corpus: diagonal speaker covariance 5..7, unit noise,
    # a channel offset of norm 6*sqrt(dim) on half of the utterances
    dim = 12
    cu = ",".join(repr(float(v)) for v in np.linspace(5.0, 7.0, dim))
    return ("--speakers", str(speakers), "--utts", str(utts), "--dim", str(dim),
            "--cu", f"diagonal:{cu}", "--cn", "isotropic:1.0",
            "--mismatch", "channel-shift", "--shift-fraction", "0.5",
            "--shift-norm", repr(6.0 * math.sqrt(dim)))


def _gaussian_synth(speakers: int, utts: str, dim: int) -> tuple[str, ...]:
    return ("--speakers", str(speakers), "--utts", utts, "--dim", str(dim),
            "--cu", "isotropic:0.5", "--cn", "random-spd:77:50")


_CRITERION8_TRAIN = ("--epochs", "20", "--batch-size", "4096", "--pos-fraction", "0.5")


def workloads(toy: bool = False) -> dict[str, Workload]:
    """The benchmark's workloads; `toy` shrinks every size for the self-test."""
    full = [
        Workload(
            name="paper-chain",
            synth=_gaussian_synth(3000, "10", 512),
            n_trials=100_000, trial_pos_fraction=0.1, lda_dim=200,
            trains=(("trained", ("--loss", "dem", "--epochs", "3")),),
            # one restriction keeps the run short; many-utts runs all five
            ablate=("--mode", "g-only"),
        ),
        Workload(
            name="mismatch-train",
            synth=_channel_shift_synth(1200, 10),
            n_trials=20_000, trial_pos_fraction=0.2, lda_dim=12,
            trains=(
                ("dem", ("--loss", "dem", "--p-tar", "0.5") + _CRITERION8_TRAIN),
                ("wbce", ("--loss", "wbce", "--w-s", "0.5") + _CRITERION8_TRAIN),
            ),
            corpora=4,
        ),
        Workload(
            name="many-utts",
            synth=_gaussian_synth(300, "2:300", 128),
            n_trials=100_000, trial_pos_fraction=0.1, lda_dim=100,
            trains=(("trained", ("--loss", "dem", "--epochs", "3")),),
        ),
    ]
    if toy:
        full = [
            replace(full[0], synth=_gaussian_synth(40, "5", 16), n_trials=400, lda_dim=8,
                    trains=(("trained", ("--loss", "dem", "--epochs", "1")),)),
            replace(full[1], synth=_channel_shift_synth(60, 6), n_trials=400, corpora=2,
                    trains=tuple((stem, flags[:4] + ("--epochs", "2", "--batch-size", "256"))
                                 for stem, flags in full[1].trains)),
            replace(full[2], synth=_gaussian_synth(20, "2:30", 12), n_trials=400, lda_dim=8,
                    trains=(("trained", ("--loss", "dem", "--epochs", "1")),)),
        ]
    return {w.name: w for w in full}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

SETUP_KINDS = ("synth", "make-trials")
CHAIN_KINDS = ("fit-lda", "fit-jb", "init-hybrid", "train", "score", "eval", "ablate")
OUTPUT_FLAGS = ("--out", "--det-out", "--hist-out", "--history-out")


def corpus_seed(seed: int, k: int) -> int:
    return 1000 + 100 * seed + 10 * k


def setup_commands(w: Workload, seed: int):
    return [
        ("synth", ["synth", *w.synth, "--seed", str(seed), "--out", "emb.txt"]),
        ("make-trials", ["make-trials", "--embeddings", "emb.txt", "--n", str(w.n_trials),
                         "--pos-fraction", repr(w.trial_pos_fraction),
                         "--seed", str(seed + 1), "--out", "trials.txt"]),
    ]


def chain_commands(w: Workload, seed: int):
    emb = ["--embeddings", "emb.txt"]
    trials = ["--trials", "trials.txt"]
    cmds = [
        ("fit-lda", ["fit-lda", *emb, "--dim", str(w.lda_dim), "--out", "lda.txt"]),
        ("fit-jb", ["fit-jb", *emb, "--lda", "lda.txt", "--out", "jb.txt"]),
        ("init-hybrid", ["init-hybrid", "--init", "jb", "--lda", "lda.txt", "--jb", "jb.txt",
                         "--out", "net.txt"]),
    ]
    for stem, flags in w.trains:
        cmds.append(("train", ["train", "--model", "net.txt", *emb, *flags,
                               "--seed", str(seed + 2), "--out", f"{stem}.txt",
                               "--history-out", f"{stem}.csv"]))
    model = f"{w.trains[0][0]}.txt"
    cmds += [
        ("score", ["score", "--model", model, *emb, *trials, "--out", "scores.txt"]),
        ("eval", ["eval", "--scores", "scores.txt", *trials, "--out", "report.txt",
                  "--det-out", "det.csv", "--hist-out", "hist.csv"]),
        ("ablate", ["ablate", "--model", model, *emb, *trials, *w.ablate,
                    "--out", "ablate.csv"]),
    ]
    return cmds


def outputs_of(argv) -> list[str]:
    outs = [argv[k + 1] for k, flag in enumerate(argv) if flag in OUTPUT_FLAGS]
    return outs + [f"{outs[0]}.manifest.json"]


def hash_and_sync(path) -> str:
    """sha256 of a file; a file of SYNC_MIN_BYTES or more is first forced to disk.

    Writing a command's large outputs back to disk before the next command
    starts keeps that write-back (300 MB after paper-chain's `synth`) out of
    the next command's measured time; it would otherwise land wherever the
    kernel's dirty-page timer puts it.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        if os.fstat(fh.fileno()).st_size >= SYNC_MIN_BYTES:
            os.fsync(fh.fileno())
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def cli_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_subprocess(argv, cwd, env):
    """One CLI command in a fresh interpreter: (exit code, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=cwd) as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "svbackend.cli", *argv],
                                cwd=cwd, env=env, stdout=log, stderr=log)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            log.seek(0)
            tail = log.read()[-2000:].decode("utf-8", "replace")
            print(f"bench: `{argv[0]}` exited {proc.returncode}:\n{tail}",
                  file=sys.stderr)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_inprocess(main, argv, cwd, tracer=None):
    """One CLI command through svbackend.cli.main: (exit code, wall s, None)."""
    prev = os.getcwd()
    os.chdir(cwd)
    log = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(log), redirect_stderr(log):
            if tracer is None:
                rc = main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", main, argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash inside the program is one failed operation
        log.write(traceback.format_exc())
        rc = 1
    finally:
        wall = time.perf_counter() - t0
        os.chdir(prev)
    if rc != 0:
        print(f"bench: in-process `{argv[0]}` returned {rc}:\n{log.getvalue()[-2000:]}",
              file=sys.stderr)
    return rc, wall, None


def fail(op, reason: str) -> None:
    if op["ok"]:
        op["ok"] = False
        op["reason"] = reason
        print(f"bench: {op['mode']} {op['kind']} (corpus {op['corpus']}) failed: {reason}",
              file=sys.stderr)


def record_op(ops, kind, corpus, mode, cwd, argv, rc, wall, rss=None):
    # a command is identified by its corpus and its primary output file
    op = {"kind": kind, "out": outputs_of(argv)[0], "corpus": corpus, "mode": mode,
          "rc": rc, "wall_s": wall, "rss_mb": rss, "ok": True, "reason": None, "hashes": {}}
    ops.append(op)
    if rc != 0:
        fail(op, f"exit {rc}")
        return op
    for name in outputs_of(argv):
        try:
            op["hashes"][name] = hash_and_sync(cwd / name)
        except OSError:
            fail(op, f"missing output {name}")
    return op


def check_quality(cwd: Path, ops) -> None:
    """Scores finite; the eval report agrees with the reference sweep."""
    score_op = next(op for op in ops if op["kind"] == "score")
    eval_op = next(op for op in ops if op["kind"] == "eval")
    if not score_op["ok"]:
        return
    try:
        scores, labels = sweep.read_labeled_scores(cwd / "scores.txt", cwd / "trials.txt")
    except (OSError, ValueError) as exc:
        fail(score_op, f"unreadable scores: {exc}")
        return
    if not np.all(np.isfinite(scores)):
        fail(score_op, "non-finite score")
        return
    if not eval_op["ok"]:
        return
    try:
        report = sweep.parse_report(cwd / "report.txt")
    except (OSError, ValueError) as exc:
        fail(eval_op, f"unreadable report: {exc}")
        return
    try:
        reference = {"eer": sweep.eer(scores, labels),
                     "min_dcf_0.01": sweep.min_dcf(scores, labels, 0.01)}
    except ValueError as exc:
        fail(eval_op, f"no reference: {exc}")
        return
    for key, value in reference.items():
        if not abs(report.get(key, math.nan) - value) <= REPORT_TOL:
            fail(eval_op, f"{key} {report.get(key)} != reference {value!r}")
    eval_op["quality"] = {key: report.get(key) for key in reference}


def compare_hashes(ops, reference_ops, label: str) -> None:
    """Fail each op whose outputs differ from the same command in `reference_ops`."""
    ref = {(op["corpus"], op["out"]): op for op in reference_ops}
    for op in ops:
        other = ref.get((op["corpus"], op["out"]))
        if op["ok"] and other is not None and other["ok"] and other["hashes"] != op["hashes"]:
            fail(op, f"output sha256 differs from the {label}")


def run_commands(commands, k: int, mode: str, cwd: Path, execute, ops):
    """Run commands one at a time in `cwd`; returns their op records."""
    return [record_op(ops, kind, k, mode, cwd, argv, *execute(argv, cwd))
            for kind, argv in commands]


def run_cli_pass(w: Workload, seed: int, pass_dir: Path, mode: str, after_setup=None):
    """Set-up plus chain for every corpus of the workload, via subprocesses."""
    env = cli_env()

    def execute(argv, cwd):
        return run_subprocess(argv, cwd, env)

    ops = []
    for k in range(w.corpora):
        cwd = pass_dir / f"c{k}"
        cwd.mkdir(parents=True)
        s = corpus_seed(seed, k)
        run_commands(setup_commands(w, s), k, mode, cwd, execute, ops)
        if after_setup is not None:
            after_setup(cwd)
        check_quality(cwd, run_commands(chain_commands(w, s), k, mode, cwd, execute, ops))
    return ops


# ---------------------------------------------------------------------------
# workload properties and environment
# ---------------------------------------------------------------------------

def corpus_properties(cwd: Path) -> dict:
    counts: dict[str, int] = {}
    with open(cwd / "emb.txt", "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split(None, 2)
            if len(fields) >= 2:
                counts[fields[1]] = counts.get(fields[1], 0) + 1
    referenced = set()
    n_trials = 0
    with open(cwd / "trials.txt", "r", encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if fields:
                referenced.update(fields[:2])
                n_trials += 1
    per_speaker = list(counts.values())
    return {
        "utterances": sum(per_speaker),
        "speakers": len(per_speaker),
        "distinct_utterance_counts": len(set(per_speaker)),
        "same_speaker_pairs": sum(m * (m - 1) // 2 for m in per_speaker),
        "trials": n_trials,
        "trial_refs_per_distinct_utterance": 2 * n_trials / max(1, len(referenced)),
        "embedding_bytes": os.path.getsize(cwd / "emb.txt"),
    }


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {key: deps["blas"].get(key)
                for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    import scipy

    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "svbackend").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def probe_import(env) -> tuple[float, str]:
    """Wall time of a fresh interpreter importing svbackend.cli, and its file."""
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", "import svbackend.cli as c; print(c.__file__)"],
        env=env, capture_output=True, text=True, timeout=60, cwd=WORK,
    )
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise RuntimeError(f"cannot import svbackend.cli:\n{out.stderr}")
    return wall, out.stdout.strip()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

END_TO_END = {
    "setup_s": "s", "chain_s": "s", "fit_s": "s", "train_s": "s", "score_s": "s",
    "eval_s": "s", "ablate_s": "s", "peak_rss_mb": "MB",
    "eer": "fraction", "min_dcf_0.01": "norm_cost",
}
_TIME_GROUPS = {
    "setup_s": SETUP_KINDS, "chain_s": CHAIN_KINDS,
    "fit_s": ("fit-lda", "fit-jb", "init-hybrid"), "train_s": ("train",),
    "score_s": ("score",), "eval_s": ("eval",), "ablate_s": ("ablate",),
}


def pass_metrics(ops) -> dict[str, float | None]:
    out = {name: sum(op["wall_s"] for op in ops if op["kind"] in kinds)
           for name, kinds in _TIME_GROUPS.items()}
    out["peak_rss_mb"] = max(op["rss_mb"] for op in ops if op["kind"] in CHAIN_KINDS)
    quality = [op.get("quality") for op in ops if op["kind"] == "eval"]
    for key in ("eer", "min_dcf_0.01"):
        values = [q[key] for q in quality if q is not None]
        out[key] = statistics.fmean(values) if len(values) == len(quality) else None
    return out


# per-layer metrics: name -> unit
SELF_TIMES = (
    "corpus.load_embeddings", "corpus.load_trials", "corpus.load_scores",
    "corpus.save_scores", "corpus.TrialList.index_arrays", "corpus.ScoreSet.with_labels",
    "corpus.sample_pair_indices", "corpus.EmbeddingSet.speaker_codes",
    "corpus.save_embeddings", "corpus.save_trials",
    "transform.fit_lda", "transform.scatter_matrices", "transform.apply_lda",
    "transform.length_normalize", "transform.load_lda",
    "jb.fit_jb_em", "jb.load_jb",
    "hybrid.sample_minibatch", "hybrid.loss_and_grad", "hybrid.adam_step", "hybrid.train",
    "hybrid.score_trials", "hybrid.forward", "hybrid.load_model", "hybrid.save_model",
    "metrics.evaluate", "metrics.write_det_csv", "metrics.score_histograms",
    "synth.generate", "synth.sample_trials",
)
PER_LAYER = {"cli.import_s": "s", "cli.self_s": "s"}
for _kind in CHAIN_KINDS:
    PER_LAYER[f"cli.{_kind}.wall_s"] = "s"
    PER_LAYER[f"cli.{_kind}.rss_mb"] = "MB"
PER_LAYER.update({f"{name}.self_s": "s" for name in SELF_TIMES})
PER_LAYER.update({
    "corpus.load_embeddings.mb_per_s": "MB/s",
    "corpus.sample_pair_indices.calls": "count",
    "corpus.sample_pair_indices.pool_pairs": "count",
    "corpus.EmbeddingSet.speaker_codes.calls": "count",
    "jb.fit_jb_em.iters": "count",
    "jb.fit_jb_em.s_per_iter": "s",
    "hybrid.loss_and_grad.pairs_per_s": "1/s",
    "hybrid.score_trials.trials_per_s": "1/s",
    "hybrid.forward.pairs": "count",
    "hybrid.restrict.calls": "count",
    "metrics.sweeps": "count",
    "trace.overhead_s": "s",
    "trace.coverage": "fraction",
})


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(cli_ops, tracer, import_s, plain_chain_s, traced_chain_s, traced_s):
    out = {"cli.import_s": import_s}
    summary = tracer.summary()
    counts = tracer.counts
    out["cli.self_s"] = sum(row["self_s"] for name, row in summary.items()
                            if name.startswith("cli."))
    for kind in CHAIN_KINDS:
        sel = [op for op in cli_ops if op["kind"] == kind]
        out[f"cli.{kind}.wall_s"] = sum(op["wall_s"] for op in sel)
        out[f"cli.{kind}.rss_mb"] = max(op["rss_mb"] for op in sel)

    def total(name):
        return summary[name]["total_s"] if name in summary else 0.0

    for name in SELF_TIMES:
        out[f"{name}.self_s"] = summary[name]["self_s"] if name in summary else 0.0
    # rates divide the work count by the span's inclusive time
    out["corpus.load_embeddings.mb_per_s"] = _rate(
        counts["corpus.load_embeddings"]["bytes"] / 1e6, total("corpus.load_embeddings"))
    out["corpus.sample_pair_indices.calls"] = counts["corpus.sample_pair_indices"]["calls"]
    out["corpus.sample_pair_indices.pool_pairs"] = (
        counts["corpus.sample_pair_indices"]["pool_pairs"])
    out["corpus.EmbeddingSet.speaker_codes.calls"] = (
        counts["corpus.EmbeddingSet.speaker_codes"]["calls"])
    iters = counts["jb.fit_jb_em"]["iters"]
    out["jb.fit_jb_em.iters"] = iters
    out["jb.fit_jb_em.s_per_iter"] = _rate(total("jb.fit_jb_em"), iters)
    out["hybrid.loss_and_grad.pairs_per_s"] = _rate(
        counts["hybrid.loss_and_grad"]["pairs"], total("hybrid.loss_and_grad"))
    out["hybrid.score_trials.trials_per_s"] = _rate(
        counts["hybrid.score_trials"]["trials"], total("hybrid.score_trials"))
    out["hybrid.forward.pairs"] = counts["hybrid.forward"]["pairs"]
    out["hybrid.restrict.calls"] = counts["hybrid.restrict"]["calls"]
    out["metrics.sweeps"] = sum(counts[f"metrics.{name}"]["calls"]
                                for name in ("compute_eer", "compute_min_dcf", "det_curve"))
    out["trace.overhead_s"] = traced_chain_s - plain_chain_s
    out["trace.coverage"] = _rate(tracer.top_level_seconds(), traced_s)
    return out


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def run_untraced(w: Workload, seed: int, seconds: int, run_dir: Path, after_setup=None):
    """Repeat the CLI chain for up to `seconds` (at least once)."""
    passes, properties = [], None
    t0 = time.perf_counter()
    while True:
        pass_dir = run_dir / f"pass{len(passes)}"
        ops = run_cli_pass(w, seed, pass_dir, f"cli pass {len(passes)}", after_setup)
        if passes:
            compare_hashes(ops, passes[0], "first repetition")
        else:
            properties = [corpus_properties(pass_dir / f"c{k}") for k in range(w.corpora)]
        shutil.rmtree(pass_dir)
        passes.append(ops)
        elapsed = time.perf_counter() - t0
        if elapsed / len(passes) * (len(passes) + 1) > seconds:
            break
    per_pass = [pass_metrics(ops) for ops in passes]
    metrics = {}
    for name in END_TO_END:
        values = [p[name] for p in per_pass]
        metrics[name] = None if None in values else statistics.median(values)
    ops = [op for p in passes for op in p]
    return ops, metrics, {"repetitions": per_pass, "properties": properties}


def _link_setup(src_dir: Path, dst_dir: Path) -> None:
    dst_dir.mkdir(parents=True)
    for path in src_dir.iterdir():
        os.link(path, dst_dir / path.name)


def run_traced(w: Workload, seed: int, run_dir: Path, after_setup=None):
    """Traced in-process set-up, then the chain on its files three ways:
    through the CLI, in-process untraced, and in-process traced."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import svbackend.cli

    main = svbackend.cli.main
    tracer = spans.Tracer("svbackend")

    def traced(argv, cwd):
        tracer.run_id = f"{cwd.name}:{argv[0]}"
        with tracer:
            return run_inprocess(main, argv, cwd, tracer)

    ops = []
    for k in range(w.corpora):
        cwd = run_dir / "setup" / f"c{k}"
        cwd.mkdir(parents=True)
        run_commands(setup_commands(w, corpus_seed(seed, k)), k, "traced", cwd, traced, ops)
        if after_setup is not None:
            after_setup(cwd)
    properties = [corpus_properties(run_dir / "setup" / f"c{k}") for k in range(w.corpora)]
    import_s = statistics.median(probe_import(cli_env())[0] for _ in range(IMPORT_PROBES))

    env = cli_env()
    modes = {
        "cli": lambda argv, cwd: run_subprocess(argv, cwd, env),
        "in-process": lambda argv, cwd: run_inprocess(main, argv, cwd),
        "traced": traced,
    }
    chains = {}
    for mode, execute in modes.items():
        chains[mode] = []
        for k in range(w.corpora):
            cwd = run_dir / mode / f"c{k}"
            _link_setup(run_dir / "setup" / f"c{k}", cwd)
            corpus_ops = run_commands(chain_commands(w, corpus_seed(seed, k)), k, mode, cwd,
                                      execute, chains[mode])
            if mode == "cli":
                check_quality(cwd, corpus_ops)
        if mode != "cli":
            compare_hashes(chains[mode], chains["cli"], f"CLI run (vs {mode} run)")

    def chain_wall(mode_ops):
        return sum(op["wall_s"] for op in mode_ops)

    traced_s = chain_wall(chains["traced"]) + sum(op["wall_s"] for op in ops)
    metrics = layer_metrics(chains["cli"], tracer, import_s, chain_wall(chains["in-process"]),
                            chain_wall(chains["traced"]), traced_s)
    ops += [op for mode_ops in chains.values() for op in mode_ops]
    return ops, metrics, {"properties": properties, "tracer": tracer}


def run(workload: Workload, seed: int, seconds: int, trace: bool, after_setup=None) -> dict:
    """One benchmark run; returns the full record."""
    run_dir = WORK / "runs" / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = cli_env()
    _, imported = probe_import(env)
    if Path(imported).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"svbackend.cli resolved to {imported}, not under {SRC}")
    try:
        if trace:
            ops, metrics, extra = run_traced(workload, seed, run_dir, after_setup)
            units = PER_LAYER
        else:
            ops, metrics, extra = run_untraced(workload, seed, seconds, run_dir, after_setup)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    failed = sum(1 for op in ops if not op["ok"])
    return {
        "result": {
            "correct": failed == 0,
            "attempted": len(ops),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        },
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "operations": [{k: v for k, v in op.items() if k != "hashes"} for op in ops],
        **extra,
    }


def main(argv=None) -> int:
    all_workloads = workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(all_workloads), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "svbackend" / "cli.py").is_file():
        print(f"bench: no svbackend sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    record = run(all_workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir = WORK / "results"
    out_dir.mkdir(exist_ok=True)
    tracer = record.pop("tracer", None)
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.json")
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"record: {out_dir / f'{stem}.json'}")
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
