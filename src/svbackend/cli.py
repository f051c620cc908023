"""Command-line front end composing the pipeline into reproducible runs.

Every command writes a JSON manifest next to its primary output recording
the resolved configuration, seed, inputs, and outputs; `replay <manifest>`
re-executes the recorded invocation. Exit codes: 0 success, 1 usage
error, 2 data or numeric error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, corpus, hybrid, jb, metrics, synth, transform
from .errors import ConfigError, ParseError, SvBackendError


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _write_manifest(args, outputs, inputs=()):
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command")
    }
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "argv": [args.command] + _rebuild_argv(args, os.path.dirname(outputs[0]) or "."),
    }
    path = f"{outputs[0]}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# File arguments; a manifest records them relative to its own directory.
_PATH_ARGS = {"embeddings", "lda", "jb", "model", "trials", "scores",
              "out", "truth_out", "history_out", "det_out", "hist_out"}


def _rebuild_argv(args, manifest_dir):
    argv = []
    for key, value in sorted(vars(args).items()):
        if key in ("func", "command") or value is None:
            continue
        if key in _PATH_ARGS and not os.path.isabs(value):
            value = os.path.relpath(value, manifest_dir)
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, (list, tuple)):
            for item in value:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(value)])
    return argv


def _parse_cov_spec(text: str, default_seed: int):
    """Recipe grammar: isotropic:VAR | diagonal:v1,v2,... | random-spd:SEED:CAP."""
    kind, _, rest = text.partition(":")
    try:
        if kind == "isotropic":
            return synth.Isotropic(float(rest or 1.0))
        if kind == "diagonal":
            return synth.Diagonal(tuple(float(tok) for tok in rest.split(",")))
        if kind == "random-spd":
            parts = rest.split(":") if rest else []
            seed = int(parts[0]) if parts and parts[0] else default_seed
            cap = float(parts[1]) if len(parts) > 1 else 100.0
            return synth.RandomSpd(seed=seed, cond_cap=cap)
    except ValueError:
        raise ConfigError(f"bad covariance recipe {text!r}") from None
    raise ConfigError(f"unknown covariance recipe kind {kind!r}")


def _cmd_synth(args):
    cu = _parse_cov_spec(args.cu, args.seed + 1)
    cn = _parse_cov_spec(args.cn, args.seed + 2)
    mismatch = None
    if args.mismatch == "heavy-tail":
        mismatch = synth.HeavyTail(dof=args.dof)
    elif args.mismatch == "channel-shift":
        mismatch = synth.ChannelShift(
            fraction=args.shift_fraction, offset_norm=args.shift_norm
        )
    utts = args.utts
    try:
        if ":" in utts:
            lo, hi = utts.split(":", maxsplit=1)
            utts_per_speaker = (int(lo), int(hi))
        else:
            utts_per_speaker = int(utts)
    except ValueError:
        raise ConfigError(f"bad utterance count {utts!r} (expected N or LO:HI)") from None
    cfg = synth.SynthConfig(
        n_speakers=args.speakers,
        utts_per_speaker=utts_per_speaker,
        dim=args.dim,
        cu_spec=cu,
        cn_spec=cn,
        mismatch=mismatch,
        seed=args.seed,
    )
    embeddings, (c_u, c_n) = synth.generate(cfg)
    corpus.save_embeddings(embeddings, args.out)
    outputs = [args.out]
    if args.truth_out:
        jb.save_jb(synth.ground_truth_model(c_u, c_n), args.truth_out)
        outputs.append(args.truth_out)
    _write_manifest(args, outputs)


def _cmd_make_trials(args):
    embeddings = corpus.load_embeddings(args.embeddings)
    trials = synth.sample_trials(embeddings, args.n, args.pos_fraction, args.seed)
    corpus.save_trials(trials, args.out)
    _write_manifest(args, [args.out], inputs=[args.embeddings])


def _cmd_fit_lda(args):
    embeddings = corpus.load_embeddings(args.embeddings)
    fitted = transform.fit_lda(embeddings, args.dim, pre_normalize=args.pre_normalize)
    transform.save_lda(fitted, args.out)
    _write_manifest(args, [args.out], inputs=[args.embeddings])


def _pipeline_vectors(embeddings, lda):
    return transform.length_normalize(transform.apply_lda(lda, embeddings.vectors))


def _cmd_fit_jb(args):
    embeddings = corpus.load_embeddings(args.embeddings)
    lda = transform.load_lda(args.lda)
    vectors = _pipeline_vectors(embeddings, lda)
    cfg = jb.EmConfig(
        max_iters=args.max_iters,
        rel_tol=args.rel_tol,
        verbose=args.verbose,
        drop_posterior_cov=args.em_like,
    )
    model = jb.fit_jb_em(vectors, embeddings.speaker_codes(), cfg)
    jb.save_jb(model, args.out)
    _write_manifest(args, [args.out], inputs=[args.embeddings, args.lda])


def _cmd_init_hybrid(args):
    variant = hybrid.Variant(args.variant)
    if args.init == "jb":
        if not args.lda or not args.jb:
            raise ConfigError("--init jb needs --lda and --jb")
        model = hybrid.init_from_generative(
            transform.load_lda(args.lda), jb.load_jb(args.jb), variant
        )
        inputs = [args.lda, args.jb]
    else:
        if not args.input_dim or not args.dim:
            raise ConfigError("--init random needs --input-dim and --dim")
        model = hybrid.init_random(args.input_dim, args.dim, args.seed, variant)
        inputs = []
    hybrid.save_model(model, args.out)
    _write_manifest(args, [args.out], inputs=inputs)


def _cmd_train(args):
    model = hybrid.load_model(args.model)
    embeddings = corpus.load_embeddings(args.embeddings)
    loss_cfg = hybrid.LossConfig(
        kind=hybrid.LossKind(args.loss),
        p_tar=args.p_tar,
        c_miss=args.c_miss,
        c_fa=args.c_fa,
        w_s=args.w_s,
    )
    train_cfg = hybrid.TrainConfig(
        lr=args.lr,
        batch_size=args.batch_size,
        epochs=args.epochs,
        pos_fraction=args.pos_fraction,
        split=args.split,
        seed=args.seed,
        freeze=frozenset(args.freeze.split(",")) if args.freeze else frozenset(),
    )
    trained, history = hybrid.train(model, embeddings, train_cfg, loss_cfg)
    hybrid.save_model(trained, args.out)
    outputs = [args.out]
    if args.history_out:
        hybrid.write_history_csv(history, args.history_out)
        outputs.append(args.history_out)
    _write_manifest(args, outputs, inputs=[args.model, args.embeddings])


def _cmd_score(args):
    model = hybrid.load_model(args.model)
    embeddings = corpus.load_embeddings(args.embeddings)
    trials = corpus.load_trials(args.trials, embeddings)
    scores = hybrid.score_trials(model, embeddings, trials)
    corpus.save_scores(scores, args.out)
    _write_manifest(args, [args.out], inputs=[args.model, args.embeddings, args.trials])


def _cmd_eval(args):
    scores = corpus.load_scores(args.scores)
    trials = corpus.load_trials(args.trials)
    labeled = scores.with_labels(trials)
    p_tars = tuple(args.p_tar) if args.p_tar else (0.01, 0.001)
    report = metrics.evaluate(labeled, p_tars, args.c_miss, args.c_fa)
    line = metrics.summary_line(report)
    print(line)
    outputs = [args.out]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    if args.det_out:
        metrics.write_det_csv(report.det, args.det_out)
        outputs.append(args.det_out)
    if args.hist_out:
        edges, same_counts, diff_counts = metrics.score_histograms(labeled, args.bins)
        metrics.write_histogram_csv(edges, same_counts, diff_counts, args.hist_out)
        outputs.append(args.hist_out)
    _write_manifest(args, outputs, inputs=[args.scores, args.trials])


_ABLATE_SETTINGS = ("full", "a-only", "g-only", "g-from-a", "a-from-g")


def _cmd_ablate(args):
    model = hybrid.load_model(args.model)
    embeddings = corpus.load_embeddings(args.embeddings)
    trials = corpus.load_trials(args.trials, embeddings)
    settings = (args.mode,) if args.mode else _ABLATE_SETTINGS
    rows = []
    scored = hybrid.score_ablation(model, embeddings, trials, settings)
    for setting, labeled in zip(settings, scored):
        report = metrics.evaluate(labeled, (0.01, 0.001), args.c_miss, args.c_fa)
        dcf1 = report.min_dcf[(0.01, args.c_miss, args.c_fa)][1]
        dcf2 = report.min_dcf[(0.001, args.c_miss, args.c_fa)][1]
        rows.append((setting, report.eer, dcf1, dcf2))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("setting,eer,min_dcf_0.01,min_dcf_0.001\n")
        for setting, eer, dcf1, dcf2 in rows:
            fh.write(f"{setting},{eer:.6f},{dcf1:.6f},{dcf2:.6f}\n")
    for setting, eer, dcf1, dcf2 in rows:
        print(f"{setting}: EER={eer:.6f} minDCF(0.01)={dcf1:.6f} minDCF(0.001)={dcf2:.6f}")
    _write_manifest(args, [args.out], inputs=[args.model, args.embeddings, args.trials])


def _cmd_replay(args):
    with corpus.open_text(args.manifest) as fh:
        try:
            manifest = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{args.manifest}: not a JSON manifest ({exc})") from None
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise ParseError(f"{args.manifest}: no 'argv' list of strings")
    replayed = _build_parser().parse_args(argv)
    for key, value in list(vars(replayed).items()):
        if key in _PATH_ARGS and value is not None:
            setattr(replayed, key, os.path.join(os.path.dirname(args.manifest), value))
    return replayed.func(replayed)


def _build_parser() -> _Parser:
    parser = _Parser(prog="svbackend", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic embedding corpus")
    p.add_argument("--speakers", type=int, required=True)
    p.add_argument("--utts", default="10", help="count or lo:hi range per speaker")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cu", default="isotropic:1.0", help="speaker covariance recipe")
    p.add_argument("--cn", default="isotropic:1.0", help="noise covariance recipe")
    p.add_argument("--mismatch", choices=["none", "heavy-tail", "channel-shift"], default="none")
    p.add_argument("--dof", type=float, default=4.0)
    p.add_argument("--shift-fraction", type=float, default=0.5)
    p.add_argument("--shift-norm", type=float, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("make-trials", help="sample a labeled trial list")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--pos-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_make_trials)

    p = sub.add_parser("fit-lda", help="fit the discriminant projection")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--pre-normalize", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_lda)

    p = sub.add_parser("fit-jb", help="fit speaker/noise covariances by EM")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--lda", required=True)
    p.add_argument("--max-iters", type=int, default=200)
    p.add_argument("--rel-tol", type=float, default=1e-6)
    p.add_argument("--em-like", action="store_true",
                   help="drop the posterior covariance terms in the M-step")
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fit_jb)

    p = sub.add_parser("init-hybrid", help="build the trainable pairwise model")
    p.add_argument("--init", choices=["jb", "random"], default="jb")
    p.add_argument("--lda", default=None)
    p.add_argument("--jb", default=None)
    p.add_argument("--input-dim", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--variant", choices=[v.value for v in hybrid.Variant],
                   default="two-branch")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_init_hybrid)

    p = sub.add_parser("train", help="fine-tune the pairwise model")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--loss", choices=[k.value for k in hybrid.LossKind], default="dem")
    p.add_argument("--p-tar", type=float, default=0.01)
    p.add_argument("--c-miss", type=float, default=1.0)
    p.add_argument("--c-fa", type=float, default=1.0)
    p.add_argument("--w-s", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=4096)
    p.add_argument("--lr", type=float, default=5e-4)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--pos-fraction", type=float, default=0.1)
    p.add_argument("--split", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--freeze", default=None, help="comma-separated parameter names")
    p.add_argument("--out", required=True)
    p.add_argument("--history-out", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score a trial list")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("eval", help="EER / minDCF / DET report from scores")
    p.add_argument("--scores", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--p-tar", type=float, action="append", default=None,
                   help="repeatable; default 0.01 and 0.001")
    p.add_argument("--c-miss", type=float, default=1.0)
    p.add_argument("--c-fa", type=float, default=1.0)
    p.add_argument("--out", required=True, help="summary text file")
    p.add_argument("--det-out", default=None)
    p.add_argument("--hist-out", default=None)
    p.add_argument("--bins", type=int, default=50)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="score the branch-restricted settings")
    p.add_argument("--model", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--mode", choices=[m.value for m in hybrid.RestrictMode], default=None)
    p.add_argument("--c-miss", type=float, default=1.0)
    p.add_argument("--c-fa", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("replay", help="re-run a recorded manifest")
    p.add_argument("manifest")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except SvBackendError as exc:
        print(f"svbackend {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"svbackend {args.command}: i/o error: {exc}", file=sys.stderr)
        return 2
    except np.linalg.LinAlgError as exc:
        print(f"svbackend {args.command}: numeric error: {exc}", file=sys.stderr)
        return 2
    return int(result) if result is not None else 0


if __name__ == "__main__":
    sys.exit(main())
