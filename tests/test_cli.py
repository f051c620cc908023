import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svbackend
from svbackend import cli, corpus, hybrid, jb, transform


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture()
def corpus_files(tmp_path):
    emb = tmp_path / "emb.txt"
    truth = tmp_path / "truth.txt"
    assert run(
        "synth", "--speakers", 60, "--utts", 10, "--dim", 6, "--seed", 7,
        "--cu", "diagonal:5.0,5.4,5.8,6.2,6.6,7.0", "--cn", "isotropic:1.0",
        "--out", emb, "--truth-out", truth,
    ) == 0
    trials = tmp_path / "trials.txt"
    assert run(
        "make-trials", "--embeddings", emb, "--n", 400, "--pos-fraction", 0.5,
        "--seed", 3, "--out", trials,
    ) == 0
    return emb, truth, trials


class TestSynthCommand:
    def test_writes_files_and_manifest(self, corpus_files, tmp_path):
        emb, truth, _ = corpus_files
        loaded = corpus.load_embeddings(emb)
        assert len(loaded) == 600 and loaded.dim == 6
        model = jb.load_jb(truth)
        assert model.dim == 6
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["command"] == "synth"

    def test_deterministic(self, tmp_path):
        args = ["synth", "--speakers", 10, "--utts", 4, "--dim", 3,
                "--seed", 5, "--out"]
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(*args, a) == 0
        assert run(*args, b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_too_few_speakers_exits_2(self, tmp_path, capsys):
        code = run("synth", "--speakers", 1, "--utts", 4, "--dim", 3,
                   "--out", tmp_path / "x.txt")
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--speakers", 5)  # missing required args
        assert exc.value.code == 1

    def test_missing_input_file_exits_2(self, tmp_path, capsys):
        code = run("eval", "--scores", tmp_path / "none.txt",
                   "--trials", tmp_path / "none2.txt", "--out", tmp_path / "r.txt")
        assert code == 2
        assert "i/o error" in capsys.readouterr().err


class TestPipelineCommands:
    def test_full_chain(self, corpus_files, tmp_path, capsys):
        emb, truth, trials = corpus_files
        lda = tmp_path / "lda.txt"
        assert run("fit-lda", "--embeddings", emb, "--dim", 6, "--out", lda) == 0
        fitted = transform.load_lda(lda)
        assert fitted.W.shape == (6, 6)

        jbm = tmp_path / "jb.txt"
        assert run("fit-jb", "--embeddings", emb, "--lda", lda, "--out", jbm) == 0
        model = jb.load_jb(jbm)
        model.validate()

        net = tmp_path / "net.txt"
        assert run("init-hybrid", "--init", "jb", "--lda", lda, "--jb", jbm,
                   "--out", net) == 0
        loaded_net = hybrid.load_model(net)
        assert loaded_net.alpha == 1.0 and loaded_net.beta == 0.0

        trained = tmp_path / "trained.txt"
        history = tmp_path / "history.csv"
        assert run(
            "train", "--model", net, "--embeddings", emb, "--loss", "dem",
            "--p-tar", 0.5, "--batch-size", 256, "--epochs", 2, "--lr", 5e-4,
            "--pos-fraction", 0.3, "--seed", 11,
            "--out", trained, "--history-out", history,
        ) == 0
        lines = history.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss"
        assert len(lines) == 4  # epoch-0 row plus two epochs

        scores = tmp_path / "scores.txt"
        assert run("score", "--model", trained, "--embeddings", emb,
                   "--trials", trials, "--out", scores) == 0
        loaded_scores = corpus.load_scores(scores)
        assert len(loaded_scores) == 400

        report = tmp_path / "report.txt"
        det = tmp_path / "det.csv"
        hist = tmp_path / "hist.csv"
        assert run(
            "eval", "--scores", scores, "--trials", trials,
            "--p-tar", 0.01, "--p-tar", 0.001,
            "--out", report, "--det-out", det, "--hist-out", hist, "--bins", 20,
        ) == 0
        out = capsys.readouterr().out
        assert "EER=" in out and "minDCF(0.01)=" in out and "minDCF(0.001)=" in out
        assert report.read_text().startswith("EER=")
        assert det.read_text().splitlines()[0] == "p_fa,p_miss,threshold"
        assert len(hist.read_text().splitlines()) == 21

    def test_score_matches_library_path(self, corpus_files, tmp_path):
        emb, truth, trials = corpus_files
        lda = tmp_path / "lda.txt"
        jbm = tmp_path / "jb.txt"
        net = tmp_path / "net.txt"
        scores = tmp_path / "scores.txt"
        run("fit-lda", "--embeddings", emb, "--dim", 4, "--out", lda)
        run("fit-jb", "--embeddings", emb, "--lda", lda, "--out", jbm)
        run("init-hybrid", "--lda", lda, "--jb", jbm, "--out", net)
        run("score", "--model", net, "--embeddings", emb, "--trials", trials,
            "--out", scores)
        embeddings = corpus.load_embeddings(emb)
        fitted = transform.load_lda(lda)
        model = jb.load_jb(jbm)
        projected = transform.length_normalize(
            transform.apply_lda(fitted, embeddings.vectors)
        )
        trial_list = corpus.load_trials(trials, embeddings)
        enroll, test = trial_list.index_arrays(embeddings)
        reference = jb.score_llr(model, projected[enroll], projected[test])
        loaded = corpus.load_scores(scores)
        assert np.abs(loaded.scores - reference).max() < 1e-10

    def test_dimension_mismatch_exits_2(self, corpus_files, tmp_path, capsys):
        emb, _, _ = corpus_files
        other = tmp_path / "other.txt"
        run("synth", "--speakers", 10, "--utts", 3, "--dim", 4, "--out", other)
        lda = tmp_path / "lda.txt"
        run("fit-lda", "--embeddings", other, "--dim", 3, "--out", lda)
        code = run("fit-jb", "--embeddings", emb, "--lda", lda,
                   "--out", tmp_path / "jb.txt")
        assert code == 2


class TestAblateCommand:
    def test_table_rows(self, corpus_files, tmp_path, capsys):
        emb, truth, trials = corpus_files
        lda = tmp_path / "lda.txt"
        jbm = tmp_path / "jb.txt"
        net = tmp_path / "net.txt"
        run("fit-lda", "--embeddings", emb, "--dim", 5, "--out", lda)
        run("fit-jb", "--embeddings", emb, "--lda", lda, "--out", jbm)
        run("init-hybrid", "--lda", lda, "--jb", jbm, "--out", net)
        table = tmp_path / "ablate.csv"
        assert run("ablate", "--model", net, "--embeddings", emb,
                   "--trials", trials, "--out", table) == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "setting,eer,min_dcf_0.01,min_dcf_0.001"
        settings = [line.split(",")[0] for line in lines[1:]]
        assert settings == ["full", "a-only", "g-only", "g-from-a", "a-from-g"]

    def test_single_mode(self, corpus_files, tmp_path):
        emb, truth, trials = corpus_files
        lda = tmp_path / "lda.txt"
        jbm = tmp_path / "jb.txt"
        net = tmp_path / "net.txt"
        run("fit-lda", "--embeddings", emb, "--dim", 5, "--out", lda)
        run("fit-jb", "--embeddings", emb, "--lda", lda, "--out", jbm)
        run("init-hybrid", "--lda", lda, "--jb", jbm, "--out", net)
        table = tmp_path / "ablate.csv"
        assert run("ablate", "--model", net, "--embeddings", emb,
                   "--trials", trials, "--mode", "g-only", "--out", table) == 0
        lines = table.read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("g-only,")


class TestNonFiniteFlags:
    def test_eval_nan_cost_exits_2(self, corpus_files, tmp_path, capsys):
        emb, truth, trials = corpus_files
        scores = tmp_path / "scores.txt"
        model = hybrid.init_random(6, 3, seed=1)
        hybrid.save_model(model, tmp_path / "net.txt")
        assert run("score", "--model", tmp_path / "net.txt", "--embeddings", emb,
                   "--trials", trials, "--out", scores) == 0
        for cost in ("nan", "inf"):
            assert run("eval", "--scores", scores, "--trials", trials, "--c-miss", cost,
                       "--out", tmp_path / "report.txt") == 2
            captured = capsys.readouterr()
            assert "minDCF" not in captured.out and "invalid costs" in captured.err

    def test_train_nan_learning_rate_exits_2(self, corpus_files, tmp_path, capsys):
        emb, _, _ = corpus_files
        hybrid.save_model(hybrid.init_random(6, 3, seed=1), tmp_path / "net.txt")
        assert run("train", "--model", tmp_path / "net.txt", "--embeddings", emb,
                   "--lr", "nan", "--out", tmp_path / "out.txt") == 2
        assert "lr must be finite" in capsys.readouterr().err


    def test_fit_jb_infinite_rel_tol_exits_2(self, corpus_files, tmp_path, capsys):
        emb, _, _ = corpus_files
        lda = tmp_path / "lda.txt"
        assert run("fit-lda", "--embeddings", emb, "--dim", 4, "--out", lda) == 0
        assert run("fit-jb", "--embeddings", emb, "--lda", lda, "--rel-tol", "inf",
                   "--out", tmp_path / "jb.txt") == 2
        assert "rel_tol must be finite" in capsys.readouterr().err
        assert not (tmp_path / "jb.txt").exists()

    def test_synth_infinite_condition_cap_exits_2(self, tmp_path, capsys):
        assert run("synth", "--speakers", 5, "--dim", 2, "--cn", "random-spd:1:inf",
                   "--out", tmp_path / "emb.txt") == 2
        assert "condition cap inf must be finite" in capsys.readouterr().err


class TestNonFiniteSynthRecipes:
    @pytest.mark.parametrize("flags, message", [
        (["--cu", "isotropic:nan"], "Isotropic variance nan must be finite"),
        (["--cu", "diagonal:inf,1"], "Diagonal values inf must be finite"),
        (["--dof", "inf", "--mismatch", "heavy-tail"], "HeavyTail dof inf must be finite"),
        (["--shift-norm", "nan", "--mismatch", "channel-shift"],
         "ChannelShift offset_norm nan must be finite"),
    ])
    def test_exits_2_naming_the_value(self, tmp_path, capsys, flags, message):
        assert run("synth", "--speakers", 5, "--dim", 2, *flags,
                   "--out", tmp_path / "emb.txt") == 2
        err = capsys.readouterr().err
        assert message in err and "embedding vectors" not in err
        assert not (tmp_path / "emb.txt").exists()


class TestNonUtf8Input:
    def test_fit_lda_exits_2(self, tmp_path, capsys):
        emb = tmp_path / "emb.txt"
        emb.write_bytes(b"u1 a 1 2\nu2 \xff 3 4\n")
        assert run("fit-lda", "--embeddings", emb, "--dim", 1,
                   "--out", tmp_path / "lda.txt") == 2
        assert "emb.txt: not UTF-8 text" in capsys.readouterr().err


class TestSidecarTransparency:
    """The binary sidecar of an embedding file changes no output."""

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
        ["train", "--model", "net.txt", "--embeddings", "emb.txt", "--loss", "dem",
         "--p-tar", "0.5", "--batch-size", "256", "--epochs", "3", "--pos-fraction", "0.3",
         "--seed", "11", "--out", "trained.txt", "--history-out", "history.csv"],
        ["score", "--model", "trained.txt", "--embeddings", "emb.txt",
         "--trials", "trials.txt", "--out", "scores.txt"],
        ["eval", "--scores", "scores.txt", "--trials", "trials.txt", "--out", "report.txt",
         "--det-out", "det.csv", "--hist-out", "hist.csv"],
        ["ablate", "--model", "trained.txt", "--embeddings", "emb.txt",
         "--trials", "trials.txt", "--out", "ablate.csv"],
    ]

    def chain(self, root, monkeypatch, drop_sidecars):
        root.mkdir()
        monkeypatch.chdir(root)  # relative paths make the manifests comparable
        for argv in self.STEPS:
            if drop_sidecars:
                for sidecar in root.glob("*.npz"):
                    sidecar.unlink()
            assert cli.main(argv) == 0, argv[0]
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.iterdir()) if p.suffix != ".npz"
        }

    def test_outputs_identical_without_sidecars(self, tmp_path, monkeypatch):
        parse, parsed = corpus._parse_embeddings, []
        monkeypatch.setattr(corpus, "_parse_embeddings",
                            lambda path: parsed.append(path) or parse(path))
        kept = self.chain(tmp_path / "kept", monkeypatch, drop_sidecars=False)
        assert parsed == []  # synth's sidecar served every later command
        dropped = self.chain(tmp_path / "dropped", monkeypatch, drop_sidecars=True)
        assert len(parsed) == 6  # one parse per command that reads emb.txt
        assert len(kept) == 22 and kept == dropped


class TestScoreDimensionMismatch:
    @pytest.mark.parametrize("dim", [1, 4])
    def test_score_and_ablate_exit_2(self, corpus_files, tmp_path, capsys, dim):
        emb, _, trials = corpus_files
        net = tmp_path / "net.txt"
        hybrid.save_model(hybrid.init_random(6, 3, seed=1), net)
        other = tmp_path / "other.txt"  # same ids, first `dim` values only
        other.write_text("".join(
            " ".join(line.split()[: 2 + dim]) + "\n"
            for line in emb.read_text().splitlines()))
        assert run("score", "--model", net, "--embeddings", other,
                   "--trials", trials, "--out", tmp_path / "scores.txt") == 2
        assert "input dimension 6" in capsys.readouterr().err
        assert not (tmp_path / "scores.txt").exists()
        assert run("ablate", "--model", net, "--embeddings", other,
                   "--trials", trials, "--out", tmp_path / "ablate.csv") == 2
        assert "input dimension 6" in capsys.readouterr().err


class TestReplay:
    def test_replay_reproduces_output(self, tmp_path):
        emb = tmp_path / "emb.txt"
        run("synth", "--speakers", 8, "--utts", 3, "--dim", 3, "--seed", 9,
            "--out", emb)
        first = emb.read_bytes()
        emb.unlink()
        assert run("replay", tmp_path / "emb.txt.manifest.json") == 0
        assert emb.read_bytes() == first


    def test_replay_from_another_directory(self, tmp_path, monkeypatch, corpus_files):
        emb, _, trials = corpus_files
        sub = tmp_path / "t"
        sub.mkdir()
        monkeypatch.chdir(sub)  # recorded with paths relative to t/
        assert run("fit-lda", "--embeddings", "../emb.txt", "--dim", 4, "--out", "lda.txt") == 0
        assert run("score", "--model", "net.txt", "--embeddings", "../emb.txt",
                   "--trials", "../trials.txt", "--out", "e.txt") == 2  # no net.txt yet
        hybrid.save_model(hybrid.init_random(6, 3, seed=1), sub / "net.txt")
        assert run("score", "--model", "net.txt", "--embeddings", "../emb.txt",
                   "--trials", "../trials.txt", "--out", "e.txt") == 0
        first = {name: (sub / name).read_bytes() for name in ("lda.txt", "e.txt")}
        for name in first:
            (sub / name).unlink()
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert run("replay", "../t/lda.txt.manifest.json") == 0
        assert run("replay", sub / "e.txt.manifest.json") == 0
        assert {name: (sub / name).read_bytes() for name in first} == first
        assert list(elsewhere.iterdir()) == []

    @pytest.mark.parametrize("content", [b"not json", b'{"argv": 5}', b"[]", b"\xff"])
    def test_malformed_manifest_exits_2(self, tmp_path, capsys, content):
        manifest = tmp_path / "m.json"
        manifest.write_bytes(content)
        assert run("replay", manifest) == 2
        assert "m.json: " in capsys.readouterr().err


class TestMahalanobisVariant:
    def test_init_and_score(self, corpus_files, tmp_path):
        emb, truth, trials = corpus_files
        lda = tmp_path / "lda.txt"
        jbm = tmp_path / "jb.txt"
        net = tmp_path / "net.txt"
        run("fit-lda", "--embeddings", emb, "--dim", 5, "--out", lda)
        run("fit-jb", "--embeddings", emb, "--lda", lda, "--out", jbm)
        assert run("init-hybrid", "--lda", lda, "--jb", jbm,
                   "--variant", "mahalanobis", "--out", net) == 0
        loaded = hybrid.load_model(net)
        assert loaded.variant is hybrid.Variant.MAHALANOBIS
        scores = tmp_path / "scores.txt"
        assert run("score", "--model", net, "--embeddings", emb,
                   "--trials", trials, "--out", scores) == 0
        assert np.all(corpus.load_scores(scores).scores <= 0.0)  # negated distance



SCIPY_MODULES = 'sorted(m for m in sys.modules if m.split(".")[0] == "scipy")'


def fresh_run(code, *argv, cwd):
    """Run `code` with `argv` in a fresh interpreter; its last stdout line as JSON."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(svbackend.__file__))}
    out = subprocess.run([sys.executable, "-c", code, *map(str, argv)], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def test_no_module_imports_scipy():
    # scipy is a test-only dependency: no import of it anywhere in the
    # package, at module level or inside a function
    root = Path(svbackend.__file__).parent
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), \
                f"{path.name}:{node.lineno} imports scipy"


class TestScipyLoading:
    """The package runs on numpy alone: no command loads scipy."""

    @pytest.fixture(scope="class")
    def chain_dir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("chain")
        steps = [
            ["synth", "--speakers", 20, "--utts", 4, "--dim", 4, "--seed", 2,
             "--out", "emb.txt"],
            ["make-trials", "--embeddings", "emb.txt", "--n", 100, "--pos-fraction", 0.5,
             "--seed", 3, "--out", "trials.txt"],
            ["fit-lda", "--embeddings", "emb.txt", "--dim", 3, "--out", "lda.txt"],
            ["fit-jb", "--embeddings", "emb.txt", "--lda", "lda.txt", "--out", "jb.txt"],
            ["init-hybrid", "--lda", "lda.txt", "--jb", "jb.txt", "--out", "net.txt"],
            ["score", "--model", "net.txt", "--embeddings", "emb.txt",
             "--trials", "trials.txt", "--out", "scores.txt"],
            ["eval", "--scores", "scores.txt", "--trials", "trials.txt",
             "--out", "report.txt"],
        ]
        cwd = os.getcwd()
        os.chdir(d)
        try:
            for argv in steps:
                assert run(*argv) == 0, argv[0]
        finally:
            os.chdir(cwd)
        return d

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        code = f"import json, sys, svbackend.cli; print(json.dumps({SCIPY_MODULES}))"
        assert fresh_run(code, cwd=tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["synth", "--speakers", 20, "--utts", 4, "--dim", 4, "--seed", 2, "--out", "e2.txt"],
        ["make-trials", "--embeddings", "emb.txt", "--n", 100, "--pos-fraction", 0.5,
         "--seed", 3, "--out", "t2.txt"],
        ["score", "--model", "net.txt", "--embeddings", "emb.txt", "--trials", "trials.txt",
         "--out", "s2.txt"],
        ["eval", "--scores", "scores.txt", "--trials", "trials.txt", "--out", "r2.txt",
         "--det-out", "det2.csv", "--hist-out", "hist2.csv"],
        ["ablate", "--model", "net.txt", "--embeddings", "emb.txt", "--trials", "trials.txt",
         "--out", "a2.csv"],
        ["replay", "report.txt.manifest.json"],
        ["synth", "--speakers", 20, "--utts", 4, "--dim", 4, "--seed", 2, "--out", "e3.txt",
         "--truth-out", "truth3.txt"],
        ["fit-lda", "--embeddings", "emb.txt", "--dim", 3, "--out", "l2.txt"],
        ["fit-jb", "--embeddings", "emb.txt", "--lda", "lda.txt", "--out", "j2.txt"],
        ["init-hybrid", "--lda", "lda.txt", "--jb", "jb.txt", "--out", "n2.txt"],
        ["train", "--model", "net.txt", "--embeddings", "emb.txt", "--batch-size", 32,
         "--epochs", 2, "--seed", 1, "--out", "tr2.txt"],
    ], ids=lambda argv: argv[0] + ("-truth-out" if "--truth-out" in argv else ""))
    def test_command_runs_without_scipy(self, chain_dir, argv):
        code = ("import json, sys\nfrom svbackend.cli import main\n"
                f"rc = main(sys.argv[1:])\nprint(json.dumps([rc, {SCIPY_MODULES}]))")
        assert fresh_run(code, *argv, cwd=chain_dir) == [0, []]
