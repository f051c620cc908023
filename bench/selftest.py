#!/usr/bin/env python3
"""Self-test of the benchmark at toy size; takes under a minute.

    python3 bench/selftest.py

Runs every workload's chain untraced and traced on toy inputs and checks
that every metric of BENCHMARK.json is reported with its unit, that
untraced and traced outputs hash the same, that a corrupted input file
is counted as a failed operation rather than crashing the benchmark, that
a differing output hash fails its operation, that the reference sweep
matches a literal per-threshold count, and that the benchmark refuses to
run where the svbackend sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import numpy as np

import run
import sweep

CHECKS = []


def check(ok: bool, what: str) -> None:
    CHECKS.append((ok, what))
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    printed = result["metrics"]
    check(set(printed) == {m["name"] for m in declared},
          f"{label}: printed metric names match BENCHMARK.json")
    for m in declared:
        got = printed.get(m["name"], {})
        value = got.get("value")
        check(got.get("unit") == m["unit"] and isinstance(value, (int, float))
              and math.isfinite(value),
              f"{label}: {m['name']} = {value} {got.get('unit')}")


def corrupt_embeddings(cwd) -> None:
    path = cwd / "emb.txt"
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    fields = lines[1].split(" ")
    fields[2] = "not-a-number"
    lines[1] = " ".join(fields)
    path.write_text("".join(lines), encoding="utf-8")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    toy = run.workloads(toy=True)
    check([w["name"] for w in spec["workloads"]] == list(toy),
          "BENCHMARK.json lists the benchmark's workloads")
    run.WORK.mkdir(exist_ok=True)

    for name, workload in toy.items():
        record = run.run(workload, seed=1, seconds=1, trace=False)
        result = record["result"]
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{name} untraced: {result['failed']}/{result['attempted']} failed")
        check_metrics(result, spec["end_to_end"], f"{name} untraced")
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{name} untraced: every end-to-end metric is nonzero")

        record = run.run(workload, seed=1, seconds=1, trace=True)
        result = record["result"]
        modes = {op["mode"] for op in record["operations"]}
        check(result["correct"] and modes == {"cli", "in-process", "traced"},
              f"{name} traced: CLI, in-process and traced outputs hash the same "
              f"({result['failed']}/{result['attempted']} failed)")
        check_metrics(result, spec["per_layer"], f"{name} traced")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        check(metrics["trace.coverage"] > 0.99, f"{name} traced: top-level spans cover the run")
        check(metrics["jb.fit_jb_em.iters"] >= 1 and metrics["hybrid.restrict.calls"] >= 1
              and metrics["corpus.sample_pair_indices.pool_pairs"] > 0,
              f"{name} traced: counters recorded")

    workload = toy["paper-chain"]
    try:
        record = run.run(workload, seed=2, seconds=1, trace=False,
                         after_setup=corrupt_embeddings)
    except Exception as exc:  # the point of the check: report, do not crash
        check(False, f"corrupted input crashed the benchmark: {exc!r}")
    else:
        result = record["result"]
        first = next(op for op in record["operations"] if not op["ok"])
        check(not result["correct"] and result["failed"] >= 1
              and first["kind"] == "fit-lda" and first["reason"] == "exit 2",
              f"corrupted input: {result['failed']}/{result['attempted']} failed, "
              f"first {first['kind']} ({first['reason']})")

    ops = [{"corpus": 0, "kind": "score", "out": "scores.txt", "mode": "b", "ok": True,
            "reason": None, "hashes": {"scores.txt": "1"}}]
    run.compare_hashes(ops, [dict(ops[0], hashes={"scores.txt": "2"})], "first repetition")
    check(not ops[0]["ok"], "a differing output hash fails the operation")

    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(4, 60))
        scores = np.round(rng.standard_normal(n), 1)  # ties on purpose
        labels = (rng.random(n) < 0.4).astype(np.int64)
        labels[:2] = (0, 1)
        fast = sweep.rates(scores, labels)
        slow = sweep.brute_force_rates(list(scores), list(labels))
        if not all(np.array_equal(a, b) for a, b in zip(fast, slow)):
            check(False, f"reference sweep differs from brute force on case {trial}")
            break
    else:
        check(True, "reference sweep equals a literal per-threshold count")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "paper-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"without sources the benchmark exits {proc.returncode} and prints no result")

    failed = [what for ok, what in CHECKS if not ok]
    print(f"selftest: {len(CHECKS) - len(failed)}/{len(CHECKS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
