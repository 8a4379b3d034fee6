"""Benchmark runner for the yagita package (standard library only).

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload verify_Z --seed 1 --seconds 30 --trace 0

It repeats whole passes over the workload's operations until the next pass
would end after ``--seconds``, always at least one, each operation in a
worker process that imports the package from ``src/``.  It prints every
metric by name and unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
gives the per-layer metrics, the kernel probes and the tracing overhead,
and writes the spans to ``.perfbench_out/``.  Each run appends its record
to ``.perfbench_out/results.jsonl``.

    python3 perfbench/run.py compare PARENT.jsonl CHANGE.jsonl

diffs two sets of such records per (workload, metric) against the bounds in
``BENCHMARK.json``.  ``python3 perfbench/run.py record-digests`` rewrites
``perfbench/digests.json`` from the current code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # every run ends well inside 180 s, workers included


class RunError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# worker processes


def spawn(task: dict, deadline: float) -> tuple[float, dict]:
    """Run one worker to completion; returns (set-up seconds, its output)."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(task), capture_output=True, text=True,
            cwd=ROOT, env=env, timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError("worker passed the run's time limit") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["ready"] - t0, out


def run_pass(plan: list, trace: bool, digests: dict, deadline: float) -> dict:
    """One pass over the plan: every group in its own worker, one at a time."""
    ops, setups, rss, spans = [], [], [], []
    for group in plan:
        task = {"ops": group, "trace": trace, "digests": digests, "tmp": OUT}
        setup, out = spawn(task, deadline)
        setups.append(setup)
        rss.append(out["maxrss_mb"])
        ops.extend(out["results"])
        if trace:
            spans.append(out["spans"])
    return {"ops": ops, "setups": setups, "rss": rss, "spans": spans}


def run_passes(plan, trace_modes, seconds, digests, deadline) -> list[tuple[bool, dict]]:
    """Passes cycling through trace_modes until the next cycle would end
    after ``seconds``; at least one full cycle."""
    start = time.monotonic()
    passes = []
    while True:
        t0 = time.monotonic()
        for mode in trace_modes:
            passes.append((mode, run_pass(plan, mode, digests, deadline)))
        now = time.monotonic()
        if now + (now - t0) - start > seconds:
            return passes


# ---------------------------------------------------------------------------
# metrics


def median_wall(passes: list[dict]) -> float:
    return statistics.median(sum(op["time_s"] for op in p["ops"]) for p in passes)


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Every pass runs the same operations in the same order, so each
    operation's time is taken as its median across passes."""
    per_op = [statistics.median(times) for times in zip(*(
        [op["time_s"] for op in p["ops"]] for p in passes))]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (median_wall(passes), "s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "op_max_s": (max(per_op), "s"),
        "peak_rss_mb": (max(r for p in passes for r in p["rss"]), "MB"),
    }


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(p: dict) -> dict:
    """Per-layer counts and times of one traced pass."""
    spans: dict[str, dict] = {}
    matmul = dict.fromkeys(tracing.MATMUL_BUCKETS, 0)
    for worker_spans in p["spans"]:
        s = tracing.summarize(worker_spans)
        for name, d in s["spans"].items():
            acc = spans.setdefault(name, dict.fromkeys(d, 0))
            for k, v in d.items():
                acc[k] += v
        for k, v in s["matmul"].items():
            matmul[k] += v
    counts = dict.fromkeys(tracing.COUNTS, 0)
    for op in p["ops"]:
        for k, v in op["counts"].items():
            counts[k] += v
    zero = dict.fromkeys(tracing.STATS, 0)

    def sp(name):
        return spans.get(name, zero)

    def secs(name):
        return sp(name)["time_ns"] / 1e9

    ve = sp("witness.verify_embedding")
    lines = sp("harness.verify_case")["items"]
    matrices = sp("cli.matrix_json")["calls"] + sp("exactmat.order_p_cyclic_subgroups")["found"]
    m = {
        "cyclo.mul.count": (counts["cyclo.mul"], "count"),
        "cyclo.add.count": (counts["cyclo.add"], "count"),
        "cyclo.inverse.count": (counts["cyclo.inverse"], "count"),
        "cyclo.embed.count": (counts["cyclo.embed"], "count"),
        "cyclo.mul.conductor1_share": (_ratio(counts["cyclo.mul_conductor1"], counts["cyclo.mul"]), "ratio"),
        "exactmat.closure.calls": (sp("exactmat.closure")["calls"], "count"),
        "exactmat.closure.time_s": (secs("exactmat.closure"), "s"),
        "exactmat.closure.elements": (sp("exactmat.closure")["items"], "count"),
        "exactmat.relations_check.time_s": (secs("exactmat.relations_check"), "s"),
        "exactmat.element_order.products": (matmul["in_element_order"], "count"),
        "exactmat.det.calls": (sp("exactmat.det")["calls"], "count"),
        "exactmat.det.time_s": (secs("exactmat.det"), "s"),
        "exactmat.order_p_cyclic_subgroups.time_s": (secs("exactmat.order_p_cyclic_subgroups"), "s"),
        "exactmat.order_p_cyclic_subgroups.elements": (sp("exactmat.order_p_cyclic_subgroups")["items"], "count"),
        "exactmat.order_p_cyclic_subgroups.subgroups": (sp("exactmat.order_p_cyclic_subgroups")["found"], "count"),
        "exactmat.matmul.count": (sum(matmul.values()), "count"),
    }
    for bucket in tracing.MATMUL_BUCKETS:
        if bucket != "in_element_order":
            m[f"exactmat.matmul.count.{bucket}"] = (matmul[bucket], "count")
    m.update({
        "witness.witness_menu.time_s": (secs("witness.witness_menu"), "s"),
        "witness.build.time_s": (secs("witness.build"), "s"),
        "witness.verify_embedding.calls": (ve["calls"], "count"),
        "witness.verify_embedding.time_s": (secs("witness.verify_embedding"), "s"),
        "witness.verify_embedding.elements": (ve["items"], "count"),
        "witness.verify_embedding.calls_per_distinct": (_ratio(ve["calls"], ve["distinct"]), "ratio"),
        "harness.verify_case.calls": (sp("harness.verify_case")["calls"], "count"),
        "harness.verify_case.time_s": (secs("harness.verify_case"), "s"),
        "harness.report_to_json.time_s": (secs("harness.report_to_json"), "s"),
        "harness.verify_hit_ratio": (1 - ve["calls"] / lines if lines else 0.0, "ratio"),
        "chern.eigen_exponents.calls": (sp("chern.eigen_exponents")["calls"], "count"),
        "chern.eigen_exponents.time_s": (secs("chern.eigen_exponents"), "s"),
        "chern.n_upper.calls": (sp("chern.n_upper")["calls"], "count"),
        "chern.n_upper.time_s": (secs("chern.n_upper"), "s"),
        "chern.total_chern.calls": (sp("chern.total_chern")["calls"], "count"),
        "chern.total_chern.time_s": (secs("chern.total_chern"), "s"),
        "chern.eigen_exponents.calls_per_matrix": (_ratio(sp("chern.eigen_exponents")["calls"], matrices), "ratio"),
        "fppoly.check_prop6.calls": (sp("fppoly.check_prop6")["calls"], "count"),
        "fppoly.check_prop6.time_s": (secs("fppoly.check_prop6"), "s"),
        "fppoly.mul.count": (counts["fppoly.mul"], "count"),
        "cli.main.time_s": (secs("cli.main"), "s"),
        "cli.matrix_json.time_s": (secs("cli.matrix_json"), "s"),
    })
    return m


def per_layer(traced: list[dict], untraced: list[dict], kernels: dict) -> dict:
    """Counts from the first traced pass (they repeat exactly); times as the
    median over traced passes; the overhead as traced minus untraced wall."""
    each = [layer_metrics(p) for p in traced]
    m = {}
    for name, (value, unit) in each[0].items():
        if unit == "s":
            value = statistics.median(e[name][0] for e in each)
        m[name] = (value, unit)
    for name, value in kernels.items():
        m[name] = (value, name.rsplit(".", 1)[1])
    m["trace.wall_s"] = (median_wall(traced), "s")
    m["trace.overhead_s"] = (median_wall(traced) - median_wall(untraced), "s")
    return m


# ---------------------------------------------------------------------------
# the run


def run(workload: str, seed: int, seconds: int, trace: bool, tiny: bool = False) -> dict:
    """Run a workload and return its result record (also when ops fail)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    plan = workloads.plan(workload, seed, tiny)
    setups = [spawn({"ops": [], "digests": {}, "tmp": OUT}, deadline)[0] for _ in range(SETUP_PROBES)]
    passes = run_passes(plan, (False, True) if trace else (False,), seconds, digests, deadline)
    untraced = [p for mode, p in passes if not mode]
    traced = [p for mode, p in passes if mode]
    setups += [s for p in untraced for s in p["setups"]]
    ops = [op for _, p in passes for op in p["ops"]]
    failed = [op for op in ops if op["problems"]]
    if trace:
        kernels = spawn({"kernels": seed}, deadline)[1]["kernels"]
        metrics = per_layer(traced, untraced, kernels)
        write_trace(workload, seed, traced)
    else:
        metrics = end_to_end(untraced, setups)
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not failed, "attempted": len(ops), "failed": len(failed),
        "problems": sorted({q for op in failed for q in op["problems"]})[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_trace(workload: str, seed: int, traced: list[dict]) -> None:
    """Every span of every traced pass, with its self time in ns."""
    doc = {
        "workload": workload, "seed": seed,
        "fields": ["id", "parent", "name", "start_ns", "end_ns", "matmul", "items", "found", "key", "self_ns"],
        "passes": [
            [[s + [t] for s, t in zip(spans, tracing.self_times(spans))] for spans in p["spans"]]
            for p in traced
        ],
    }
    with open(os.path.join(OUT, f"trace-{workload}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def print_record(rec: dict) -> None:
    for name, m in rec["metrics"].items():
        print(f"{rec['workload']:<18} {name:<46} {m['value']:>14.6g} {m['unit']}")
    ratio = rec["failed"] / rec["attempted"]
    print(f"{rec['workload']:<18} {'fail_ratio':<46} {ratio:>14.6g} "
          f"(failed {rec['failed']} / attempted {rec['attempted']})")
    for q in rec["problems"]:
        print(f"  problem: {q}")
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))


# ---------------------------------------------------------------------------
# compare mode


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def classify(parent: list[float], change: list[float], bound: float, lower_better: bool) -> str:
    """improved, worse, same or unresolved, by the rules in README.md."""
    sign = 1 if lower_better else -1
    pq1, pmed, pq3 = _quartiles(parent)
    cq1, cmed, cq3 = _quartiles(change)
    if pmed == 0:
        return "same" if cmed == 0 else "unresolved"
    rel = sign * (cmed - pmed) / abs(pmed)  # > 0 is worse
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    spread = max((pq3 - pq1) / abs(pmed), (cq3 - cq1) / abs(cmed) if cmed else 0.0)
    wins = sum(sign * c < sign * p for c in change for p in parent)
    if all_better or (wins >= 0.9 * len(parent) * len(change) and -rel * abs(pmed) > pq3 - pq1):
        return "improved"
    if spread > bound:
        return "unresolved"
    return "worse" if rel > bound else "same"


def compare(parent_path: str, change_path: str) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sides = []
    for path in (parent_path, change_path):
        by_key: dict[tuple, list[float]] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                for name, m in rec["metrics"].items():
                    by_key.setdefault((rec["workload"], name), []).append(m["value"])
        sides.append(by_key)
    print(f"{'workload':<18} {'metric':<46} {'verdict':<10} parent q1/med/q3 -> change q1/med/q3")
    for key in sorted(set(sides[0]) & set(sides[1])):
        parent, change = sides[0][key], sides[1][key]
        spec = bounds.get(key[1])
        verdict = (classify(parent, change, spec["bound"], spec["better"] == "lower")
                   if spec else "info")
        fmt = "/".join
        p, c = _quartiles(parent), _quartiles(change)
        print(f"{key[0]:<18} {key[1]:<46} {verdict:<10} "
              f"{fmt(f'{v:.4g}' for v in p)} (n={len(parent)}) -> "
              f"{fmt(f'{v:.4g}' for v in c)} (n={len(change)})")
    return 0


# ---------------------------------------------------------------------------


def record_digests() -> int:
    """Digest of the report JSON of every verify case any grid uses."""
    sys.path.insert(0, SRC)
    from yagita.harness import report_to_json, verify_case
    from yagita.ringspec import parse_ring

    cases = set(workloads.VERIFY_Z) | set(workloads.VERIFY_CYCLOTOMIC)
    cases |= set(workloads.sweep_cases(workloads.SWEEP))
    for name in ("verify_Z", "verify_cyclotomic"):
        cases |= set(workloads.TINY[name])
    cases |= set(workloads.sweep_cases(workloads.TINY["sweep_reuse"]))
    digests = {}
    for p, n, ring, sl in sorted(cases):
        text = report_to_json(verify_case(p, n, parse_ring(ring), sl=sl))
        digests[workloads.case_key(p, n, ring, sl)] = hashlib.sha256(text.encode()).hexdigest()
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare PARENT.jsonl CHANGE.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    if argv[:1] == ["record-digests"]:
        return record_digests()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "yagita", "__init__.py")):
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        rec = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(os.path.join(OUT, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(rec) + "\n")
    print_record(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
