"""One benchmark worker process: import the package, run operations, report.

Reads a task from standard input as JSON, ``{"ops": [...], "trace": bool,
"digests": {...}, "tmp": dir}`` or ``{"kernels": seed}``, and prints one
JSON line.  The time at which the package is imported and ready is taken on
the monotonic clock, which the runner shares, so the runner can measure
set-up from before the spawn.  An empty ``ops`` list makes a set-up probe.
"""

from __future__ import annotations

import time

import yagita  # noqa: F401  (set-up: what a user's process pays first)
import yagita.cli
import yagita.harness

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402


def run_op(op: dict, digests: dict, tmp: str) -> tuple[float, list[str]]:
    """Run one operation; returns (seconds, problems).  Only the call into
    the package is timed; writing the input file and checking are not."""
    kind = op["kind"]
    if kind == "verify":
        ring = yagita.ringspec.parse_ring(op["ring"])
        t0 = time.perf_counter()
        report = yagita.harness.verify_case(op["p"], op["n"], ring, sl=op["sl"])
        text = yagita.harness.report_to_json(report)
        dt = time.perf_counter() - t0
        return dt, workloads.check_verify(op, text, digests)
    if kind == "chern":
        path = os.path.join(tmp, f"matrix-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["matrix"], fh)
        argv = ["chern", "--matrix-file", path, "--prime", str(op["p"]), "--json"]
        check = workloads.check_chern
    elif kind == "prop6":
        path = None
        argv = ["prop6", "--prime", str(op["p"]), "--random", str(op["count"]),
                "--seed", str(op["seed"]), "--json"]
        check = workloads.check_prop6
    else:
        raise ValueError(f"unknown operation {kind!r}")
    out = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = yagita.cli.main(argv)
        dt = time.perf_counter() - t0
    finally:
        if path:
            os.remove(path)
    if code != 0:
        return dt, [f"exit code {code}"]
    return dt, check(op, out.getvalue())


def run_ops(ops: list[dict], digests: dict, tmp: str, tracer=None) -> list[dict]:
    """Run operations in this process, in order.  With a tracer, each one is
    a root span and its counters are recorded.  An exception counts as a
    failed operation and does not stop the others."""
    results = []
    for op in ops:
        before = dict(tracer.counts) if tracer else None
        span = tracer.open("bench.op") if tracer else None
        try:
            dt, problems = run_op(op, digests, tmp)
        except Exception as exc:  # noqa: BLE001 - a failing op is a result
            dt, problems = 0.0, [f"{type(exc).__name__}: {exc}"]
        finally:
            if tracer:
                tracer.close(span)
        res = {"time_s": dt, "problems": problems}
        if tracer:
            res["counts"] = {k: v - before[k] for k, v in tracer.counts.items()}
        results.append(res)
    return results


def _per_call(fn, args, reps: int = 5) -> float:
    """Median over reps of the mean seconds per call of fn over args."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        times.append((time.perf_counter() - t0) / len(args))
    return statistics.median(times)


def kernel_probes(seed: int) -> dict:
    """The per-layer kernel timings, untraced, on seeded random operands."""
    from yagita.cyclo import CycNum
    from yagita.exactmat import CycMatrix, det

    rng = random.Random(seed)

    def num(cond, width, bound):
        return CycNum(cond, [rng.randint(-bound, bound) for _ in range(width)])

    def mat(n, cond, width):
        return CycMatrix([[num(cond, width, 2) for _ in range(n)] for _ in range(n)], cond)

    mul = CycNum.__mul__
    z_pairs = [(num(1, 1, 99), num(1, 1, 99)) for _ in range(2000)]
    q7_pairs = [(num(7, 6, 9), num(7, 6, 9)) for _ in range(2000)]
    m16 = [(mat(16, 1, 1), mat(16, 1, 1)) for _ in range(3)]
    m9 = [(mat(9, 3, 2), mat(9, 3, 2)) for _ in range(5)]
    d16 = [(mat(16, 1, 1),) for _ in range(3)]
    return {
        "cyclo.mul_Z.us": _per_call(mul, z_pairs) * 1e6,
        "cyclo.mul_Q7.us": _per_call(mul, q7_pairs) * 1e6,
        "exactmat.matmul16_Z.ms": _per_call(CycMatrix.__mul__, m16) * 1e3,
        "exactmat.matmul9_Q3.ms": _per_call(CycMatrix.__mul__, m9) * 1e3,
        "exactmat.det16_Z.ms": _per_call(det, d16) * 1e3,
    }


def main() -> int:
    task = json.load(sys.stdin)
    out: dict = {"ready": READY}
    if "kernels" in task:
        out["kernels"] = kernel_probes(task["kernels"])
    elif task.get("trace"):
        import tracing

        tracer = tracing.Tracer()
        with tracer.install():
            out["results"] = run_ops(task["ops"], task["digests"], task["tmp"], tracer)
        out["spans"] = [s.as_list() for s in tracer.spans]
    else:
        out["results"] = run_ops(task["ops"], task["digests"], task["tmp"])
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
