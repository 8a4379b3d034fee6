"""Command-line interface.

Subcommands: ``compute`` (formula only), ``witness`` (construct and verify
one witness group), ``chern`` (analyze a matrix file), ``verify`` (full
verification report), ``table`` (GL/SL table) and ``prop6`` (root-product
polynomial checks).  Exit codes for ``verify``: 0 Pass, 2 PassWithAmbiguity,
3 Incomplete, 1 Fail or error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from json.encoder import encode_basestring_ascii

from .chern import eigen_exponents, n_upper, total_chern
from .exactmat import CapExceededError, CycMatrix
from .fppoly import check_prop6, parse_fp_poly, random_unit_root_product
from .formulas import yagita_gl, yagita_sl
from .harness import exit_code, report_to_json, table, table_tsv, verify_case
from .numutil import MAX_PRIME, is_prime
from .ringspec import compute_l, parse_ring
from .witness import build, parse_kind, verify_embedding

# prop6 --random: each polynomial is checked by trial division over F_p^x,
# about 5 ms at p = 9973 on a 2-core machine, and every result is held
# until it is printed
MAX_RANDOM = 1000

# witness --json prints every element as a dense matrix, held in memory
# until it is printed: E(2,4) over Z (512 elements of size 16, 2^17
# entries) takes about 2 s and 170 MB on a 2-core machine, G1(31,30)
# (837 000 entries) 14 s and 1 GB
MAX_JSON_ENTRIES = 2**17


def _add_common(sub, *, ring=True, seed=False):
    sub.add_argument("--json", action="store_true", help="machine-readable output")
    if ring:
        sub.add_argument("--ring", default="Z", help="Z, Z[i], cyclotomic:N, quadratic:D, subcyclotomic:p:d, abstract:l:M")
    if seed:
        sub.add_argument("--seed", type=int, default=0, help="seed for randomized runs")


def _check_prime(p: int, name: str = "--prime") -> int:
    if not is_prime(p) or p > MAX_PRIME:
        raise ValueError(f"{name} must be a prime <= {MAX_PRIME}")
    return p


def _cmd_compute(args) -> int:
    p = _check_prime(args.prime)
    ring = parse_ring(args.ring)
    l = compute_l(ring, p)
    if args.sl:
        res = yagita_sl(p, args.n, l, ring)
        if args.json:
            print(json.dumps({"value": str(res.value), "ambiguous": res.ambiguous}))
        else:
            print(res)
        return 0
    value = yagita_gl(p, args.n, l)
    print(json.dumps({"value": str(value)}) if args.json else value)
    return 0


def _cmd_witness(args) -> int:
    kind = parse_kind(args.kind)
    if kind.p:  # Q8 and D8 carry none
        _check_prime(kind.p, "the prime of --kind")
    w = build(kind, parse_ring(args.ring))
    entries = w.expected_order * w.dimension**2
    if args.json and entries > MAX_JSON_ENTRIES:
        raise ValueError(
            f"--json output of {entries} matrix entries ({w.expected_order} elements "
            f"of size {w.dimension}) exceeds the cap {MAX_JSON_ENTRIES}"
        )
    vw = verify_embedding(w)
    if args.json:
        out = {
            "kind": str(w.kind),
            "ring": str(w.ring),
            "dimension": str(w.dimension),
            "expected_order": str(w.expected_order),
            "expected_yagita": str(w.expected_yagita),
            "claims_sl": w.claims_sl,
            "generators": [g.to_json() for g in w.generators],
            "elements": [vw.group.matrix(x).to_json() for x in vw.elements],
            "verification": {
                k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
                for k, v in vw.summary().items()
            },
        }
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        print(w)
        for k, v in vw.summary().items():
            print(f"  {k}: {v}")
    return 0 if vw.ok else 1


def _read_matrix(path: str) -> CycMatrix:
    """Read a matrix file; ``CycMatrix.from_json`` bounds it before any
    arithmetic.  JSON nested past the interpreter's recursion limit is
    malformed too."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return CycMatrix.from_json(json.load(fh))
        except (KeyError, TypeError, RecursionError) as exc:
            raise ValueError(f"malformed matrix file: {exc!r}") from None


def _cmd_chern(args) -> int:
    p = _check_prime(args.prime)
    m = _read_matrix(args.matrix_file)
    exps = eigen_exponents(m, p)
    tc = total_chern(exps)
    nu = n_upper(exps)
    nu_text = "infinity" if nu == 0 else str(nu)
    if args.json:
        print(
            json.dumps(
                {
                    "exponents": {str(a): str(mult) for a, mult in exps.as_dict().items()},
                    "total_chern": str(tc),
                    "n_upper": nu_text,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(f"exponent multiplicities: {exps.as_dict()}")
        print(f"total Chern class: {tc}")
        print(f"n_upper: {nu_text}")
    return 0


def _cmd_verify(args) -> int:
    p = _check_prime(args.prime)
    ring = parse_ring(args.ring)
    report = verify_case(p, args.n, ring, sl=args.sl)
    if args.json:
        print(report_to_json(report))
    else:
        print(
            f"p={report.p} n={report.n} ring={report.ring} l={report.l} "
            f"{'SL' if report.sl else 'GL'}"
        )
        amb = " (or half)" if report.formula_ambiguous else ""
        print(f"  formula: {report.formula_value}{amb}")
        for w in report.witnesses:
            status = "ok" if w.verified else "FAILED"
            print(
                f"  witness {w.kind} dim {w.dimension}: order {w.order}, "
                f"invariant {w.oracle} [{status}]"
            )
        print(f"  certified lower bound: {report.certified_lower}")
        print(f"  verdict: {report.verdict}")
    return exit_code(report.verdict)


def _cmd_table(args) -> int:
    p = _check_prime(args.prime)
    ring = parse_ring(args.ring)
    rows = table(p, ring, args.n_max)
    if args.json:
        print(
            json.dumps(
                [{"n": str(r.n), "gl": str(r.gl), "sl": r.sl} for r in rows],
                indent=2,
            )
        )
    else:
        print(table_tsv(rows))
    return 0


_PROP6_ROW = (
    '  {{\n    "poly": {},\n    "gcd": "{}",\n    "m": "{}",\n    "q": "{}",\n'
    '    "holds": true\n  }}'
)


def _cmd_prop6(args) -> int:
    p = _check_prime(args.prime)
    results = []
    if args.poly:
        f = parse_fp_poly(args.poly, p)
        v = check_prop6(f)
        results.append((str(f), v))
    else:
        if args.random < 1:
            raise ValueError("--random must be at least 1")
        if args.random > MAX_RANDOM:
            raise ValueError(f"--random {args.random} exceeds the cap {MAX_RANDOM}")
        rng = random.Random(args.seed)
        for _ in range(args.random):
            f = random_unit_root_product(p, rng)
            v = check_prop6(f)
            results.append((str(f), v))
    # check_prop6 raises on a failed decomposition (exit 1), so every
    # verdict that reaches this point holds
    if args.json:
        # the bytes of json.dumps(rows, indent=2), one template per row
        rows = (
            _PROP6_ROW.format(encode_basestring_ascii(text), v.gcd, v.m, v.q)
            for text, v in results
        )
        print("[\n" + ",\n".join(rows) + "\n]")
    else:
        for text, v in results:
            print(f"{text}: gcd={v.gcd} m={v.m} q={v.q} holds=True")
        print(f"{len(results)} polynomial(s), all hold: True")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="yagita",
        description="Exact Yagita invariants of GL_n and SL_n over subrings of C, "
        "with machine-verified finite witness subgroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate the closed-form invariant")
    c.add_argument("--prime", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--sl", action="store_true")
    _add_common(c)
    c.set_defaults(fn=_cmd_compute)

    w = sub.add_parser("witness", help="construct and verify one witness group")
    w.add_argument("--kind", required=True, help="g1:p:m, g2:p:m, e:p:m, q8, d8")
    _add_common(w)
    w.set_defaults(fn=_cmd_witness)

    ch = sub.add_parser("chern", help="eigen exponents / total Chern class of a matrix")
    ch.add_argument("--matrix-file", required=True)
    ch.add_argument("--prime", type=int, required=True)
    _add_common(ch, ring=False)
    ch.set_defaults(fn=_cmd_chern)

    v = sub.add_parser("verify", help="full verification report")
    v.add_argument("--prime", type=int, required=True)
    v.add_argument("--n", type=int, required=True)
    v.add_argument("--sl", action="store_true")
    _add_common(v)
    v.set_defaults(fn=_cmd_verify)

    t = sub.add_parser("table", help="GL/SL value table")
    t.add_argument("--prime", type=int, required=True)
    t.add_argument("--n-max", type=int, default=16)
    _add_common(t)
    t.set_defaults(fn=_cmd_table)

    pr = sub.add_parser("prop6", help="exponent-gcd checks on unit-root polynomials")
    pr.add_argument("--prime", type=int, required=True)
    pr.add_argument("--poly", help='e.g. "1 + 2*x^2"')
    pr.add_argument("--random", type=int, default=100, help="number of random products")
    _add_common(pr, ring=False, seed=True)
    pr.set_defaults(fn=_cmd_prop6)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ArithmeticError, CapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
