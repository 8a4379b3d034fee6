"""Workload plans, seeded inputs and correctness checks for the benchmark.

Nothing here imports the package at module level: the runner process only
plans and aggregates, and every operation runs in a worker process.  The
checks import the formula layer (``yagita.formulas``/``yagita.ringspec``)
lazily, inside the worker, and otherwise recompute answers from how the
inputs were built.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("verify_Z", "verify_cyclotomic", "sweep_reuse", "chern_matrices")

# (p, n, ring, sl).  Over Z the entries are integers wrapped in CycNum; over
# the cyclotomic rings they are true polynomials in zeta_p.  Each pass takes
# about 3 s, so a run repeats every case several times: on a shared 2-core
# machine the speed drifts by up to 20% within seconds, and only repeated
# samples of the same case keep the medians steady.  That leaves out the
# single cases of 10 s or more, such as (2, 8, Z) with E(2,3) and
# (7, 7, cyclotomic:7) with E(7,1).  (2, 4, Z) still verifies E(2,2) twice
# (once when it is built), and (7, 7, Z) SL sets op_max_s with the padded
# G1(7,6) (42 elements).
VERIFY_Z = (
    (7, 12, "Z", False),
    (7, 7, "Z", True),
    (3, 6, "Z", False),
    (3, 9, "Z", True),
    (2, 4, "Z", False),
    (5, 8, "Z", True),
)
# (5, 5, cyclotomic:5) sets op_max_s by scanning E(5,1) (125 elements) for
# order-5 subgroups; (7, 6, cyclotomic:7) keeps the zeta_7 arithmetic.  With
# five cases the median operation is one case, (2, 4, Z[i]) SL at about
# 0.4 s, between 0.2 s and 1 s neighbours, not the mean of two unlike ones.
VERIFY_CYCLOTOMIC = (
    (5, 5, "cyclotomic:5", False),
    (7, 6, "cyclotomic:7", False),
    (5, 4, "cyclotomic:5", False),
    (2, 4, "Z[i]", True),
    (3, 6, "cyclotomic:3", True),
)

# (p, ring, n_max) blocks of the in-process sweep: GL for n = 1..n_max and SL
# for n = 2..n_max, 174 calls.  Every witness that fits is cheap, so after
# the first calls of a block the harness caches answer most of the work.
# More than half of the calls reuse a verified witness (0.4-1.3 ms each), a
# third return at once (below 0.2 ms: n too small for p-torsion, or no
# witness), and the rest build one.  The shares keep the median call
# inside the reuse group: with the two groups near half each, the median
# sat on the jump between them and moved by a third from run to run.  The
# cold G1(7,6) of (7, Z) (1.5 s, also in verify_Z) is left out, so that a
# pass takes about 2 s and a run times its slowest call a dozen times.
# Cyclotomic rings stop below E(p,1), whose dimension is p.  Z[i] and
# quadratic:5 at odd p, subcyclotomic:5:2 and the abstract rings build no
# witness and so take the Incomplete path.
SWEEP = (
    (2, "Z", 7),
    (3, "Z", 16),
    (5, "Z", 16),
    (2, "Z[i]", 7),
    (2, "quadratic:-3", 7),
    (2, "cyclotomic:8", 7),
    (3, "cyclotomic:3", 2),
    (3, "quadratic:-3", 2),
    (3, "cyclotomic:6", 2),
    (5, "cyclotomic:5", 4),
    (7, "cyclotomic:7", 5),
    (3, "Z[i]", 4),
    (5, "quadratic:5", 4),
    (5, "subcyclotomic:5:2", 4),
    (7, "abstract:3:2", 4),
    (13, "abstract:4:2", 4),
)

# Matrix shapes for chern_matrices: prime and blocks.  The seed picks the
# Galois twist of each regular block, the exponents of the diagonal blocks,
# the block order and the conjugating elementary matrices, never the shape,
# so every seed asks for the same amount of arithmetic of the same kind.
# The largest (13 and 17, 14x14 and 16x16) take about 1 s each, so that a
# pass takes about 3 s and a run times its slowest operation ten times.
#   reg  - multiplication by zeta_p**k on the power basis of Z[zeta_p]
#          (integer, dim p-1, every nonzero exponent once)
#   perm - the p-cycle (integer, dim p, every exponent once)
#   zreg - zeta_p**a times reg, a != 0 (conductor p, every exponent but a
#          once)
#   diagK - diag(zeta_p**a_1, ..., zeta_p**a_K), distinct a_i != 0
#          (conductor p)
#   one  - the 1x1 identity
CHERN_SHAPES = (
    (5, ("reg", "perm", "diag3")),
    (7, ("reg", "zreg", "diag2")),
    (11, ("reg", "diag2")),
    (13, ("reg", "diag2")),
    (17, ("reg",)),
    (7, ("reg", "reg", "one")),
)
# (p, count) random root-product batches for `prop6 --random`.
PROP6_BATCHES = ((7, 1000), (13, 1000))

# Small grids for the smoke tests.
TINY = {
    "verify_Z": ((3, 3, "Z", False), (2, 2, "Z", True)),
    "verify_cyclotomic": ((3, 3, "cyclotomic:3", False), (2, 2, "Z[i]", True)),
    "sweep_reuse": ((3, "Z", 3), (2, "Z[i]", 2), (7, "abstract:3:2", 3)),
    "chern_matrices": {"shapes": ((5, ("reg", "diag2")),), "prop6": ((5, 20),)},
}


def case_key(p: int, n: int, ring: str, sl: bool) -> str:
    return f"{p}:{n}:{ring}:{'SL' if sl else 'GL'}"


def sweep_cases(blocks) -> list[tuple]:
    cases = []
    for p, ring, n_max in blocks:
        for n in range(1, n_max + 1):
            cases.append((p, n, ring, False))
            if n >= 2:
                cases.append((p, n, ring, True))
    return cases


# ---------------------------------------------------------------------------
# plans: what one pass over a workload runs


def plan(workload: str, seed: int, tiny: bool = False) -> list[list[dict]]:
    """The operations of one pass, in groups.

    Each group runs in one fresh worker process, in order.  The seed only
    permutes the fixed grids; for chern_matrices it also generates the
    matrices.
    """
    rng = random.Random(seed)
    if workload in ("verify_Z", "verify_cyclotomic"):
        grid = TINY[workload] if tiny else (
            VERIFY_Z if workload == "verify_Z" else VERIFY_CYCLOTOMIC
        )
        cases = list(grid)
        rng.shuffle(cases)
        return [[_verify_op(c)] for c in cases]
    if workload == "sweep_reuse":
        # permute whole (p, ring) blocks and keep n ascending inside each,
        # as a table sweep would, so the cold calls stay the same ones
        blocks = list(TINY[workload] if tiny else SWEEP)
        rng.shuffle(blocks)
        return [[_verify_op(c) for c in sweep_cases(blocks)]]
    if workload == "chern_matrices":
        shapes = TINY[workload]["shapes"] if tiny else CHERN_SHAPES
        batches = TINY[workload]["prop6"] if tiny else PROP6_BATCHES
        ops = [_matrix_op(p, blocks, rng) for p, blocks in shapes]
        ops += [
            {"kind": "prop6", "p": p, "count": count, "seed": rng.randrange(2**31)}
            for p, count in batches
        ]
        rng.shuffle(ops)
        return [ops]
    raise ValueError(f"unknown workload {workload!r}")


def _verify_op(case) -> dict:
    p, n, ring, sl = case
    return {"kind": "verify", "p": p, "n": n, "ring": ring, "sl": sl}


# ---------------------------------------------------------------------------
# order-p matrices with known eigenvalue multiplicities
#
# Entries are integer coefficient vectors of length p in Z[x]/(x^p - 1), which
# maps onto Z[zeta_p]; a matrix whose entries all lie in Z is written out with
# conductor 1.  The generator uses no package code, so the multiplicities it
# records are known from construction alone.


def _zeta_pow(p: int, e: int) -> list[int]:
    v = [0] * p
    v[e % p] = 1
    return v


def _block(p: int, name: str, rng) -> tuple[list[list[list[int]]], list[int]]:
    """(entries as length-p vectors, eigen exponents with multiplicity)."""
    if name in ("reg", "zreg"):
        k = rng.randrange(1, p)
        a = rng.randrange(1, p) if name == "zreg" else 0
        n = p - 1
        rows = [[[0] * p for _ in range(n)] for _ in range(n)]
        # column j: coordinates of zeta**(a) * zeta**(k + j) in the basis
        # 1, zeta, ..., zeta**(p-2), with zeta**(p-1) = -(1 + ... + zeta**(p-2))
        for j in range(n):
            e = (k + j) % p
            if e < n:
                rows[e][j] = _zeta_pow(p, a)
            else:
                for i in range(n):
                    rows[i][j] = [-c for c in _zeta_pow(p, a)]
        # multiplication by zeta**k has exponents k*b for b = 1..p-1, i.e.
        # every nonzero residue; the zeta**a twist shifts each by a
        exps = [(a + b) % p for b in range(1, p)]
        return rows, exps
    if name == "perm":
        rows = [[[0] * p for _ in range(p)] for _ in range(p)]
        for j in range(p):
            rows[(j + 1) % p][j] = _zeta_pow(p, 0)
        return rows, list(range(p))
    if name == "one":
        return [[_zeta_pow(p, 0)]], [0]
    if name.startswith("diag"):
        k = int(name[4:])
        exps = rng.sample(range(1, p), k)
        rows = [[[0] * p for _ in range(k)] for _ in range(k)]
        for i, a in enumerate(exps):
            rows[i][i] = _zeta_pow(p, a)
        return rows, exps
    raise ValueError(f"unknown block {name!r}")


def order_p_matrix(p: int, blocks, rng) -> tuple[dict, list[int]]:
    """A dense order-p matrix (CycMatrix JSON) and its eigen multiplicities.

    Block-diagonal from the named blocks, then conjugated by a product of
    elementary integer matrices E = I + c*e_ij, whose inverse I - c*e_ij is
    exact, so the eigenvalues are those of the blocks.
    """
    built = [_block(p, name, rng) for name in blocks]
    rng.shuffle(built)
    n = sum(len(rows) for rows, _ in built)
    m = [[[0] * p for _ in range(n)] for _ in range(n)]
    mults = [0] * p
    at = 0
    for rows, exps in built:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                m[at + i][at + j] = list(v)
        for a in exps:
            mults[a] += 1
        at += len(rows)
    # a fixed pattern of elementary matrices, with the seed choosing only the
    # signs, so that entry sizes (and with them the cost) vary little
    # between seeds
    for step in (1, 2, 1):
        for i in range(n):
            j = (i + step) % n
            c = rng.choice((-1, 1))
            # E @ M adds c * row j to row i; M @ E^-1 subtracts c * column i
            # from column j
            m[i] = [[x + c * y for x, y in zip(u, w)] for u, w in zip(m[i], m[j])]
            for row in m:
                row[j] = [x - c * y for x, y in zip(row[j], row[i])]
    integral = all(not any(v[1:]) for row in m for v in row)
    cond = 1 if integral else p
    entries = [[_entry_json(v, cond) for v in row] for row in m]
    return {"size": n, "conductor": cond, "entries": entries}, mults


def _entry_json(v: list[int], cond: int) -> dict:
    if cond == 1:
        return {"conductor": 1, "num": [v[0]], "den": 1}
    # power-basis coordinates: fold zeta**(p-1) = -(1 + ... + zeta**(p-2))
    top = v[-1]
    return {"conductor": cond, "num": [c - top for c in v[:-1]], "den": 1}


def _matrix_op(p: int, blocks, rng) -> dict:
    matrix, mults = order_p_matrix(p, blocks, rng)
    return {"kind": "chern", "p": p, "matrix": matrix, "mults": mults}


# ---------------------------------------------------------------------------
# correctness checks; each returns a list of problems, empty when correct


def check_verify(op: dict, report_json: str, digests: dict) -> list[str]:
    from yagita.formulas import yagita_gl, yagita_sl
    from yagita.ringspec import compute_l, parse_ring

    problems = []
    rep = json.loads(report_json)
    p, n, sl = op["p"], op["n"], op["sl"]
    ring = parse_ring(op["ring"])
    l = compute_l(ring, p)
    if sl:
        res = yagita_sl(p, n, l, ring)
        value, ambiguous = res.value, res.ambiguous
    else:
        value, ambiguous = yagita_gl(p, n, l), False
    formula = int(rep["formula_value"])
    if formula != value or rep["formula_ambiguous"] != ambiguous:
        problems.append(f"formula {formula} (ambiguous {rep['formula_ambiguous']}), expected {value} ({ambiguous})")
    if rep["verdict"] == "Fail":
        problems.append("verdict Fail")
    certified = int(rep["certified_lower"])
    if certified < 1 or formula % certified:
        problems.append(f"certified lower bound {certified} does not divide {formula}")
    key = case_key(p, n, op["ring"], sl)
    digest = hashlib.sha256(report_json.encode()).hexdigest()
    if digests.get(key) != digest:
        problems.append(f"report digest {digest[:12]} differs from the recorded one for {key}")
    return problems


def _fp_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _exponent_gcd(coeffs: list[int]):
    g = 0
    for e, c in enumerate(coeffs):
        if e and c:
            g = math.gcd(g, e)
    return g or None


def check_chern(op: dict, output: str) -> list[str]:
    """Compare `chern --json` output with the multiplicities the matrix was
    built from, and its n_upper with the exponent gcd of the product of
    (1 + a*x)**mult(a) over F_p computed here."""
    p, mults = op["p"], op["mults"]
    out = json.loads(output)
    problems = []
    got = {int(a): int(m) for a, m in out["exponents"].items()}
    want = {a: m for a, m in enumerate(mults) if m}
    if got != want:
        problems.append(f"exponents {got}, expected {want}")
    poly = [1]
    for a, m in enumerate(mults):
        for _ in range(m if a else 0):
            poly = _fp_mul(poly, [1, a], p)
    g = _exponent_gcd(poly)
    expected = "infinity" if g is None else str(g)
    if out["n_upper"] != expected:
        problems.append(f"n_upper {out['n_upper']}, expected {expected}")
    return problems


def _parse_printed_poly(text: str, p: int) -> list[int]:
    body, _, mod = text.rpartition(" (mod ")
    if int(mod.rstrip(")")) != p:
        raise ValueError(f"modulus of {text!r} is not {p}")
    coeffs: dict[int, int] = {}
    for term in body.split(" + "):
        c, x, power = term.partition("x")
        c = c.rstrip("*")
        e = 0 if not x else (int(power[1:]) if power else 1)
        coeffs[e] = int(c) if c else 1
    return [coeffs.get(e, 0) % p for e in range(max(coeffs) + 1)]


def check_prop6(op: dict, output: str) -> list[str]:
    """Recompute each verdict of `prop6 --json` with a direct exponent gcd
    of the printed polynomial and its m * p**q split."""
    p = op["p"]
    rows = json.loads(output)
    problems = []
    if len(rows) != op["count"]:
        problems.append(f"{len(rows)} polynomials, expected {op['count']}")
    for row in rows:
        g = _exponent_gcd(_parse_printed_poly(row["poly"], p))
        if g is None:
            problems.append(f"{row['poly']} is constant")
            continue
        m, q = g, 0
        while m % p == 0:
            m, q = m // p, q + 1
        want = (str(g), str(m), str(q), (p - 1) % m == 0)
        got = (row["gcd"], row["m"], row["q"], row["holds"])
        if got != want:
            problems.append(f"{row['poly']}: got {got}, expected {want}")
    return problems
