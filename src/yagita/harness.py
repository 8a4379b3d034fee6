"""End-to-end verification: formula values against machine-verified witnesses.

``verify_case(p, n, ring)`` evaluates the closed-form invariant, builds the
menu of witness groups fitting in dimension n, verifies each one by closure
enumeration, and certifies a lower bound as the lcm of the known invariants
of the witnesses that actually verified.  It also runs the Chern-class
consistency checks on every order-p cyclic subgroup of every verified
witness.  The verdict is

* ``Pass``              -- certified lower bound equals the formula value;
* ``PassWithAmbiguity`` -- the SL formula is only pinned up to a factor of 2
                           and the certified bound hits one of the two
                           candidates;
* ``Incomplete``        -- all checks consistent, but no fitting witness set
                           certifies the full value (honest gap, not a
                           failure);
* ``Fail``              -- a witness failed verification or a consistency
                           check was violated.

Report JSON serializes every integer as a decimal string so downstream
consumers cannot lose precision.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, is_dataclass

from .chern import eigen_exponents, n_upper
from .exactmat import DEFAULT_CAP, MatrixGroup, order_p_cyclic_subgroups
from .fppoly import INFINITY, mp_q_decompose
from .formulas import yagita_gl, yagita_sl, yagita_sl_Z
from .numutil import is_prime
from .ringspec import RingSpec, compute_l, is_rational_integers
from .witness import (
    VerifiedWitness,
    WitnessEmbedding,
    verify_embedding,
    witness_menu,
)

PASS = "Pass"
PASS_WITH_AMBIGUITY = "PassWithAmbiguity"
INCOMPLETE = "Incomplete"
FAIL = "Fail"

MAX_PRIME = 10**4
MAX_N = 4096


@dataclass(frozen=True)
class _Checked:
    """What verify_case keeps of one verified witness: the verification
    outcome, the closure order and, for a witness that verified, one Chern
    row per order-p cyclic subgroup (independent of the ambient n).  The
    enumerated elements are not kept."""

    ok: bool
    order: int
    chern_rows: tuple


# keyed by (kind, ring, padded, dimension, cap); the kind implies p
_checked: dict[tuple, _Checked] = {}


def _check(w: WitnessEmbedding, p: int, cap: int) -> _Checked:
    key = (str(w.kind), w.ring, w.padded, w.dimension, cap)
    if key not in _checked:
        vw = verify_embedding(w, cap)
        rows = _chern_scan(vw, p) if vw.ok else ()
        _checked[key] = _Checked(vw.ok, vw.order, rows)
    return _checked[key]


def _chern_scan(vw: VerifiedWitness, p: int) -> tuple:
    """Per order-p cyclic subgroup of a verified witness: the Chern divisor
    bound, its m * p^q decomposition, and the x^l rationality flag."""
    w = vw.embedding
    group = MatrixGroup.from_elements(w.generators, vw.elements)
    l_w = compute_l(w.ring, p)
    rows = []
    for idx, mrep in enumerate(order_p_cyclic_subgroups(group, p)):
        nu = n_upper(eigen_exponents(mrep, p))
        if nu == INFINITY:
            rows.append((idx, "infinity", "infinity", "infinity", True, True))
        else:
            m_part, q_part = mp_q_decompose(int(nu), p)
            prop_ok = (p - 1) % m_part == 0
            rat_ok = int(nu) % l_w == 0
            rows.append((idx, int(nu), m_part, q_part, prop_ok, rat_ok))
    return tuple(rows)


@dataclass(frozen=True)
class WitnessLine:
    kind: str
    dimension: int
    padded: bool
    verified: bool
    oracle: int
    order: int
    oracle_divides_formula: bool


@dataclass(frozen=True)
class ChernLine:
    witness: str
    subgroup: int
    n_upper: object  # int, or "infinity" for a trivially acting element
    m: object
    q: object
    rationality_ok: bool
    divides_formula: bool


@dataclass(frozen=True)
class VerificationReport:
    p: int
    n: int
    ring: str
    l: int
    sl: bool
    formula_value: int
    formula_ambiguous: bool
    witnesses: tuple[WitnessLine, ...]
    certified_lower: int
    chern_consistency: tuple[ChernLine, ...]
    verdict: str


def verify_case(
    p: int, n: int, ring: RingSpec, sl: bool = False, cap: int = DEFAULT_CAP
) -> VerificationReport:
    if not is_prime(p) or p > MAX_PRIME:
        raise ValueError(f"p must be a prime <= {MAX_PRIME}")
    if not 1 <= n <= MAX_N:
        raise ValueError(f"n must lie in [1, {MAX_N}]")
    l = compute_l(ring, p)
    gl_value = yagita_gl(p, n, l)
    if sl:
        res = yagita_sl(p, n, l, ring)
        value, ambiguous = res.value, res.ambiguous
    else:
        value, ambiguous = gl_value, False

    menu = [e for e in witness_menu(p, n, ring) if (e.in_sl if sl else e.in_gl)]
    lines: list[WitnessLine] = []
    chern_lines: list[ChernLine] = []
    hard_fail = False
    certified = 1
    for entry in menu:
        w = entry.embedding
        checked = _check(w, p, cap)
        # a verified embedding transports its group's known invariant into
        # GL_n, so that invariant must divide the GL formula value
        ambient = yagita_gl(p, w.dimension, compute_l(w.ring, p))
        oracle_ok = gl_value % w.expected_yagita == 0 and ambient % w.expected_yagita == 0
        lines.append(
            WitnessLine(
                kind=str(w.kind) + ("+pad" if w.padded else ""),
                dimension=w.dimension,
                padded=w.padded,
                verified=checked.ok,
                oracle=w.expected_yagita,
                order=checked.order,
                oracle_divides_formula=oracle_ok,
            )
        )
        if not checked.ok or not oracle_ok:
            hard_fail = True
            continue
        certified = math.lcm(certified, w.expected_yagita)
        for idx, nu, m_part, q_part, prop_ok, rat_ok in checked.chern_rows:
            divides = nu == "infinity" or gl_value % (2 * nu) == 0
            if not (prop_ok and rat_ok and divides):
                hard_fail = True
            chern_lines.append(
                ChernLine(
                    witness=str(w.kind) + ("+pad" if w.padded else ""),
                    subgroup=idx,
                    n_upper=nu,
                    m=m_part,
                    q=q_part,
                    rationality_ok=rat_ok,
                    divides_formula=divides,
                )
            )

    if hard_fail:
        verdict = FAIL
    elif ambiguous:
        verdict = PASS_WITH_AMBIGUITY if certified in (value, value // 2) else INCOMPLETE
    elif certified == value:
        verdict = PASS
    else:
        verdict = INCOMPLETE
    return VerificationReport(
        p=p,
        n=n,
        ring=str(ring),
        l=l,
        sl=sl,
        formula_value=value,
        formula_ambiguous=ambiguous,
        witnesses=tuple(lines),
        certified_lower=certified,
        chern_consistency=tuple(chern_lines),
        verdict=verdict,
    )


# ---------------------------------------------------------------------------
# tables


@dataclass(frozen=True)
class TableRow:
    n: int
    gl: int
    sl: str


def table(p: int, ring: RingSpec, n_max: int) -> list[TableRow]:
    """GL and SL invariants for 1 <= n <= n_max.  Over Z the SL column is
    always exact; elsewhere undetermined cases show both candidates."""
    if not 1 <= n_max <= MAX_N:
        raise ValueError(f"n_max must lie in [1, {MAX_N}]")
    l = compute_l(ring, p)
    rows = []
    for n in range(1, n_max + 1):
        gl = yagita_gl(p, n, l)
        if n < 2:
            sl_text = "-"
        elif is_rational_integers(ring):
            sl_text = str(yagita_sl_Z(p, n))
        else:
            sl_text = str(yagita_sl(p, n, l, ring))
        rows.append(TableRow(n=n, gl=gl, sl=sl_text))
    return rows


def table_tsv(rows: list[TableRow]) -> str:
    out = ["n\tGL\tSL"]
    for r in rows:
        out.append(f"{r.n}\t{r.gl}\t{r.sl}")
    return "\n".join(out)


# ---------------------------------------------------------------------------
# JSON with integers as decimal strings


def _stringify(obj):
    """The JSON form of a report or a part of one, in one walk: dataclasses
    become dicts of their fields, tuples lists and integers decimal
    strings."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if is_dataclass(obj):
        return {f.name: _stringify(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, float):
        if math.isinf(obj):
            return "infinity"
        raise TypeError("no inexact numbers belong in a report")
    return obj


def report_to_dict(report: VerificationReport) -> dict:
    return _stringify(report)


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def exit_code(verdict: str) -> int:
    return {PASS: 0, PASS_WITH_AMBIGUITY: 2, INCOMPLETE: 3}.get(verdict, 1)
