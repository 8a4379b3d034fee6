"""End-to-end verification: formula values against machine-verified witnesses.

``verify_case(p, n, ring)`` evaluates the closed-form invariant, builds the
menu of witness groups fitting in dimension n, verifies each one by closure
enumeration, and certifies a lower bound as the lcm of the known invariants
of the witnesses that actually verified.  It also runs the Chern-class
consistency checks, from traces read off permutations, on every order-p
cyclic subgroup of every verified witness; each Chern bound there is a
positive integer.  The verdict is

* ``Pass``              -- certified lower bound equals the formula value;
* ``PassWithAmbiguity`` -- the SL formula is only pinned up to a factor of 2
                           and the certified bound hits one of the two
                           candidates;
* ``Incomplete``        -- all checks consistent, but no fitting witness set
                           certifies the full value (honest gap, not a
                           failure);
* ``Fail``              -- a witness failed verification or a consistency
                           check was violated.  A witness whose group is
                           larger than its claimed order gets no report:
                           closure raises ``CapExceededError`` at the first
                           element past the claim (the CLI exits 1).

Report JSON serializes every integer as a decimal string so downstream
consumers cannot lose precision.  ``report_to_json`` writes it in one walk
over the report's records, byte-identical to ``json.dumps(indent=2,
sort_keys=True)`` of the same data (whose ``indent`` takes the slower
pure-Python encoder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

from .chern import exponents_from_trace, n_upper
from .exactmat import MatrixGroup, order_p_cyclic_subgroups
from .fppoly import mp_q_decompose
from .formulas import yagita_gl, yagita_sl, yagita_sl_Z
from .numutil import MAX_N, MAX_PRIME, is_prime
from .ringspec import RingSpec, compute_l, is_rational_integers
from .witness import (
    WitnessEmbedding,
    verify_embedding,
    witness_menu,
)

PASS = "Pass"
PASS_WITH_AMBIGUITY = "PassWithAmbiguity"
INCOMPLETE = "Incomplete"
FAIL = "Fail"


@dataclass(frozen=True)
class _Checked:
    """What verify_case keeps of one verified witness: the verification
    outcome, the closure order and, for a witness that verified, one Chern
    row per order-p cyclic subgroup (independent of the ambient n).  The
    enumerated elements are not kept."""

    ok: bool
    order: int
    chern_rows: tuple


# keyed by (kind, ring, padded), which name the model whatever the ring's
# spelling (w.ring is read off the generators); the kind implies p
_checked: dict[tuple, _Checked] = {}


def _check(w: WitnessEmbedding, p: int) -> _Checked:
    key = (w.kind, w.ring, w.padded)
    if key not in _checked:
        vw = verify_embedding(w)
        rows = _chern_scan(vw.group, p) if vw.ok else ()
        _checked[key] = _Checked(vw.ok, vw.order, rows)
    return _checked[key]


def _chern_scan(group: MatrixGroup, p: int) -> tuple:
    """Per order-p cyclic subgroup of the group: the Chern divisor bound,
    its m * p^q decomposition, and whether m divides p - 1.

    Each representative is an element of order p of a group of matrices,
    so it has an eigenvalue zeta_p**a with a != 0 and a nonconstant total
    Chern class: a bound of 0 can only mean an arithmetic bug.  The trace
    of an element of order p fixes the multiplicity of each eigenvalue
    (``exponents_from_trace``), and the multiplicities fix the rest of the
    row, so each row is computed once per distinct trace: the largest
    witnesses have only a few traces over thousands of subgroups."""
    rows, by_trace = [], {}
    # the scan has proved x**p = 1 for each representative
    for idx, x in enumerate(order_p_cyclic_subgroups(group, p)):
        t = group.trace(x)
        k = t.key()
        if k not in by_trace:
            nu = n_upper(exponents_from_trace(t, group.size, p))
            if not nu:
                raise ArithmeticError(
                    f"order-{p} subgroup {idx} has a constant total Chern class; arithmetic bug"
                )
            m_part, q_part = mp_q_decompose(nu, p)
            by_trace[k] = (nu, m_part, q_part, (p - 1) % m_part == 0)
        rows.append((idx, *by_trace[k]))
    return tuple(rows)


def yagita_upper_witness(group: MatrixGroup, p: int) -> int:
    """Lcm of 2 * n_upper over the order-p cyclic subgroups (1 if none): an
    upper-bound divisor for the Yagita invariant of any group factoring
    through this matrix group.  Demo 03 calls it."""
    return math.lcm(*(2 * nu for _, nu, *_ in _chern_scan(group, p)))


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
    n_upper: int
    m: int
    q: int
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


def verify_case(p: int, n: int, ring: RingSpec, sl: bool = False) -> VerificationReport:
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

    menu = [w for w in witness_menu(p, n, ring) if (w.claims_sl if sl else not w.padded)]
    lines: list[WitnessLine] = []
    chern_lines: list[ChernLine] = []
    hard_fail = False
    certified = 1
    for w in menu:
        checked = _check(w, p)
        # a verified embedding transports its group's known invariant into
        # GL_n, so that invariant must divide the GL formula value
        l_w = compute_l(w.ring, p)
        ambient = yagita_gl(p, w.dimension, l_w)
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
        for idx, nu, m_part, q_part, prop_ok in checked.chern_rows:
            rat_ok = nu % l_w == 0
            divides = gl_value % (2 * nu) == 0
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

# each record type's fields, sorted, with the JSON text of each key
_FIELDS = {
    cls: tuple(
        (name, f"{encode_basestring_ascii(name)}: ") for name in sorted(f.name for f in fields(cls))
    )
    for cls in (VerificationReport, WitnessLine, ChernLine)
}


def _emit(obj, out: list, pad: str) -> None:
    """Append the JSON text of a report or a part of one, indented by pad,
    to out: records become objects with sorted keys, tuples lists and
    integers decimal strings; the pieces are those json.dumps(indent=2,
    sort_keys=True) writes.  Anything else, a float included, raises
    TypeError."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append('"%d"' % obj)
    elif type(obj) in _FIELDS:
        inner = pad + "  "
        sep = "{\n" + inner
        for name, key in _FIELDS[type(obj)]:
            out.append(sep + key)
            sep = ",\n" + inner
            _emit(getattr(obj, name), out, inner)
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in obj:
            out.append(sep)
            sep = ",\n" + inner
            _emit(v, out, inner)
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"no {type(obj).__name__} belongs in a report")


def report_to_json(report: VerificationReport) -> str:
    out: list[str] = []
    _emit(report, out, "")
    return "".join(out)


def exit_code(verdict: str) -> int:
    return {PASS: 0, PASS_WITH_AMBIGUITY: 2, INCOMPLETE: 3}.get(verdict, 1)
