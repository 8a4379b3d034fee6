"""End-to-end verification: formula values against machine-verified witnesses.

``verify_case(p, n, ring)`` evaluates the closed-form invariant, builds the
menu of witness groups fitting in dimension n, verifies each one by closure
enumeration, and certifies a lower bound as the lcm of the known invariants
of the witnesses that actually verified.  It also runs the Chern-class
consistency checks, from traces read off permutations, on every order-p
cyclic subgroup of every verified witness; each Chern bound there is a
positive integer.  Only the formula values, the divisibility tests against
them, the verdict and the report depend on n: the menus (memoized by
``witness_menu``) and each witness's verification and report lines
(``_checked``) are kept for the life of the process.  The verdict is

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
consumers cannot lose precision.  ``report_to_json`` writes it
byte-identical to ``json.dumps(indent=2, sort_keys=True)`` of the same data
(whose ``indent`` takes the slower pure-Python encoder).  The report and
each of its lines whose every field has exactly its declared type (int,
bool, str, or the tuple of lines) is written from one %-format per record
type; any other record, a float in it included, goes through ``_emit``, a
walk over its values that is also the reference the tests compare with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from typing import get_args, get_origin, get_type_hints

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
class _Checked:
    """What verify_case keeps of one verified witness, none of it dependent
    on the ambient n: its ``WitnessLine`` as reported for an n whose GL
    value its known invariant divides; for a witness that verified, its
    ``ChernLine`` per order-p cyclic subgroup as reported for an n whose GL
    value every Chern bound divides, the lcm of those bounds 2 * n_upper,
    and whether every row passes its m | p - 1 and rationality tests.  The
    enumerated elements are not kept."""

    line: WitnessLine
    chern_lines: tuple
    chern_bound: int
    chern_ok: bool


# keyed by (kind, ring, padded), which name the model whatever the ring's
# spelling (w.ring is read off the generators); the kind implies p
_checked: dict[tuple, _Checked] = {}

def _check(w: WitnessEmbedding, p: int) -> _Checked:
    key = (w.kind, w.ring, w.padded)
    checked = _checked.get(key)
    if checked is None:
        vw = verify_embedding(w)
        # a verified embedding transports its group's known invariant into
        # GL of its own dimension over its own ring, so that invariant must
        # divide the GL formula value there; and each Chern bound must be a
        # multiple of that ring's l (the rationality test)
        l_w = compute_l(w.ring, p)
        oracle = w.expected_yagita
        line = WitnessLine(
            kind=w.label,
            dimension=w.dimension,
            padded=w.padded,
            verified=vw.ok,
            oracle=oracle,
            order=vw.order,
            oracle_divides_formula=yagita_gl(p, w.dimension, l_w) % oracle == 0,
        )
        rows = _chern_scan(vw.group, p) if vw.ok else ()
        chern_lines = tuple(
            ChernLine(
                witness=w.label,
                subgroup=idx,
                n_upper=nu,
                m=m_part,
                q=q_part,
                rationality_ok=nu % l_w == 0,
                divides_formula=True,
            )
            for idx, nu, m_part, q_part, _ in rows
        )
        checked = _checked[key] = _Checked(
            line,
            chern_lines,
            math.lcm(*(2 * nu for _, nu, *_ in rows)),
            all(prop_ok and nu % l_w == 0 for _, nu, _, _, prop_ok in rows),
        )
    return checked


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

    lines: list[WitnessLine] = []
    chern_lines: list[ChernLine] = []
    hard_fail = False
    certified = 1
    for w in witness_menu(p, n, ring, sl):
        checked = _check(w, p)
        line = checked.line
        # padded into GL_n, the known invariant must divide the GL value too
        if gl_value % line.oracle:
            line = replace(line, oracle_divides_formula=False)
        lines.append(line)
        if not (line.verified and line.oracle_divides_formula):
            hard_fail = True
            continue
        certified = math.lcm(certified, line.oracle)
        if gl_value % checked.chern_bound == 0:
            chern_lines += checked.chern_lines
            hard_fail = hard_fail or not checked.chern_ok
        else:
            hard_fail = True
            chern_lines += (
                replace(c, divides_formula=gl_value % (2 * c.n_upper) == 0)
                for c in checked.chern_lines
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


def _emitted(obj, pad: str) -> str:
    out: list[str] = []
    _emit(obj, out, pad)
    return "".join(out)


# a declared field type: its place in a template and the expression that
# turns a value v of exactly that type into the place's argument (an int's
# %s is its %d, and quicker; a tuple holds the lines of one record type)
_SLOTS = {
    int: ('"%s"', "{v}"),
    bool: ("%s", '("false", "true")[{v}]'),
    str: ("%s", "encode_basestring_ascii({v})"),
    tuple: ("%s", "_lines_text({v}, _LINE_WRITERS[{item}])"),
}


def _writer(cls, pad: str):
    """The writer of a record of type cls indented by pad.  A record of that
    type whose every field has exactly its declared type (a bool is not an
    int here) is written from one %-format built from the sorted keys of
    _FIELDS; anything else goes through _emit.  The writer is generated, as
    dataclasses generates __init__, so that each field is one local name and
    only a string or a tuple costs a call."""
    hints = get_type_hints(cls)
    names = [name for name, _ in _FIELDS[cls]]
    types = [get_origin(hints[name]) or hints[name] for name in names]
    inner = "\n" + pad + "  "
    template = "{" + ",".join(
        inner + key + _SLOTS[t][0] for (_, key), t in zip(_FIELDS[cls], types)
    ) + "\n" + pad + "}"
    values = [f"v{i}" for i in range(len(names))]
    args = [
        _SLOTS[t][1].format(v=v, item=t is tuple and get_args(hints[name])[0].__name__)
        for v, t, name in zip(values, types, names)
    ]
    source = f"""def write(record):
    if type(record) is {cls.__name__}:
        {", ".join(values)}, = {", ".join("record." + name for name in names)},
        if {" and ".join(f"type({v}) is {t.__name__}" for v, t in zip(values, types))}:
            return {template!r} % ({", ".join(args)},)
    return _emitted(record, {pad!r})
"""
    scope: dict = {}
    exec(source, globals(), scope)
    return scope["write"]


def _lines_text(lines: tuple, write) -> str:
    """The JSON text of a tuple of report lines, each written by write, at
    the indent of a field of the report."""
    if not lines:
        return "[]"
    return "[\n    " + ",\n    ".join(map(write, lines)) + "\n  ]"


# the lines of a report sit in its lists, two levels in
_LINE_WRITERS = {cls: _writer(cls, "    ") for cls in (WitnessLine, ChernLine)}
_write_report = _writer(VerificationReport, "")


def report_to_json(report: VerificationReport) -> str:
    return _write_report(report)


def exit_code(verdict: str) -> int:
    return {PASS: 0, PASS_WITH_AMBIGUITY: 2, INCOMPLETE: 3}.get(verdict, 1)
