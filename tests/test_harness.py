import dataclasses
import json
import math
import random
import typing
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yagita import exactmat, harness, witness
from yagita.chern import EigenExponents, exponents_from_trace, n_upper
from yagita.exactmat import CycMatrix, order_p_cyclic_subgroups
from yagita.fppoly import mp_q_decompose
from yagita.harness import (
    FAIL,
    INCOMPLETE,
    PASS,
    PASS_WITH_AMBIGUITY,
    ChernLine,
    VerificationReport,
    WitnessLine,
    exit_code,
    report_to_json,
    table,
    table_tsv,
    verify_case,
)
from yagita.ringspec import Cyclotomic, QuadraticOrder, RationalIntegers, parse_ring
from yagita.witness import witness_menu

Z = RationalIntegers()


def test_verify_case_g1_small():
    r = verify_case(3, 2, Z)
    assert r.formula_value == 4 and not r.formula_ambiguous
    assert r.certified_lower == 4
    assert r.verdict == PASS
    kinds = [w.kind for w in r.witnesses]
    assert "G1(3,2)" in kinds
    assert all(w.verified for w in r.witnesses)
    assert all(c.rationality_ok and c.divides_formula for c in r.chern_consistency)


def test_verify_case_below_l_has_no_witnesses():
    r = verify_case(5, 3, Z)
    assert r.formula_value == 1
    assert r.witnesses == ()
    assert r.certified_lower == 1
    assert r.verdict == PASS


def test_verify_case_p2_n4():
    r = verify_case(2, 4, Z)
    assert r.formula_value == 8
    assert r.certified_lower == 8
    assert r.verdict == PASS
    oracle_by_kind = {w.kind: w.oracle for w in r.witnesses}
    assert oracle_by_kind["E(2,2)"] == 8


def test_verify_case_sl_half_certified():
    r = verify_case(5, 4, Z, sl=True)
    assert r.formula_value == 8 and r.formula_ambiguous
    assert r.certified_lower == 4
    assert r.verdict == PASS_WITH_AMBIGUITY


def test_verify_case_sl_incomplete_when_nothing_fits():
    r = verify_case(2, 2, Z, sl=True)
    assert r.formula_ambiguous and r.certified_lower == 1
    assert r.verdict == INCOMPLETE


def test_verify_case_sl_exact_over_gaussians():
    r = verify_case(2, 2, Cyclotomic(4), sl=True)
    assert r.formula_value == 4 and not r.formula_ambiguous
    assert r.certified_lower == 4  # the quaternion group certifies it
    assert r.verdict == PASS


def test_verify_case_unbuildable_ring_is_incomplete():
    r = verify_case(7, 6, QuadraticOrder(-7), sl=False)
    assert r.l == 3
    assert r.witnesses == ()
    assert r.verdict == INCOMPLETE


# every spelling of one field parsed by parse_ring: subcyclotomic:p:1 is Q
# (its ring of integers Z) for every p, subcyclotomic:p:(p-1) is Q(zeta_p)
SPELLINGS_OF_ONE_FIELD = [
    ["Z", "cyclotomic:1", "cyclotomic:2"] + [f"subcyclotomic:{p}:1" for p in (2, 3, 5, 7)],
    ["Z[i]", "cyclotomic:4", "quadratic:-1"],
    ["cyclotomic:3", "cyclotomic:6", "quadratic:-3", "subcyclotomic:3:2"],
    ["cyclotomic:5", "cyclotomic:10", "subcyclotomic:5:4"],
    ["cyclotomic:7", "cyclotomic:14", "subcyclotomic:7:6"],
    ["quadratic:5", "subcyclotomic:5:2"],
    ["quadratic:-7", "subcyclotomic:7:2"],
]


@pytest.mark.parametrize("spellings", SPELLINGS_OF_ONE_FIELD, ids=lambda g: g[0])
def test_every_spelling_of_a_field_gives_the_same_answers(spellings, monkeypatch):
    rings = [parse_ring(s) for s in spellings]
    verified = []
    real = harness.verify_embedding

    def counting(w):
        verified.append((w.kind, w.padded))
        return real(w)

    monkeypatch.setattr(harness, "_checked", {})
    monkeypatch.setattr(harness, "verify_embedding", counting)
    for p in (2, 3, 5, 7):
        # every spelling gets the same models, named by the same ring
        for n in range(1, 9):
            models = [[(w.kind, w.padded, w.ring) for w in witness_menu(p, n, ring)] for ring in rings]
            assert all(m == models[0] for m in models), (p, n, models)
        tables = {s: table(p, ring, 8) for s, ring in zip(spellings, rings)}
        assert len(set(map(tuple, tables.values()))) == 1, (p, tables)
        for n in range(1, 9):
            for sl in (False, True) if n >= 2 else (False,):
                answers = {}
                for s, ring in zip(spellings, rings):
                    r = verify_case(p, n, ring, sl)
                    kinds = tuple(w.kind for w in r.witnesses)
                    answers[s] = (r.formula_value, r.formula_ambiguous, r.verdict, r.certified_lower, kinds)
                assert len(set(answers.values())) == 1, (p, n, sl, answers)
    # one verification per model, whatever the spelling
    assert len(verified) == len(set(verified)), Counter(verified)


def test_report_json_round_trip_and_strings():
    r = verify_case(3, 6, Z)
    blob = report_to_json(r)
    parsed = json.loads(blob)
    assert json.dumps(parsed, indent=2, sort_keys=True) == blob
    assert parsed["formula_value"] == "12"
    assert parsed["certified_lower"] == "12"
    assert isinstance(parsed["formula_ambiguous"], bool)
    assert all(isinstance(w["oracle"], str) for w in parsed["witnesses"])
    d = json.loads(report_to_json(r))
    assert d["p"] == "3" and d["verdict"] == "Pass"


def _oracle(obj):
    """The reference serialization: records become dicts of their fields,
    tuples lists and integers decimal strings, for json.dumps(indent=2,
    sort_keys=True) to write."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [_oracle(v) for v in obj]
    if dataclasses.is_dataclass(obj):
        return {f.name: _oracle(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, float):
        raise TypeError("no float belongs in a report")
    return obj


def _assert_matches_oracle(report):
    try:
        want = _oracle(report)
    except TypeError:  # a float, infinity included, has no report text
        with pytest.raises(TypeError, match="no float belongs"):
            report_to_json(report)
        return
    assert report_to_json(report) == json.dumps(want, indent=2, sort_keys=True)
    assert json.loads(report_to_json(report)) == want


def test_report_json_matches_json_dumps():
    reports = [
        verify_case(3, 6, Z),
        verify_case(5, 5, Cyclotomic(5)),
        verify_case(5, 4, Z, sl=True),
        verify_case(7, 6, QuadraticOrder(-7)),
    ]
    assert [r.verdict for r in reports] == [PASS, PASS, PASS_WITH_AMBIGUITY, INCOMPLETE]
    assert reports[-1].witnesses == () and reports[-1].chern_consistency == ()
    # a Chern bound is an integer: a float infinity in its place has no
    # report text
    r = reports[0]
    lines = tuple(
        dataclasses.replace(c, n_upper=math.inf, m=math.inf, q="infinity")
        for c in r.chern_consistency
    )
    reports.append(dataclasses.replace(r, chern_consistency=lines))
    assert lines
    with pytest.raises(TypeError, match="no float belongs"):
        report_to_json(reports[-1])
    for report in reports:
        _assert_matches_oracle(report)


_text = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7fζ\u2028'), st.characters()))
_scalar = st.one_of(
    _text,
    st.booleans(),
    st.integers(-(10**30), 10**30),
    st.sampled_from([10**30, -(10**30), 0, -1, math.inf]),
    st.just(()),
)


def _records(cls, **given_fields):
    values = {f.name: _scalar for f in dataclasses.fields(cls)}
    return st.builds(cls, **{**values, **given_fields})


@settings(max_examples=60, deadline=None)
@given(
    _records(
        VerificationReport,
        witnesses=st.lists(_records(WitnessLine), max_size=3).map(tuple),
        chern_consistency=st.lists(_records(ChernLine), max_size=3).map(tuple),
    )
)
def test_report_json_matches_json_dumps_on_built_reports(report):
    _assert_matches_oracle(report)


@pytest.mark.parametrize("x", [1.5, 0.0, -2.0, math.nan, math.inf])
def test_report_json_rejects_inexact_numbers(x):
    r = verify_case(3, 2, Z)
    line = dataclasses.replace(r.chern_consistency[0], m=x)
    bad_reports = (
        dataclasses.replace(r, formula_value=x),
        dataclasses.replace(r, chern_consistency=(line,)),
    )
    for bad in bad_reports:
        for write in (report_to_json, _oracle):
            with pytest.raises(TypeError, match="no float belongs"):
                write(bad)


# well-typed records: every field has exactly its declared type, so that
# report_to_json writes each one from its template
_typed_values = {
    int: st.one_of(st.integers(-(10**30), 10**30), st.sampled_from([10**30, -(10**30), 0, -1])),
    bool: st.booleans(),
    str: st.text(st.one_of(st.sampled_from('"\\/\n\x00 ζ'), st.characters())),
}


def _typed_records(cls, **given_fields):
    values = {name: _typed_values[t] for name, t in typing.get_type_hints(cls).items() if t in _typed_values}
    return st.builds(cls, **{**values, **given_fields})


_typed_reports = _typed_records(
    VerificationReport,
    witnesses=st.lists(_typed_records(WitnessLine), max_size=3).map(tuple),
    chern_consistency=st.lists(_typed_records(ChernLine), max_size=3).map(tuple),
)


def _written_from_templates(report):
    """report_to_json(report), failing if any part of it falls back to _emit."""
    with mock.patch.object(harness, "_emit", side_effect=AssertionError("fell back to _emit")):
        return report_to_json(report)


@settings(max_examples=100, deadline=None)
@given(_typed_reports)
def test_report_json_templates_match_json_dumps(report):
    assert _written_from_templates(report) == json.dumps(_oracle(report), indent=2, sort_keys=True)


def test_report_json_templates_match_json_dumps_on_a_large_report():
    r = verify_case(3, 54, Z)
    assert r.verdict == PASS and len(r.chern_consistency) == 1228
    assert _written_from_templates(r) == json.dumps(_oracle(r), indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(_typed_reports, st.data())
def test_report_json_one_mistyped_field_in_a_typed_report(report, data):
    # a float raises wherever it sits; any other value outside its field's
    # declared type (a bool in an int field, say) is written by _emit
    records = [report, *report.witnesses, *report.chern_consistency]
    i = data.draw(st.integers(0, len(records) - 1))
    names = [f.name for f in dataclasses.fields(records[i]) if f.name not in ("witnesses", "chern_consistency")]
    x = data.draw(st.sampled_from([1.5, 0.0, -1.0, math.inf, math.nan, True, False, 7, "7", ()]))
    bad = dataclasses.replace(records[i], **{data.draw(st.sampled_from(names)): x})
    k = len(report.witnesses)
    if i == 0:
        report = bad
    elif i <= k:
        report = dataclasses.replace(report, witnesses=(*report.witnesses[: i - 1], bad, *report.witnesses[i:]))
    else:
        j = i - 1 - k
        lines = report.chern_consistency
        report = dataclasses.replace(report, chern_consistency=(*lines[:j], bad, *lines[j + 1 :]))
    _assert_matches_oracle(report)  # which requires the TypeError for a float


def test_report_json_lines_of_another_type():
    # each item of a report's tuple of lines is written by the template of
    # its own type or by _emit, whatever the tuple declares
    r = verify_case(3, 6, Z)
    swapped = dataclasses.replace(
        r, witnesses=(*r.chern_consistency[:2], 7, "7", ()), chern_consistency=(*r.witnesses, r)
    )
    assert report_to_json(swapped) == json.dumps(_oracle(swapped), indent=2, sort_keys=True)


def test_constant_chern_class_raises(monkeypatch):
    # an engine that read a representative as the identity would give the
    # bound 0 (a constant class); that raises instead of becoming a row
    def identity_multiplicities(t, n, p):
        return EigenExponents(p, (n,) + (0,) * (p - 1))

    monkeypatch.setattr(harness, "exponents_from_trace", identity_multiplicities)
    monkeypatch.setattr(harness, "_checked", {})
    with pytest.raises(ArithmeticError, match="constant total Chern class"):
        verify_case(3, 6, Z)


# the coverage grid: p in {2, 3, 5, 7}, ten rings, n <= 10, GL and SL
GRID_RINGS = (
    "Z", "Z[i]", "cyclotomic:{p}", "cyclotomic:3", "quadratic:-3", "quadratic:5",
    "quadratic:-7", "subcyclotomic:5:2", "subcyclotomic:7:2", "subcyclotomic:7:3",
)


def test_every_chern_bound_on_the_grid_is_a_positive_int():
    rows = 0
    for p in (2, 3, 5, 7):
        for text in GRID_RINGS:
            ring = parse_ring(text.format(p=4 if p == 2 else p))
            for n in range(1, 11):
                for sl in (False, True) if n >= 2 else (False,):
                    for c in verify_case(p, n, ring, sl=sl).chern_consistency:
                        assert type(c.n_upper) is int and c.n_upper >= 1, (p, n, text, sl)
                        rows += 1
    assert rows > 10_000


def _coverage_grid():
    """The coverage grid, each (p, ring) pair once: GL for n = 1..10 and SL
    for n = 2..10."""
    for p in (2, 3, 5, 7):
        for text in dict.fromkeys(t.format(p=4 if p == 2 else p) for t in GRID_RINGS):
            for n in range(1, 11):
                for sl in (False, True) if n >= 2 else (False,):
                    yield p, text, n, sl


COVERAGE_GRID = Path(__file__).parent / "data" / "coverage_grid.tsv"


def coverage_grid_tsv() -> str:
    """The verdict table of the coverage grid.  A change that moves a
    verdict or a certified bound writes it anew with
    PYTHONPATH=src:tests python -c 'import test_harness as t; print(t.coverage_grid_tsv(), end="")' > tests/data/coverage_grid.tsv
    """
    rows = ["p\tring\tn\tgroup\tverdict\tcertified_lower"]
    for p, text, n, sl in _coverage_grid():
        try:
            r = verify_case(p, n, parse_ring(text), sl=sl)
            verdict, certified = r.verdict, r.certified_lower
        except Exception as exc:  # an error is a row of its own, never a verdict
            verdict, certified = f"error: {type(exc).__name__}: {exc}", "-"
        rows.append(f"{p}\t{text}\t{n}\t{'SL' if sl else 'GL'}\t{verdict}\t{certified}")
    return "\n".join(rows) + "\n"


def test_coverage_grid_verdicts_hold():
    want = COVERAGE_GRID.read_text(encoding="utf-8").splitlines()
    got = coverage_grid_tsv().splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want) == 1 + 741
    assert [g for g, w in zip(got, want) if g != w] == []
    verdicts = Counter(row.split("\t")[4] for row in got[1:])
    assert verdicts == {PASS: 383, PASS_WITH_AMBIGUITY: 3, INCOMPLETE: 355}  # no Fail, no error


def test_table_p2():
    rows = table(2, Z, 4)
    assert [r.gl for r in rows] == [2, 4, 4, 8]
    assert rows[0].sl == "-"
    assert rows[1].sl == "2"  # over Z the n = 2 value resolves to the half


def test_table_p5_special_column():
    rows = table(5, Z, 5)
    assert rows[3].gl == 8 and rows[3].sl == "4"
    assert rows[4].gl == 8 and rows[4].sl == "8"


def test_table_p3_sl2():
    rows = table(3, Z, 2)
    assert rows[1].sl == "2"


def test_table_ambiguity_annotation():
    rows = table(5, Cyclotomic(5), 2)
    assert "undetermined" in rows[1].sl


def test_table_tsv_shape():
    text = table_tsv(table(2, Z, 3))
    lines = text.splitlines()
    assert lines[0] == "n\tGL\tSL"
    assert len(lines) == 4


def test_exit_codes():
    assert exit_code(PASS) == 0
    assert exit_code(PASS_WITH_AMBIGUITY) == 2
    assert exit_code(INCOMPLETE) == 3
    assert exit_code(FAIL) == 1


def test_guards():
    with pytest.raises(ValueError):
        verify_case(4, 2, Z)
    with pytest.raises(ValueError):
        verify_case(3, 0, Z)
    with pytest.raises(ValueError):
        verify_case(3, 5000, Z)
    with pytest.raises(ValueError):
        table(3, Z, 5000)


def _matrices_in(obj):
    if isinstance(obj, CycMatrix):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _matrices_in(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _matrices_in(x)


def test_each_witness_verified_once_and_no_elements_cached(monkeypatch):
    calls = Counter()
    real = witness.verify_embedding

    def counted(w, *args, **kwargs):
        calls[str(w)] += 1
        return real(w, *args, **kwargs)

    monkeypatch.setattr(witness, "verify_embedding", counted)
    monkeypatch.setattr(harness, "verify_embedding", counted)
    monkeypatch.setattr(harness, "_checked", {})
    # build from cold, as a new process does; the menus hold built
    # embeddings, so they go with the builds
    witness.build.cache_clear()
    witness._menus.clear()
    for sl, n_min in ((False, 1), (True, 2)):
        for n in range(n_min, 5):
            assert verify_case(2, n, Z, sl=sl).verdict != FAIL
    distinct = {str(w) for n in range(1, 5) for w in witness_menu(2, n, Z)}
    assert len(distinct) == 3  # D8, its SL pad and E(2,2)
    assert dict(calls) == dict.fromkeys(distinct, 1)
    assert len(harness._checked) == len(distinct)
    assert [m for v in harness._checked.values() for m in _matrices_in(v)] == []


def test_chern_scan_takes_one_pth_power_per_scanned_element(monkeypatch):
    # the scan proves x**p = 1 for each representative, as a permutation
    # power, and the Chern step reads the multiplicities off the trace
    # without proving it again, by a permutation or a matrix power
    w = witness.build(witness.WitnessKind("E", 3, 1), Cyclotomic(3))
    vw = witness.verify_embedding(w)
    powers = []
    real = exactmat.power

    def counted(x, e):
        powers.append((type(x).__name__, e))
        return real(x, e)

    monkeypatch.setattr(exactmat, "power", counted)
    reps = order_p_cyclic_subgroups(vw.group, 3)
    alone = list(powers)
    powers.clear()
    rows = harness._chern_scan(vw.group, 3)
    # exponent 3: each of the 13 subgroups is scanned at its first element
    assert alone == [("Perm", 3)] * len(reps) == [("Perm", 3)] * 13
    assert powers == alone
    assert len(rows) == len(reps)


def test_chern_scan_computes_one_row_per_distinct_trace(monkeypatch):
    # E(5,1) over cyclotomic:5 has 31 subgroups of order 5 and 2 traces
    # among their representatives, so 2 bounds are computed for 31 rows
    w = witness.build(witness.WitnessKind("E", 5, 1), Cyclotomic(5))
    group = witness.verify_embedding(w).group
    calls = []
    real = harness.n_upper

    def counted(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(harness, "n_upper", counted)
    rows = harness._chern_scan(group, 5)
    assert len(rows) == 31 and [r[0] for r in rows] == list(range(31))
    assert len(calls) == 2


def _rows_by_subgroup(group, p):
    """Reference: the Chern row of every order-p subgroup, computed alone."""
    rows = []
    for idx, x in enumerate(order_p_cyclic_subgroups(group, p)):
        nu = n_upper(exponents_from_trace(group.trace(x), group.size, p))
        m_part, q_part = mp_q_decompose(nu, p)
        rows.append((idx, nu, m_part, q_part, (p - 1) % m_part == 0))
    return tuple(rows)


def test_chern_rows_per_trace_match_rows_per_subgroup():
    # every distinct menu witness of the coverage grid that verifies
    checked = set()
    for p in (2, 3, 5, 7):
        for text in GRID_RINGS:
            ring = parse_ring(text.format(p=4 if p == 2 else p))
            for n in range(1, 11):
                for w in witness_menu(p, n, ring):
                    if (w.kind, w.ring, w.padded) in checked:
                        continue
                    checked.add((w.kind, w.ring, w.padded))
                    vw = witness.verify_embedding(w)
                    if vw.ok:
                        assert harness._chern_scan(vw.group, p) == _rows_by_subgroup(vw.group, p), w
    assert len(checked) > 30


def _grid_reports(cases) -> dict:
    return {
        (p, text, n, sl): report_to_json(verify_case(p, n, parse_ring(text), sl=sl))
        for p, text, n, sl in cases
    }


def test_warm_reports_equal_cold_reports_on_the_grid(monkeypatch):
    # a warm call reads its menu and its lines from the caches; each report
    # must be the one a cold call writes, whichever earlier call (another
    # n, another spelling, GL or SL) filled them
    monkeypatch.setattr(harness, "_checked", {})
    monkeypatch.setattr(witness, "_menus", {})
    cases = list(_coverage_grid())
    cold = {}
    for case in cases:
        harness._checked.clear()
        witness._menus.clear()
        cold.update(_grid_reports([case]))
    warm = _grid_reports(cases)
    assert [c for c in cases if warm[c] != cold[c]] == []
    shuffled = list(cases)
    random.Random(1).shuffle(shuffled)
    harness._checked.clear()
    witness._menus.clear()
    warm = _grid_reports(shuffled)
    assert [c for c in cases if warm[c] != cold[c]] == []


def _count_inits(monkeypatch, cls) -> list:
    calls = []
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


def test_warm_call_builds_no_lines(monkeypatch):
    # E(2,6) alone has 4159 order-2 subgroups: a warm call hands out the
    # lines kept with each witness's check instead of building them again
    monkeypatch.setattr(harness, "_checked", {})
    monkeypatch.setattr(witness, "_menus", {})
    witness_lines = _count_inits(monkeypatch, WitnessLine)
    chern_lines = _count_inits(monkeypatch, ChernLine)
    cold = verify_case(2, 64, Z)
    assert cold.verdict == PASS and len(cold.chern_consistency) > 5000
    assert len(witness_lines) == len(cold.witnesses)
    assert len(chern_lines) == len(cold.chern_consistency)
    witness_lines.clear()
    chern_lines.clear()
    warm = verify_case(2, 64, Z)
    assert witness_lines == chern_lines == []
    assert warm == cold and report_to_json(warm) == report_to_json(cold)


def test_lines_rebuilt_when_a_bound_does_not_divide(monkeypatch):
    # over Z at p = 3, n = 6 the witnesses are E(3,1) (oracle 6, Chern
    # bounds 4 and 12) and G1(3,2) (oracle 4); against a GL value of 6 the
    # G1 oracle fails and so do E(3,1)'s bounds, row by row
    good = verify_case(3, 6, Z)
    monkeypatch.setattr(harness, "yagita_gl", lambda p, n, l: 6)
    r = verify_case(3, 6, Z)
    assert r.verdict == FAIL and r.formula_value == 6
    assert [(w.kind, w.oracle_divides_formula) for w in r.witnesses] == [
        ("E(3,1)", True), ("G1(3,2)", False)
    ]
    want = [
        dataclasses.replace(c, divides_formula=6 % (2 * c.n_upper) == 0)
        for c in good.chern_consistency if c.witness == "E(3,1)"
    ]
    assert list(r.chern_consistency) == want
    assert {c.divides_formula for c in want} == {False}
    # the kept lines are untouched: the true value passes again
    monkeypatch.undo()
    assert verify_case(3, 6, Z) == good


def _grid_pairs():
    for p in (2, 3, 5, 7):
        for text in dict.fromkeys(t.format(p=4 if p == 2 else p) for t in GRID_RINGS):
            yield p, parse_ring(text)


def test_memoized_menus_equal_fresh_builds(monkeypatch):
    # one memo entry per (p, ring, min(n, MAX_MATRIX_SIZE)); each GL and SL
    # menu is the fresh menu filtered, and the full menu a new list
    monkeypatch.setattr(witness, "_menus", {})
    for p, ring in _grid_pairs():
        for n in (*range(1, 17), exactmat.MAX_MATRIX_SIZE, exactmat.MAX_MATRIX_SIZE + 1):
            witness._menus.clear()
            fresh = witness_menu(p, n, ring)
            for m in range(1, 17):
                witness_menu(p, m, ring, m % 2 == 0)
            menu = witness_menu(p, n, ring)
            assert menu == fresh and menu is not witness_menu(p, n, ring), (p, ring, n)
            assert witness_menu(p, n, ring, False) == tuple(w for w in fresh if not w.padded)
            assert witness_menu(p, n, ring, True) == tuple(w for w in fresh if w.claims_sl)
            assert len(witness._menus) == len({*range(1, 17), min(n, exactmat.MAX_MATRIX_SIZE)})
