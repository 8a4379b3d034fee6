import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yagita.cli
from yagita.cli import main
from yagita.cyclo import CycNum, zeta
from yagita.exactmat import CycMatrix, Perm
from yagita.fppoly import check_prop6, random_unit_root_product
from yagita.ringspec import RationalIntegers
from yagita.witness import WitnessKind, build, build_extraspecial_monomial, build_q8


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute(capsys):
    code, out = run(capsys, "compute", "--prime", "3", "--n", "9", "--ring", "Z")
    assert code == 0 and out.strip() == "12"


def test_compute_json(capsys):
    code, out = run(capsys, "compute", "--prime", "2", "--n", "4", "--ring", "Z", "--json")
    assert code == 0 and json.loads(out) == {"value": "8"}


def test_compute_sl_ambiguous(capsys):
    code, out = run(capsys, "compute", "--prime", "2", "--n", "2", "--ring", "Z", "--sl")
    assert code == 0 and "4 or 2" in out


# sha256 of the whole `witness --json` output, element matrices included,
# as the matrix-product closure printed it
WITNESS_JSON_SHA256 = {
    ("q8", "Z"): "23ac00d2423c09b7b1908890b67f1c9d70116de6120894a0d9b581ad8c94a60f",
    ("d8", "Z"): "7cf369eed6baa414a61fbc5d49ec78ed3a6e527f7ea1a8611f002045ecf01cb0",
    ("e:2:3", "Z"): "434b63f3114c86a93a8b08107fab2bbd273940cc5f10ffa544c25beb3f5d8f7c",
    ("e:3:1", "cyclotomic:3"): "30a415c65af87f17ae22b9adcebf6146986562c6766522a3bfa7774de54f715c",
    ("g1:5:4", "Z"): "5d60ecdea2fdd5adbe8b92a36659a57dd70ec030339964bd3f24a04153cf5c05",
    ("g2:5:2", "cyclotomic:20"): "7acec64e50815372d0f10a68538ca0926d66096265dfde5491977c5d7c1a3610",
}


def test_witness_q8_json(capsys):
    code, out = run(capsys, "witness", "--kind", "q8", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["verification"]["verified"] is True
    assert len(blob["elements"]) == 8
    assert len(blob["generators"]) == 2
    assert blob["expected_order"] == "8"
    # the element matrices are rebuilt from their columns; the bytes of
    # every element list must stay as they were
    for (kind, ring), digest in WITNESS_JSON_SHA256.items():
        code, out = run(capsys, "witness", "--kind", kind, "--ring", ring, "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (kind, ring)


def test_witness_json_cap_is_inclusive(capsys, monkeypatch):
    e24 = build(WitnessKind("E", 2, 4), RationalIntegers())
    assert e24.expected_order * e24.dimension**2 <= yagita.cli.MAX_JSON_ENTRIES
    # Q8: 8 elements of size 2
    monkeypatch.setattr(yagita.cli, "MAX_JSON_ENTRIES", 32)
    assert run(capsys, "witness", "--kind", "q8", "--json")[0] == 0
    monkeypatch.setattr(yagita.cli, "MAX_JSON_ENTRIES", 31)
    assert main(["witness", "--kind", "q8", "--json"]) == 1
    assert "exceeds the cap 31" in capsys.readouterr().err
    assert run(capsys, "witness", "--kind", "q8")[0] == 0


def test_witness_g1(capsys):
    code, out = run(capsys, "witness", "--kind", "g1:3:2", "--ring", "Z")
    assert code == 0 and "order: 6" in out


def test_witness_extraspecial_over_z(capsys):
    code, out = run(capsys, "witness", "--kind", "e:3:1", "--ring", "Z", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["dimension"] == "6"


def test_witness_extraspecial_over_degenerate_cyclotomic(capsys):
    # cyclotomic:2 is Z: the witness command builds the same restriction-of-
    # scalars form that verify certifies there
    code, out = run(capsys, "witness", "--kind", "e:3:1", "--ring", "cyclotomic:2", "--json")
    assert code == 0
    assert json.loads(out)["dimension"] == "6"
    assert out == run(capsys, "witness", "--kind", "e:3:1", "--ring", "Z", "--json")[1]


def test_chern_subcommand(tmp_path, capsys):
    w = build_extraspecial_monomial(3, 1)
    z1 = w.generators[1]  # diagonal of zeta_3 powers
    f = tmp_path / "m.json"
    f.write_text(json.dumps(z1.to_json()), encoding="utf-8")
    code, out = run(capsys, "chern", "--matrix-file", str(f), "--prime", "3", "--json")
    assert code == 0
    blob = json.loads(out)
    assert blob["exponents"] == {"0": "1", "1": "1", "2": "1"}
    assert blob["n_upper"] == "2"


def test_chern_identity_has_no_constraint(tmp_path, capsys):
    # the identity's total Chern class is the constant 1, whose exponent
    # gcd 0 constrains nothing: chern writes it as the word infinity
    f = tmp_path / "identity1.json"
    entry = {"conductor": 1, "num": [1], "den": 1}
    f.write_text(json.dumps({"conductor": 1, "entries": [[entry]]}))
    argv = ("chern", "--matrix-file", str(f), "--prime", "3")
    assert run(capsys, *argv) == (
        0,
        "exponent multiplicities: {0: 1}\n"
        "total Chern class: 1 (mod 3)\n"
        "n_upper: infinity\n",
    )
    assert run(capsys, *argv, "--json") == (
        0,
        '{\n  "exponents": {\n    "0": "1"\n  },\n'
        '  "n_upper": "infinity",\n  "total_chern": "1 (mod 3)"\n}\n',
    )


def test_chern_computes_eigen_exponents_once(tmp_path, capsys, monkeypatch):
    import yagita.chern
    import yagita.cli

    calls = []
    real = yagita.chern.eigen_exponents

    def counted(m, p):
        calls.append(p)
        return real(m, p)

    for module in (yagita.chern, yagita.cli):
        monkeypatch.setattr(module, "eigen_exponents", counted)
    f = tmp_path / "m.json"
    f.write_text(json.dumps(build_extraspecial_monomial(3, 1).generators[1].to_json()))
    assert main(["chern", "--matrix-file", str(f), "--prime", "3"]) == 0
    assert "n_upper: 2" in capsys.readouterr().out
    assert calls == [3]


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--prime", "3", "--n", "2", "--ring", "Z")
    assert code == 0 and "Pass" in out
    code, _ = run(capsys, "verify", "--prime", "5", "--n", "4", "--ring", "Z", "--sl")
    assert code == 2
    code, _ = run(capsys, "verify", "--prime", "2", "--n", "2", "--ring", "Z", "--sl")
    assert code == 3


def test_verify_json_parses(capsys):
    code, out = run(capsys, "verify", "--prime", "2", "--n", "4", "--ring", "Z", "--json")
    blob = json.loads(out)
    assert code == 0 and blob["verdict"] == "Pass" and blob["formula_value"] == "8"


def test_table(capsys):
    code, out = run(capsys, "table", "--prime", "2", "--ring", "Z", "--n-max", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "n\tGL\tSL"
    assert [l.split("\t")[1] for l in lines[1:]] == ["2", "4", "4", "8"]


def test_prop6_random_deterministic(capsys):
    code1, out1 = run(capsys, "prop6", "--prime", "5", "--random", "100", "--seed", "1")
    code2, out2 = run(capsys, "prop6", "--prime", "5", "--random", "100", "--seed", "1")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "all hold: True" in out1


def _conjugated(m, p, seed, steps):
    """m conjugated by seeded elementary matrices I + c*e_ij over Q(zeta_p),
    whose inverses I - c*e_ij are exact: a dense matrix of m's order."""
    rng = random.Random(seed)
    n = m.size
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = zeta(p, rng.randrange(p)) * rng.choice((-2, -1, 1, 2))
        e = [[int(a == b) for b in range(n)] for a in range(n)]
        e[i][j] = c
        e_inv = [row[:] for row in e]
        e_inv[i][j] = -c
        m = CycMatrix(e, p) * m * CycMatrix(e_inv, p)
    return m


def _dense_order_13_matrices():
    cycle = CycMatrix([[int(i == (j + 1) % 13) for j in range(13)] for i in range(13)], 13)
    rng = random.Random(5)
    diag = CycMatrix.diagonal([zeta(13, rng.randrange(13)) for _ in range(8)])
    return _conjugated(cycle, 13, 1, 26), _conjugated(diag, 13, 2, 16)


# sha256 of the whole output, as the per-coefficient kernels printed it
CHERN_JSON_SHA256 = (
    "7cb4215ba099f85884db4914984aac08d5bfe44d87f6627a7dc5768fd643ce15",
    "385f354fca144765ea19f514914a54b619d2d17210d3c08b0ea2705724006bb1",
)
PROP6_SHA256 = {
    ("--prime", "7"): "03776c44b701c91de4d5538aa43553521dd90e51aea60d0f47f9fb909738cda2",
    ("--prime", "13", "--random", "1000", "--seed", "4", "--json"):
        "c2233052337b0ad9ee4056f5ab5b3e8e8f441a09eeff4ca0d5c275ea30201f62",
}


def test_chern_dense_matrix_outputs_are_pinned(tmp_path, capsys):
    for k, (m, digest) in enumerate(zip(_dense_order_13_matrices(), CHERN_JSON_SHA256)):
        # dense: most entries are stored, and they are not roots of unity
        assert sum(map(len, m.nonzero)) > m.size**2 // 2
        f = tmp_path / f"m{k}.json"
        f.write_text(json.dumps(m.to_json()), encoding="utf-8")
        code, out = run(capsys, "chern", "--matrix-file", str(f), "--prime", "13", "--json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", list(PROP6_SHA256), ids=" ".join)
def test_prop6_outputs_are_pinned(capsys, argv):
    code, out = run(capsys, "prop6", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PROP6_SHA256[argv]


@pytest.mark.parametrize("p, count", [(7, 300), (101, 300), (9973, 30)])
def test_prop6_random_matches_the_full_search(capsys, p, count):
    # the CLI tries only the roots of the factors it drew; the reference
    # draws the same products and searches every unit
    code, out = run(capsys, "prop6", "--prime", str(p), "--random", str(count), "--seed", "9", "--json")
    assert code == 0
    rng = random.Random(9)
    want = []
    for _ in range(count):
        f = random_unit_root_product(p, rng)
        v = check_prop6(f)
        want.append({"poly": str(f), "gcd": str(v.gcd), "m": str(v.m), "q": str(v.q), "holds": True})
    assert json.loads(out) == want


def test_prop6_explicit_poly(capsys):
    code, out = run(capsys, "prop6", "--prime", "3", "--poly", "1 + 2*x^2")
    assert code == 0 and "gcd=2" in out and "holds=True" in out


def test_bad_prime_errors(capsys):
    code = main(["compute", "--prime", "9", "--n", "2", "--ring", "Z"])
    assert code != 0


def test_error_path_returns_1(capsys):
    code = main(["chern", "--matrix-file", "/nonexistent.json", "--prime", "3"])
    assert code == 1


def test_witness_larger_than_claimed_exits_1(capsys, monkeypatch):
    # the claimed order bounds the closure: Q8 claimed as a group of order
    # 4 stops at its fifth element, after at most 4 * 2 products of
    # permutations, and makes no matrix product
    import yagita.cli

    monkeypatch.setattr(
        yagita.cli, "build", lambda kind, ring: replace(build_q8(), expected_order=4)
    )
    products = []
    for cls in (CycMatrix, Perm):
        mul = cls.__mul__

        def counted(a, b, mul=mul):
            products.append(type(a).__name__)
            return mul(a, b)

        monkeypatch.setattr(cls, "__mul__", counted)
    assert main(["witness", "--kind", "q8"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: group closure exceeded cap 4\n"
    assert 0 < len(products) <= 4 * 2
    assert set(products) == {"Perm"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["compute", "--prime", "3", "--n", "2", "--ring", "quadratic:1000000000000000003"],
            "bad ring spec 'quadratic:1000000000000000003': "
            "|D| = 1000000000000000003 exceeds the cap 10000",
        ),
        (
            ["compute", "--prime", "3", "--n", "2", "--ring", "quadratic:-10001"],
            "bad ring spec 'quadratic:-10001': |D| = 10001 exceeds the cap 10000",
        ),
        (
            ["compute", "--prime", "3", "--n", "2",
             "--ring", "subcyclotomic:1000000000000000003:1"],
            "bad ring spec 'subcyclotomic:1000000000000000003:1': "
            "|p| = 1000000000000000003 exceeds the cap 10000",
        ),
        (
            ["verify", "--prime", "3", "--n", "2", "--sl", "--ring", "cyclotomic:300000"],
            "bad ring spec 'cyclotomic:300000': |N| = 300000 exceeds the cap 10000",
        ),
        (
            ["witness", "--kind", "g1:100003:2", "--ring", "abstract:1:2"],
            "the prime of --kind must be a prime <= 10000",
        ),
        (
            ["witness", "--kind", "g1:9973:2", "--ring", "abstract:1:2"],
            "no integral model over abstract:1:2 (l = 1); supported: Z and rings "
            "containing zeta_p",
        ),
        (
            ["prop6", "--prime", "3", "--poly", "x^1000000000"],
            "exponent 1000000000 exceeds the cap 4096",
        ),
        (["prop6", "--prime", "3", "--random", "-5"], "--random must be at least 1"),
        (["prop6", "--prime", "3", "--random", "0"], "--random must be at least 1"),
        (["prop6", "--prime", "9973", "--random", "1001"], "--random 1001 exceeds the cap 1000"),
        (
            ["witness", "--kind", "e:2:6", "--ring", "Z", "--json"],
            "--json output of 33554432 matrix entries (8192 elements of size 64) "
            "exceeds the cap 131072",
        ),
        (
            ["prop6", "--prime", "3", "--poly", "1 + x (mod 1000000000000000003)"],
            "modulus 1000000000000000003 exceeds the cap 10000",
        ),
        (
            ["prop6", "--prime", "3", "--poly", "1 + x (mod 7)"],
            "modulus 7 differs from the prime 3",
        ),
    ],
)
def test_unbounded_input_exits_1(capsys, monkeypatch, argv, message):
    # nothing past the bound is factored or tested for primality first
    import yagita.fppoly
    import yagita.ringspec

    hooks = [(yagita.ringspec, name) for name in ("is_prime", "euler_phi", "squarefree_part")]
    for module, name in hooks + [(yagita.fppoly, "is_prime")]:
        real = getattr(module, name)

        def bounded(n, real=real, name=name):
            assert abs(n) <= 10**4, f"{name}({n}) ran before the input bound"
            return real(n)

        monkeypatch.setattr(module, name, bounded)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "kind, message",
    [
        ("e:2:0", "m = 0 must be at least 1"),
        ("e:3:0", "m = 0 must be at least 1"),
        ("e:2:7", "m = 7: 2^m exceeds the matrix-size cap 64"),
    ],
)
def test_extraspecial_rank_out_of_range_exits_1(capsys, kind, message):
    assert main(["witness", "--kind", kind]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "kind",
    ["e:3:300000000", "e:2:4000000000", "e:3:10000000", "e:2:100000000"],
)
def test_huge_extraspecial_rank_fails_fast(kind):
    # the rank is bounded before p^m is taken: a power taken first runs
    # past the timeout, or past the digit limit of its message
    p, m = kind.split(":")[1:]
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-m", "yagita.cli", "witness", "--kind", kind],
        env={**os.environ, "PYTHONPATH": src}, timeout=10, capture_output=True, text=True,
    )
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: m = {m}: {p}^m exceeds the matrix-size cap 64\n"


def _entry(conductor=1, num=(0,), den=1):
    return {"conductor": conductor, "num": list(num), "den": den}


BAD_MATRIX_FILES = [
    (
        {"size": 70, "conductor": 1, "entries": [[_entry()] * 70] * 70},
        "matrix size 70 exceeds the cap 64",
    ),
    (
        {"size": 1, "conductor": 10007, "entries": [[_entry(10007)]]},
        "conductor 10007 exceeds the cap 10000",
    ),
    (  # each conductor is in bounds, their lcm is not
        {"size": 2, "conductor": 1,
         "entries": [[_entry(101), _entry()], [_entry(), _entry(103)]]},
        "conductor 10403 exceeds the cap 10000",
    ),
    (
        {"size": 1, "conductor": 1, "entries": [[_entry(1, (1,), 0)]]},
        "zero denominator",
    ),
    (
        {"size": 2, "conductor": 1, "entries": [[_entry(), _entry()], [_entry()]]},
        "matrix must be square and nonempty",
    ),
    (
        {"size": 1, "conductor": 1, "entries": [[{"num": [1], "den": 1}]]},
        "malformed matrix file: KeyError('conductor')",
    ),
    (
        {"size": 1, "conductor": 1,
         "entries": [[{"conductor": 1, "num": "12", "den": 1}]]},
        "malformed matrix file: TypeError('entry num is not a list')",
    ),
    (  # reducing 12000 coefficients mod the 9973rd cyclotomic polynomial
        # and the order test after it would take about a minute
        {"size": 1, "conductor": 9973,
         "entries": [[_entry(9973, random.Random(0).choices(range(-9, 10), k=12000))]]},
        "entry num of length 12000 exceeds the cap phi(9973) = 9972",
    ),
    (
        {"size": 1, "conductor": 1, "entries": [[_entry(0)]]},
        "conductor 0 is not positive",
    ),
    (  # read as 1 by int(), so the identity's answer came out
        {"size": 1, "conductor": 1, "entries": [[_entry(1, (1.5,))]]},
        "expected an integer, got 1.5",
    ),
    (
        {"size": 1, "conductor": 1, "entries": [[_entry(1, (1,), 1.9)]]},
        "expected an integer, got 1.9",
    ),
    (
        {"size": 1, "conductor": 1, "entries": [[_entry(2.5, (1,))]]},
        "expected an integer, got 2.5",
    ),
    (  # the top-level conductor was folded into the lcm unchecked, so 0
        # and -7 were read as conductor 1 and the identity's answer came out
        {"size": 1, "conductor": 0, "entries": [[_entry(1, (1,))]]},
        "conductor 0 is not positive",
    ),
    (
        {"size": 1, "conductor": -7, "entries": [[_entry(1, (1,))]]},
        "conductor -7 is not positive",
    ),
]


def _forbid_parsing_before_bounds(monkeypatch, message):
    """Fail the test if an entry becomes a number when one of its bounds
    fails: every bound of every entry is checked first."""
    if "cap" in message or "malformed" in message or "not positive" in message:

        def no_parse(obj):
            raise AssertionError("entry parsed before every bound was checked")

        monkeypatch.setattr(CycNum, "from_json", no_parse)


@pytest.mark.parametrize("matrix, message", BAD_MATRIX_FILES)
def test_chern_rejects_bad_matrix_file(
    tmp_path, capsys, monkeypatch, bounded_factoring, matrix, message
):
    f = tmp_path / "m.json"
    f.write_text(json.dumps(matrix), encoding="utf-8")
    _forbid_parsing_before_bounds(monkeypatch, message)
    assert main(["chern", "--matrix-file", str(f), "--prime", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("opening", ["[", '{"entries": '])
def test_chern_rejects_deeply_nested_matrix_file(tmp_path, capsys, opening):
    # json.load recurses once per level, so 200 000 levels pass any
    # recursion limit; the file is malformed, not a crash
    f = tmp_path / "m.json"
    f.write_text(opening * 200_000, encoding="utf-8")
    assert main(["chern", "--matrix-file", str(f), "--prime", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed matrix file: RecursionError(")


@pytest.mark.parametrize("matrix, message", BAD_MATRIX_FILES)
def test_matrix_json_rejects_bad_matrix_file(monkeypatch, bounded_factoring, matrix, message):
    # the library reader raises what the CLI reports, which only names a
    # KeyError or TypeError as a malformed file
    _forbid_parsing_before_bounds(monkeypatch, message)
    with pytest.raises((ValueError, ArithmeticError, KeyError, TypeError)) as info:
        CycMatrix.from_json(matrix)
    exc = info.value
    if isinstance(exc, (KeyError, TypeError)):
        assert f"malformed matrix file: {exc!r}" == message
    else:
        assert str(exc) == message


def _is_int(v) -> bool:
    return type(v) is int or (isinstance(v, str) and re.fullmatch("-?[0-9]+", v) is not None)


def _all_fields_integers(obj) -> bool:
    """Whether every conductor, den and num coefficient in a JSON tree is
    an integer (a JSON integer or a decimal-integer string)."""
    if isinstance(obj, list):
        return all(_all_fields_integers(x) for x in obj)
    if not isinstance(obj, dict):
        return True
    for key, v in obj.items():
        if key in ("conductor", "den") and not _is_int(v):
            return False
        if key == "num" and not (isinstance(v, list) and all(_is_int(c) for c in v)):
            return False
        if not _all_fields_integers(v):
            return False
    return True


_junk = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.0, -1.0, 0.0, 2.5]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["1", "-1", " 1", "1.0", "0"]),
    st.sampled_from([0, -1, 10007, 10**30, 9973]),
    st.lists(st.integers(-1, 1), max_size=2),
)


@st.composite
def matrix_files(draw):
    """A diagonal matrix of +-1 entries (so m**2 = I) as a JSON tree, with
    a few fields replaced by junk and maybe a row or an entry too many or
    too few."""
    n = draw(st.integers(1, 3))
    conds = st.sampled_from([1, 2, 4, 15, 9973])
    entries = [
        [
            {"conductor": draw(conds), "num": [draw(st.sampled_from([1, -1])) if i == j else 0],
             "den": 1}
            for j in range(n)
        ]
        for i in range(n)
    ]
    obj = {"conductor": draw(conds), "entries": entries}
    for _ in range(draw(st.integers(0, 3))):
        x = entries[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))]
        field = draw(st.sampled_from(["top", "conductor", "den", "num", "coeff"]))
        if field == "top":
            obj["conductor"] = draw(_junk)
        elif field != "coeff":
            x[field] = draw(_junk)
        elif isinstance(x["num"], list):
            x["num"].append(draw(_junk))
    shape = draw(st.sampled_from(["square", "wide row", "short row", "short"]))
    if shape == "wide row":
        entries[0].append({"conductor": 1, "num": [0], "den": 1})
    elif shape == "short row":
        entries[-1].pop()
    elif shape == "short":
        entries.pop()
    return obj


@given(matrix_files())
@settings(max_examples=150, deadline=None)
def test_chern_matrix_file_fuzz(obj):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["chern", "--matrix-file", path, "--prime", "2"])
    assert code in (0, 1)
    if code == 0:
        assert _all_fields_integers(obj), obj
    else:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
