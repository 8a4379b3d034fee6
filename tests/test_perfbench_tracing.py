"""The traced benchmark run finds the package's layer functions by name.

``perfbench/tracing.py`` patches each ``(module, attribute)`` of its
``PATCHES`` table, so renaming one of those functions breaks only the
traced run, which this suite does not start; these tests catch it here.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _ in tracing.PATCHES], ids=lambda x: x
)
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_tracer_installs_and_restores():
    import yagita.cli
    from yagita.exactmat import CycMatrix

    before = (yagita.cli.eigen_exponents, CycMatrix.__mul__)
    with tracing.Tracer().install():
        assert yagita.cli.eigen_exponents is not before[0]
    assert (yagita.cli.eigen_exponents, CycMatrix.__mul__) == before


def test_warm_verify_case_records_a_menu_span():
    # the menus are memoized behind witness_menu, so a call that reuses one
    # still shows as a witness.witness_menu span under harness.verify_case
    from yagita import harness
    from yagita.ringspec import RationalIntegers

    harness.verify_case(3, 3, RationalIntegers())
    tracer = tracing.Tracer()
    with tracer.install():
        harness.verify_case(3, 3, RationalIntegers())
    names = [s.name for s in tracer.spans]
    assert names == ["harness.verify_case", "witness.witness_menu"]
