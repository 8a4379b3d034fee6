import pytest

import yagita.cyclo
import yagita.exactmat
import yagita.numutil


@pytest.fixture
def bounded_factoring(monkeypatch):
    """Fail the test if euler_phi or factorize sees an argument above the
    cap of 10**4: a conductor read from input is bounded before anything
    factors it."""
    for mod, name in (
        (yagita.cyclo, "euler_phi"),
        (yagita.cyclo, "factorize"),
        (yagita.exactmat, "euler_phi"),
        (yagita.numutil, "factorize"),
    ):
        real = getattr(mod, name)

        def bounded(n, real=real, name=name):
            assert abs(n) <= 10**4, f"{name}({n}) ran before the input bound"
            return real(n)

        monkeypatch.setattr(mod, name, bounded)
