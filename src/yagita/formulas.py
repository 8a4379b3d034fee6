"""Closed-form Yagita invariants of GL_n and SL_n over the supported rings.

Everything here is exact integer arithmetic.  The GL value depends on the
coefficient ring only through l = [F(zeta_p) : F], and ``yagita_gl`` is the
one place it is evaluated.  The SL value equals the GL value except in two
narrow situations (p = 2 in dimension 2, and n of the form 2^r * l over
rings missing an n-th root of -1), where only the pair {value, value/2} is
determined.  That ambiguity is a first-class result (``SlResult.ambiguous``),
never silently collapsed; ``yagita_sl`` is the one SL rule set, for every
ring.

Only the Z forms keep names of their own, ``yagita_gl_Z`` (``yagita_gl`` at
l = p - 1) and ``yagita_sl_Z`` (``yagita_sl`` there, with the ambiguity
resolved to the half value), because the acceptance suite's GL table and
``harness.table`` call them.  Over a ring containing zeta_p the forms are
``yagita_gl`` and ``yagita_sl`` at l = 1: the weaker SL rules of the paper's
zeta_p corollary pin no case that ``yagita_sl`` does not pin to the same
value, so the tests keep them as an oracle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numutil import divisors, factorize, is_prime
from .ringspec import (
    RationalIntegers,
    RingSpec,
    has_nth_root_of_minus_one,
)


@dataclass(frozen=True)
class SlResult:
    """An SL_n invariant: either pinned exactly, or determined only up to a
    factor of 2 (the true value is ``value`` or ``value // 2``)."""

    value: int
    ambiguous: bool

    def candidates(self) -> tuple[int, ...]:
        return (self.value, self.value // 2) if self.ambiguous else (self.value,)

    def __str__(self) -> str:
        if self.ambiguous:
            return f"{self.value} or {self.value // 2} (undetermined)"
        return str(self.value)


def psi(t, p: int) -> int:
    """Greatest integer power of p that is <= t, for a prime p and a
    rational t >= 1: only the floor of t matters, so the comparisons are on
    integers."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    t = math.floor(t)
    if t < 1:
        raise ValueError("psi wants t >= 1")
    power = 1
    while power * p <= t:
        power *= p
    return power


def _check_pl(p: int, l: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if l < 1 or (p - 1) % l != 0:
        raise ValueError(f"l = {l} must divide p - 1 = {p - 1}")


def yagita_gl(p: int, n: int, l: int) -> int:
    """Yagita invariant of GL_n over any ring whose fraction field has
    [F(zeta_p) : F] = l."""
    _check_pl(p, l)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < l:
        return 1
    if n <= p - 1:
        return 2 * math.lcm(*[m for m in divisors(p - 1) if m % l == 0 and m <= n])
    return 2 * (p - 1) * psi(n // l, p)


def yagita_sl(p: int, n: int, l: int, ring: RingSpec) -> SlResult:
    """Yagita invariant of SL_n; equals the GL value except in the two
    exceptional families, where it is only pinned up to a factor of 2."""
    if n < 2:
        raise ValueError("SL_n needs n >= 2")
    value = yagita_gl(p, n, l)
    if p == 2:
        if n == 2 and not has_nth_root_of_minus_one(ring, 2):
            return SlResult(value, True)
        return SlResult(value, False)
    # odd p: n = 2^r * l with 2^r | (p-1)/l and no n-th root of -1 in the ring
    if n % l == 0:
        q = n // l
        if q & (q - 1) == 0 and ((p - 1) // l) % q == 0:
            if not has_nth_root_of_minus_one(ring, n):
                return SlResult(value, True)
    return SlResult(value, False)


def yagita_gl_Z(p: int, n: int) -> int:
    """GL_n over the rational integers: the l = p - 1 specialization,
    named because the acceptance suite's GL table calls it."""
    return yagita_gl(p, n, p - 1)


def yagita_sl_Z(p: int, n: int) -> int:
    """SL_n over Z; always exact.  The cases the general SL form leaves
    open over Z (n = p - 1 for odd p, and n = p = 2) resolve to the half
    value.  Named because ``harness.table`` and the acceptance suite call it."""
    res = yagita_sl(p, n, p - 1, RationalIntegers())
    return res.value // 2 if res.ambiguous else res.value


def oracle_yagita(kind) -> int:
    """Known Yagita invariant of a witness group (trusted constant table).

    Accepts anything with ``family`` in {"G1", "G2", "E", "Q8", "D8"} plus
    ``p``/``m`` parameters where applicable.
    """
    family = kind.family
    if family in ("G1", "G2"):
        return 2 * kind.m
    if family == "E":
        if kind.p == 2:
            return 2 ** (kind.m + 1)
        return 2 * kind.p**kind.m
    if family == "Q8" or family == "D8":
        return 4
    raise ValueError(f"unknown witness kind {kind!r}")


def lcm_form_reduced(p: int, l: int, n: int) -> int:
    """Lcm of {m <= n : m = l * q^r, q prime, q^r | (p-1)/l} (r = 0 allowed).

    This is the paper's reduced generating set for the lcm in the middle
    row of the GL table, kept so that the acceptance suite can check the
    lemma: the two lcms must agree, which the tests check exhaustively.
    """
    _check_pl(p, l)
    if not l <= n <= p - 1:
        raise ValueError("need l <= n <= p - 1")
    values = [l]
    cofactor = (p - 1) // l
    for q in factorize(cofactor):
        qr = q
        while cofactor % qr == 0:
            if l * qr <= n:
                values.append(l * qr)
            qr *= q
    return math.lcm(*values)
