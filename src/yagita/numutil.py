"""Small exact number-theory helpers shared across the package."""

from __future__ import annotations

import functools
import math

# input bounds, defined once for every module that checks them: primes and
# ring parameters (conductors, discriminants) up to MAX_PRIME, dimensions and
# polynomial degrees up to MAX_N
MAX_PRIME = 10**4
MAX_N = 4096


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs only)."""
    if n < 1:
        raise ValueError("factorize wants a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi wants a positive integer")
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def ramanujan_sum(n: int, j: int) -> int:
    """Tr_{Q(zeta_n)/Q}(zeta_n**j), the Ramanujan sum c_n(j): with
    g = gcd(j, n) it is mu(n/g) * phi(n) / phi(n/g)."""
    q = n // math.gcd(j, n)
    f = factorize(q)
    if any(e > 1 for e in f.values()):
        return 0
    return (-1) ** len(f) * euler_phi(n) // euler_phi(q)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def squarefree_part(n: int) -> int:
    """The squarefree integer with the same sign and the same square class as n."""
    if n == 0:
        return 0
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out


def power(x, e: int):
    """x**e for e >= 1 by left-to-right square-and-multiply: floor(log2 e)
    squarings and popcount(e) - 1 further products, none by an identity."""
    if e < 1:
        raise ValueError("power wants a positive exponent")
    out = x
    for bit in bin(e)[3:]:
        out = out * out
        if bit == "1":
            out = out * x
    return out

