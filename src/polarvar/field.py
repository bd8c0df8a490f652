"""Prime-field arithmetic with a fixed odd modulus.

The default modulus is q = 10000000019, a 34-bit prime.  All values are kept
as canonical residues in [0, q); Python integers carry the intermediate
products exactly, so no limb management is needed.  A small modulus such as
q = 7 is equally valid and is used by the exhaustive point-enumeration tests.
"""

from __future__ import annotations

DEFAULT_PRIME = 10_000_000_019

# Witness set that makes Miller-Rabin deterministic for all n < 3.3 * 10^24,
# far beyond the 2^62 cap enforced below.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2^64."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z/qZ for an odd prime q with 2 < q < 2^62."""

    __slots__ = ("q",)

    def __init__(self, q: int = DEFAULT_PRIME):
        if not isinstance(q, int) or not (2 < q < 2**62):
            raise ValueError(f"modulus must be an integer in (2, 2^62), got {q!r}")
        if not is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, -1, self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"
