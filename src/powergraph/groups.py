"""Exact arithmetic in the group <s, r : r^(2^k p) = s^2 = e, s r s^-1 = r^(2^(k-1)p - 1)>.

Elements are kept in the normal form s^eps r^i with eps in {0, 1} and
0 <= i < 2^k p.  The defining relation gives r s = s r^m with
m = 2^(k-1)p - 1, and m^2 = 1 mod 2^k p, so a single multiplier suffices
for O(1) multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass


# largest family order a report builds and vertex count an ingested graph may
# declare: adjacency is a dense n x n array, allocated after this check
MAX_VERTICES = 8192


class ParameterError(ValueError):
    """Invalid or mismatched group parameters."""


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check (inputs are tiny)."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class GroupParams:
    """Validated parameters (k, p) with the derived order and multiplier."""

    k: int
    p: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ParameterError(f"k must be >= 2, got {self.k}")
        # before the trial division, which a huge p would stall; k is compared
        # first, so an absurd k is never expanded into 2^(k+1) p
        if self.k >= MAX_VERTICES.bit_length() or self.order > MAX_VERTICES:
            raise ParameterError(
                f"G({self.k}, {self.p}) has 2^{self.k + 1} * {self.p} vertices, "
                f"above the limit of {MAX_VERTICES}"
            )
        if self.p == 2 or not is_prime(self.p):
            raise ParameterError(f"p must be an odd prime, got {self.p}")

    @property
    def rotation_order(self) -> int:
        """Order of r, i.e. 2^k p."""
        return (1 << self.k) * self.p

    @property
    def order(self) -> int:
        """Group order 2^(k+1) p."""
        return 2 * self.rotation_order

    @property
    def multiplier(self) -> int:
        """m = 2^(k-1)p - 1, reduced mod 2^k p; self-inverse since m^2 = 1."""
        return ((1 << (self.k - 1)) * self.p - 1) % self.rotation_order


@dataclass(frozen=True, order=True)
class GroupElement:
    """Element s^eps r^i in normal form; unique per (eps, i) pair."""

    eps: int
    i: int

    def __str__(self) -> str:
        return f"s^{self.eps} r^{self.i}"


IDENTITY = GroupElement(0, 0)


def multiply(a: GroupElement, b: GroupElement, params: GroupParams) -> GroupElement:
    """Product in normal form: (e1,i)(e2,j) = (e1 xor e2, i*m^e2 + j)."""
    n = params.rotation_order
    if not (0 <= a.i < n and 0 <= b.i < n):
        raise ParameterError(f"element out of range for params (k={params.k}, p={params.p})")
    i = a.i * params.multiplier % n if b.eps else a.i
    return GroupElement(a.eps ^ b.eps, (i + b.i) % n)


def cyclic_subgroup(a: GroupElement, params: GroupParams) -> frozenset[GroupElement]:
    """All powers {a^t : t >= 0}; its size is the order of a."""
    seen = {IDENTITY}
    current = a
    while current != IDENTITY:
        seen.add(current)
        current = multiply(current, a, params)
    return frozenset(seen)
