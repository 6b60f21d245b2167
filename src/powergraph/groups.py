"""Exact arithmetic in the group <s, r : r^(2^k p) = s^2 = e, s r s^-1 = r^(2^(k-1)p - 1)>.

Elements are kept in the normal form s^eps r^i with eps in {0, 1} and
0 <= i < 2^k p.  The defining relation gives r s = s r^m with
m = 2^(k-1)p - 1, and m^2 = 1 mod 2^k p, so a single multiplier suffices
for O(1) multiplication.  `product` is that rule on (eps, i) pairs of ints or
of int arrays, so whole arrays of elements multiply in one step;
`cyclic_powers` builds on it the powers of many elements at once, by
doubling.  `GroupElement` and `multiply` are the one-element view of the
same rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# largest family order a report builds: adjacency is a dense n x n array,
# allocated after this check
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


def product(a, b, params: GroupParams):
    """(eps, i) of the product of a = (e1, i) and b = (e2, j): (e1 xor e2, i * m^e2 + j mod 2^k p).

    Each part is an int or an int array (eps 0 or 1); arrays multiply
    elementwise and broadcast, so one call multiplies whole arrays of elements.
    """
    (e1, i), (e2, j) = a, b
    return e1 ^ e2, (i * (1 + (params.multiplier - 1) * e2) + j) % params.rotation_order


def multiply(a: GroupElement, b: GroupElement, params: GroupParams) -> GroupElement:
    """`product` of two elements in normal form."""
    n = params.rotation_order
    if not (0 <= a.i < n and 0 <= b.i < n):
        raise ParameterError(f"element out of range for params (k={params.k}, p={params.p})")
    return GroupElement(*product((a.eps, a.i), (b.eps, b.i), params))


def cyclic_powers(x, params: GroupParams) -> tuple[np.ndarray, np.ndarray]:
    """(eps, i) int64 arrays of shape (g, t): x^0 .. x^(t-1) for each of g elements x = (eps, i).

    Computed by doubling, one `product` over all g rows per step: x^t .. x^(2t-1)
    are x^0 .. x^(t-1) times x^t, and x^(2t) is x^t squared.  The doubling stops
    once every row has met e again, so t is the least power of two (at least
    2) not below the largest order, and each row holds its cyclic subgroup, a
    row of order o < t repeating its o powers.
    """
    step = tuple(np.asarray(part, dtype=np.int64).reshape(-1, 1) for part in x)  # x^t
    eps, i = np.zeros_like(step[0]), np.zeros_like(step[1])  # x^0 .. x^(t-1)
    met = np.zeros(len(eps), dtype=bool)  # whether x^s = e for some 0 < s <= t
    while not met.all():
        high_eps, high_i = product((eps, i), step, params)
        eps, i = np.concatenate([eps, high_eps], axis=1), np.concatenate([i, high_i], axis=1)
        step = product(step, step, params)
        met |= ((high_eps | high_i) == 0).any(axis=1) | ((step[0] | step[1]) == 0)[:, 0]
    return eps, i
