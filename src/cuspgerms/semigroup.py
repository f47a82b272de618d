"""Two-generator numerical semigroups.

A pair of coprime integers p, q >= 2 generates the semigroup
S = {a*p + b*q : a, b >= 0}.  Membership in S is what decides whether a
power of the normalization parameter is the restriction of an ambient
holomorphic function, so everything downstream funnels into `contains`.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


class NumericalSemigroup:
    """The semigroup <p, q> generated by two coprime integers >= 2."""

    __slots__ = ("p", "q", "_inv_q_mod_p", "_gaps")

    def __init__(self, p: int, q: int):
        if p < 2 or q < 2:
            raise ValueError(f"generators must be >= 2, got ({p}, {q})")
        if gcd(p, q) != 1:
            raise ValueError(f"generators must be coprime, got ({p}, {q})")
        # coprimality already forces p != q for p, q >= 2
        self.p = p
        self.q = q
        self._inv_q_mod_p = pow(q, -1, p)
        self._gaps: int | None = None  # built by the first gap_mask()

    def contains(self, n: int) -> bool:
        """Whether n = a*p + b*q for some a, b >= 0.

        Closed form: n is a member iff the unique b in [0, p) with
        b*q = n (mod p) satisfies b*q <= n.
        """
        if n < 0:
            return False
        b = n * self._inv_q_mod_p % self.p
        return b * self.q <= n

    def conductor(self) -> int:
        """Least N such that every integer >= N is a member: (p-1)(q-1)."""
        return (self.p - 1) * (self.q - 1)

    def gap_mask(self) -> int:
        """The gaps as a bitset: bit e is set iff e is not a member.

        Every gap lies below the conductor c, so the gaps are the bits below
        c that `monoid_bits((p, q), c)` leaves clear: the members below c,
        the multiples of p in one division, then closed under adding q in
        about log2(c/q) doubling shifts.  The mask is built on the first call
        and kept, so every later scan on this semigroup reads it.
        """
        if self._gaps is None:
            c = self.conductor()
            self._gaps = ((1 << c) - 1) & ~monoid_bits((self.p, self.q), c)
        return self._gaps

    def frobenius(self) -> int:
        """Largest integer not in the semigroup: pq - p - q."""
        return self.p * self.q - self.p - self.q

    def representation(self, n: int) -> tuple[int, int] | None:
        """Some (a, b) with a*p + b*q = n, a, b >= 0, smallest a; None if n is not a member.

        Candidates for a differ by multiples of q, so the smallest
        nonnegative residue of n * p^{-1} mod q is the smallest possible a;
        if it overshoots n, no larger candidate can help.
        """
        if n < 0:
            return None
        a = n * pow(self.p, -1, self.q) % self.q
        rest = n - a * self.p
        if rest < 0:
            return None
        return a, rest // self.q

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.p == other.p and self.q == other.q

    def __hash__(self) -> int:
        return hash((NumericalSemigroup, self.p, self.q))

    def __repr__(self) -> str:
        return f"NumericalSemigroup({self.p}, {self.q})"


def doubling_shifts(step: int, count: int) -> list[int]:
    """Shifts s_1, s_2, ... such that `bits |= bits << s_i`, in turn, ORs
    `count` copies of a bitset `step` apart: its sumset with the progression
    0, step, ..., (count-1)*step.  Each shift doubles the run of copies made
    so far, so there are about log2(count)."""
    shifts = []
    made = 1
    while made < count:
        more = min(made, count - made)
        shifts.append(more * step)
        made += more
    return shifts


def monoid_bits(generators: Iterable[int], width: int) -> int:
    """The monoid spanned by `generators` (each >= 1) below `width` >= 1, as
    a bitset: bit e is set iff e < width is a sum of generators, 0 the empty
    sum.  The bitset starts as {0}; each generator g below the width that
    is not yet a member closes it under adding g, by
    `doubling_shifts(g, ceil(width/g))`, and it is cut to the width again.
    While the bitset is still {0}, that closure is the k = ceil(width/g)
    multiples 0, g, ..., (k-1)*g, all below the width: the base-2^g repunit
    (2^(g*k) - 1) / (2^g - 1), one division.  A member generator adds
    nothing, since the bitset is already closed under adding it."""
    bits = 1
    for g in generators:
        if g < width and not bits >> g & 1:
            k = -(-width // g)
            if bits == 1:
                bits = ((1 << g * k) - 1) // ((1 << g) - 1)
            else:
                for shift in doubling_shifts(g, k):
                    bits |= bits << shift
                bits &= (1 << width) - 1
    return bits
