"""Exact truncated Laurent polynomials in the normalization parameter.

A germ is a finite map exponent -> Gaussian-rational coefficient, stored as
Gaussian-integer numerators over one common denominator, optionally followed
by an unknown tail marker O(t^T): terms of exponent >= T exist but are not
known.  All arithmetic is exact on the stored part and
propagates the tail bound conservatively, so decisions about a germ are
three-valued (yes / no / unknown) rather than silently wrong.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Mapping
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import TYPE_CHECKING

from .errors import GermParseError

if TYPE_CHECKING:
    from .semigroup import NumericalSemigroup

RationalLike = int | Fraction

_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts: the
    coefficient value germs take in and give out.  It has no arithmetic of
    its own; germs compute on Gaussian-integer numerators."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = _FRACTION_ZERO):
        # Fractions are immutable, so a given one is stored as is
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if not self.im:
            return str(self.re)
        return f"({self.re},{self.im})"


class Decision:
    """Three-valued outcome of an exponent test on a possibly truncated germ.

    Immutable.  Equality and hash use `kind` and `reason` only: two decisions
    that fail at different exponents are the same decision.
    """

    __slots__ = ("kind", "reason", "witness")

    kind: str  # "yes" | "no" | "unknown"
    reason: str | None
    witness: int | None  # "no": first failing exponent

    def __init__(self, kind: str, reason: str | None = None, witness: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "reason", reason)
        object.__setattr__(self, "witness", witness)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not the refused __setattr__
        return Decision, (self.kind, self.reason, self.witness)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.reason == other.reason

    def __hash__(self) -> int:
        return hash((self.kind, self.reason))

    def __repr__(self) -> str:
        return f"Decision(kind={self.kind!r}, reason={self.reason!r}, witness={self.witness!r})"

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_no(self) -> bool:
        return self.kind == "no"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        if self.kind == "yes":
            return "CertainlyYes"
        if self.kind == "no":
            return "CertainlyNo"
        return f"Unknown({self.reason})"


CERTAINLY_YES = Decision("yes")


def aggregate_decisions(decisions: Iterable[Decision]) -> Decision:
    """Conjunction: yes only if every part is yes; any no wins over unknown."""
    verdict = CERTAINLY_YES
    for d in decisions:
        if d.is_no:
            return d
        if d.is_unknown:
            verdict = d
    return verdict


CoeffLike = GaussianRational | Fraction | int
Gaussian = tuple[int, int]  # a Gaussian integer re + im*i

_ZERO: Gaussian = (0, 0)


def _gmul(z: Gaussian, w: Gaussian) -> Gaussian:
    a, b = z
    c, d = w
    return a * c - b * d, a * d + b * c


def _gpow(z: Gaussian, n: int) -> Gaussian:
    """z**n for n >= 0 by square-and-multiply."""
    if not z[1]:
        return z[0] ** n, 0
    result = (1, 0)
    while n:
        if n & 1:
            result = _gmul(result, z)
        n >>= 1
        if n:
            z = _gmul(z, z)
    return result


def _real_multiplier(z: Gaussian) -> tuple[Gaussian, int]:
    """(w, m) with z * w = m > 0, for z != 0: the sign of a real z, else conj(z)."""
    a, b = z
    if not b:
        return ((1, 0), a) if a > 0 else ((-1, 0), -a)
    return (a, -b), a * a + b * b


class LaurentGerm:
    """Finitely supported Laurent polynomial with an optional unknown tail.

    Coefficients are stored as Gaussian-integer numerators `{e: (re, im)}`
    over one positive denominator D, as FLINT's fmpq_poly stores a rational
    polynomial.  The form is primitive (Knuth, TAOCP vol. 2, 4.6.1):
    gcd(D, every numerator part) = 1.  A germ has exactly one primitive
    form, so equality and hashing compare the stored data directly, and
    arithmetic runs on plain ints with at most one gcd per result.

    Products and powers mostly need no gcd against the whole product
    denominator.  Cross-cancellation, as in `Fraction` multiplication
    (Knuth, TAOCP vol. 2, 4.5.1), lifts to germs by Gauss's lemma,
    content(N1*N2) = content(N1) * content(N2) over Z: the product of two
    primitive germs N1/D1 and N2/D2 has common content exactly
    gcd(D1, content N2) * gcd(D2, content N1).  Two conditions hold it:
    every numerator is real (the lemma fails for the parts of Gaussian
    numerators, as (1 + i)(1 - i) = 2), and no term pair is cut by the
    tail (a dropped term may be what kept a factor out of the content).
    The proof is in `__mul__`; `__pow__` uses the same rule.

    Invariants: no stored numerator is zero, stored exponents are strictly
    below the tail bound when one is present, iteration over terms is in
    increasing exponent order, and the zero germ has D = 1.
    """

    __slots__ = ("_num", "_den", "_tail")

    def __init__(
        self,
        terms: Mapping[int, CoeffLike] | Iterable[tuple[int, CoeffLike]] = (),
        tail_bound: int | None = None,
    ):
        # each coefficient is read as the numerators and denominators of its
        # parts; `_from_parts` takes the primitive form in one lcm and one gcd
        items = terms.items() if isinstance(terms, Mapping) else terms
        parts = []
        for e, c in items:
            if tail_bound is None or e < tail_bound:
                if isinstance(c, GaussianRational):
                    re, im = c.re, c.im
                else:
                    re, im = c if isinstance(c, (int, Fraction)) else Fraction(c), 0
                parts.append((e, re.numerator, re.denominator, im.numerator, im.denominator))
        germ = LaurentGerm._from_parts(parts, tail_bound)
        self._num, self._den, self._tail = germ._num, germ._den, tail_bound

    @classmethod
    def _from_parts(cls, terms: list[tuple[int, ...]], tail_bound: int | None) -> "LaurentGerm":
        """The germ of the terms (e, a, b, c, d), each the coefficient
        a/b + (c/d)i of t^e with b, d > 0, below the tail bound; the
        fractions need not be reduced, and terms of one exponent are summed.
        Every constructor of a germ from coefficients reads its input
        through here.

        The primitive form takes one lcm, then one gcd: each part is put
        over the lcm D of all the denominators, the numerators of each
        exponent are summed as integers, zero sums are dropped, and
        `_reduced` divides out the gcd of D and every numerator part left.
        """
        den = lcm(*[x for _, _, b, _, d in terms for x in (b, d)])
        sums: dict[int, Gaussian] = {}
        for e, a, b, c, d in terms:
            re, im = sums.get(e, _ZERO)
            sums[e] = re + a * (den // b), im + c * (den // d)
        num = {e: z for e, z in sorted(sums.items()) if z[0] or z[1]}
        return cls._reduced(num, den, tail_bound)

    @classmethod
    def _wrap(cls, num: dict[int, Gaussian], den: int, tail_bound: int | None) -> "LaurentGerm":
        """Wrap data that already meet the invariants, primitive form
        included, without checking them."""
        germ = object.__new__(cls)
        germ._num = num
        germ._den = den
        germ._tail = tail_bound
        return germ

    @classmethod
    def _reduced(cls, num: dict[int, Gaussian], den: int, tail_bound: int | None) -> "LaurentGerm":
        """Wrap nonzero numerators in increasing exponent order, below the
        tail, over den > 0, after dividing out their common content."""
        g = gcd(den, *chain.from_iterable(num.values()))
        if g != 1:
            num = {e: (re // g, im // g) for e, (re, im) in num.items()}
            den //= g
        return cls._wrap(num, den, tail_bound)

    def _rational(self, z: Gaussian) -> GaussianRational:
        """The coefficient with numerator z."""
        return GaussianRational(Fraction(z[0], self._den), Fraction(z[1], self._den))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentGerm":
        return cls()

    @classmethod
    def one(cls) -> "LaurentGerm":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coefficient: CoeffLike = 1) -> "LaurentGerm":
        return cls({exponent: coefficient})

    @classmethod
    def tail_only(cls, tail_bound: int) -> "LaurentGerm":
        return cls((), tail_bound)

    # -- inspection --------------------------------------------------------

    @property
    def tail_bound(self) -> int | None:
        return self._tail

    def items(self) -> Iterator[tuple[int, GaussianRational]]:
        return ((e, self._rational(z)) for e, z in self._num.items())

    def exponents(self) -> list[int]:
        return list(self._num)

    def coefficient(self, exponent: int) -> GaussianRational:
        return self._rational(self._num.get(exponent, _ZERO))

    def is_zero(self) -> bool:
        """Exactly zero: no stored terms and no unknown tail."""
        return not self._num and self._tail is None

    def is_exact(self) -> bool:
        return self._tail is None

    def lowest_exponent(self) -> int | None:
        """Minimal stored exponent; None for the zero germ or a tail-only germ.

        Stored exponents always sit below the tail bound, so when any term is
        stored its minimum is the true order of the germ.
        """
        if self._num:
            return next(iter(self._num))
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentGerm") -> "LaurentGerm":
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        tail = _min_tail(self._tail, other._tail)
        # over the common denominator lcm(D1, D2) = D1 * s1 = D2 * s2
        g = gcd(self._den, other._den)
        s1, s2 = other._den // g, self._den // g
        total: dict[int, Gaussian] = {}
        for terms, s in ((self._num, s1), (other._num, s2)):
            for e, (re, im) in terms.items():
                if tail is None or e < tail:
                    prev = total.get(e, _ZERO)
                    total[e] = prev[0] + re * s, prev[1] + im * s
        num = {e: z for e, z in sorted(total.items()) if z[0] or z[1]}
        return LaurentGerm._reduced(num, self._den * s1, tail)

    def __neg__(self) -> "LaurentGerm":
        return LaurentGerm._wrap(
            {e: (-re, -im) for e, (re, im) in self._num.items()}, self._den, self._tail
        )

    def __sub__(self, other: "LaurentGerm") -> "LaurentGerm":
        return self + (-other)

    def __mul__(self, other: "LaurentGerm") -> "LaurentGerm":
        """The product, made primitive by cross-cancellation when it can be.

        As `Fraction` multiplies a/b by c/d (Knuth, TAOCP vol. 2, 4.5.1),
        the product N1*N2 / (D1*D2) of two primitive germs needs only
        g1 = gcd(D1, content N2) and g2 = gcd(D2, content N1), each a gcd
        of a large number against a small one, not one gcd of the whole
        product denominator against every product numerator.  By Gauss's
        lemma content(N1*N2) = content(N1) * content(N2) over Z, and since
        gcd(D1, content N1) = gcd(D2, content N2) = 1, each prime p gives
        min(v_p(c1) + v_p(c2), v_p(D1) + v_p(D2)) = min(v_p(c1), v_p(D2))
        + min(v_p(c2), v_p(D1)): the common content of the product is
        exactly g1 * g2.  That needs two conditions:

        - every numerator of both factors is real, since the lemma fails
          for the parts of Gaussian numerators: (1 + i)(1 - i) = 2;
        - no term pair is cut by the product's tail, since a dropped term
          may be what kept a factor out of the content:
          (t + t^2/2 + O(t^3)) * (t + t^2/2) keeps t^2 + t^3 of
          t^2 + t^3 + t^4/4.

        Any other product takes the one gcd of `_reduced`.
        """
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        left, right = self._num, other._num
        t1, t2 = self._tail, other._tail
        if not left and t1 is None or not right and t2 is None:
            return LaurentGerm()  # an exact zero
        # neither is zero, so each is bounded below by its lowest term or its tail
        tail: int | None = None
        if t2 is not None:
            tail = (next(iter(left)) if left else t1) + t2
        if t1 is not None:
            t = t1 + (next(iter(right)) if right else t2)
            if tail is None or t < tail:
                tail = t
        if not left or not right:
            return LaurentGerm._wrap({}, 1, tail)
        top = next(reversed(left)) + next(reversed(right))  # the highest pair
        whole = tail is None or top < tail  # no pair is cut
        limit = top + 1 if whole else tail
        d1, d2 = self._den, other._den
        g1, g2 = d1, d2  # become gcd(D1, content N2) and gcd(D2, content N1)
        imag = 0  # nonzero once an imaginary part is
        if whole:
            for c, d in right.values():
                g1 = gcd(g1, c)
                imag |= d
            for a, b in left.values():
                g2 = gcd(g2, a)
                imag |= b
        pairs = right.items()
        prod: dict[int, Gaussian] = {}
        for e1, (a, b) in left.items():
            for e2, (c, d) in pairs:
                e = e1 + e2
                if e >= limit:
                    break  # terms are sorted, so every later e2 is past it too
                prev = prod.get(e, _ZERO)
                prod[e] = prev[0] + a * c - b * d, prev[1] + a * d + b * c
        if len(left) > 1 and len(right) > 1:
            # pairs meet out of exponent order, and their sums may cancel; a
            # single pair of nonzero Gaussian integers has a nonzero product
            prod = {e: z for e, z in sorted(prod.items()) if z[0] or z[1]}
        if imag or not whole:
            return LaurentGerm._reduced(prod, d1 * d2, tail)
        if g1 != 1 or g2 != 1:
            g = g1 * g2
            prod = {e: (re // g, 0) for e, (re, _) in prod.items()}
        return LaurentGerm._wrap(prod, d1 // g1 * (d2 // g2), tail)

    def __pow__(self, n: int) -> "LaurentGerm":
        """J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7), run
        fraction-free on the stored numerators.

        Write f = t^lo * g with g = sum_j g_j t^j and g_0 != 0.  Then
        h = g^n satisfies g * h' = n * g' * h; comparing the coefficients of
        t^(k-1) gives h_0 = g_0^n and, for k >= 1,

            h_k = (1 / (k * g_0)) * sum_{j=1..k} ((n+1)*j - k) * g_j * h_{k-j}.

        Dividing by k is possible because Q(i) has characteristic 0 (in
        characteristic p the step k = p would divide by zero).  So f^n costs
        no germ products.

        Fraction-free form: with the stored g_j = N_j / D, write
        r_k = h_k / g_0^n and R_k = N_0^k * r_k.  Then R_0 = 1 and

            R_k = (1/k) * sum_{j=1..k} ((n+1)*j - k) * N_j * N_0^(j-1) * R_(k-j),

        since g_j / g_0 = N_j / N_0, so D cancels: the walk never sees it.
        R_k is a Gaussian integer.  The r_k are the coefficients of
        (1 + sum_j (N_j/N_0) u^j)^n, whose expansion has integer multinomial
        coefficients; the monomials in u^k are products of at most k factors
        N_j/N_0, so N_0^k clears every denominator.  The sum is therefore
        k * R_k, a Gaussian integer, and dividing each part by k is exact.
        No gcd is taken inside the walk, and h_k != 0 exactly when
        R_k != 0, so a walk that only asks which terms are nonzero (as
        `exponents_within` does) needs no conversion at all.  At the
        end h_k = N_0^(n-k) * R_k / D^n, the term of f^n at t^(n*lo + k);
        with K the largest k and E = max(K - n, 0), each term's numerator
        w^E * N_0^(n+E-k) * R_k is a Gaussian integer over the denominator
        m^E * D^n, where N_0 * w = m > 0 (w the sign of a real N_0, else its
        conjugate).  One gcd then makes the result primitive, except where
        the cross-cancellation rule of `__mul__` shows it already is: for a
        real germ with E = 0 whose walk reached the degree n*(hi - lo) uncut
        by the tail, the result is N^n / D^n, and by Gauss's lemma
        content(N^n) = content(N)^n is prime to D^n.

        Tail: h_k involves g_j for j <= k only.  For f = F + O(t^T) the stored
        part F fixes g_j for j < T - lo, hence h_k for k < T - lo, which are
        the coefficients of f^n below t^(n*lo + T - lo) = t^((n-1)*lo + T).
        The unknown terms of f reach f^n from that exponent on (one factor
        of order >= T times n - 1 factors of order lo), so it is the tail
        bound.  It is also the bound iterated multiplication gives: by
        induction f^m has lowest exponent m*lo (coefficient g_0^m, below its
        tail since lo < T) and tail (m-1)*lo + T, so f^m * f has tail
        min(m*lo + T, (m-1)*lo + T + lo) = m*lo + T.  With hi the highest
        stored exponent, the recurrence computes the coefficients of G^n for
        the stored polynomial G = F / t^lo of degree hi - lo, so h_k = 0 for
        k > n*(hi - lo), exact f or truncated.

        n = 0 gives the exact unit, even for a zero or truncated germ; the
        exact zero stays zero, and O(t^T)**n is O(t^(n*T)).

        The numerators come from `_power_walk`, the one power path; the
        tail from `_power_tail`.
        """
        if not isinstance(n, int):
            return NotImplemented
        tail = self._power_tail(n)
        if n == 0:
            return LaurentGerm.one()
        walk = list(self._power_walk(n))
        if not walk:
            return LaurentGerm._wrap({}, 1, tail)
        n0 = next(iter(self._num.values()))
        extra = max(walk[-1][1] - n, 0)
        w, m = _real_multiplier(n0)
        we = _gpow(w, extra)
        num = {e: _gmul(we, _gmul(_gpow(n0, n + extra - k), r)) for e, k, r in walk}
        if extra or walk[-1][0] < n * next(reversed(self._num)) or any(
                b for _, b in self._num.values()):
            return LaurentGerm._reduced(num, m ** extra * self._den ** n, tail)
        return LaurentGerm._wrap(num, self._den ** n, tail)

    def _power_tail(self, n: int) -> int | None:
        """Tail bound of f**n for n >= 0: (n-1)*lo + T, or n*T for O(t^T).
        A negative n raises ValueError."""
        if n < 0:
            raise ValueError(f"germ power must be >= 0, got {n}")
        if n == 0 or self._tail is None:
            return None
        if not self._num:
            return n * self._tail
        return (n - 1) * next(iter(self._num)) + self._tail

    def _power_walk(
        self, n: int, below: int | None = None
    ) -> Iterator[tuple[int, int, Gaussian]]:
        """(e, k, R_k) for the nonzero terms t^e of f**n, n >= 1, in
        increasing exponent order; only those with e < `below` when it is
        given.  R_k is the fraction-free numerator of `__pow__`, and
        k = e - n*lo is the term's offset from the lowest exponent n*lo.

        Each term is computed only when it is asked for, so a caller may stop
        at the first term it needs.  The walk ends at `below`, at the tail and
        at the degree n*(hi - lo) of the stored part's power, whichever
        comes first.
        """
        if not self._num:
            return
        terms = iter(self._num.items())
        lo, n0 = next(terms)
        base = n * lo
        # h_k for k < width
        width = n * (next(reversed(self._num)) - lo) + 1
        if self._tail is not None:
            width = min(width, self._tail - lo)
        if below is not None:
            width = min(width, below - base)
        if width <= 0:
            return
        yield base, 0, (1, 0)
        # (j, N_j * N_0^(j-1)) for the offsets j the walk can reach
        rest = [(e - lo, _gmul(z, _gpow(n0, e - lo - 1))) for e, z in terms if e - lo < width]
        R: list[Gaussian] = [(1, 0)]
        for k in range(1, width):
            re = im = 0
            for j, (a, b) in rest:
                if j > k:
                    break
                c, d = R[k - j]
                if c or d:
                    weight = (n + 1) * j - k
                    re += weight * (a * c - b * d)
                    im += weight * (a * d + b * c)
            if re or im:
                rk = (re // k, im // k)
                R.append(rk)
                yield base + k, k, rk
            else:
                R.append(_ZERO)

    def scaled(self, factor: CoeffLike) -> "LaurentGerm":
        """The product with the constant germ `factor`; a zero factor keeps the tail."""
        constant = LaurentGerm({0: factor})
        if not constant._num:
            return LaurentGerm._wrap({}, 1, self._tail)
        return self * constant

    def shifted(self, offset: int) -> "LaurentGerm":
        """Multiply by t^offset."""
        tail = None if self._tail is None else self._tail + offset
        return LaurentGerm._wrap({e + offset: z for e, z in self._num.items()}, self._den, tail)

    # -- decisions ---------------------------------------------------------

    def exponents_within(
        self, predicate: Callable[[int], bool], holds_from: int | None = None, power: int = 1
    ) -> Decision:
        """Do all exponents of this germ's `power`-th power (n >= 0) satisfy
        the predicate?  Every decision on exponents is made here.

        `holds_from` is the caller's certificate that every integer >= it
        satisfies the predicate.  A tail O(t^T) gives yes only when
        T >= holds_from, and unknown otherwise or without a certificate.  A
        stored exponent that fails is decisive no matter what the tail
        hides, since stored coefficients are exact and the tail cannot
        cancel them; the first one is returned as the decision's witness.

        Power 1 reads the stored terms.  Any other power n reads the terms of
        f^n from `_power_walk`, which asks only for those below `holds_from`,
        and the tail from `_power_tail`; no power is built.  The walk yields
        the terms of f^n in increasing exponent order, so the first one that
        fails is the least failing stored exponent of f^n, and f^n is no
        with it as witness, whatever lies above it.  If none fails, every
        stored exponent below `holds_from` satisfies the predicate, and so
        does every one at or above it: the tail rule decides, on f^n's tail
        (n-1)*lo + T, or n*T for O(t^T).  So the decision equals that of the
        built f ** n, witness and reason included.  f^0 is the exact unit.
        """
        if power == 1:
            exponents, tail = self._num, self._tail
        elif power:  # a negative power raises in _power_tail
            tail = self._power_tail(power)
            exponents = (e for e, _, _ in self._power_walk(power, holds_from))
        else:
            exponents, tail = (0,), None
        for e in exponents:
            if not predicate(e):
                return Decision("no", witness=e)
        if tail is None or (holds_from is not None and tail >= holds_from):
            return CERTAINLY_YES
        return Decision("unknown", f"terms hidden beyond O(t^{tail}) may violate the test")

    def power_kinds(
        self, semigroup: NumericalSemigroup, powers: Iterable[int]
    ) -> Iterator[tuple[int, str]]:
        """(n, kind) for each n in `powers`, in its order, where kind is that
        of `exponents_within(semigroup.contains, c, n)`, c the conductor.
        The germ's lowest exponent lo is >= 1, and `powers` is any iterable
        of powers n >= 1, in any order and with repeats.  The kinds come from
        the supports of the powers, in at most one pass, run forward only,
        against `gaps = semigroup.gap_mask()`, the bitset of the gaps, all of
        which lie below c.

        Write f = t^lo * G, with S the stored offsets of G (0 among them).
        The stored terms of f^n below c are the t^(n*lo + k) with
        k < X_n = min(c - n*lo, T - lo) (no T - lo for an exact f)
        and a nonzero coefficient of u^k in G^n (`_power_walk`).  Each such k
        lies in the n-fold sumset nS, so A_n = nS ∩ [0, X_n) holds them all:
        if (gaps >> n*lo) & A_n is zero, no stored exponent of f^n fails, and
        the tail rule of `exponents_within` decides yes or unknown.  A hit is
        a failing stored exponent, so f^n is no, whenever no coefficient can
        cancel, that is, the support of G^n is all of nS (the one-variable
        case of Ostrowski's rule: the Newton polytope of a product is the
        Minkowski sum of the factors').  That holds when G has at most two
        terms, since (a + b*u^j)^n has coefficients C(n, i) a^(n-i) b^i != 0,
        and when every N_j * conj(N_0) is a positive real, since then
        G^n = g_0^n * (1 + sum r_j u^j)^n with every r_j > 0.  For any other
        germ a hit is settled by the walk.

        Because 0 is in S and X_n never grows, A_n = (A_(n-1) ⊕ S) ∩ [0, X_n),
        where ⊕ S ORs the shifts by every offset; a run of offsets in steps
        of their gcd takes about log2 of its length in shifts.  The pass
        stops updating once A_n = A_(n-1) ∩ [0, X_n): A_n is then closed
        under adding S below X_n, and every later A_m is A_n cut to X_m (its
        bits beyond X_m lie where `gaps >> m*lo` is zero).  With s the least
        nonzero offset, an element of the monoid <S> below X_n is a sum of at
        most (X_n - 1)/s nonzero offsets, so A_n = <S> ∩ [0, X_n) as soon as
        X_n <= (n+1)*s.  From that power on, one bitset, `monoid_bits` of
        the offsets below X_n, answers every power without a pass.  A power
        below it reads a hit flag; the flags come from the one pass, kept
        per power, which runs only as far as the largest such power asked
        for.  So a scan that starts at that power, or reads down from the
        top, runs the pass only once it reaches below it.
        """
        # imported here: a command that needs only germ.py (`nagata demo`) never runs semigroup.py
        from .semigroup import doubling_shifts, monoid_bits

        c, gaps = semigroup.conductor(), semigroup.gap_mask()
        terms = iter(self._num.items())
        lo, (a0, b0) = next(terms)
        rest = [(e - lo, z) for e, z in terms]
        tail = self._tail
        cancels = len(rest) > 1 and not all(
            b * a0 == a * b0 and a * a0 + b * b0 > 0 for _, (a, b) in rest)

        def kind(n: int, hit: int) -> str:
            if hit:
                return self.exponents_within(semigroup.contains, c, n).kind if cancels else "no"
            if tail is None or (n - 1) * lo + tail >= c:
                return "yes"
            return "unknown"

        reach = c if tail is None else tail - lo  # X_n = min(c - n*lo, reach)
        live = [k for k, _ in rest if k < min(c - lo, reach)]
        settled = 1  # the first power that the monoid answers
        if live:
            s = live[0]
            settled = max(1, -(-(c - s) // (lo + s)))
            if tail is not None:
                settled = max(1, min(settled, -(-(reach - s) // s)))
        monoid = monoid_bits(live, min(c - settled * lo, reach))

        def hits() -> Iterator[bool]:
            """Whether (gaps >> n*lo) & A_n is nonzero, for n = 1, ..., settled - 1."""
            step = gcd(*live)
            runs: list[list[int]] = []  # [first offset, length] of each run
            for k in [0, *live]:
                if runs and runs[-1][0] + runs[-1][1] * step == k:
                    runs[-1][1] += 1
                else:
                    runs.append([k, 1])
            shifted = [(first, doubling_shifts(step, length)) for first, length in runs]
            support, grows = 1, True
            for n in range(1, settled):
                if grows:
                    mask = (1 << min(c - n * lo, reach)) - 1  # X_n > 0 below settled
                    grown = 0
                    for first, shifts in shifted:
                        part = support
                        for shift in shifts:
                            part |= part << shift
                        grown |= part << first
                    grown &= mask
                    grows = grown != support & mask
                    support = grown
                yield gaps >> (n * lo) & support != 0

        early, flags = hits(), []  # flags[n - 1]: whether power n hits
        for n in powers:
            if n >= settled:
                hit = gaps >> (n * lo) & monoid
            else:
                while len(flags) < n:
                    flags.append(next(early))
                hit = flags[n - 1]
            yield n, kind(n, hit)

    # -- equality / rendering ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        return (self._num == other._num and self._den == other._den
                and self._tail == other._tail)

    def __hash__(self) -> int:
        return hash((tuple(self._num.items()), self._den, self._tail))

    def __repr__(self) -> str:
        return f"LaurentGerm({self.to_str()!r})"

    def __str__(self) -> str:
        return self.to_str()

    def to_str(self, var: str = "t") -> str:
        """Render in the input grammar: `c*t^e + ... + O(t^T)`, each
        coefficient part as `str(Fraction)` renders it."""
        den = self._den
        parts: list[str] = []
        for e, (re, im) in self._num.items():
            if im:
                body, sign = f"({_ratio(re, den)},{_ratio(im, den)})", "+"
            else:
                # a unit coefficient of a power of t prints as the power alone
                body = "" if e and abs(re) == den else _ratio(abs(re), den)
                sign = "-" if re < 0 else "+"
            if e:
                power = var if e == 1 else f"{var}^{e}"
                body = f"{body}*{power}" if body else power
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        if self._tail is not None:
            tail = f"O({var}^{self._tail})"
            parts.append(tail if not parts else f" + {tail}")
        return "".join(parts) if parts else "0"


def _ratio(a: int, d: int) -> str:
    """str(Fraction(a, d)) for d >= 1, with one gcd."""
    g = gcd(a, d)
    return f"{a // g}" if g == d else f"{a // g}/{d // g}"


def _min_tail(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# -- parsing ----------------------------------------------------------------

# one term with its sign; standalone coefficients are unsigned, so that
# "2-3*t" reads as 2 and -3*t (signed parts only inside Gaussian pairs).
# Groups: sign, tail bound, a rational's numerator and denominator, a
# Gaussian pair's four, the power after a coefficient, a bare power.
_TERM = re.compile(
    r"\s*([+-]?)\s*(?:"
    r"O\(t\^(-?\d+)\)"
    r"|(?:(\d+)(?:/(\d+))?"
    r"|\(\s*([+-]?\d+)(?:/(\d+))?\s*,\s*([+-]?\d+)(?:/(\d+))?\s*\))"
    r"(?:\s*\*\s*(t(?:\^-?\d+)?))?"
    r"|(t(?:\^-?\d+)?)"
    r")\s*"
)


def parse_germ(text: str) -> LaurentGerm:
    """Parse the germ grammar: sum of `c*t^e` terms with optional `+ O(t^T)`.

    Coefficients are rationals `a/b` or Gaussian pairs `(a/b,c/d)`; a bare
    `t^e` means coefficient 1, and `0` is the zero germ.  Any other text,
    a zero denominator included, raises GermParseError.  Each part is read
    with `int()` in the order `Fraction` would read it, so a faulty term
    gives the error `Fraction` would: a number longer than `int()` converts,
    or a zero denominator.
    """
    if not text.strip():
        raise GermParseError("empty germ specification")
    terms = []  # (e, a, b, c, d), as `LaurentGerm._from_parts` reads them
    tail: int | None = None
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        # the first term may carry only a minus; every later term needs a sign
        if not m or (m[1] == "+" if pos == 0 else not m[1]):
            raise GermParseError(f"cannot read germ at ...{text[pos:]!r}")
        pos = m.end()
        sign, bound, a, b, re_a, re_b, im_a, im_b, power, bare = m.groups()
        power = power or bare
        try:
            if bound is not None:
                bound = int(bound)
            exponent = 0 if power is None else int(power[2:] or 1)  # "t" or "t^e"
            if re_a is None:
                a, b, c, d = int(a or 1), int(b or 1), 0, 1
            else:
                # the real part is read, zero check included, before the imaginary one
                a, b = int(re_a), int(re_b or 1)
                c, d = (int(im_a), int(im_b or 1)) if b else (0, 0)
        except ValueError as exc:  # a number longer than int() converts
            raise GermParseError(str(exc)) from None
        if not (b and d):
            raise GermParseError(f"zero denominator in {m[0].strip()!r}")
        if bound is not None:
            if sign == "-":
                raise GermParseError("tail marker cannot be subtracted")
            if tail is not None:
                raise GermParseError("more than one tail marker")
            tail = bound
            continue
        if tail is not None:
            # grammar places the tail marker last
            raise GermParseError("terms after the tail marker")
        if sign == "-":
            a, c = -a, -c
        terms.append((exponent, a, b, c, d))
    if tail is not None:
        for e, _, _, _, _ in terms:
            if e >= tail:
                raise GermParseError(f"stored exponent {e} not below tail bound {tail}")
    return LaurentGerm._from_parts(terms, tail)
