"""Exact truncated Laurent polynomials in the normalization parameter.

A germ is stored as a finite map exponent -> Gaussian-rational coefficient,
optionally followed by an unknown tail marker O(t^T): terms of exponent >= T
exist but are not known.  All arithmetic is exact on the stored part and
propagates the tail bound conservatively, so decisions about a germ are
three-valued (yes / no / unknown) rather than silently wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Callable, Iterable, Iterator, Mapping

from .errors import GermParseError

RationalLike = int | Fraction

_FRACTION_ZERO = Fraction(0)


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = _FRACTION_ZERO):
        # Fractions are immutable, so a given one is stored as is
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        # real-by-real is the hot path in the exponent scans
        if not self.im and not other.im:
            return GaussianRational(self.re * other.re)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, scalar: RationalLike) -> "GaussianRational":
        """Rational scalar times this number: `k * z`."""
        if not self.im:
            return GaussianRational(scalar * self.re)
        return GaussianRational(scalar * self.re, scalar * self.im)

    def __pow__(self, n: int) -> "GaussianRational":
        """Square-and-multiply power for n >= 0."""
        if not self.im:
            return GaussianRational(self.re ** n)
        result, base = ONE, self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self) -> "GaussianRational":
        """1/z = conj(z)/|z|^2; ZeroDivisionError for zero."""
        if not self.im:
            return GaussianRational(1 / self.re)
        norm = self.re * self.re + self.im * self.im
        return GaussianRational(self.re / norm, -self.im / norm)

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


ONE = GaussianRational(1)


@dataclass(frozen=True)
class Decision:
    """Three-valued outcome of an exponent test on a possibly truncated germ."""

    kind: str  # "yes" | "no" | "unknown"
    reason: str | None = None
    witness: int | None = field(default=None, compare=False)  # "no": first failing exponent

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
CERTAINLY_NO = Decision("no")


def unknown(reason: str) -> Decision:
    return Decision("unknown", reason)


def unknown_beyond(tail: int) -> Decision:
    """Unknown because terms from t^tail on are not stored."""
    return unknown(f"terms hidden beyond O(t^{tail}) may violate the test")


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


def _coeff(value: CoeffLike) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


class LaurentGerm:
    """Finitely supported Laurent polynomial with an optional unknown tail.

    Invariants: no stored coefficient is zero, stored exponents are strictly
    below the tail bound when one is present, and iteration over terms is in
    increasing exponent order.
    """

    __slots__ = ("_terms", "_tail")

    def __init__(
        self,
        terms: Mapping[int, CoeffLike] | Iterable[tuple[int, CoeffLike]] = (),
        tail_bound: int | None = None,
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        cleaned: dict[int, GaussianRational] = {}
        for e, c in items:
            c = _coeff(c)
            if c.is_zero():
                continue
            if tail_bound is not None and e >= tail_bound:
                continue
            if e in cleaned:
                c = cleaned[e] + c
                if c.is_zero():
                    del cleaned[e]
                    continue
            cleaned[e] = c
        self._terms = dict(sorted(cleaned.items()))
        self._tail = tail_bound

    @classmethod
    def _from_clean(
        cls, terms: dict[int, GaussianRational], tail_bound: int | None
    ) -> "LaurentGerm":
        """Wrap terms that already meet the invariants, without checking them:
        nonzero coefficients, keys increasing and below `tail_bound`."""
        germ = object.__new__(cls)
        germ._terms = terms
        germ._tail = tail_bound
        return germ

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentGerm":
        return cls()

    @classmethod
    def one(cls) -> "LaurentGerm":
        return cls({0: ONE})

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
        return iter(self._terms.items())

    def exponents(self) -> list[int]:
        return list(self._terms.keys())

    def coefficient(self, exponent: int) -> GaussianRational:
        return self._terms.get(exponent, GaussianRational(0))

    def is_zero(self) -> bool:
        """Exactly zero: no stored terms and no unknown tail."""
        return not self._terms and self._tail is None

    def is_exact(self) -> bool:
        return self._tail is None

    def lowest_exponent(self) -> int | None:
        """Minimal stored exponent; None for the zero germ or a tail-only germ.

        Stored exponents always sit below the tail bound, so when any term is
        stored its minimum is the true order of the germ.
        """
        if self._terms:
            return next(iter(self._terms))
        return None

    def _support_bound(self) -> int | None:
        """Lower bound for every exponent that can occur, tail included; None if zero."""
        if self._terms:
            return next(iter(self._terms))
        return self._tail

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "LaurentGerm") -> "LaurentGerm":
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        tail = _min_tail(self._tail, other._tail)
        return LaurentGerm(chain(self._terms.items(), other._terms.items()), tail)

    def __neg__(self) -> "LaurentGerm":
        return LaurentGerm._from_clean({e: -c for e, c in self._terms.items()}, self._tail)

    def __sub__(self, other: "LaurentGerm") -> "LaurentGerm":
        return self + (-other)

    def __mul__(self, other: "LaurentGerm") -> "LaurentGerm":
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentGerm()
        tail: int | None = None
        if other._tail is not None:
            lo = self._support_bound()
            if lo is not None:
                tail = lo + other._tail
        if self._tail is not None:
            lo = other._support_bound()
            if lo is not None:
                t = self._tail + lo
                tail = t if tail is None else min(tail, t)
        if tail is None:
            # both exact and nonzero, so both store terms
            limit = next(reversed(self._terms)) + next(reversed(other._terms)) + 1
        else:
            limit = tail
        prod: dict[int, GaussianRational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                if e >= limit:
                    break  # terms are sorted, so every later e2 is past it too
                c = c1 * c2
                s = prod.get(e)
                if s is None:
                    prod[e] = c
                else:
                    s = s + c
                    if s.is_zero():
                        del prod[e]
                    else:
                        prod[e] = s
        return LaurentGerm._from_clean(dict(sorted(prod.items())), tail)

    def __pow__(self, n: int) -> "LaurentGerm":
        """J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7).

        Write f = t^lo * g with g = sum_j g_j t^j and g_0 != 0.  Then
        h = g^n satisfies g * h' = n * g' * h; comparing the coefficients of
        t^(k-1) gives h_0 = g_0^n and, for k >= 1,

            h_k = (1 / (k * g_0)) * sum_{j=1..k} ((n+1)*j - k) * g_j * h_{k-j}.

        Only nonzero g_j contribute, and g_0 is inverted once per power.  Every
        step is exact Q(i) arithmetic; dividing by k is possible because Q(i)
        has characteristic 0 (in characteristic p the step k = p would divide
        by zero).  So f^n costs no germ products.

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

        When every j with g_j != 0 is a multiple of d, g is a series in
        u = t^d, and substituting k = d*k', j = d*j' turns the recurrence
        into the same one in u; so only every d-th h_k is computed.  A
        monomial, truncated or not, has only h_0.

        n = 0 gives the exact unit, even for a zero or truncated germ; the
        exact zero stays zero, and O(t^T)**n is O(t^(n*T)).

        The terms come from `_power_terms`, which runs the recurrence lazily
        and is the one power path; the tail from `_power_tail`.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(f"germ power must be >= 0, got {n}")
        return LaurentGerm._from_clean(dict(self._power_terms(n)), self._power_tail(n))

    def _power_tail(self, n: int) -> int | None:
        """Tail bound of f**n for n >= 0: (n-1)*lo + T, or n*T for O(t^T)."""
        if n == 0 or self._tail is None:
            return None
        if not self._terms:
            return n * self._tail
        return (n - 1) * next(iter(self._terms)) + self._tail

    def _power_terms(
        self, n: int, below: int | None = None
    ) -> Iterator[tuple[int, GaussianRational]]:
        """Stored terms of f**n for n >= 0, in increasing exponent order;
        only those with exponent < `below` when it is given.

        Each term is computed by the recurrence in `__pow__` only when it is
        asked for, so a caller may stop at the first term it needs.  The walk
        ends at `below`, at the tail and at the degree n*(hi - lo) of the
        stored part's power, whichever comes first.
        """
        if n == 0:
            if below is None or below > 0:
                yield 0, ONE
            return
        if not self._terms:
            return
        terms = iter(self._terms.items())
        lo, g0 = next(terms)
        offsets = [(e - lo, c) for e, c in terms]
        base = n * lo
        # h_k for k < width, of which only multiples of step can be nonzero
        width = n * (offsets[-1][0] if offsets else 0) + 1
        if self._tail is not None:
            width = min(width, self._tail - lo)
        if below is not None:
            width = min(width, below - base)
        if width <= 0:
            return
        step = gcd(*(j for j, _ in offsets)) or width
        rest = [(j // step, c) for j, c in offsets]
        count = -(-width // step)
        inverse_g0 = g0.inverse()
        h: list[GaussianRational | None] = [g0 ** n]
        yield base, h[0]
        for k in range(1, count):
            acc = None
            for j, gj in rest:
                if j > k:
                    break
                prev = h[k - j]
                if prev is not None:
                    term = ((n + 1) * j - k) * (gj * prev)
                    acc = term if acc is None else acc + term
            if acc is None or acc.is_zero():
                h.append(None)
            else:
                hk = Fraction(1, k) * (acc * inverse_g0)
                h.append(hk)
                yield base + step * k, hk

    def scaled(self, factor: CoeffLike) -> "LaurentGerm":
        c = _coeff(factor)
        if c.is_zero():
            return LaurentGerm._from_clean({}, self._tail)
        # a product of nonzero field elements is nonzero
        return LaurentGerm._from_clean({e: v * c for e, v in self._terms.items()}, self._tail)

    def shifted(self, offset: int) -> "LaurentGerm":
        """Multiply by t^offset."""
        tail = None if self._tail is None else self._tail + offset
        return LaurentGerm._from_clean({e + offset: c for e, c in self._terms.items()}, tail)

    # -- decisions ---------------------------------------------------------

    def exponents_within(
        self,
        predicate: Callable[[int], bool],
        tail_satisfies: Callable[[int], bool] | None = None,
    ) -> Decision:
        """Do all exponents of this germ satisfy the predicate?

        `tail_satisfies(T)` is the caller's certificate that every integer
        >= T satisfies the predicate; without it a present tail forces an
        unknown verdict.  A stored exponent that fails is decisive no matter
        what the tail hides, since stored coefficients are exact and the
        tail cannot cancel them; it is returned as the decision's witness.
        """
        for e in self._terms:
            if not predicate(e):
                return Decision("no", witness=e)
        if self._tail is None:
            return CERTAINLY_YES
        if tail_satisfies is not None and tail_satisfies(self._tail):
            return CERTAINLY_YES
        return unknown_beyond(self._tail)

    # -- equality / rendering ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentGerm):
            return NotImplemented
        return self._terms == other._terms and self._tail == other._tail

    def __hash__(self) -> int:
        return hash((tuple(self._terms.items()), self._tail))

    def __repr__(self) -> str:
        return f"LaurentGerm({self.to_str()!r})"

    def __str__(self) -> str:
        return self.to_str()

    def to_str(self, var: str = "t") -> str:
        """Render in the input grammar: `c*t^e + ... + O(t^T)`."""
        parts: list[str] = []
        for e, c in self._terms.items():
            if c.im:
                body = f"({c.re},{c.im})"
                sign = "+"
            else:
                sign = "-" if c.re < 0 else "+"
                mag = abs(c.re)
                body = str(mag)
            if e != 0:
                power = var if e == 1 else f"{var}^{e}"
                if c.im or abs(c.re) != 1:
                    body = f"{body}*{power}"
                else:
                    body = power
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        if self._tail is not None:
            tail = f"O({var}^{self._tail})"
            parts.append(tail if not parts else f" + {tail}")
        return "".join(parts) if parts else "0"


def _min_tail(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


# -- parsing ----------------------------------------------------------------

_RAT = r"[+-]?\d+(?:/\d+)?"
# standalone coefficients are unsigned; signs are separator tokens, so that
# "2-3*t" splits as 2, -, 3*t (signed components only inside Gaussian pairs)
_TOKEN = re.compile(
    r"\s*(?:"
    rf"(?P<tail>O\(t\^(?P<tailexp>-?\d+)\))"
    rf"|(?P<pair>\(\s*(?P<pre>{_RAT})\s*,\s*(?P<pim>{_RAT})\s*\))"
    r"|(?P<rat>\d+(?:/\d+)?)"
    r"|(?P<t>t(?:\^(?P<texp>-?\d+))?)"
    r"|(?P<star>\*)"
    r"|(?P<plus>\+)"
    r"|(?P<minus>-)"
    r")"
)


def parse_germ(text: str) -> LaurentGerm:
    """Parse the germ grammar: sum of `c*t^e` terms with optional `+ O(t^T)`.

    Coefficients are rationals `a/b` or Gaussian pairs `(a/b,c/d)`; a bare
    `t^e` means coefficient 1, and `0` is the zero germ.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise GermParseError("empty germ specification")
    terms: list[tuple[int, GaussianRational]] = []
    tail: int | None = None
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        if not first:
            kind, _ = tokens[i]
            if kind == "plus":
                i += 1
            elif kind == "minus":
                sign = -1
                i += 1
            else:
                raise GermParseError(f"expected + or - between terms in {text!r}")
        elif tokens[i][0] == "minus":
            sign = -1
            i += 1
        first = False
        if i >= len(tokens):
            raise GermParseError(f"dangling sign in {text!r}")
        kind, value = tokens[i]
        if kind == "tail":
            if sign < 0:
                raise GermParseError("tail marker cannot be subtracted")
            if tail is not None:
                raise GermParseError("more than one tail marker")
            tail = value
            i += 1
            continue
        if tail is not None:
            # grammar places the tail marker last
            raise GermParseError("terms after the tail marker")
        coeff = GaussianRational(1)
        exponent = 0
        if kind in ("pair", "rat"):
            coeff = value
            i += 1
            if i < len(tokens) and tokens[i][0] == "star":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "t":
                    raise GermParseError(f"expected t after * in {text!r}")
                exponent = tokens[i][1]
                i += 1
        elif kind == "t":
            exponent = value
            i += 1
        else:
            raise GermParseError(f"unexpected token in {text!r}")
        if sign < 0:
            coeff = -coeff
        terms.append((exponent, coeff))
    if tail is not None:
        for e, _ in terms:
            if e >= tail:
                raise GermParseError(
                    f"stored exponent {e} not below tail bound {tail}"
                )
    return LaurentGerm(terms, tail)


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise GermParseError(f"cannot read germ at ...{text[pos:]!r}")
            break
        pos = m.end()
        if m.group("tail"):
            tokens.append(("tail", int(m.group("tailexp"))))
        elif m.group("pair"):
            tokens.append(
                ("pair", GaussianRational(Fraction(m.group("pre")), Fraction(m.group("pim"))))
            )
        elif m.group("rat"):
            tokens.append(("rat", GaussianRational(Fraction(m.group("rat")))))
        elif m.group("t"):
            exp = m.group("texp")
            tokens.append(("t", 1 if exp is None else int(exp)))
        elif m.group("star"):
            tokens.append(("star", None))
        elif m.group("plus"):
            tokens.append(("plus", None))
        elif m.group("minus"):
            tokens.append(("minus", None))
    return tokens
