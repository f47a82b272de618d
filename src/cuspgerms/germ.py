"""Exact truncated Laurent polynomials in the normalization parameter.

A germ is stored as a finite map exponent -> Gaussian-rational coefficient,
optionally followed by an unknown tail marker O(t^T): terms of exponent >= T
exist but are not known.  All arithmetic is exact on the stored part and
propagates the tail bound conservatively, so decisions about a germ are
three-valued (yes / no / unknown) rather than silently wrong.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from .errors import GermParseError

RationalLike = int | Fraction


class GaussianRational:
    """Exact complex number with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        self.re = Fraction(re)
        self.im = Fraction(im)

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
        return LaurentGerm({e: -c for e, c in self._terms.items()}, self._tail)

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
        prod: dict[int, GaussianRational] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                if tail is not None and e >= tail:
                    continue
                c = c1 * c2
                if e in prod:
                    s = prod[e] + c
                    if s.is_zero():
                        del prod[e]
                    else:
                        prod[e] = s
                else:
                    prod[e] = c
        return LaurentGerm(prod, tail)

    def __pow__(self, n: int) -> "LaurentGerm":
        """Square-and-multiply power; n = 0 gives the exact unit."""
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError(f"germ power must be >= 0, got {n}")
        result = LaurentGerm.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scaled(self, factor: CoeffLike) -> "LaurentGerm":
        c = _coeff(factor)
        if c.is_zero():
            return LaurentGerm((), self._tail)
        return LaurentGerm({e: v * c for e, v in self._terms.items()}, self._tail)

    def shifted(self, offset: int) -> "LaurentGerm":
        """Multiply by t^offset."""
        tail = None if self._tail is None else self._tail + offset
        return LaurentGerm({e + offset: c for e, c in self._terms.items()}, tail)

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
        tail cannot cancel them.
        """
        for e in self._terms:
            if not predicate(e):
                return CERTAINLY_NO
        if self._tail is None:
            return CERTAINLY_YES
        if tail_satisfies is not None and tail_satisfies(self._tail):
            return CERTAINLY_YES
        return unknown(f"terms hidden beyond O(t^{self._tail}) may violate the test")

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
