"""Expected answers computed without the library's arithmetic.

Everything here works on plain integers, ``Fraction`` and sets: semigroup
membership by dynamic programming, germ supports by capped sumsets, and the
closed forms the paper proves (refusing site ``n+1``, region bound
``(R-1)R``, conductor and Frobenius number, dual-number powers).  The
support oracles assume the germ's coefficients cannot cancel: one term, or
all coefficients positive rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd

# A germ input is (terms, tail): terms a tuple of (exponent, re, im) sorted
# by exponent with re, im Fractions, tail an int or None for an exact germ.


@lru_cache(maxsize=None)
def membership(p: int, q: int, bound: int) -> bytes:
    """Table t with t[n] == 1 iff n = a*p + b*q for some a, b >= 0, n <= bound."""
    dp = bytearray(bound + 1)
    dp[0] = 1
    for n in range(1, bound + 1):
        if (n >= p and dp[n - p]) or (n >= q and dp[n - q]):
            dp[n] = 1
    return bytes(dp)


def member(p: int, q: int, n: int) -> bool:
    if n < 0:
        return False
    # tables are shared per (p, q) in power-of-two sizes
    size = max(64, 1 << n.bit_length())
    return bool(membership(p, q, size)[n])


def conductor(p: int, q: int) -> int:
    return (p - 1) * (q - 1)


def frobenius(p: int, q: int) -> int:
    return p * q - p - q


def can_cancel(terms) -> bool:
    """Whether sums of products of these coefficients could vanish."""
    if len(terms) == 1:
        return False
    return any(im != 0 or re <= 0 for _, re, im in terms)


def power_supports(terms, tail: int | None):
    """Stored exponents and tail bound of f, f^2, f^3, ... in turn.

    With lowest stored exponent e0, the tail of f^n is (n-1)*e0 + tail; the
    stored exponents are the n-fold sums of f's exponents below that bound
    (exactly so when coefficients cannot cancel, a superset otherwise).
    Partial sums of a surviving sum survive too, so each power follows from
    the previous one.
    """
    exps = [e for e, _, _ in terms]
    e0 = exps[0]
    offsets = [e - e0 for e in exps]
    width = None if tail is None else tail - e0
    acc = {0}
    n = 0
    while True:
        n += 1
        acc = {s + d for s in acc for d in offsets if width is None or s + d < width}
        yield sorted(n * e0 + s for s in acc), None if tail is None else (n - 1) * e0 + tail


def power_support(terms, tail: int | None, n: int) -> tuple[list[int], int | None]:
    """Stored exponents and tail bound of the n-th power, for n >= 1."""
    e0 = terms[0][0]
    previous = None
    for k, (exps, _) in enumerate(power_supports(terms, tail), start=1):
        shape = [e - k * e0 for e in exps]
        if k == n or shape == previous:
            # 0 is an offset, so the shifted supports only grow; once stable
            # they stay stable
            return [e + n * e0 for e in shape], None if tail is None else (n - 1) * e0 + tail
        previous = shape


# -- rendering in the library's germ grammar ------------------------------------


def render_germ(terms, tail: int | None) -> str:
    """Canonical text of a germ: `c*t^e` terms in increasing order, then O(t^T)."""
    parts: list[str] = []
    for e, re, im in terms:
        if im:
            body, sign = f"({re},{im})", "+"
        else:
            sign = "-" if re < 0 else "+"
            body = str(abs(re))
        if e != 0:
            power = "t" if e == 1 else f"t^{e}"
            body = f"{body}*{power}" if im or abs(re) != 1 else power
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    if tail is not None:
        marker = f"O(t^{tail})"
        parts.append(marker if not parts else f" + {marker}")
    return "".join(parts) if parts else "0"


def _monomial_text(c: int, e: int) -> str:
    """`c*z^e` as the library renders a one-term Laurent polynomial."""
    body = str(abs(c))
    if e != 0:
        power = "z" if e == 1 else f"z^{e}"
        body = power if abs(c) == 1 else f"{body}*{power}"
    return body if c > 0 else f"-{body}"


# -- decisions on supports ----------------------------------------------------


def decide(p: int, q: int, exps: list[int], tail: int | None) -> str:
    """Holomorphy verdict from a support: a stored gap is decisive, a tail
    from the conductor on is harmless, any other tail leaves it open."""
    if any(not member(p, q, e) for e in exps):
        return "CertainlyNo"
    if tail is None or tail >= conductor(p, q):
        return "CertainlyYes"
    return f"Unknown(terms hidden beyond O(t^{tail}) may violate the test)"


def _min_power(p, q, terms, tail):
    """Least n <= conductor with f^n holomorphic; None where the scan fails."""
    powers = power_supports(terms, tail)
    for n in range(1, conductor(p, q) + 1):
        if decide(p, q, *next(powers)) == "CertainlyYes":
            return n
    return None


def _stable_power(p, q, terms, tail):
    lo = terms[0][0]
    c = conductor(p, q)
    powers = power_supports(terms, tail)
    if lo >= 1:
        last_no = 0
        unknowns = []
        for n in range(1, c):
            verdict = decide(p, q, *next(powers))
            if verdict == "CertainlyNo":
                last_no = n
            elif verdict != "CertainlyYes":
                unknowns.append(n)
        if any(n > last_no for n in unknowns):
            return None
        return last_no + 1
    cap = c + p * q
    last_bad = 0
    saw_unknown = False
    for n in range(1, cap + 1):
        verdict = decide(p, q, *next(powers))
        if verdict == "CertainlyYes":
            candidate = last_bad + 1
            if n >= 2 * candidate - 1:
                return None if saw_unknown else candidate
        else:
            saw_unknown = saw_unknown or verdict != "CertainlyNo"
            last_bad = n
    return None


def unit_order_germ(p: int, q: int) -> tuple[int, int]:
    """Least m >= 1 with m*q = 1 (mod p), by search, and n = (m*q - 1)/p."""
    m = next(m for m in range(1, p + 1) if (m * q) % p == 1)
    return m, (m * q - 1) // p


def curve_analyze(p: int, q: int, terms, tail) -> tuple[dict, list[str]]:
    """Expected `curve analyze` results and the labels of its findings."""
    exps = [e for e, _, _ in terms]
    findings: list[str] = []
    min_pow = _min_power(p, q, terms, tail)
    if min_pow is None:
        findings.append("minPower")
    stable = _stable_power(p, q, terms, tail)
    if stable is None:
        findings.append("stablePower")
    d = min(p, q)
    if exps[0] >= 1:
        flat = str(Fraction(exps[0], d))
    else:
        flat = None
        findings.append("orderOfFlatness")
    m, n = unit_order_germ(p, q)
    axis = "z2" if p < q else "z1"
    witness = next((e for e in exps if not member(p, q, e)), None)
    if tail is None and len(exps) == 1 and exps[0] >= 1:
        g = gcd(d, exps[0])
        inner = "T" if d // g == 1 else f"T^{d // g}"
        zpart = "z" if exps[0] // g == 1 else f"z^{exps[0] // g}"
        base = f"{inner} - {zpart}"
        weierstrass = {
            "degree": d,
            "factored": base if g == 1 else f"({base})^{g}",
            "annihilatesPullback": True,
        }
    else:
        weierstrass = None
        findings.append("weierstrass")
    germ = render_germ(terms, tail)
    results = {
        "curve": f"gamma:{p},{q}",
        "germ": germ,
        "unitOrderGerm": {"m": m, "n": n, "monomial": f"z1^{m}/z2^{n}", "pullback": "t"},
        "weaklyHolomorphic": "CertainlyYes",
        "decision": decide(p, q, exps, tail),
        "witnessExponent": witness,
        "minPower": min_pow,
        "stablePower": stable,
        "orderOfFlatness": flat,
        "coveringDegree": d,
        "projectionAxis": axis,
        "whitneyCone": axis,
        "weierstrass": weierstrass,
    }
    report = {
        "command": "curve analyze",
        "inputs": {"p": p, "q": q, "germ": germ},
        "results": results,
    }
    return report, findings


# -- other commands -------------------------------------------------------------


def semigroup_info(p: int, q: int, bound: int | None) -> dict:
    b = conductor(p, q) + 1 if bound is None else bound
    table = membership(p, q, max(64, 1 << b.bit_length()))
    return {
        "command": "semigroup info",
        "inputs": {"p": p, "q": q, "bound": b},
        "results": {
            "conductor": conductor(p, q),
            "frobenius": frobenius(p, q),
            "membersUpToBound": [n for n in range(b + 1) if table[n]],
            "gapsUpToBound": [n for n in range(b + 1) if not table[n]],
        },
        "findings": [],
    }


def curve_multiplier(p: int, q: int, a: int, b: int) -> dict:
    m, n = unit_order_germ(p, q)
    floor_ok = q * ((m + a) // p) + b >= n
    exact_ok = member(p, q, a * q + b * p + 1)
    findings = []
    if floor_ok and not exact_ok:
        findings.append("floor condition claimed holomorphy but exact membership fails:"
                        " soundness violation")
    elif exact_ok and not floor_ok:
        findings.append("exact membership holds although the floor condition fails:"
                        " the floor condition is sufficient, not necessary")
    return {
        "command": "curve multiplier",
        "inputs": {"p": p, "q": q, "a": a, "b": b},
        "results": {
            "curve": f"gamma:{p},{q}",
            "unitOrderGerm": {"m": m, "n": n},
            "monomialPullbackExponent": a * q + b * p,
            "floorCheck": floor_ok,
            "exactCheck": exact_ok,
        },
        "findings": findings,
    }


def rado_witness(max_k: int, n: int) -> dict:
    """Site n+1 refuses the n-th power of t + O(t^(k(k-1)))."""
    k = n + 1
    germ = render_germ(((1, Fraction(1), Fraction(0)),), k * (k - 1))
    power = render_germ(((n, Fraction(1), Fraction(0)),), n - 1 + k * (k - 1))
    return {
        "command": "rado witness",
        "inputs": {"maxK": max_k, "n": n},
        "results": {
            "witnessSite": k,
            "curve": f"gamma:{k},{k + 1}",
            "germ": germ,
            "powerGerm": power,
            "decision": "CertainlyNo",
            "witnessExponent": n,
        },
        "findings": [
            "every power has a refusing site, so no single power is"
            " holomorphic on the whole glued curve"
        ],
    }


def theorem1_bound(max_k: int, region: int, n: int | None) -> dict:
    """nOmega = (R-1)R; site k accepts (t + O(t^(k(k-1))))^N iff N is in <k, k+1>."""
    bound = (region - 1) * region
    power = bound if n is None else n
    per_site = {
        str(k): "CertainlyYes" if member(k, k + 1, power) else "CertainlyNo"
        for k in range(2, region + 1)
    }
    aggregate = "CertainlyNo" if "CertainlyNo" in per_site.values() else "CertainlyYes"
    return {
        "command": "theorem1 bound",
        "inputs": {"maxK": max_k, "region": region, "n": power},
        "results": {
            "nOmega": bound,
            "power": power,
            "perSite": per_site,
            "aggregate": aggregate,
            "sharpness": {
                "germ": "t",
                "power": bound - 1,
                "site": region,
                # (R-1)R - 1 is the Frobenius number of <R, R+1>
                "decision": "CertainlyNo",
            },
        },
        "findings": [],
    }


def nagata_demo(g: str, max_pow: int) -> dict:
    """Powers (z^k) + eps*(k*z^(k-1)*g) of z + eps*g."""
    powers = []
    for k in range(1, max_pow + 1):
        base = _monomial_text(1, k)
        if g == "inv":
            nil = _monomial_text(k, k - 2)
            extends = k >= 2
        else:
            nil = "exp(1/z)" if k == 1 else f"{_monomial_text(k, k - 1)}*exp(1/z)"
            extends = False
        powers.append({"k": k, "section": f"({base}) + eps*({nil})", "extends": extends})
    if g == "inv":
        finding = ("with nilpotent shift 1/z only the first power fails to extend;"
                   " every power k >= 2 extends across the origin")
    else:
        finding = ("with an essentially singular shift no power extends:"
                   " the essential factor survives multiplication by monomials")
    return {
        "command": "nagata demo",
        "inputs": {"g": g, "maxPow": max_pow},
        "results": {
            "g": "z^-1" if g == "inv" else "exp(1/z)",
            "section": "(z) + eps*(z^-1)" if g == "inv" else "(z) + eps*(exp(1/z))",
            "powers": powers,
        },
        "findings": [finding],
    }


def strip_findings(report: dict) -> tuple[dict, list[str]]:
    """Report without its findings, and the findings' labels (text before ':')."""
    rest = {k: v for k, v in report.items() if k != "findings"}
    labels = [f.split(":", 1)[0] for f in report.get("findings", [])]
    return rest, labels
