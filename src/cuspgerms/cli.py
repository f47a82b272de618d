"""Command-line front end.

Every computation in the library is reachable here, reported either as a
human-readable block or, with --json, as a stable structured document
{command, inputs, results, findings}.  Output is deterministic: identical
invocations produce identical bytes.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable

# library modules are read through their module objects when a handler runs,
# so a command runs only the modules it uses (the package registers them lazily)
from . import curve, germ, nagata, semigroup, surgery
from .errors import CuspGermsError, UndecidableAtTruncation

try:  # json's C string escaper, without loading the json package and its decoder
    from _json import encode_basestring_ascii as _quote
except ImportError:  # an interpreter built without the accelerator
    from json.encoder import encode_basestring_ascii as _quote

if TYPE_CHECKING:
    import argparse

_AXIS_NAME = {1: "z1", 2: "z2"}

# Size limits: the largest value each size flag accepts.  A larger value is a
# domain error (exit code 1), refused before any work starts.
_MAX_TABLE_BOUND = 10**6  # `semigroup info --bound`; the table has bound + 1 rows
_MAX_NAGATA_POW = 10**4  # `nagata demo --max-pow`; one row per power
_MAX_SITES = 10**4  # `--max-k` of `rado witness` and `theorem1 bound`; one site each
_MAX_CONDUCTOR = 10**5  # `curve analyze`: (p-1)(q-1); the power scans grow with it


# The quoted `"key": ` prefix of each str dict key rendered so far, filled on
# first use.  Reports hold the handlers' fixed key names and at most
# _MAX_SITES `perSite` keys (one per site of `theorem1 bound`), which bounds it.
_KEY_PREFIX: dict[str, str] = {}


def _key_prefix(key: Any) -> str:
    """The `"key": ` prefix of a dict key not yet in `_KEY_PREFIX`: a str
    key's is kept there; an int key is rendered by `int.__repr__`, as json
    renders it, each time."""
    if not isinstance(key, str):
        return f"{_quote(int.__repr__(key))}: "
    prefix = _KEY_PREFIX[key] = f"{_quote(key)}: "
    return prefix


def _json(value: Any, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2, default=str)`, byte for byte, for the
    values reports hold (no floats), in one pass with the C string escaper:
    json's indented encoding runs its pure-Python encoder.  `pad` is the
    newline and indent that close the value's brackets.  The exact types
    reports are made of come first; every other value takes the chain of
    identity and `isinstance` tests, bools before ints as in json."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)  # raises ValueError past the digit limit
    if kind is not dict and kind is not list:
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, str):
            return _quote(value)
        if isinstance(value, int):
            return int.__repr__(value)
        if not isinstance(value, (list, tuple, dict)):
            return _quote(str(value))  # decisions, germs, fractions
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join([
            (_KEY_PREFIX.get(k) or _key_prefix(k))
            + (_quote(v) if type(v) is str else
               int.__repr__(v) if type(v) is int else _json(v, inner))
            for k, v in value.items()
        ])
        return f"{{{inner}{body}{pad}}}"
    if not value:
        return "[]"
    if all(type(v) is int for v in value):  # membership tables; bools excluded
        body = ("," + inner).join(map(int.__repr__, value))
    else:
        body = ("," + inner).join([_json(v, inner) for v in value])
    return f"[{inner}{body}{pad}]"


def _render_human(report: dict[str, Any]) -> str:
    lines = [f"== {report['command']} =="]
    lines.append("inputs:")
    _emit_block(lines, report["inputs"], indent=2)
    lines.append("results:")
    _emit_block(lines, report["results"], indent=2)
    lines.append("findings:")
    findings = report.get("findings") or []
    if findings:
        for entry in findings:
            lines.append(f"  - {entry}")
    else:
        lines.append("  (none)")
    return "\n".join(lines)


def _emit_block(lines: list[str], value: Any, indent: int) -> None:
    pad = " " * indent
    if isinstance(value, dict):
        width = max((len(str(k)) for k in value), default=0)
        for k, v in value.items():
            if isinstance(v, dict) or _is_container_list(v):
                lines.append(f"{pad}{k}:")
                _emit_block(lines, v, indent + 2)
            elif isinstance(v, (list, tuple)):
                joined = " ".join(_scalar(item) for item in v)
                lines.append(f"{pad}{str(k):<{width}} : {joined}")
            else:
                lines.append(f"{pad}{str(k):<{width}} : {_scalar(v)}")
    else:  # a list or tuple: the reports' blocks are dicts, and only containers recurse
        for item in value:
            if isinstance(item, (dict, list, tuple)):
                lines.append(f"{pad}-")
                _emit_block(lines, item, indent + 2)
            else:
                lines.append(f"{pad}- {_scalar(item)}")


def _is_container_list(value: Any) -> bool:
    return isinstance(value, (list, tuple)) and any(
        isinstance(item, (dict, list, tuple)) for item in value
    )


def _scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "-"
    return str(value)


def _attempt(fn: Callable[[], Any], findings: list[str], label: str) -> Any:
    try:
        return fn()
    except (ValueError, UndecidableAtTruncation) as exc:
        findings.append(f"{label}: {exc}")
        return None


# -- subcommand handlers -------------------------------------------------------


def _cmd_semigroup_info(args: SimpleNamespace) -> dict[str, Any]:
    s = semigroup.NumericalSemigroup(args.p, args.q)
    c = s.conductor()
    bound = args.bound if args.bound is not None else c + 1
    if bound < 0:
        raise ValueError(f"membership bound must be >= 0, got {bound}")
    if bound > _MAX_TABLE_BOUND:
        raise ValueError(f"membership bound must be <= {_MAX_TABLE_BOUND}, got {bound}")
    # every gap lies below the conductor c: the rows below min(bound + 1, c)
    # are split by one pass over the bits of the members there, and every row
    # from c on is a member.  The bitset stops at the table, since c can be
    # far past it.
    below = min(bound + 1, c)
    member_bits = semigroup.monoid_bits((s.p, s.q), below)
    members: list[int] = []
    gaps: list[int] = []
    for n, bit in enumerate(format(member_bits, f"0{below}b")[::-1]):
        (members if bit == "1" else gaps).append(n)
    members.extend(range(c, bound + 1))
    return {
        "command": "semigroup info",
        "inputs": {"p": args.p, "q": args.q, "bound": bound},
        "results": {
            "conductor": c,
            "frobenius": s.frobenius(),
            "membersUpToBound": members,
            "gapsUpToBound": gaps,
        },
        "findings": [],
    }


@functools.cache
def _unit_pullback_text() -> str:
    """The pullback of every curve's unit-order germ, the one germ
    `curve.UNIT_PULLBACK` (t), rendered once per process."""
    return curve.UNIT_PULLBACK.to_str()


def _cmd_curve_analyze(args: SimpleNamespace) -> dict[str, Any]:
    cusp = curve.CuspCurve(args.p, args.q)
    conductor = cusp.semigroup.conductor()
    if conductor > _MAX_CONDUCTOR:
        raise ValueError(f"conductor must be <= {_MAX_CONDUCTOR}, got {conductor}")
    findings: list[str] = []
    rado = cusp.rado_germ()
    f = germ.parse_germ(args.germ) if args.germ is not None else rado.pullback
    germ_text = f.to_str()  # both inputs.germ and results.germ
    decision = cusp.is_holomorphic_at_cusp(f)
    cover = cusp.covering_degree()
    results: dict[str, Any] = {
        "curve": cusp.spec_str(),
        "germ": germ_text,
        "unitOrderGerm": {
            "m": rado.m,
            "n": rado.n,
            "monomial": f"z1^{rado.m}/z2^{rado.n}",
            "pullback": _unit_pullback_text(),
        },
        "weaklyHolomorphic": cusp.is_weakly_holomorphic(f),
        "decision": decision,
        "witnessExponent": decision.witness,
        "minPower": _attempt(lambda: cusp.min_power(f), findings, "minPower"),
        "stablePower": _attempt(lambda: cusp.stable_power(f), findings, "stablePower"),
        "orderOfFlatness": _attempt(
            lambda: cusp.order_of_flatness(f), findings, "orderOfFlatness"
        ),
        "coveringDegree": cover.degree,
        "projectionAxis": _AXIS_NAME[cover.axis],
        "whitneyCone": _AXIS_NAME[cusp.whitney_cone()],
    }
    exps = f.exponents()
    if f.is_exact() and len(exps) == 1 and exps[0] >= 1:
        poly = cusp.weierstrass(exps[0])
        results["weierstrass"] = {
            "degree": poly.degree,
            "factored": poly.factored_str(),
            "annihilatesPullback": poly.annihilates_pullback(),
        }
    else:
        results["weierstrass"] = None
        findings.append(
            "weierstrass: closed form applies to single exact monomial germs only"
        )
    return {
        "command": "curve analyze",
        "inputs": {"p": args.p, "q": args.q, "germ": germ_text},
        "results": results,
        "findings": findings,
    }


def _cmd_curve_multiplier(args: SimpleNamespace) -> dict[str, Any]:
    cusp = curve.CuspCurve(args.p, args.q)
    floor_ok = cusp.floor_multiplier_check(args.a, args.b)
    exact_ok = cusp.exact_multiplier_check(args.a, args.b)
    findings: list[str] = []
    if floor_ok and not exact_ok:
        findings.append(
            "floor condition claimed holomorphy but exact membership fails:"
            " soundness violation"
        )
    elif not floor_ok and exact_ok:
        findings.append(
            "exact membership holds although the floor condition fails:"
            " the floor condition is sufficient, not necessary"
        )
    rado = cusp.rado_germ()
    return {
        "command": "curve multiplier",
        "inputs": {"p": args.p, "q": args.q, "a": args.a, "b": args.b},
        "results": {
            "curve": cusp.spec_str(),
            "unitOrderGerm": {"m": rado.m, "n": rado.n},
            "monomialPullbackExponent": cusp.pullback_monomial(args.a, args.b),
            "floorCheck": floor_ok,
            "exactCheck": exact_ok,
        },
        "findings": findings,
    }


def _build_sites(max_k: int) -> surgery.SurgeryCurve:
    if max_k > _MAX_SITES:
        raise ValueError(f"maxK must be <= {_MAX_SITES}, got {max_k}")
    return surgery.SurgeryCurve.build_standard(max_k)


def _cmd_rado_witness(args: SimpleNamespace) -> dict[str, Any]:
    glued = _build_sites(args.max_k)
    section = surgery.make_global_rado(glued)
    site_index = surgery.no_global_power_witness(glued, args.n, section)
    site = glued.site(site_index)
    site_germ = section.germ_at(site_index)
    power = site_germ ** args.n
    decision = site.curve.is_holomorphic_at_cusp(power)
    return {
        "command": "rado witness",
        "inputs": {"maxK": args.max_k, "n": args.n},
        "results": {
            "witnessSite": site_index,
            "curve": site.curve.spec_str(),
            "germ": site_germ,
            "powerGerm": power,
            "decision": decision,
            "witnessExponent": decision.witness,
        },
        "findings": [
            "every power has a refusing site, so no single power is"
            " holomorphic on the whole glued curve"
        ],
    }


def _cmd_theorem1_bound(args: SimpleNamespace) -> dict[str, Any]:
    glued = _build_sites(args.max_k)
    bound = surgery.n_omega(glued, args.region)
    power = args.n if args.n is not None else bound
    section = surgery.make_global_rado(glued)
    table = surgery.check_section_power(glued, section, power, args.region)
    sharp_site = glued.site(args.region)
    sharp_power = bound - 1
    sharp_decision = sharp_site.decision_for_power(germ.LaurentGerm.monomial(1), sharp_power)
    return {
        "command": "theorem1 bound",
        "inputs": {"maxK": args.max_k, "region": args.region, "n": power},
        "results": {
            "nOmega": bound,
            "power": power,
            "perSite": {str(k): d for k, d in table.per_site.items()},
            "aggregate": table.aggregate,
            "sharpness": {
                "germ": "t",
                "power": sharp_power,
                "site": args.region,
                "decision": sharp_decision,
            },
        },
        "findings": [],
    }


def _cmd_nagata_demo(args: SimpleNamespace) -> dict[str, Any]:
    if args.max_pow < 1:
        raise ValueError(f"maxPow must be >= 1, got {args.max_pow}")
    if args.max_pow > _MAX_NAGATA_POW:
        raise ValueError(f"maxPow must be <= {_MAX_NAGATA_POW}, got {args.max_pow}")
    if args.g == "inv":
        g = nagata.LaurentObject.monomial(-1)
    else:
        g = nagata.LaurentObject.essential_unit()
    section = nagata.identity_section(g)
    powers = []
    for k in range(1, args.max_pow + 1):
        power = nagata.nagata_pow(section, k)
        powers.append({"k": k, "section": power.to_str(),
                       "extends": power.extends_across_origin()})
    extend_flags = [row["extends"] for row in powers]
    findings = []
    if args.g == "inv":
        if all(extend_flags[1:]) and not extend_flags[0]:
            findings.append(
                "with nilpotent shift 1/z only the first power fails to extend;"
                " every power k >= 2 extends across the origin"
            )
    else:
        if not any(extend_flags):
            findings.append(
                "with an essentially singular shift no power extends:"
                " the essential factor survives multiplication by monomials"
            )
    return {
        "command": "nagata demo",
        "inputs": {"g": args.g, "maxPow": args.max_pow},
        "results": {
            "g": g.to_str(),
            "section": section.to_str(),
            "powers": powers,
        },
        "findings": findings,
    }


# -- argument parsing ----------------------------------------------------------

# The command line, declared once: group -> help, and (group, command) ->
# (handler, help, flags), where flags maps each option string to
# (dest, type or choices, required, help) and an absent optional flag is None.
# `main` reads well-formed argv from the table itself (`_read_argv`);
# `build_parser` builds argparse from it for everything else.
_GROUPS = {
    "semigroup": "numerical semigroup computations",
    "curve": "cusp curve invariants",
    "rado": "global sections of the glued curve",
    "theorem1": "uniform power bounds per region",
    "nagata": "dual-number sections over the punctured line",
}

_COMMANDS = {
    ("semigroup", "info"): (_cmd_semigroup_info, "conductor, Frobenius number, membership table", {
        "--p": ("p", int, True, None),
        "--q": ("q", int, True, None),
        "--bound": ("bound", int, False, "membership table bound (default: conductor + 1)"),
    }),
    ("curve", "analyze"): (_cmd_curve_analyze, "holomorphy, powers, flatness, cone", {
        "--p": ("p", int, True, None),
        "--q": ("q", int, True, None),
        "--germ": ("germ", str, False,
                   "germ spec, e.g. 't^2 + 1/2*t^3 + O(t^9)' (default: t)"),
    }),
    ("curve", "multiplier"): (_cmd_curve_multiplier, "floor vs exact holomorphy condition", {
        "--p": ("p", int, True, None),
        "--q": ("q", int, True, None),
        "--a": ("a", int, True, None),
        "--b": ("b", int, True, None),
    }),
    ("rado", "witness"): (_cmd_rado_witness, "site refusing a given power", {
        "--max-k": ("max_k", int, True, None),
        "--n": ("n", int, True, None),
    }),
    ("theorem1", "bound"): (_cmd_theorem1_bound, "region power bound and decision table", {
        "--max-k": ("max_k", int, True, None),
        "--region": ("region", int, True, None),
        "--n": ("n", int, False, None),
    }),
    ("nagata", "demo"): (_cmd_nagata_demo, "extension table for powers of z + eps*g", {
        "--g": ("g", ("inv", "expinv"), True, None),
        "--max-pow": ("max_pow", int, True, None),
    }),
}


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, read from the
    table, for argv of one form: an optional leading --json, a known group
    and command, then `--flag value` pairs with each flag exact and at most
    once, no value starting with "-", every int value read by int(), every
    choice among its choices and every required flag there.  None for any
    other argv, which argparse reads (help, usage errors, abbreviations,
    `--flag=value`, negative numbers, `--`, repeats)."""
    json_flag = argv[:1] == ["--json"]
    words = argv[json_flag:]
    entry = _COMMANDS.get(tuple(words[:2]))
    if entry is None or len(words) % 2:
        return None
    handler, _, flags = entry
    values: dict[str, Any] = {}
    for option, value in zip(words[2::2], words[3::2]):
        flag = flags.get(option)
        if flag is None or value[:1] == "-":
            return None
        dest, kind = flag[0], flag[1]
        if dest in values:
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif kind is not str and value not in kind:
            return None
        values[dest] = value
    for dest, _, required, _ in flags.values():
        if dest not in values:
            if required:
                return None
            values[dest] = None
    return SimpleNamespace(json=json_flag, group=words[0], cmd=words[1], handler=handler,
                           **values)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built from the table once per process: it
    holds no state between calls, since each parse returns a fresh namespace.
    Only argv that `_read_argv` refuses needs it, so argparse is imported here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cuspgerms",
        description="Exact holomorphy arithmetic on monomial cusp curves.",
    )
    parser.add_argument("--json", action="store_true", help="emit a structured JSON report")
    groups = parser.add_subparsers(dest="group", required=True)
    commands = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="cmd", required=True)
        for group, text in _GROUPS.items()
    }
    for (group, cmd), (handler, text, flags) in _COMMANDS.items():
        command = commands[group].add_parser(cmd, help=text)
        for option, (dest, kind, required, flag_help) in flags.items():
            typed = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            command.add_argument(option, dest=dest, required=required, help=flag_help, **typed)
        command.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # both readers give the handlers one namespace type
    args = _read_argv(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))
    try:
        report = args.handler(args)
        # rendering raises ValueError for an int too long for str(); _json
        # gives the bytes of json.dumps(report, indent=2, default=str)
        text = _json(report) if args.json else _render_human(report)
    except (CuspGermsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
