"""Command-line surface: grammars, exit codes, JSON schema, determinism."""

import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cuspgerms
from cuspgerms import (
    CERTAINLY_YES,
    CuspCurve,
    Decision,
    LaurentGerm,
    NumericalSemigroup,
    SurgeryCurve,
    cli,
    parse_germ,
)
from cuspgerms.cli import main
from independent_oracles import reference_parser


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--json", *argv)
    assert code == 0, err
    return json.loads(out)


# -- exit codes -----------------------------------------------------------------


def test_success_exit_code(capsys):
    code, out, _ = run(capsys, "semigroup", "info", "--p", "2", "--q", "3")
    assert code == 0
    assert "conductor" in out


def test_domain_error_exit_code(capsys):
    code, out, err = run(capsys, "semigroup", "info", "--p", "4", "--q", "6")
    assert code == 1
    assert out == ""
    assert "coprime" in err


def test_bad_germ_is_domain_error(capsys):
    code, _, err = run(capsys, "curve", "analyze", "--p", "2", "--q", "3",
                       "--germ", "t^5 + O(t^3)")
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize("spec", ["1/0*t", "(1,2/0)*t", "1/00"])
def test_zero_denominator_is_domain_error(capsys, spec):
    code, out, err = run(capsys, "curve", "analyze", "--p", "2", "--q", "3", "--germ", spec)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter prints ints of any length")
@pytest.mark.parametrize("flags", [[], ["--json"]])
@pytest.mark.parametrize("argv", [
    # the conductor has about 4,400 digits
    ["semigroup", "info", "--p", 10**2200, "--q", 10**2200 + 1, "--bound", 5],
    # the pullback exponent a*q has about 6,000 digits
    ["curve", "multiplier", "--p", 10**2000, "--q", 10**2000 + 1, "--a", 10**4000 - 1,
     "--b", 0],
], ids=["semigroup-info", "curve-multiplier"])
def test_report_too_long_to_print_is_domain_error(capsys, argv, flags):
    # str() refuses ints above the interpreter's digit limit (4,300 by default)
    code, out, err = run(capsys, *flags, *map(str, argv))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and "Traceback" not in err


def test_witness_out_of_range_is_domain_error(capsys):
    code, _, err = run(capsys, "rado", "witness", "--max-k", "5", "--n", "7")
    assert code == 1
    assert "maxK" in err


def test_usage_error_exit_code(capsys):
    for argv in (["bogus"], ["semigroup"], ["curve", "analyze", "--p", "2"],
                 ["semigroup", "info", "--p", "x", "--q", "3"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        capsys.readouterr()


# -- report schema ------------------------------------------------------------------


def test_report_envelope_fields(capsys):
    report = run_json(capsys, "semigroup", "info", "--p", "2", "--q", "3")
    assert set(report) == {"command", "inputs", "results", "findings"}
    assert report["command"] == "semigroup info"
    assert report["inputs"] == {"p": 2, "q": 3, "bound": 3}
    assert report["results"]["conductor"] == 2
    assert report["results"]["frobenius"] == 1
    assert report["results"]["membersUpToBound"] == [0, 2, 3]
    assert report["results"]["gapsUpToBound"] == [1]


def test_semigroup_bound_flag(capsys):
    report = run_json(capsys, "semigroup", "info", "--p", "3", "--q", "4", "--bound", "8")
    assert report["results"]["membersUpToBound"] == [0, 3, 4, 6, 7, 8]


@pytest.mark.parametrize("p, q, bound", [
    (3, 5, 0), (7, 11, 30), (7, 11, None), (7, 11, 200), (169, 173, None),
], ids=["bound 0", "below the conductor", "default", "above the conductor", "169,173"])
def test_semigroup_table_is_the_contains_split(capsys, p, q, bound):
    s = NumericalSemigroup(p, q)
    rows = range((s.conductor() + 1 if bound is None else bound) + 1)
    flags = [] if bound is None else ["--bound", str(bound)]
    results = run_json(capsys, "semigroup", "info", "--p", str(p), "--q", str(q),
                       *flags)["results"]
    assert results["membersUpToBound"] == [n for n in rows if s.contains(n)]
    assert results["gapsUpToBound"] == [n for n in rows if not s.contains(n)]


def test_semigroup_table_on_a_large_semigroup_stays_small(capsys):
    # the conductor is 2,998 * 3,000: a bitset up to it would take 8 MB to
    # build for a table of six rows
    tracemalloc.start()
    try:
        results = run_json(capsys, "semigroup", "info", "--p", "2999", "--q", "3001",
                           "--bound", "5")["results"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (results["membersUpToBound"], results["gapsUpToBound"]) == ([0], [1, 2, 3, 4, 5])
    assert peak < 2**20


def test_semigroup_bound_limit_is_domain_error(capsys, monkeypatch):
    def no_table(*args):
        raise AssertionError("an oversized membership table was started")

    monkeypatch.setattr(NumericalSemigroup, "contains", no_table)
    monkeypatch.setattr(cuspgerms.semigroup, "monoid_bits", no_table)
    for argv, bound in ((["--p", "100000", "--q", "100001"], 99999 * 100000 + 1),
                        (["--p", "3", "--q", "5", "--bound", "1000001"], 1000001)):
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, "semigroup", "info", *argv)
            assert code == 1
            assert out == ""
            assert err == f"error: membership bound must be <= 1000000, got {bound}\n"


def test_nagata_max_pow_below_one_is_domain_error(capsys):
    for g in ("inv", "expinv"):
        for max_pow in ("0", "-3"):
            for flags in ([], ["--json"]):
                code, out, err = run(capsys, *flags, "nagata", "demo", "--g", g,
                                     "--max-pow", max_pow)
                assert code == 1
                assert out == ""
                assert err == f"error: maxPow must be >= 1, got {max_pow}\n"


def test_nagata_max_pow_limit_is_domain_error(capsys, monkeypatch):
    def no_table(section, k):
        raise AssertionError("an oversized power table was started")

    monkeypatch.setattr(cuspgerms.nagata, "nagata_pow", no_table)
    for g in ("inv", "expinv"):
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, "nagata", "demo", "--g", g,
                                 "--max-pow", "10001")
            assert code == 1
            assert out == ""
            assert err == "error: maxPow must be <= 10000, got 10001\n"


def test_nagata_max_pow_at_limit_is_accepted(monkeypatch):
    class TableStarted(Exception):
        pass

    def stop(section, k):
        raise TableStarted

    monkeypatch.setattr(cuspgerms.nagata, "nagata_pow", stop)
    with pytest.raises(TableStarted):
        main(["nagata", "demo", "--g", "inv", "--max-pow", "10000"])


_SITE_COMMANDS = (["rado", "witness", "--n", "5"], ["theorem1", "bound", "--region", "5"])


def test_max_k_limit_is_domain_error(capsys, monkeypatch):
    def no_sites(cls, max_k):
        raise AssertionError("an oversized glued curve was started")

    monkeypatch.setattr(SurgeryCurve, "build_standard", classmethod(no_sites))
    for argv in _SITE_COMMANDS:
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, *flags, *argv, "--max-k", "10001")
            assert code == 1
            assert out == ""
            assert err == "error: maxK must be <= 10000, got 10001\n"


def test_max_k_at_limit_is_accepted(monkeypatch):
    class BuildStarted(Exception):
        pass

    def stop(cls, max_k):
        raise BuildStarted

    monkeypatch.setattr(SurgeryCurve, "build_standard", classmethod(stop))
    for argv in _SITE_COMMANDS:
        with pytest.raises(BuildStarted):
            main([*argv, "--max-k", "10000"])


def test_semigroup_bound_at_limit_is_accepted(monkeypatch):
    class TableStarted(Exception):
        pass

    def stop(generators, width):
        raise TableStarted

    monkeypatch.setattr(cuspgerms.semigroup, "monoid_bits", stop)
    with pytest.raises(TableStarted):
        main(["semigroup", "info", "--p", "3", "--q", "5", "--bound", "1000000"])


def test_curve_conductor_limit_is_domain_error(capsys, monkeypatch):
    def no_scan(self, f):
        raise AssertionError("a power scan on an oversized conductor was started")

    monkeypatch.setattr(CuspCurve, "min_power", no_scan)
    for flags in ([], ["--json"]):
        code, out, err = run(capsys, *flags, "curve", "analyze", "--p", "2", "--q", "100003",
                             "--germ", "t + t^2")
        assert code == 1
        assert out == ""
        assert err == "error: conductor must be <= 100000, got 100002\n"


def test_curve_conductor_limit_keeps_the_coprime_error(capsys):
    code, out, err = run(capsys, "curve", "analyze", "--p", "100000", "--q", "200000")
    assert code == 1
    assert out == ""
    assert err == "error: generators must be coprime, got (100000, 200000)\n"


def test_curve_conductor_at_limit_is_accepted(monkeypatch):
    class ScanStarted(Exception):
        pass

    def stop(self, f):
        raise ScanStarted

    monkeypatch.setattr(CuspCurve, "min_power", stop)
    with pytest.raises(ScanStarted):
        main(["curve", "analyze", "--p", "2", "--q", "100001"])


def _src_env(**extra: str) -> dict[str, str]:
    """This process's environment with the package's source directory first
    on PYTHONPATH."""
    src = str(Path(cuspgerms.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    # a well-formed command is read from the command table and builds no
    # parser; a usage error builds every parser once, and nothing afterwards
    # builds one again
    argvs = (["curve", "analyze", "--p", "3", "--q", "4"],
             ["semigroup", "bogus"],  # usage error, exit code 2
             ["semigroup", "info", "--p", "3", "--q", "5"])
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to it
    fresh = []
    for argv in argvs:
        result = subprocess.run([sys.executable, "-m", "cuspgerms.cli", *argv],
                                env=_src_env(COLUMNS="80"), capture_output=True,
                                text=True, timeout=120)
        fresh.append((result.returncode, result.stdout, result.stderr))

    built: list[str | None] = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    in_process = []
    built_by_call = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
        built_by_call.append(list(built))
    assert [code for code, _, _ in fresh] == [0, 2, 0]
    assert in_process == fresh
    assert built_by_call[0] == []
    commands = {"semigroup": ["info"], "curve": ["analyze", "multiplier"],
                "rado": ["witness"], "theorem1": ["bound"], "nagata": ["demo"]}
    progs = ["cuspgerms"] + [f"cuspgerms {group}" for group in commands] + [
        f"cuspgerms {group} {cmd}" for group, cmds in commands.items() for cmd in cmds]
    assert sorted(built_by_call[1]) == sorted(progs)  # each parser exactly once
    assert built_by_call[2] == built_by_call[1]


def test_cli_import_skips_dataclasses_inspect_and_ast():
    # dataclasses pulls in inspect and ast, and every CLI process would pay
    # for loading them
    script = ("import sys, cuspgerms.cli; "
              "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", script],
                            env=_src_env(PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


_ARGPARSE_LOADED = (
    (None, False),  # the import alone
    (["--json", "curve", "analyze", "--p", "3", "--q", "4", "--germ", "t^2 + O(t^9)"], False),
    (["--help"], True),
    (["semigroup", "bogus"], True),  # usage error
)


@pytest.mark.parametrize("argv, loaded", _ARGPARSE_LOADED,
                         ids=["import"] + [" ".join(a) for a, _ in _ARGPARSE_LOADED[1:]])
def test_cli_imports_argparse_only_for_help_and_usage_errors(argv, loaded):
    # argparse costs a well-formed command its import and the parser build
    script = textwrap.dedent(f"""
        import contextlib, io, sys
        from cuspgerms import cli
        if {argv!r} is not None:
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    cli.main({argv!r})
                except SystemExit:
                    pass
        print("argparse" in sys.modules)
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            env=_src_env(PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{loaded}\n"


# -- the command table against argparse ---------------------------------------

# every group, command and flag, with a well-formed value for each flag
_WELL_FORMED = {
    ("semigroup", "info"): {"--p": "5", "--q": "7", "--bound": "3"},
    ("curve", "analyze"): {"--p": "5", "--q": "7", "--germ": "t + t^2"},
    ("curve", "multiplier"): {"--p": "5", "--q": "7", "--a": "1", "--b": "2"},
    ("rado", "witness"): {"--max-k": "5", "--n": "3"},
    ("theorem1", "bound"): {"--max-k": "5", "--region": "3", "--n": "2"},
    ("nagata", "demo"): {"--g": "inv", "--max-pow": "3"},
}
_VALUES = ["--json", "-h", "--", "--p=3", "--ge", "5", "-5", " 5", "x", "", "t + t^2", "-t",
           "-t + t^2", "inv", "expinv"]
_TOKENS = sorted({word for (group, cmd), flags in _WELL_FORMED.items()
                  for word in (group, cmd, *flags)}) + _VALUES


@st.composite
def command_lines(draw):
    """Mostly well-formed command lines: a command with most of its flags in
    any order, each mostly with its well-formed value, else a token other
    than a word of the table, and sometimes a token inserted anywhere."""
    (group, cmd), flags = draw(st.sampled_from(sorted(_WELL_FORMED.items())))
    mostly = st.sampled_from([True] * 3 + [False])
    pairs = [[flag, value if draw(mostly) else draw(st.sampled_from(_VALUES))]
             for flag, value in flags.items() if draw(mostly)]
    words = ["--json"] * draw(st.booleans()) + [group, cmd]
    words += [word for pair in draw(st.permutations(pairs)) for word in pair]
    if not draw(mostly):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(_TOKENS)))
    return words


def _parse(parser, argv):
    """What `parser.parse_args(argv)` gives: its namespace, or its exit code
    with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


@given(command_lines() | st.lists(st.sampled_from(_TOKENS), max_size=10))
@settings(max_examples=400)
@example(["curve", "analyze", "--p", "5", "--q", "7", "--germ", "-t"])
@example(["curve", "analyze", "--germ", "-t + t^2", "--p", "5", "--q", "7"])
@example(["semigroup", "info", "--p", "5", "--q", "7", "--bound", "-5"])
@example(["--json", "nagata", "demo", "--max-pow", " 5", "--g", "expinv"])
def test_table_reader_agrees_with_argparse(argv):
    # the table-built parser behaves like the hand-written one on every
    # argv, and where the table reader accepts an argv it gives argparse's
    # namespace (a usage error there is a disagreement)
    parsed = _parse(cli.build_parser(), argv)
    assert parsed == _parse(reference_parser(), argv)
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == parsed


def test_table_reader_leaves_every_dash_value_to_argparse():
    # argparse reads "-5" and "-t + t^2" as values but "-t" as an option, and
    # which strings it takes for negative numbers differs between versions
    for (group, cmd), flags in _WELL_FORMED.items():
        argv = [group, cmd, *(word for pair in flags.items() for word in pair)]
        assert vars(cli._read_argv(argv)) == _parse(cli.build_parser(), argv)
        for i in range(3, len(argv), 2):
            for value in _VALUES:
                if value.startswith("-"):
                    assert cli._read_argv(argv[:i] + [value] + argv[i + 1:]) is None


def test_table_parser_prints_the_hand_written_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    built, reference = cli.build_parser(), reference_parser()
    assert built.format_help() == reference.format_help()

    def subparsers(parser):
        return next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))

    groups, reference_groups = subparsers(built), subparsers(reference)
    assert list(groups) == list(reference_groups) == [
        "semigroup", "curve", "rado", "theorem1", "nagata"]
    helps = 0
    for group, parser in groups.items():
        assert parser.format_help() == reference_groups[group].format_help()
        commands, reference_commands = subparsers(parser), subparsers(reference_groups[group])
        assert list(commands) == list(reference_commands)
        for cmd, command in commands.items():
            assert command.format_help() == reference_commands[cmd].format_help()
            helps += 1
    assert helps == 6


def test_fresh_cli_process_loads_neither_argparse_nor_the_json_decoder():
    # the string quoter comes from json's C accelerator, so a well-formed
    # --json command runs neither the json package nor argparse
    argv = ["--json", "semigroup", "info", "--p", "3", "--q", "5"]
    result = subprocess.run([sys.executable, "-X", "importtime", "-m", "cuspgerms.cli", *argv],
                            env=_src_env(PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["results"]["frobenius"] == 7
    imported = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")}
    assert "cuspgerms" in imported  # the listing is read
    assert not {"argparse", "json", "json.decoder"} & imported


# the library modules each command runs, besides cuspgerms, cli and errors
_MODULES_RUN = (
    (["semigroup", "info", "--p", "3", "--q", "5"], ["semigroup"]),
    (["semigroup", "info", "--p", "4", "--q", "6"], ["semigroup"]),  # domain error
    (["curve", "multiplier", "--p", "2", "--q", "3", "--a", "1", "--b", "0"],
     ["curve", "germ", "semigroup"]),
    (["curve", "analyze", "--p", "3", "--q", "4", "--germ", "t^2 + O(t^9)"],
     ["curve", "germ", "semigroup"]),
    (["nagata", "demo", "--g", "inv", "--max-pow", "3"], ["germ", "nagata"]),
    (["rado", "witness", "--max-k", "12", "--n", "5"],
     ["curve", "germ", "semigroup", "surgery"]),
    (["theorem1", "bound", "--max-k", "12", "--region", "5"],
     ["curve", "germ", "semigroup", "surgery"]),
)


@pytest.mark.parametrize("argv, modules", _MODULES_RUN,
                         ids=[" ".join(argv) for argv, _ in _MODULES_RUN])
def test_cli_command_runs_only_the_modules_it_uses(argv, modules):
    # a lazily registered module sits in sys.modules from the start; it has
    # run once its class is the plain module type again
    script = textwrap.dedent(f"""
        import contextlib, io, sys, types
        from cuspgerms import cli
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main({argv!r})
        print(sorted(name for name, module in sys.modules.items()
                     if name.startswith("cuspgerms") and type(module) is types.ModuleType))
        print("fractions" in sys.modules)
    """)
    result = subprocess.run([sys.executable, "-c", script],
                            env=_src_env(PYTHONDONTWRITEBYTECODE="1"),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    ran, fractions = result.stdout.splitlines()
    expected = ["cuspgerms"] + sorted(f"cuspgerms.{m}" for m in ["cli", "errors", *modules])
    assert ran == repr(expected)
    if modules == ["semigroup"]:
        assert fractions == "False"


def test_runtime_needs_no_numpy():
    script = textwrap.dedent("""
        import sys
        sys.modules["numpy"] = None  # every import of numpy now fails
        from cuspgerms import CuspCurve
        from cuspgerms.cli import main
        for argv in (
            ["curve", "analyze", "--p", "3", "--q", "4", "--germ", "1 + t + O(t^9)"],
            ["curve", "analyze", "--p", "2", "--q", "5", "--germ", "t^2"],
            ["--json", "rado", "witness", "--max-k", "12", "--n", "5"],
            ["semigroup", "info", "--p", "3", "--q", "5"],
        ):
            assert main(argv) == 0, argv
        assert CuspCurve(3, 4).weierstrass(2).root_bound_check().stable
    """)
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert "witnessExponent" in result.stdout


def test_power_scans_stop_at_the_conductor():
    # gamma:3,4 has conductor 6; a walk up to these germs' tail or top
    # exponent would take a billion recurrence steps per power
    script = textwrap.dedent("""
        import contextlib, io, json
        from cuspgerms.cli import main
        results = []
        for germ in ("t^3 + t^4 + O(t^1000000000)", "t^3 + t^4 + t^1000000000"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--json", "curve", "analyze", "--p", "3", "--q", "4",
                             "--germ", germ]) == 0
            results.append(json.loads(out.getvalue())["results"])
        print(json.dumps(results))
    """)
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    results = json.loads(result.stdout)
    assert [(r["decision"], r["minPower"], r["stablePower"]) for r in results] == [
        ("CertainlyYes", 1, 1)] * 2


def test_exact_power_scans_finish_on_a_large_curve():
    # gamma:301,302 has conductor 90,300; one walk per power took 8 s for
    # t + t^2 and 29 s for the width-10 germ, where one support pass that
    # needs no walk takes under a second
    script = textwrap.dedent("""
        import contextlib, io, json
        from cuspgerms.cli import main
        results = []
        for germ in ("t + t^2", " + ".join(f"t^{e}" for e in range(1, 11))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--json", "curve", "analyze", "--p", "301", "--q", "302",
                             "--germ", germ]) == 0
            results.append(json.loads(out.getvalue())["results"])
        print(json.dumps(results))
    """)
    result = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    results = json.loads(result.stdout)
    assert [(r["minPower"], r["stablePower"]) for r in results] == [(90300, 90300)] * 2


def test_curve_analyze_report(capsys):
    report = run_json(capsys, "curve", "analyze", "--p", "3", "--q", "4")
    results = report["results"]
    assert results["curve"] == "gamma:3,4"
    assert results["germ"] == "t"
    assert results["decision"] == "CertainlyNo"
    assert results["witnessExponent"] == 1
    assert results["minPower"] == 3
    assert results["stablePower"] == 6
    assert results["orderOfFlatness"] == "1/3"
    assert results["coveringDegree"] == 3
    assert results["projectionAxis"] == "z2"
    assert results["whitneyCone"] == "z2"
    assert results["weierstrass"]["factored"] == "T^3 - z"
    assert results["weierstrass"]["annihilatesPullback"] is True
    assert results["unitOrderGerm"]["m"] == 1


def test_curve_analyze_renders_its_germ_once(capsys, monkeypatch):
    # inputs.germ and results.germ are one string, and the pullback t is
    # rendered on the first report of the process only
    rendered = []
    to_str = LaurentGerm.to_str

    def counted(self, *args, **kwargs):
        text = to_str(self, *args, **kwargs)
        rendered.append(text)
        return text

    monkeypatch.setattr(LaurentGerm, "to_str", counted)
    cli._unit_pullback_text.cache_clear()
    spec = "t^3 + 2*t^4 + 3*t^5 + O(t^36)"
    reports = []
    for _ in range(3):
        reports.append(run_json(capsys, "curve", "analyze", "--p", "11", "--q", "13",
                                "--germ", spec))
    assert rendered == [spec, "t", spec, spec]
    report = reports[0]
    assert report["inputs"]["germ"] == report["results"]["germ"] == spec
    assert report["results"]["unitOrderGerm"]["pullback"] == "t"
    assert reports[1] == reports[2] == report


def test_curve_analyze_with_germ(capsys):
    report = run_json(capsys, "curve", "analyze", "--p", "2", "--q", "3",
                      "--germ", "t^2 + 1/2*t^3 + O(t^9)")
    results = report["results"]
    assert results["decision"] == "CertainlyYes"
    assert results["witnessExponent"] is None
    assert results["minPower"] == 1
    assert results["weierstrass"] is None
    assert any("monomial" in f for f in report["findings"])


def test_unknown_decisions_reported_in_band(capsys):
    report = run_json(capsys, "curve", "analyze", "--p", "2", "--q", "3",
                      "--germ", "1 + O(t^1)")
    results = report["results"]
    assert results["decision"].startswith("Unknown(")
    assert results["minPower"] is None
    assert any("minPower" in f for f in report["findings"])


def test_curve_multiplier_report(capsys):
    report = run_json(capsys, "curve", "multiplier", "--p", "2", "--q", "3",
                      "--a", "1", "--b", "0")
    results = report["results"]
    assert results["floorCheck"] is True
    assert results["exactCheck"] is True
    assert results["monomialPullbackExponent"] == 3


def test_rado_witness_report(capsys):
    report = run_json(capsys, "rado", "witness", "--max-k", "12", "--n", "5")
    results = report["results"]
    assert results["witnessSite"] == 6
    assert results["curve"] == "gamma:6,7"
    assert results["decision"] == "CertainlyNo"
    assert results["witnessExponent"] == 5
    assert results["powerGerm"].startswith("t^5")


def test_rado_witness_at_scale(capsys):
    report = run_json(capsys, "rado", "witness", "--max-k", "101", "--n", "100")
    assert report["results"]["witnessSite"] == 101


def test_theorem1_bound_report(capsys):
    report = run_json(capsys, "theorem1", "bound", "--max-k", "12", "--region", "5")
    results = report["results"]
    assert results["nOmega"] == 20
    assert results["power"] == 20
    assert results["perSite"] == {"2": "CertainlyYes", "3": "CertainlyYes",
                                  "4": "CertainlyYes", "5": "CertainlyYes"}
    assert results["aggregate"] == "CertainlyYes"
    assert results["sharpness"]["power"] == 19
    assert results["sharpness"]["decision"] == "CertainlyNo"


def test_theorem1_bound_with_power(capsys):
    report = run_json(capsys, "theorem1", "bound", "--max-k", "12", "--region", "3",
                      "--n", "2")
    assert report["results"]["perSite"]["3"] == "CertainlyNo"
    assert report["results"]["aggregate"] == "CertainlyNo"


def test_nagata_demo_reports(capsys):
    inv = run_json(capsys, "nagata", "demo", "--g", "inv", "--max-pow", "4")
    rows = inv["results"]["powers"]
    assert [r["extends"] for r in rows] == [False, True, True, True]
    assert rows[1]["section"] == "(z^2) + eps*(2)"
    assert inv["findings"]

    exp = run_json(capsys, "nagata", "demo", "--g", "expinv", "--max-pow", "4")
    assert all(r["extends"] is False for r in exp["results"]["powers"])
    assert any("essential" in f for f in exp["findings"])


# -- determinism ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["semigroup", "info", "--p", "5", "--q", "7"],
        ["--json", "curve", "analyze", "--p", "3", "--q", "4"],
        ["rado", "witness", "--max-k", "12", "--n", "5"],
        ["--json", "theorem1", "bound", "--max-k", "12", "--region", "5"],
        ["nagata", "demo", "--g", "inv", "--max-pow", "6"],
    ],
)
def test_byte_identical_output(capsys, argv):
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
    assert first  # nonempty


def _readme_sessions() -> list[tuple[list[str], str]]:
    """(argv, stdout) of every README block that opens with `$ cuspgerms`
    and elides no line with `...`."""
    blocks = (Path(__file__).resolve().parents[1] / "README.md").read_text().split("```")
    sessions = []
    for block in blocks[1::2]:
        command, _, out = block.lstrip("\n").partition("\n")
        if command.startswith("$ cuspgerms ") and "..." not in out.splitlines():
            sessions.append((shlex.split(command)[2:], out))
    return sessions


def test_readme_sessions_print_what_the_readme_shows(capsys):
    sessions = _readme_sessions()
    assert [argv[:3] for argv, _ in sessions] == [
        ["semigroup", "info", "--p"], ["--json", "rado", "witness"]]
    for argv, out in sessions:
        assert run(capsys, *argv) == (0, out, ""), argv


# -- JSON rendering -------------------------------------------------------------------


def dumps(value):
    """The document `--json` promises: json's indented encoding with str() for
    every value json cannot encode."""
    return json.dumps(value, indent=2, default=str)


class Pair(NamedTuple):
    first: object
    second: object


class Count(int):
    pass


GERM = parse_germ("(1/2,-1/3)*t^-1 - t + 3/4*t^2 + O(t^5)")

RENDERED = [
    {}, [], (), {"a": {}, "b": [], "c": ()}, [[], {}, ()], [[[]]], ((), [()]),
    "caf\u00e9 \u2603 \U0001f600", "tab\tline\n\x00\x1f\x7f\"\\/",
    {"k\u00e9y\n\x01": "v\u2028", "": ""},
    {1: "one", -2: [3], 0: {}},
    [1, True, 2], [0, False], [True], [None, 1, -1], [2**70, -(2**70)],
    Pair(1, [2, 3]), [Pair("x", None)], Count(7), [Count(7), 8], {Count(3): Count(4)},
    Fraction(1, 3), [Fraction(-4, 6), Fraction(5)],
    Decision("unknown", "tail at 5"), CERTAINLY_YES, Decision("no", witness=4),
    GERM, [GERM, {"germ": GERM}],
    {"nested": {"list": [1, 2, {"x": None, "y": [True, False]}]}},
]


@pytest.mark.parametrize("value", RENDERED, ids=[str(i) for i in range(len(RENDERED))])
def test_json_renderer_matches_json_dumps(value):
    assert cli._json(value) == dumps(value)


json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), st.fractions(),
    st.builds(Count, st.integers()),
    st.sampled_from([CERTAINLY_YES, Decision("no", witness=3), Decision("unknown", "t"),
                     GERM, parse_germ("-1 + 2/4*t^3")]),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(st.one_of(st.integers(), st.booleans()), max_size=5),
        st.dictionaries(st.one_of(st.text(), st.integers()), inner, max_size=5),
        st.builds(Pair, inner, inner),
    ),
    max_leaves=30,
)


@given(json_values)
@settings(max_examples=300)
def test_json_renderer_matches_json_dumps_on_random_values(value):
    assert cli._json(value) == dumps(value)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter prints ints of any length")
@pytest.mark.parametrize("value", [
    10**5000, [10**5000], [True, 10**5000], {"n": [1, {"m": 10**5000}]}, {10**5000: 1},
    Fraction(10**5000, 3),
], ids=["int", "int-list", "mixed-list", "nested", "key", "fraction"])
def test_json_renderer_refuses_ints_past_the_digit_limit(value):
    with pytest.raises(ValueError):
        dumps(value)
    with pytest.raises(ValueError):
        cli._json(value)
