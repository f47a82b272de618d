"""The package namespace: lazily registered submodules and re-exported names.

Importing `cuspgerms` registers each submodule in `sys.modules` and as a
package attribute without running it; `perfbench/tracer.py` looks modules
up there by name.  Every name in `__all__` resolves to its home module's
object on first use.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cuspgerms

# each re-exported name, by home module
HOMES = {
    "curve": ["CoveringData", "CuspCurve", "RadoGerm", "RootBoundReport",
              "WeakGenerationReport", "WeierstrassPoly"],
    "errors": ["CuspGermsError", "GermParseError", "NoWitnessInRange",
               "UndecidableAtTruncation", "UnsupportedEssentialProduct"],
    "germ": ["CERTAINLY_YES", "Decision", "GaussianRational", "LaurentGerm",
             "aggregate_decisions", "parse_germ"],
    "nagata": ["DualSection", "LaurentObject", "identity_section", "nagata_mul", "nagata_pow"],
    "semigroup": ["NumericalSemigroup"],
    "surgery": ["GlobalSection", "PowerCheckReport", "Site", "SurgeryCurve",
                "check_section_power", "make_global_rado", "n_omega",
                "no_global_power_witness", "validate_star"],
}
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_import_registers_every_submodule_and_runs_none():
    out = _run("""
        import sys, types
        import cuspgerms
        for name in ("errors", "semigroup", "germ", "curve", "surgery", "nagata"):
            module = sys.modules[f"cuspgerms.{name}"]
            assert getattr(cuspgerms, name) is module, name
            print(name, type(module) is types.ModuleType)
    """)
    assert out.splitlines() == ["errors True", "semigroup False", "germ False", "curve False",
                                "surgery False", "nagata False"]


def test_all_names_resolve_to_their_home_module():
    assert cuspgerms.__all__ == sorted(name for names in HOMES.values() for name in names)
    for home, names in HOMES.items():
        module = sys.modules[f"cuspgerms.{home}"]
        for name in names:
            assert getattr(cuspgerms, name) is getattr(module, name), name
            assert cuspgerms.__dict__[name] is getattr(module, name), name  # stored


def test_dir_lists_every_name():
    assert set(cuspgerms.__all__) <= set(dir(cuspgerms))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from cuspgerms import *", namespace)
    for home, names in HOMES.items():
        module = sys.modules[f"cuspgerms.{home}"]
        for name in names:
            assert namespace[name] is getattr(module, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cuspgerms.no_such_name  # noqa: B018
    assert not hasattr(cuspgerms, "_no_such_private")


def test_tracer_installs_on_lazily_registered_modules():
    # the tracer wraps its targets from sys.modules right after import, when
    # no library module has run yet, and uninstall puts every original back
    out = _run(f"""
        import importlib.util, sys
        import cuspgerms, cuspgerms.cli
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", {str(ROOT / "perfbench" / "tracer.py")!r})
        tracer_module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer_module)
        before = cuspgerms.nagata.nagata_pow
        tracer = tracer_module.Tracer()
        with tracer:
            assert cuspgerms.nagata.nagata_pow is not before
            cuspgerms.cli.main(["nagata", "demo", "--g", "inv", "--max-pow", "2"])
        assert cuspgerms.nagata.nagata_pow is before
        print(tracer.layer_totals()["calls"]["nagata.nagata_pow"])
    """)
    assert out.splitlines()[-1] == "2"
