"""Exact holomorphy arithmetic for germs on monomial cusp curves.

The package answers, with certificates instead of floating point, questions
of the shape: which powers of a continuous germ on the cusp z1^p = z2^q are
restrictions of ambient holomorphic functions?  The same machinery glues
cusp models along a line and certifies that no single power works at every
site, computes per-region uniform power bounds, Weierstrass polynomials and
flatness orders for monomial data, and runs the dual-number (square-zero)
variant on the punctured line.

Importing the package registers its submodules without running them; each
runs the first time a name from it is used, so a caller pays only for the
modules it needs.
"""

import importlib.util
import sys

from . import errors


def _lazy(name: str):
    """Register submodule `name` without running it: it runs on the first
    access to one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


semigroup = _lazy("semigroup")
germ = _lazy("germ")
curve = _lazy("curve")
surgery = _lazy("surgery")
nagata = _lazy("nagata")

# the home module of each re-exported name
_HOME = {
    name: module
    for module, names in (
        (curve, ("CoveringData", "CuspCurve", "RadoGerm", "RootBoundReport",
                 "WeakGenerationReport", "WeierstrassPoly")),
        (errors, ("CuspGermsError", "GermParseError", "NoWitnessInRange",
                  "UndecidableAtTruncation", "UnsupportedEssentialProduct")),
        (germ, ("CERTAINLY_YES", "Decision", "GaussianRational", "LaurentGerm",
                "aggregate_decisions", "parse_germ")),
        (nagata, ("DualSection", "LaurentObject", "identity_section", "nagata_mul",
                  "nagata_pow")),
        (semigroup, ("NumericalSemigroup",)),
        (surgery, ("GlobalSection", "PowerCheckReport", "Site", "SurgeryCurve",
                   "check_section_power", "make_global_rado", "n_omega",
                   "no_global_power_witness", "validate_star")),
    )
    for name in names
}


def __getattr__(name: str):
    # PEP 562: runs only for names not yet in the package namespace; storing
    # the value makes every later lookup a plain read
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))


__all__ = sorted(_HOME)

__version__ = "0.1.0"
