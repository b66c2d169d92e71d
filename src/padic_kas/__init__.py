"""Exact digit codecs and univariate superposition representatives on Z_p^n.

The package provides:

* truncated p-adic integers with the max-norm ultrametric (:mod:`.core`);
* an exact codec between Z_p and a Cantor-like subset of [0,1], with the
  digit spreading/interleaving maps that fold n coordinates into one value
  (:mod:`.cantor`);
* the base-p digit interleaving bijection Z_p^n <-> Z_p (:mod:`.interleave`);
* constructors that reduce any level-K cylinder function of n variables to a
  single univariate function, exactly (:mod:`.superposition`);
* verification suites and a CLI (:mod:`.verify`, :mod:`.cli`).
"""

from types import ModuleType as _ModuleType

# The eager names are each module's __all__ (errors: every class it defines).
from .cantor import *
from .core import *
from .errors import *
from .interleave import *


# The representatives and the verification suites are imported on first use
# (PEP 562), so that the CLI's codec commands start without them.  The
# interleave names stay eager: the function shares the submodule's name, and
# a later first import of the submodule would rebind ``interleave`` to it.
_LAZY = {
    name: "superposition"
    for name in (
        "BUILTIN_NAMES",
        "EXHAUSTIVE_LIMIT",
        "PADIC",
        "REAL",
        "WEIGHTS_PAPER",
        "WEIGHTS_PROOF",
        "CylinderFunction",
        "GFunction",
        "HFunction",
        "build_g",
        "build_h",
        "eval_g",
        "eval_g_ratio",
        "h_value",
        "load_table_json",
        "superpose1",
        "superpose2",
        "table_fits",
    )
}
_LAZY.update(
    (name, "verify")
    for name in (
        "SUITES",
        "RunConfig",
        "VerificationReport",
        "run_verify",
    )
)

# A star import binds what the eager star imports bound, without the
# submodules that the imports also bound, and loads every lazy name.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
__all__.extend(_LAZY)


def __getattr__(name):
    from importlib import import_module

    if name in ("superposition", "verify"):
        return import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAZY, "superposition", "verify"})


__version__ = "0.1.0"
