"""Porous self-similar fractal constructions and their shift dynamics.

Submodules, each imported on first use:
  geometry   convex polygons, affine maps, measures, distances
  codespace  symbolic addresses, infinite codes, the shift
  scheme     subdivision schemes, cell trees, point realization
  verifier   numerical checks of the subdivision conditions
  dynamics   finite-horizon chaos witnesses for the shift map
  ifs        iterated-function-system view and the inverse branch map
  render     deterministic SVG output
  cli        command-line interface
"""

from importlib import import_module

__all__ = [
    "BUILTIN_NAMES",
    "Caps",
    "Scheme",
    "Tolerances",
    "build_tree",
    "builtin",
    "load",
    "realize_point",
]


def __getattr__(name: str):
    # read from the home module on every access and never stored here, so a
    # name rebound there (as a tracer does) is what the package returns
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = "config" if name in ("BUILTIN_NAMES", "Caps", "Tolerances") else "scheme"
    return getattr(import_module(f".{home}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
