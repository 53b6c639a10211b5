"""Numerics for transfer-operator thermodynamic formalism, suspension flows,
rank-3 holonomy variations at the hyperbolic base point, and the disk
angular-integral vanishing recursions. The package root holds only the
submodules, each imported the first time it is read."""
import importlib

_SUBMODULES = frozenset("cli correlations derivatives diskgeom diskseries errors holonomy "
                        "ratseries recursions sft suspension transfer".split())


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
