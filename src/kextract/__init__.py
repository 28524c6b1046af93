"""Pairwise-independence constructions over GF(2^n), balanced color
tables with exact verification, condenser-table pipelines, and
compression-based dependency estimates, plus exact small-scale
distribution checks backing all of them.

The submodules load on first use (``kextract.btable``, ``from kextract
import stats``), so importing the package alone does not import numpy.
"""

import importlib

from .errors import (
    BackendError,
    DecodeError,
    DomainError,
    KextractError,
    ParameterError,
    ResourceError,
)

__version__ = "0.1.0"

_SUBMODULES = ("btable", "condense", "extend", "gf2n", "kproxy", "stats")

__all__ = [
    *_SUBMODULES,
    "KextractError",
    "ParameterError",
    "DomainError",
    "ResourceError",
    "DecodeError",
    "BackendError",
    "__version__",
]


def __getattr__(name: str):
    """Import a submodule on first attribute access."""
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
