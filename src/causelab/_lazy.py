"""The one place causelab imports numpy.

``games``, ``consistency``, ``quantum`` and ``serialize`` take ``np`` from
here.  When numpy is already loaded, ``np`` is that module.  Otherwise it is an
``importlib.util.LazyLoader`` handle: importing causelab does not import
numpy, and the first attribute read on ``np`` (the first numeric call) runs
numpy's import in place.  So a command that never reaches an array, such as a
causal bound or a rejected input file, runs without numpy.
"""

from __future__ import annotations

import importlib.util
import sys

from .errors import SearchSpaceTooLarge


def _load_on_first_use(name: str):
    loaded = sys.modules.get(name)
    if loaded is not None:
        return loaded
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _load_on_first_use("numpy")


def check_axes(what: str, axes: int) -> None:
    """Refuse ``what``, before any array is shaped, when its arrays need over numpy's 64 axes."""
    if axes > 64:
        raise SearchSpaceTooLarge(f"{what} needs {axes} array axes, above numpy's limit of 64")
