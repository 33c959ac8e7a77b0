"""numpy, imported on first use: the numeric modules take np from here.

np is numpy itself when numpy is already imported.  Otherwise it is a lazy
module registered as sys.modules["numpy"] (the LazyLoader recipe of the
importlib docs): its first attribute access imports numpy in place, and a
later ``import numpy`` returns the same object.  gf.make_field calls load(),
so a run imports numpy at its first field; a run that builds none never does.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)


def load() -> None:
    """Import numpy now, if it is not imported yet."""
    np.ndarray  # noqa: B018 - the first attribute access runs numpy's import
