"""Every name a package or module lists in ``__all__`` resolves.

A stale entry (a name deleted but still exported) otherwise fails only
when a user's ``from repro.x import *`` or attribute lookup reaches it.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    names = ["repro"] + sorted(
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro."))
    stale = []
    for name in names:
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        stale += [f"{name}.{attr}" for attr in exported if not hasattr(module, attr)]
        assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert len(names) > 20
    assert not stale, f"__all__ names attributes that do not exist: {stale}"
