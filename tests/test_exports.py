"""The package's public namespace."""

from __future__ import annotations

import types

import xfan


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from xfan import *", namespace)
    assert len(set(xfan.__all__)) == len(xfan.__all__)
    for name in xfan.__all__:
        assert namespace[name] is getattr(xfan, name)


def test_every_public_name_is_exported():
    # submodules are bound by the package's own imports; everything else
    # that does not start with an underscore is public
    public = {
        name
        for name, value in vars(xfan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(xfan.__all__)
