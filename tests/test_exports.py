"""The package's public namespace."""

from __future__ import annotations

import xfan


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from xfan import *", namespace)
    assert len(set(xfan.__all__)) == len(xfan.__all__)
    for name in xfan.__all__:
        assert namespace[name] is getattr(xfan, name)
