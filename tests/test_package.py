"""The package's public surface."""

from __future__ import annotations

import defectlab


def test_every_exported_name_resolves_once():
    names = defectlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(defectlab, name)] == []
    namespace: dict = {}
    exec("from defectlab import *", namespace)
    assert set(names) <= set(namespace)
