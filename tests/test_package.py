"""The package's public surface."""

from __future__ import annotations

import re
from pathlib import Path

import defectlab


def test_every_exported_name_resolves_once():
    names = defectlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(defectlab, name)] == []
    namespace: dict = {}
    exec("from defectlab import *", namespace)
    assert set(names) <= set(namespace)


def test_every_exported_name_is_listed_in_the_readme():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    # A name counts when a backticked span starts with it, as in `run` or
    # `fit_arrival(counts)`.
    spans = re.findall(r"`([^`\n]+)`", library)
    listed = {re.match(r"\w*", span).group() for span in spans}
    assert [name for name in defectlab.__all__ if name not in listed] == []
