"""The package's public surface."""

from __future__ import annotations

import re
from pathlib import Path

import defectlab
from defectlab import cli


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


def _readme_sections() -> dict[str, str]:
    """Each ``### <command>`` section of the README's command-line part, by command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    return {part.split(None, 1)[0]: part for part in commands.split("\n### ")[1:]}


def _parser_flags() -> dict[str, set[str]]:
    """The long flags of each subcommand, from the table the CLI reads them with."""
    return {command: set(flags) for command, (_handler, _help, flags) in cli._COMMANDS.items()}


def test_every_cli_flag_is_documented_in_its_readme_section():
    sections = _readme_sections()
    flags = _parser_flags()
    assert set(sections) == set(flags)
    undocumented = [
        (command, flag) for command, names in flags.items() for flag in sorted(names)
        if not re.search(rf"(?<![\w-]){re.escape(flag)}(?![\w-])", sections[command])
    ]
    assert undocumented == []


def test_every_readme_synopsis_flag_exists():
    flags = _parser_flags()
    unknown = [
        (command, flag)
        for command, section in _readme_sections().items()
        for line in section.splitlines() if line.startswith(f"defectlab {command} ")
        for flag in re.findall(r"--[\w-]+", line.split("#", 1)[0]) if flag not in flags[command]
    ]
    assert unknown == []
