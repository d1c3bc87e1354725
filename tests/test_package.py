"""The package's public surface."""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
import types
from pathlib import Path

import defectlab
from defectlab import cli
from test_golden import run_all

#: The public functions that no command calls, as the README lists them.
LIBRARY_ONLY = {"infer_efficiency", "remaining_defects", "time_to_threshold"}

#: The one command path the golden cases leave out, because its output
#: depends on numpy's generator.
MONTE_CARLO = ["forecast", "--units", "2182", "--dir", "0.07", "--dre", "0.75",
               "--monte-carlo", "--trials", "100", "--seed", "1"]


def test_every_exported_name_resolves_once():
    names = defectlab.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(defectlab, name)] == []
    namespace: dict = {}
    exec("from defectlab import *", namespace)
    assert set(names) <= set(namespace)


def _readme_library() -> str:
    """The README's "Library" section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def test_every_exported_name_is_listed_in_the_readme():
    library = _readme_library()
    # A name counts when a backticked span starts with it, as in `run` or
    # `fit_arrival(counts)`.
    spans = re.findall(r"`([^`\n]+)`", library)
    listed = {re.match(r"\w*", span).group() for span in spans}
    assert [name for name in defectlab.__all__ if name not in listed] == []


def _called_code(workdir: Path) -> set[types.CodeType]:
    """The package's code objects that every golden command, and a Monte
    Carlo forecast, call when run in ``workdir``."""
    package = str(Path(defectlab.__file__).parent)
    called: set[types.CodeType] = set()

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run_all(workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(MONTE_CARLO)
    finally:
        sys.setprofile(previous)
    assert code == cli.EXIT_OK
    return called


def test_the_public_functions_no_command_calls_are_the_library_only_ones(tmp_path):
    called = _called_code(tmp_path)
    functions = {
        name: value for name in defectlab.__all__
        if isinstance(value := getattr(defectlab, name), types.FunctionType)
    }
    assert {name for name, f in functions.items() if f.__code__ not in called} == LIBRARY_ONLY


def test_the_readme_lists_exactly_the_library_only_functions():
    bullets = _readme_library().split("library-only names", 1)[1].split("\n- ")[1:]
    # A bullet names its functions before its first colon.
    listed = {name for bullet in bullets for name in re.findall(r"`(\w+)`", bullet.split(":", 1)[0])}
    assert listed == LIBRARY_ONLY


def _module_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds at its top level: assignments, functions
    and classes."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attributes and the names
    it imports from other modules."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_module_level_name_in_src_is_read_or_public():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(defectlab.__file__).parent.glob("*.py")]
    read = set().union(*map(_read_names, trees)) | set(defectlab.__all__)
    defined = set().union(*map(_module_level_names, trees))
    unread = {name for name in defined - read if not name.startswith("__")}
    assert unread == set()


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


#: The functions outside errors.py that may test a number with
#: ``math.isfinite``: each tests a value that is not an argument's range,
#: a computed density and a day offset of either sign.
ISFINITE_SITES = {("metrics.py", "defect_density"), ("ledger.py", "_series_row")}


def _called_name(call: ast.Call) -> str | None:
    """The name a call calls, whether bare or as an attribute, as in
    ``isfinite`` or ``math.isfinite``."""
    return getattr(call.func, "attr", None) or getattr(call.func, "id", None)


def _calling_functions(tree: ast.Module, matches) -> set[str]:
    """The qualified names (``Class.method`` for a method) of the functions
    in ``tree`` that make a call that ``matches`` accepts; ``<module>`` for
    a call outside any function.  A lambda's calls are its function's."""
    sites = set()

    def visit(node: ast.AST, function: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                visit(child, function if isinstance(child, ast.ClassDef) else name, f"{name}.")
                continue
            if isinstance(child, ast.Call) and matches(child):
                sites.add(function)
            visit(child, function, prefix)

    visit(tree, "<module>", "")
    return sites


def _src_trees() -> dict[str, ast.Module]:
    """Each module of the package, parsed, by file name."""
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(defectlab.__file__).parent.glob("*.py")}


def test_numeric_ranges_are_tested_in_errors_alone():
    sites = {
        (name, function)
        for name, tree in _src_trees().items() if name != "errors.py"
        for function in _calling_functions(tree, lambda call: _called_name(call) == "isfinite")
    }
    assert sites <= ISFINITE_SITES


#: The functions that may build a ValidationError with a list of problems:
#: ``errors.refuse``, which every other site that finds several problems
#: calls, and DefectRecord's constructor, which words its header only once
#: a record fails, since a ledger builds one record per row.
LISTING_SITES = {("errors.py", "refuse"), ("ledger.py", "DefectRecord.__init__")}


def _lists_problems(call: ast.Call) -> bool:
    return _called_name(call) == "ValidationError" and (len(call.args) > 1 or bool(call.keywords))


def test_a_list_of_problems_is_raised_by_refuse_alone():
    sites = {
        (name, function)
        for name, tree in _src_trees().items()
        for function in _calling_functions(tree, _lists_problems)
    }
    assert sites <= LISTING_SITES


def test_every_range_check_returns_its_problem():
    # A check that appends to a list its caller passes in is the one
    # other shape; each returns ``str | None`` instead, for refuse to list.
    takers = {
        (name, node.name)
        for name, tree in _src_trees().items()
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
        if arg.arg == "problems"
    }
    assert takers == set()
