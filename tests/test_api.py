import argparse
import ast
import re
import sys
from pathlib import Path

import zonomix
from zonomix import cli

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

HEADLINE = {
    "Zonotope3", "Vec3", "vec3",
    "mixed_volume", "mixed_volume_repeated", "volume",
    "check_bezout", "check_lemma_matrix", "check_af_square",
    "fuzz", "FuzzConfig", "FuzzSummary", "IneqReport",
    "parse_zonotope", "render_zonotope", "parse_matrix", "render_matrix",
}


def test_all_is_the_headline_set():
    assert sorted(zonomix.__all__) == sorted(HEADLINE)


def test_every_exported_name_resolves():
    for name in zonomix.__all__:
        assert getattr(zonomix, name) is not None, name


def test_readme_documents_the_headline_set():
    readme = README.read_text()
    missing = [name for name in sorted(HEADLINE) if f"`{name}`" not in readme]
    assert not missing


def _readme_flag_table(readme: str) -> dict[str, set[str]]:
    """Subcommand -> flags, from the README table headed "| subcommand | flags |"."""
    lines = readme[readme.index("| subcommand | flags |"):].splitlines()[2:]
    table = {}
    for line in lines:
        if not line.startswith("|"):
            break
        commands, flags = line.strip("|").split(" | ")
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = {flag.split()[0] for flag in re.findall(r"`([^`]+)`", flags)}
    return table


def _parser_flags() -> dict[str, set[str]]:
    """Subcommand -> its optional flags in `cli.build_parser()`, without -h/--help."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in parser._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"}
            for name, parser in sub.choices.items()}


def test_readme_flag_table_is_the_parser():
    assert _readme_flag_table(README.read_text()) == _parser_flags()


def test_flag_table_check_sees_a_removed_flag():
    readme = README.read_text().replace("| `mixedvol`, `volume` | ",
                                        "| `mixedvol`, `volume` | `--mode exact\\|float`, ")
    assert _readme_flag_table(readme) != _parser_flags()


def test_package_imports_only_the_standard_library():
    # numpy may be installed where the tests run, but it is no dependency.
    package = Path(zonomix.__file__).resolve().parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


# Public names that no program path calls yet.  The reduction steps wait for
# the reduction replay to call them on every input; `trial_seed` is the
# reference that the fuzz seed tests check `trial_seeds` against.
UNCALLED = {
    "reduction.biconvexity_probe", "reduction.braid_cell_of", "reduction.f_closed_form",
    "reduction.g_closed_form", "reduction.g_direct", "reduction.generating_point",
    "reduction.s_stats", "reduction.slack_identity", "rng.trial_seed",
}


def _loaded_names(tree) -> set[str]:
    """Names read in `tree`, bare or as attributes; docstrings and imports are not reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def _defined_names(stmt) -> list[str]:
    """Names a top-level statement defines: a def or class, or the names an assignment binds.

    Dunder names such as ``__all__`` are read by the import system, not by code.
    """
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return []
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and not node.id.startswith("__")]


def _uncalled_names(package: Path, callers: list[Path]) -> list[str]:
    """module.name for each top-level def, class or constant of `package` read nowhere else.

    A name counts as called when some statement of `package` or `callers`
    other than its own definition reads it.
    """
    statements = [(path.stem, stmt) for path in sorted(package.glob("*.py"))
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    reads = [(stmt, _loaded_names(stmt)) for _, stmt in statements]
    reads += [(None, _loaded_names(ast.parse(path.read_text(), str(path)))) for path in callers]
    return [f"{stem}.{name}" for stem, stmt in statements for name in _defined_names(stmt)
            if not any(name in names for other, names in reads if other is not stmt)]


def _package_and_callers() -> tuple[Path, list[Path]]:
    return Path(zonomix.__file__).resolve().parent, sorted((ROOT / "perfbench").glob("*.py"))


def test_every_public_name_has_a_caller():
    # The list is exact both ways: a name that gains a caller leaves it.
    uncalled = {name for name in _uncalled_names(*_package_and_callers())
                if not name.partition(".")[2].startswith("_")
                and name.partition(".")[2] not in zonomix.__all__}
    assert uncalled == UNCALLED


def test_every_private_name_has_a_reader():
    # A private helper that a fold leaves behind has no reader at all.
    assert [name for name in _uncalled_names(*_package_and_callers())
            if name.partition(".")[2].startswith("_")] == []


def test_private_name_check_sees_a_dead_helper(tmp_path):
    (tmp_path / "mod.py").write_text("__all__ = ['public']\n"
                                     "_LIMIT = 3\n"
                                     "_DEAD, _UNREAD = 1, 2\n\n\n"
                                     "def _kept():\n    return _LIMIT\n\n\n"
                                     "def _dead():\n    return _dead()\n\n\n"
                                     "class _Unread:\n    pass\n\n\n"
                                     "def public():\n    return _kept()\n")
    assert _uncalled_names(tmp_path, []) == ["mod._DEAD", "mod._UNREAD", "mod._dead",
                                             "mod._Unread", "mod.public"]
