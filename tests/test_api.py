import argparse
import re
from pathlib import Path

import zonomix
from zonomix import cli

README = Path(__file__).resolve().parents[1] / "README.md"

HEADLINE = {
    "Zonotope3", "Vec3", "vec3", "Mat3xM",
    "mixed_volume", "mixed_volume_repeated", "volume",
    "check_bezout", "check_lemma_matrix", "check_af_square", "tightness_ratio",
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
