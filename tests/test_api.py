from pathlib import Path

import zonomix

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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    missing = [name for name in sorted(HEADLINE) if f"`{name}`" not in readme]
    assert not missing
