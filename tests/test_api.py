import importlib
import pathlib
import pkgutil

import pytest

import smoothcert


def test_package_exports_resolve_without_duplicates():
    names = smoothcert.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(smoothcert, name), name


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(smoothcert.__path__)))
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"smoothcert.{module}")
    names = getattr(mod, "__all__", [])
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mod, name), f"smoothcert.{module}.{name}"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    path = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert smoothcert.__version__ == project["version"]
