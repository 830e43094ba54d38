import ast
import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import smoothcert


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_package_exports_are_the_library_surface():
    assert set(smoothcert.__all__) == {
        "__version__", "StreamId",
        "AttackConfig", "GaussianConfig", "SmoothAdvConfig", "SmoothMixConfig",
        "TrainRunConfig", "SmoothingConfig", "TheorySimConfig",
        "train", "certify", "acr", "CertifiedResultSet", "verify_decay",
        "save_checkpoint", "load_checkpoint",
        "gen_two_moons", "load_mnist_idx",
    }


def test_benchmark_trace_finds_its_names():
    # perfbench/trace_child.py rebinds names on the modules where their
    # callers look them up; a name that moves away silently zeroes its
    # per-layer metrics. These six are already unreachable.
    # evaluation.sample_noise is gone with the mixing ratio's move to
    # adversary, so smoothing.sample_noise reads 0 until the tracer goes.
    # evaluation.smoothadv_pgd is gone: the mixing ratio calls
    # adversary.ascend with one point, and its PGD time stays inside the
    # evaluation.equal_confidence_mixing_ratio span. The last,
    # theory.worst_case_prob, moved to tests/test_theory.py: verify_decay
    # had stopped calling it, so its traced metrics already read 0.
    src = pathlib.Path(smoothcert.__file__).resolve().parents[1]
    script = ("import json, trace_child as t; tracer = t.Tracer(); "
              "t.install(tracer); print(json.dumps(tracer.missing))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(src)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out) == ["smoothcert.smoothing.forward",
                               "smoothcert.adversary.forward",
                               "smoothcert.evaluation.forward",
                               "smoothcert.evaluation.sample_noise",
                               "smoothcert.evaluation.smoothadv_pgd",
                               "smoothcert.theory.worst_case_prob"]


def test_only_cli_knows_the_csv_formats():
    # every artifact format is decided in cli.py, behind its one CSV writer
    src = pathlib.Path(smoothcert.__file__).resolve().parent
    importers = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) else [])
            if "csv" in names:
                importers.append(path.name)
    assert importers == ["cli.py"]


def test_evaluation_imports_only_the_standard_library():
    # `evaluate` runs on evaluation alone, without numpy, and smoothing
    # imports it: no import of the package or of numpy, at any depth
    path = pathlib.Path(smoothcert.__file__).resolve().parent / "evaluation.py"
    imports = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append("." * node.level + (node.module or ""))
    assert [m for m in imports if m.startswith(".")
            or m.split(".")[0] in ("numpy", "smoothcert")] == []


def test_no_module_imports_a_private_name():
    # a name one module needs from another is public: in the other's __all__.
    # Dunders such as __version__ are not private.
    src = pathlib.Path(smoothcert.__file__).resolve().parent
    private = [f"{path.name}: from .{node.module} import {alias.name}"
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names
               if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def test_src_functions_have_src_callers():
    # a function that only tests call belongs in tests/ (see nn_oracle.py).
    # The definitions come from the AST; a caller is a Name or Attribute node
    # naming it anywhere in src/ outside the definition itself, so a mention
    # in a docstring, a comment or an __all__ string does not count.
    src = pathlib.Path(smoothcert.__file__).resolve().parent
    defs, refs = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                    defs.append((path.name, fn))
        refs += [(path.name, node.lineno, node.id if isinstance(node, ast.Name)
                  else node.attr) for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))]
    unused = []
    for module, fn in defs:
        first = min([fn.lineno] + [d.lineno for d in fn.decorator_list])
        if (fn.name not in smoothcert.__all__
                and not any(name == fn.name and not (
                    where == module and first <= line <= fn.end_lineno)
                    for where, line, name in refs)):
            unused.append(f"{module}:{fn.name}")
    assert unused == []


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
    path = ROOT / "pyproject.toml"
    with open(path, "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert smoothcert.__version__ == project["version"]
