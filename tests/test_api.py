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
    # per-layer metrics. These three are already unreachable.
    src = pathlib.Path(smoothcert.__file__).resolve().parents[1]
    script = ("import json, trace_child as t; tracer = t.Tracer(); "
              "t.install(tracer); print(json.dumps(tracer.missing))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(src)]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert json.loads(out) == ["smoothcert.smoothing.forward",
                               "smoothcert.adversary.forward",
                               "smoothcert.evaluation.forward"]


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


# Defined in src/ but called from nowhere in it, on purpose.
SRC_FUNCTIONS_WITHOUT_SRC_CALLERS = {
    # perfbench/trace_child.py wraps it to time the theory stages
    "worst_case_prob",
    # regenerates a dataset from its provenance record (acceptance suite)
    "from_provenance",
}


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
                and fn.name not in SRC_FUNCTIONS_WITHOUT_SRC_CALLERS
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
