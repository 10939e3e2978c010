"""The package namespace: public names load their submodule on first use."""

import ast
import importlib
import pathlib
import sys

import pytest

import gradedhecke


def test_every_public_name_is_its_submodules_object():
    for name in gradedhecke.__all__:
        if name == "GradedHeckeError":
            owner = importlib.import_module("gradedhecke.linalg")
        else:
            owner = importlib.import_module(
                f"gradedhecke.{gradedhecke._MODULE_OF[name]}")
        assert getattr(gradedhecke, name) is getattr(owner, name), name
        assert name in dir(gradedhecke)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gradedhecke.no_such_name  # noqa: B018
    assert not hasattr(gradedhecke, "rref")  # linalg's, not public here


def test_error_base_is_the_packages():
    from gradedhecke.catalog import CatalogError
    from gradedhecke.config import ConfigError
    from gradedhecke.homology import HomologyError, SizeBoundExceeded
    for err in (ConfigError, CatalogError, HomologyError, SizeBoundExceeded):
        assert issubclass(err, gradedhecke.GradedHeckeError)
    assert gradedhecke.GradedHeckeError.__module__ == "gradedhecke"


def test_runtime_is_stdlib_only():
    src = pathlib.Path(gradedhecke.__file__).parent
    files = sorted(src.glob("*.py"))
    assert files
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or \
                    top == "gradedhecke", f"{path.name} imports {name}"


def test_no_module_imports_dataclasses():
    # `dataclasses` imports `inspect`, and each class it builds runs
    # generated source: both cost every cold CLI process
    src = pathlib.Path(gradedhecke.__file__).parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            assert "dataclasses" not in names, path.name


def test_presentation_layers_do_not_load_hecke():
    # modules, catalog, homology and the CLI read `weyl.HeckeDatum` and
    # multiply nothing in H', so importing them compiles no `hecke`
    import os
    import subprocess
    src = str(pathlib.Path(gradedhecke.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, gradedhecke.modules, gradedhecke.catalog, "
             "gradedhecke.homology, gradedhecke.cli\n"
             "print('gradedhecke.hecke' in sys.modules)\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.split() == ["False"]


def test_every_benchmark_tracer_target_resolves():
    # the tracer wraps its TARGETS by module and attribute path, and reads
    # `rows` of rref and rank and (nrows, ncols) of intertwiner_matrices
    import importlib.util
    import inspect
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for name, module, attr_path, _, sizes, _ in tracer.TARGETS:
        owner = importlib.import_module(f"gradedhecke.{module}")
        for attr in attr_path.split("."):
            assert hasattr(owner, attr), name
            owner = getattr(owner, attr)
        assert callable(owner), name
        params = list(inspect.signature(owner).parameters)
        if "cells" in sizes:
            assert params[0] == "rows", name
        if "unknowns" in sizes:
            assert params[1:3] == ["nrows", "ncols"], name
