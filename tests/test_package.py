import ast
import importlib
from pathlib import Path
from types import ModuleType

import arrayforge
from arrayforge import array_model, crb_eval, fileio, harness, scf_objective, sgd_designer

MODULES = (array_model, scf_objective, sgd_designer, crb_eval, harness)
SOURCES = Path(arrayforge.__file__).parent


def test_package_exports_each_module_list_once():
    names = arrayforge.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == sorted(["__version__", *(name for module in MODULES for name in module.__all__)])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(arrayforge, name) is getattr(module, name)


def imported_modules(tree):
    """First name of each module an import reads, without the ``arrayforge`` prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}".lstrip(".") for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            yield parts[1] if parts[0] == "arrayforge" and len(parts) > 1 else parts[0]


def file_calls(tree):
    """Calls of ``open`` and of any ``write_text`` method."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr == "write_text"
            ):
                yield ast.unparse(node)


def test_only_fileio_reads_and_writes_files():
    offenders = {}
    for path in sorted(SOURCES.glob("*.py")):
        if path.stem == "fileio":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found = sorted(set(imported_modules(tree)) & {"json", "csv", "tempfile"}) + list(file_calls(tree))
        if found:
            offenders[path.stem] = found
    assert offenders == {}


def test_only_fileio_imports_csv():
    # fileio's one CSV writer owns the cell format; every other module hands it Python scalars.
    importers = [
        path.stem for path in sorted(SOURCES.glob("*.py"))
        if "csv" in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert importers == ["fileio"]


def test_oracles_import_no_function_from_the_package():
    # Oracles recompute what the library computes, so they may borrow its
    # classes, exceptions and constants but none of its routines.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "arrayforge" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "arrayforge":
            module = importlib.import_module(node.module)
            imported.update((alias.name, getattr(module, alias.name)) for alias in node.names)
    routines = sorted(
        name
        for name, value in imported.items()
        if not isinstance(value, type) and (callable(value) or isinstance(value, ModuleType))
    )
    assert imported and routines == []


def test_crb_eval_only_computes():
    tree = ast.parse((SOURCES / "crb_eval.py").read_text(encoding="utf-8"))
    assert set(imported_modules(tree)) & {"fileio", "harness"} == set()


def test_harness_reads_no_input_file():
    # External designs reach the sweep and the CRB suite as matrices; the CLI reads their documents.
    tree = ast.parse((SOURCES / "harness.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {name for name in imported if name.lstrip("_").startswith("load")} == set()


def test_cli_takes_the_json_kind_names_from_fileio():
    # fileio._JSON_KINDS names each JSON kind once; the CLI builds its option descriptions from it.
    names = {name for name, _ in fileio._JSON_KINDS.values()}
    tree = ast.parse((SOURCES / "cli.py").read_text(encoding="utf-8"))
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert constants & names == set()
