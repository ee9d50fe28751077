"""Source-level rules the package keeps."""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SOURCES = sorted((SRC / "clinpol").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 10


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so an invariant the package relies on must
    # raise explicitly instead
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _classes():
    """Every class defined in the package: name -> (file, base names)."""
    found = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases = [b.id if isinstance(b, ast.Name) else ast.unparse(b)
                         for b in node.bases]
                found[node.name] = (path.name, bases)
    return found


def test_every_package_exception_derives_from_clinpol_error():
    # the harness tells a domain failure from a bug by this one base class
    classes = _classes()
    builtin_exceptions = {name for name, obj in vars(builtins).items()
                          if isinstance(obj, type) and issubclass(obj, BaseException)}

    def ancestry(name, seen=()):
        out = {name}
        for base in classes.get(name, ("", []))[1]:
            if base not in seen:
                out |= ancestry(base, seen + (name,))
        return out

    exceptions = {name for name in classes if ancestry(name) & builtin_exceptions}
    assert {"ClinpolError", "HarnessError", "TreeError"} <= exceptions
    stray = sorted(f"{classes[name][0]}:{name}" for name in exceptions
                   if name != "ClinpolError" and "ClinpolError" not in ancestry(name))
    assert stray == []


def test_selection_and_memo_catch_no_bare_value_error():
    # catching ValueError would log a numpy shape bug as a failed candidate
    found = []
    for path in SOURCES:
        if path.name not in ("harness.py", "behavior.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(isinstance(t, ast.Name) and t.id == "ValueError" for t in caught):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_open_names_its_encoding_or_is_binary():
    # the locale's encoding differs between hosts, and so would the files
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), None)
            binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
            if not binary and not any(k.arg == "encoding" for k in node.keywords):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_package_imports_no_scipy():
    # scipy is the tests' reference for the calibration sigmoid; the package
    # computes it exactly without scipy
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_importing_and_running_the_cli_loads_no_scipy():
    code = ("import sys\n"
            "import clinpol, clinpol.cli\n"
            "try:\n"
            "    clinpol.cli.main(['--help'])\n"
            "except SystemExit as e:\n"
            "    assert e.code == 0, e.code\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
