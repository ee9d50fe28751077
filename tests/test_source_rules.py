"""Source-level rules the package keeps."""

import ast
import builtins
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SOURCES = sorted((SRC / "clinpol").glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def test_no_setting_enters_through_the_environment():
    # every setting is an argument, a config key or a module constant, so a
    # run is repeated from its command line and configs alone
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv",
                                                                  "environb", "getenvb")
                    or isinstance(node, ast.alias) and node.name in ("environ", "getenv")):
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


def _calls(path, name):
    """The (line, enclosing function) of each call of ``name`` in ``path``,
    as a plain or an attribute call."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                called = child.func
                if (isinstance(called, ast.Name) and called.id == name
                        or isinstance(called, ast.Attribute) and called.attr == name):
                    found.append((child.lineno, function))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_the_cli_reads_no_config_key_by_hand():
    # fit and evaluate read their configs as records through checks.Config,
    # so a key they take is declared once and a misspelt one is refused
    cli = SRC / "clinpol" / "cli.py"
    assert _calls(cli, "get") == []


def test_only_the_config_reader_and_the_descriptor_check_list_known_keys():
    # every config record refuses unknown keys through checks.Config; a
    # policy descriptor is a plain dict and checks its own
    found = [f"{path.name}:{line}" for path in SOURCES if path.name != "checks.py"
             for line, function in _calls(path, "check_keys")
             if (path.name, function) != ("policies.py", "check_descriptor")]
    assert found == []


def test_only_the_report_writer_and_the_cohort_writer_build_a_csv_writer():
    # every report table goes through harness._write_csv, so the tables
    # share one float rule and one line ending
    found = [f"{path.name}:{function}" for path in SOURCES
             for _, function in _calls(path, "writer")]
    assert sorted(found) == ["data.py:_csv_body", "data.py:_csv_header",
                             "harness.py:_write_csv"]


def _read_names(path) -> set:
    """Every name ``path`` reads: as a name, as an attribute or by import."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_every_export_is_used_outside_the_tests():
    # a public name that only its tests call is surface kept for nothing: an
    # export is read by a package module, a demo or the benchmark, or the
    # README documents it
    init = ast.parse((SRC / "clinpol" / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    texts = [path.read_text(encoding="utf-8") for path in
             (*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/**/*.py"), ROOT / "README.md")]
    used = set().union(*map(_read_names, MODULES), re.findall(r"\w+", "\n".join(texts)))
    assert len(exported) > 50
    assert [name for name in exported if name not in used] == []


def test_no_module_imports_a_name_it_never_uses():
    # an import kept only so that something can find the name there is
    # surface nothing uses; __init__ imports to export
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{node.lineno}: {alias.asname or alias.name}"
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and getattr(node, "module", None) != "__future__"
                  for alias in node.names
                  if (alias.asname or alias.name).partition(".")[0] not in read]
    assert found == []


def test_only_the_tree_memo_grows_and_tallies_a_component_tree():
    # one grower: a component tree is grown through fit_tree and its outcomes
    # tallied through attach_outcomes at one site each, in behavior.TreeMemo,
    # so no second fit path can drift from the one selection uses
    behavior = SRC / "clinpol" / "behavior.py"
    memo = next(node for node in ast.parse(behavior.read_text(encoding="utf-8")).body
                if isinstance(node, ast.ClassDef) and node.name == "TreeMemo")
    for name in ("fit_tree", "attach_outcomes"):
        sites = [(path, line) for path in SOURCES for line, _ in _calls(path, name)]
        offenders = [f"{path.name}:{line}" for path, line in sites
                     if path != behavior or not memo.lineno <= line <= memo.end_lineno]
        assert offenders == [], name
        assert len(sites) == 1, name
