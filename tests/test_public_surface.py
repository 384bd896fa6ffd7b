"""Every public function or class of the package has a caller in another of
its modules or is named in README.md, so dead public API cannot build up."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import cartanhartogs

SRC = Path(cartanhartogs.__file__).parent
README = Path(__file__).resolve().parents[1] / "README.md"


def _referenced_names(path: Path) -> set:
    """Every bare name and attribute name a module's code refers to."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _readme_code() -> str:
    """The inline code spans and fenced blocks of README.md."""
    text = README.read_text()
    fenced = re.findall(r"```.*?```", text, flags=re.S)
    inline = re.findall(r"`[^`\n]+`", re.sub(r"```.*?```", "", text, flags=re.S))
    return "\n".join(fenced + inline)


def _unused_public_names() -> list:
    """module.name of each public function or class that no other module of
    the package refers to and README.md does not name; __init__ only
    re-exports, and an export is not a use."""
    refs = {path.stem: _referenced_names(path) for path in SRC.glob("*.py")
            if path.name != "__init__.py"}
    documented = _readme_code()
    unused = []
    for info in pkgutil.iter_modules(cartanhartogs.__path__):
        module = importlib.import_module(f"{cartanhartogs.__name__}.{info.name}")
        for name, obj in vars(module).items():
            if (name.startswith("_") or getattr(obj, "__module__", None) != module.__name__
                    or not (inspect.isfunction(obj) or inspect.isclass(obj))):
                continue
            called = any(name in names for stem, names in refs.items() if stem != info.name)
            if not called and not re.search(rf"\b{re.escape(name)}\b", documented):
                unused.append(f"{info.name}.{name}")
    return unused


def test_every_public_name_is_used_or_documented():
    assert _unused_public_names() == []


def test_the_surface_check_sees_a_dead_name(monkeypatch):
    # a public function that nothing calls and README does not name is caught
    from cartanhartogs import jtsys

    def orphan_helper():
        return None

    orphan_helper.__module__ = jtsys.__name__
    monkeypatch.setattr(jtsys, "orphan_helper", orphan_helper, raising=False)
    assert _unused_public_names() == ["jtsys.orphan_helper"]


def test_the_package_imports_without_scipy():
    # the library runs on numpy, click and the standard library
    code = ("import sys; sys.modules['scipy'] = None; "
            "import cartanhartogs, cartanhartogs.cli")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr


def test_cli_import_leaves_out_csv_and_the_thread_pool():
    # csv serves --format csv and the thread pool --jobs > 1 only, so a plain
    # run does not pay for their imports
    code = ("import sys, cartanhartogs.cli; "
            "print(sorted({'csv', 'concurrent.futures'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
