import ast
import re
from pathlib import Path

import mladder

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_every_export_resolves():
    missing = [name for name in mladder.__all__ if not hasattr(mladder, name)]
    assert missing == []
    assert len(set(mladder.__all__)) == len(mladder.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from mladder import *", namespace)
    assert set(mladder.__all__) <= set(namespace)


def test_readme_library_example(capsys):
    # The one ```python block of README.md runs as written: its asserts hold
    # and it prints the default verification report.
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == mladder.verify_all().to_text() + "\n"


def test_modules_import_only_public_names_from_each_other():
    # A name another module needs is that module's public API, not a private helper.
    private = [
        f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for path in sorted((ROOT / "src" / "mladder").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_test_modules_import_no_other_test_module():
    # Inputs that two test modules share live in conftest.py, so an import
    # error in one test module fails that module alone.
    tests = ROOT / "tests"
    test_modules = {path.stem for path in tests.glob("test_*.py")}
    imports = [
        f"{path.name}: {name}"
        for path in sorted(tests.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names] if isinstance(node, ast.Import) else [])
        if name in test_modules
    ]
    assert imports == []
