import re
from pathlib import Path

import mladder

README = Path(__file__).resolve().parents[1] / "README.md"


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
