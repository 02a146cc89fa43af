"""The README's Python examples run against the current library."""

import builtins
import importlib
import re
from pathlib import Path

import gwmono as gm

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def _overview_rows():
    """(module, names) per row of the README's "Library overview" table."""
    section = README.read_text().split("## Library overview", 1)[1]
    rows = re.findall(r"^\| `(gwmono[\w.]*)` \| (.*) \|$", section.split("\n\n", 2)[1], re.M)
    assert rows
    return [(module, re.findall(r"`([^`]+)`", contents)) for module, contents in rows]


def _script_names():
    text = (README.parent / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r"^([\w-]+)\s*=", section, re.M))


def test_library_overview_names_resolve():
    # a name the table lists must be one a reader can call, so a removal from the
    # library fails here until the README drops it too
    scripts = _script_names()
    assert scripts
    for module_name, names in _overview_rows():
        module = importlib.import_module(module_name)
        classes = [
            getattr(owner, name)
            for name in names
            for owner in (module, gm)
            if isinstance(getattr(owner, name, None), type)
        ]
        for name in names:
            resolves = (
                hasattr(module, name)
                or hasattr(gm, name)
                or any(hasattr(cls, name) for cls in classes)
                or hasattr(builtins, name)
                or name in scripts
            )
            assert resolves, f"README row {module_name}: `{name}` does not resolve"
