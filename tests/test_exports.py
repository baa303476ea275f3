"""Every public name the package advertises can be imported."""

import importlib
import os
import pkgutil
import re

import pytest

import lseq

MODULES = ["lseq", *(f"lseq.{info.name}" for info in pkgutil.iter_modules(lseq.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names what {name} does not define"


def _readme_library_imports():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    usage = re.search(r"^## Library usage$(.*?)^## ", readme, re.MULTILINE | re.DOTALL)
    assert usage is not None
    return re.findall(r"^from lseq\S* import .+$", usage.group(1), re.MULTILINE)


def test_readme_library_imports_run():
    lines = _readme_library_imports()
    assert len(lines) >= 5
    for line in lines:
        exec(line, {})
