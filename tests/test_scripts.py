"""The scripts under scripts/ import against the package as it is."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_there_are_scripts_to_import():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_script_imports_without_running_main(path):
    # A script that reads a package name at import fails here, not when it
    # is next run by hand.
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
