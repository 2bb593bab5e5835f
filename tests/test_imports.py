"""What ``import arpsd`` loads: the screening modules, and the simulator
with SciPy only at the first use of one of its names; and what the
package's modules and scripts import of one another."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import arpsd

SIMULATOR = ["BurstSpec", "resonator_model", "simulate_ar", "simulate_recording"]

# Run in a fresh interpreter, so that nothing the test run imported
# is in sys.modules.
CHILD = """
import json, sys, types
import arpsd
facts = {"loaded": sorted(m for m in ("scipy", "arpsd.simulate") if m in sys.modules)}
simulate = arpsd.simulate
facts["submodule"] = (isinstance(simulate, types.ModuleType)
                      and simulate is sys.modules["arpsd.simulate"])
facts["unresolved"] = [name for name in arpsd.__all__ if not hasattr(arpsd, name)]
facts["simulator"] = {name: getattr(arpsd, name) is getattr(simulate, name)
                      for name in %(simulator)r}
star = {}
exec("from arpsd import *", star)
facts["star"] = sorted(name for name in %(simulator)r if name in star)
facts["dir"] = sorted(name for name in %(simulator)r + ["simulate"] if name in dir(arpsd))
try:
    arpsd.nope
except AttributeError as exc:
    facts["nope"] = str(exc)
print(json.dumps(facts))
"""


def test_import_loads_the_simulator_and_scipy_only_on_first_use():
    # The child imports the package this test imported, installed or not.
    src = str(Path(arpsd.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD % {"simulator": SIMULATOR}],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path},
    )
    facts = json.loads(proc.stdout)
    assert facts == {
        "loaded": [],
        "submodule": True,
        "unresolved": [],
        "simulator": dict.fromkeys(SIMULATOR, True),
        "star": SIMULATOR,
        "dir": sorted(SIMULATOR + ["simulate"]),
        "nope": "module 'arpsd' has no attribute 'nope'",
    }


def _private_imports(path):
    """``(line, module, name)`` of each underscore name that the file at
    ``path`` imports from an ``arpsd`` module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = "." * node.level + (node.module or "")
        if node.level == 0 and module.split(".")[0] != "arpsd":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append((node.lineno, module, name))
    return found


def test_no_module_imports_another_modules_private_names():
    # Aim 2: a private name may change with its module; code outside that
    # module reaches it only through a public one.
    root = Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("src/arpsd/*.py")) + sorted(root.glob("scripts/*.py"))
    assert {path.parent.name for path in paths} == {"arpsd", "scripts"}
    found = {str(path.relative_to(root)): _private_imports(path) for path in paths}
    assert {path: names for path, names in found.items() if names} == {}
