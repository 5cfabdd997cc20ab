"""The runtime stays stdlib-only: importing every spreadplan module in a
fresh interpreter loads nothing outside the standard library."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import spreadplan
names = [m.name for m in pkgutil.iter_modules(spreadplan.__path__, "spreadplan.")]
for name in names:
    importlib.import_module(name)
main = sys.modules["__main__"]  # multiprocessing also lists it as __mp_main__
loaded = sorted(n for n, m in sys.modules.items() if m is not main)
print(json.dumps({"modules": names, "loaded": loaded}))
"""


def test_every_module_imports_only_the_standard_library():
    # -I ignores PYTHONPATH and the user's site directory; -S skips site
    # packages altogether, so nothing outside the stdlib is importable
    # unless a module put it on sys.path itself
    out = subprocess.run([sys.executable, "-I", "-S", "-c", PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=60)
    report = json.loads(out.stdout)
    assert "spreadplan.cli" in report["modules"]
    outside = {name.split(".")[0] for name in report["loaded"]}
    outside -= set(sys.stdlib_module_names) | {"spreadplan"}
    assert not outside, f"non-stdlib modules loaded: {sorted(outside)}"
