import os
import subprocess
import sys

import delpop

# Imports every delpop module in a fresh interpreter, then prints how many
# it imported and which of the heavy packages came along.
_PROBE = """
import pkgutil, sys
import delpop
names = [mod.name for mod in pkgutil.walk_packages(delpop.__path__, "delpop.")]
for name in names:
    __import__(name)
print(len(names), *sorted(name for name in ("mpmath", "scipy") if name in sys.modules))
"""


def test_importing_delpop_pulls_in_neither_mpmath_nor_scipy():
    # scipy loads only when a weight LP runs; mpmath never
    src = os.path.dirname(os.path.dirname(delpop.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    count, *heavy = out.stdout.split()
    assert int(count) >= 10
    assert heavy == []
