import os
import subprocess
import sys

import delpop

# Imports every delpop module in a fresh interpreter and runs one small
# recovery, then prints how many modules it imported and which of the
# heavy packages came along.
_PROBE = """
import pkgutil, sys
import delpop
names = [mod.name for mod in pkgutil.walk_packages(delpop.__path__, "delpop.")]
for name in names:
    __import__(name)
from delpop.core import BitString, ProblemParams, SparseDistribution
from delpop.recovery import RecoveryConfig, recover_from_channel
d = SparseDistribution((BitString.from_string("101100"),), (1.0,))
result = recover_from_channel(d, ProblemParams(6, 1, 0.9), RecoveryConfig(sample_count=10_000))
assert result.distribution == d, result.distribution
print(len(names), *sorted(name for name in ("mpmath", "scipy") if name in sys.modules))
"""


def test_importing_delpop_pulls_in_neither_mpmath_nor_scipy():
    # the weights come from one numpy least-squares solve and the support
    # roots from exact integer arithmetic, so a full recovery needs neither
    src = os.path.dirname(os.path.dirname(delpop.__file__))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    count, *heavy = out.stdout.split()
    assert int(count) >= 10
    assert heavy == []


def test_star_import_names_only_what_exists():
    # a stale __all__ entry makes `from delpop import *` raise
    namespace = {}
    exec("from delpop import *", namespace)
    assert set(delpop.__all__) <= set(namespace)
