import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

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


# The public functions and classes that nothing in src/delpop/ or tools/
# uses, each with what it reproduces or checks.  Everything else public
# must be used there.
_SHIPPED_UNUSED = {
    "prony.HankelSystem": "the paper's per-point Prony lemma (ROADMAP item 5)",
    "prony.PronyThresholds": "the paper's per-point Prony lemma (ROADMAP item 5)",
    "prony.gate_stage": "the paper's per-point Prony lemma (ROADMAP item 5)",
    "prony.solve_sigma": "the paper's per-point Prony lemma (ROADMAP item 5)",
    "coeffs.recover_polynomial": "the paper's coefficient-recovery lemma (ROADMAP item 5)",
    "oracle.exact_subsample_law": "the paper's small-p reduction lemma",
    "oracle.threshold_floor": "the paper's small-p reduction lemma",
    "support.encode_string": "the inverse that checks decode_string",
    "oracle.exact_mixture_trace_law": "the README's library example, and the exact "
    "multinomial source of ROADMAP item 1",
}


def _reads(nodes) -> Counter:
    """How often each name is read in nodes, as a bare name or an attribute."""
    reads = Counter()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                reads[sub.id] += 1
            elif isinstance(sub, ast.Attribute):
                reads[sub.attr] += 1
    return reads


def test_every_public_name_is_used_or_reproduces_a_lemma():
    # north-star rule: no public function that only the tests use, unless
    # it reproduces a lemma of the paper.  A name is used when code outside
    # its own definition reads it; the unused definitions' reads do not
    # count, so the search repeats until the unused set stops growing.
    package = Path(delpop.__file__).parent
    files = [*package.glob("*.py"), *(package.parents[1] / "tools").glob("*.py")]
    trees = {path: ast.parse(path.read_text()) for path in files}
    defs = {
        f"{path.stem}.{node.name}": node
        for path in package.glob("*.py")
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    own = {key: _reads([node]) for key, node in defs.items()}
    total = _reads(trees.values())
    unused, found = None, set()
    while found != unused:
        unused = found
        live = total - sum((own[key] for key in unused), Counter())
        found = {key for key, node in defs.items() if not (live - own[key])[node.name]}
    assert unused == set(_SHIPPED_UNUSED)
