import os
import subprocess
import sys

import numpy as np
import pytest

import crncount
from crncount.numeric import _halton


@pytest.mark.parametrize("d", range(1, 26))
def test_halton_matches_scipy_bit_for_bit(d):
    # d up to 25 runs past any small fixed table of primes.
    qmc = pytest.importorskip("scipy.stats").qmc
    for seed, counts in ((0, (1, 2, 17, 2000)), (1, (100,)), (7, (5, 333)), (123456, (64, 1000))):
        for count in counts:
            expected = qmc.Halton(d, scramble=True, seed=seed).random(count)
            got = _halton(d, count, seed)
            assert np.array_equal(got, expected), (d, seed, count)
            # scipy's points are column-major; row sums round alike only if ours are too
            assert got.strides == expected.strides, (d, seed, count)


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(crncount.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, crncount.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
