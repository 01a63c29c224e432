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


# float.hex of selected points of _halton(d, count, seed), recorded from the
# code that matched scipy bit for bit, so the points stay pinned where scipy
# is absent; the all-zero digit tail reaches every coordinate of a point.
HALTON_GOLDEN = {
    (6, 240, 5): {
        0: ('0x1.969d42a39542fp-1', '0x1.68b8cb9700a4ep-3', '0x1.667917015134bp-1', '0x1.cb1362cc0ee25p-3',
            '0x1.66de5535450e9p-1', '0x1.8c598730ffdc2p-3'),
        120: ('0x1.aa9d42a39542fp-1', '0x1.f7ff612fc27cdp-3', '0x1.49cd0ed02a4b4p-1', '0x1.e648c29092438p-2',
              '0x1.8215e4b33a4f2p-3', '0x1.b88aae637b628p-2'),
        239: ('0x1.e2750a8e550bcp-3', '0x1.4629fc1d96058p-1', '0x1.0ab8fcca6e499p-1', '0x1.ce669d3f37f47p-2',
              '0x1.549fbcadaf11fp-8', '0x1.7eefb2509e94dp-1'),
    },
    (3, 100, 0): {
        0: ('0x1.9600b82ecb948p-4', '0x1.b9a95a7ee723ap-5', '0x1.33feaf0d8d01bp-2'),
        50: ('0x1.55802e0bb2e52p-2', '0x1.18717f885394fp-1', '0x1.2bcd8824142cbp-2'),
        99: ('0x1.bec01705d9729p-1', '0x1.8563f3d50c53bp-4', '0x1.edf7265fdd080p-1'),
    },
    (25, 17, 123456): {
        0: ('0x1.c4fbb98692180p-7', '0x1.835811504e7bbp-1', '0x1.9ee9b0ac0fbe4p-1', '0x1.2f830645ea36cp-3',
            '0x1.070633fa9390ep-1', '0x1.0e148fe7cd1a3p-3', '0x1.e2a3b6480ec0ap-1', '0x1.34637499b6a42p-1',
            '0x1.5d52ccd8c69a2p-2', '0x1.39d22f9553f81p-2', '0x1.cfe3ccc641369p-6', '0x1.34f39fb45cc4cp-4',
            '0x1.86a06b87bef2ap-1', '0x1.03cc3e6dc4917p-1', '0x1.30b7a6b9e3e63p-3', '0x1.5b0f6bae5bb75p-1',
            '0x1.f399decc45f48p-3', '0x1.f16f95c0c3910p-1', '0x1.0d2e45b82bab1p-8', '0x1.b1f5c6314ec8dp-1',
            '0x1.e2c2b7fe9470ep-1', '0x1.f49620a806a82p-1', '0x1.b68c78a7ade9cp-4', '0x1.63845a380d811p-1',
            '0x1.ad60c57949810p-3'),
        16: ('0x1.713eee61a4860p-5', '0x1.2487799c288ebp-1', '0x1.0062bd81153ecp-2', '0x1.07f5a77221bccp-1',
             '0x1.cde677ae69408p-1', '0x1.eeb111cc81aaap-1', '0x1.e3658aae3b9f4p-2', '0x1.a02d8f8c3d60cp-1',
             '0x1.b65dee3cf31fap-2', '0x1.70c5c857e7c72p-1', '0x1.bbea793ce7b71p-1', '0x1.4936ab507dc23p-1',
             '0x1.32b77966e80a9p-2', '0x1.9086a09418052p-2', '0x1.30f1ff7801253p-1', '0x1.c448d7e0e6edbp-5',
             '0x1.30f6feae3dcefp-4', '0x1.3062feabc7c35p-1', '0x1.73030d2629478p-2', '0x1.2304c9ae5574cp-2',
             '0x1.bfb12f3a323fcp-1', '0x1.6c7c34197197fp-1', '0x1.0eb8e25be6514p-1', '0x1.b2e6301f90f0ep-2',
             '0x1.4e50467b5a4b2p-1'),
    },
}


@pytest.mark.parametrize("case", sorted(HALTON_GOLDEN))
def test_halton_matches_golden_points(case):
    d, count, seed = case
    points = _halton(d, count, seed)
    assert points.shape == (count, d) and points.strides == (8, 8 * count)  # column-major, as scipy's
    for row, expected in HALTON_GOLDEN[case].items():
        assert tuple(float.hex(v) for v in points[row].tolist()) == expected, row


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(crncount.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, crncount.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
