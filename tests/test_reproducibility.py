"""CLI output does not depend on the BLAS thread count.

Each subcommand runs in a fresh interpreter under OPENBLAS_NUM_THREADS=1
and =2, and the two CSV files must match byte for byte apart from the
``timestamp`` and ``out`` manifest lines.  The sizes are large enough
that whole-matrix products would reach OpenBLAS's thread pool: the
512 x 1000 certificate sweep differs in hundreds of rows when its
gradient products run whole.  Under numpy's AVX2 dispatch the last digits
may move, so there only the verdicts and the counts must agree.
"""

import json
import os
import subprocess
import sys

import pytest

import alpha_lab

AUDIT = ["slqc-audit", "--alpha0", "1", "--targets", "1.0002,1.001", "--radius", "0.2",
         "--eps0", "0.005", "--samples", "512", "--n", "1000"]
LANDSCAPE = ["landscape", "--alpha", "10", "--grid", "51", "--compare-infinity"]
AVX2 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# columns and manifest lines that hold verdicts and counts
DISCRETE = {
    "slqc-audit": (["target_alpha", "theta_index", "verdict", "boot_verdict"],
                   ["theta0_converged", "theta0_iterations", "gradient_floor_zero",
                    "descent_checks", "violations"]),
    "landscape": (["theta1", "theta2"], ["single_basin", "value_ok", "grad_ok", "violations"]),
}


@pytest.fixture(scope="module")
def gmm(tmp_path_factory):
    path = tmp_path_factory.mktemp("gmm") / "gmm.json"
    path.write_text(json.dumps({
        "prior_minus": 0.5, "mean_minus": [-1.0, -1.0], "mean_plus": [1.0, 1.0],
        "cov_minus": [[1.0, 0.0], [0.0, 1.0]], "cov_plus": [[1.0, 0.0], [0.0, 1.0]],
    }))
    return str(path)


# risk and gradient digests at shapes whose whole products (or, for one
# parameter row at d = 1, whose dot products) OpenBLAS would thread
KERNELS = """
import hashlib, numpy as np
from alpha_lab.logistic import risk_gradients, risks
h = hashlib.sha256()
for n, m, d in ((40_000, 1, 1), (40_000, 1, 5), (2_000, 2_601, 2), (5_000, 300, 8)):
    rng = np.random.default_rng(n + m + d)
    X, y = rng.random((n, d)), np.where(rng.random(n) < 0.5, -1.0, 1.0)
    thetas = 4.0 * rng.uniform(-1.0, 1.0, (m, d))
    h.update(risks(thetas, (X, y), [0.5, 1.0, 4.0, np.inf]).tobytes())
    h.update(risk_gradients(thetas, (X, y), [0.5, 1.0, 4.0, np.inf]).tobytes())
print(h.hexdigest())
"""


def run_python(args, **env):
    src = os.path.dirname(os.path.dirname(alpha_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
           **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          check=True, timeout=300).stdout


def run_cli(args, gmm, out, **env):
    """The CSV lines of one subcommand run, without its timestamp and out lines."""
    run_python(["-m", "alpha_lab.cli", *args, "--gmm", gmm, "--out", str(out)], **env)
    return [line for line in out.read_text().splitlines()
            if not line.startswith(("# timestamp:", "# out:"))]


def discrete(lines, subcommand):
    """The verdict columns of the body and the count lines of the manifest."""
    columns, keys = DISCRETE[subcommand]
    manifest = [l for l in lines if l.startswith("#") and l[2:].split(":")[0] in keys]
    header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
    idx = [header.index(c) for c in columns]
    return manifest, [[row[i] for i in idx] for row in rows]


@pytest.mark.parametrize("args", [AUDIT, LANDSCAPE], ids=["slqc-audit", "landscape"])
def test_output_independent_of_blas_threads(tmp_path, gmm, args):
    one = run_cli(args, gmm, tmp_path / "t1.csv", OPENBLAS_NUM_THREADS="1")
    two = run_cli(args, gmm, tmp_path / "t2.csv", OPENBLAS_NUM_THREADS="2")
    assert len(one) > 500 and one == two
    # under the AVX2 dispatch level the verdicts and counts stay
    avx2 = run_cli(args, gmm, tmp_path / "avx2.csv", OPENBLAS_NUM_THREADS="2", **AVX2)
    manifest, rows = discrete(one, args[0])
    assert len(manifest) == len(DISCRETE[args[0]][1])
    assert discrete(avx2, args[0]) == (manifest, rows)


def test_kernels_independent_of_blas_threads():
    one = run_python(["-c", KERNELS], OPENBLAS_NUM_THREADS="1")
    assert one == run_python(["-c", KERNELS], OPENBLAS_NUM_THREADS="2")
