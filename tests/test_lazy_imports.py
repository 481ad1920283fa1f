"""Import guard: the package runs on numpy alone.

Each check runs in a fresh interpreter that sets ``sys.modules["scipy"]``
to None, so any import of scipy or of one of its submodules fails.  There
the package and its command line import, and the exponential solve, its
reconstruction and a particle run go through, followed by one side path:
the RK4 oracle, whose cubic spline of z is built in numpy, the gains and
tails of a polynomial weight, whose incomplete beta function is a numpy
continued fraction, or Gaussian frequency sampling, whose quantile is the
standard library's ``NormalDist.inv_cdf``.  Each result is compared bit
for bit with the same call made here, where scipy may be loaded.
Importing the package loads neither scipy nor ``statistics``, which only
the Gaussian path needs.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kuramoto_dephasing
from kuramoto_dephasing import (
    AsymptoticState,
    FrequencyProfile,
    WeightSpec,
    backward_ode_oracle,
    build_grid,
    outer_solve,
    reconstruct,
)
from kuramoto_dephasing.particles import init_from_solution, simulate
from kuramoto_dephasing.spectral_state import sample_labels

# scipy blocked, the exponential run, then one side path named by argv[1];
# prints whether the imports loaded statistics, digests of what was
# computed and how far the side path raised the peak resident size (KB)
_SCRIPT = r"""
import sys
sys.modules["scipy"] = None  # from here on any scipy import fails

import hashlib, json, resource
import numpy as np

def peak_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

import kuramoto_dephasing.cli
from kuramoto_dephasing import (AsymptoticState, FrequencyProfile, WeightSpec,
                                backward_ode_oracle, build_grid, outer_solve, reconstruct)
from kuramoto_dephasing.particles import init_from_solution, simulate
from kuramoto_dephasing.spectral_state import sample_labels

out = {"import_loads_statistics": "statistics" in sys.modules}
state = AsymptoticState(FrequencyProfile("lorentzian", 1.0), {1: 0.05}, "exponential", 0.9)
grid = build_grid(state.profile, t_max=16.0, dt=0.05, n_theta=8, n_omega=33)
result = outer_solve(state, grid, 0.05)
recon = reconstruct(result, times=(0.0, 4.0, 8.0))
ens, _ = init_from_solution(result.field, state, 500, seed=3)
_, z_n, _ = simulate(ens, 0.05, 40, record_every=5)
out["solve"] = [result.converged, digest(result.field.deviation), digest(result.path.values)]
out["reconstruct"] = [digest(recon.values), digest(recon.mass)]
out["simulate"] = digest(z_n)

side = sys.argv[1]
before = peak_kb()
if side == "oracle":
    out["value"] = digest(backward_ode_oracle(grid, result.path.values, 0.05).deviation)
elif side == "polynomial":
    weight = WeightSpec("polynomial", 2.0)
    weight.check_finite(grid.t_max)
    out["value"] = [weight.unit_contraction_gain, weight.unit_deviation_gain,
                    weight.tail_integral(3.0)]
else:
    gauss = AsymptoticState(FrequencyProfile("gaussian", 1.0), {1: 0.05}, "exponential", 0.9)
    theta, omega = sample_labels(gauss, 1000, np.random.default_rng(5))
    out["value"] = [digest(theta), digest(omega)]
out["side_peak_kb"] = peak_kb() - before
print(json.dumps(out))
"""

STATE = AsymptoticState(FrequencyProfile("lorentzian", 1.0), {1: 0.05}, "exponential", 0.9)


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def exp_solve():
    grid = build_grid(STATE.profile, t_max=16.0, dt=0.05, n_theta=8, n_omega=33)
    result = outer_solve(STATE, grid, 0.05)
    recon = reconstruct(result, times=(0.0, 4.0, 8.0))
    ens, _ = init_from_solution(result.field, STATE, 500, seed=3)
    _, z_n, _ = simulate(ens, 0.05, 40, record_every=5)
    return grid, result, [_digest(recon.values), _digest(recon.mass)], _digest(z_n)


def _expected(side, exp_solve):
    grid, result, _, _ = exp_solve
    if side == "oracle":
        return _digest(backward_ode_oracle(grid, result.path.values, 0.05).deviation)
    if side == "polynomial":
        weight = WeightSpec("polynomial", 2.0)
        return [weight.unit_contraction_gain, weight.unit_deviation_gain,
                weight.tail_integral(3.0)]
    gauss = AsymptoticState(FrequencyProfile("gaussian", 1.0), {1: 0.05}, "exponential", 0.9)
    theta, omega = sample_labels(gauss, 1000, np.random.default_rng(5))
    return [_digest(theta), _digest(omega)]


# the oracle on the 8 x 33 grid (a 0.7 MB field) raised the peak by
# 1.25 MB (ru_maxrss, KB on Linux) in three runs; with scipy's CubicSpline,
# which loads scipy.interpolate, .linalg, .sparse and .special, it raised
# it by 43 MB
ORACLE_PEAK_KB = 8 * 1024
# the polynomial gains and tail raised it by 1.6-1.8 MB in three runs; with
# scipy.special's incomplete beta and 2F1 they raised it by 15.1-15.6 MB
POLYNOMIAL_PEAK_KB = 6 * 1024


@pytest.mark.parametrize("side", ["oracle", "polynomial", "gaussian"])
def test_every_path_runs_with_scipy_blocked(side, exp_solve):
    env = dict(os.environ)
    package_root = str(Path(kuramoto_dephasing.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", _SCRIPT, side],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["import_loads_statistics"] is False
    # the exponential solve, reconstruction and particle run, and then the
    # side path, give the usual results
    _, result, recon, simulated = exp_solve
    assert out["solve"] == [True, _digest(result.field.deviation), _digest(result.path.values)]
    assert out["reconstruct"] == recon
    assert out["simulate"] == simulated
    assert out["value"] == _expected(side, exp_solve)
    if side == "oracle":
        assert out["side_peak_kb"] < ORACLE_PEAK_KB
    if side == "polynomial":
        assert out["side_peak_kb"] < POLYNOMIAL_PEAK_KB


def test_no_module_of_the_package_imports_scipy():
    # the same rule read from the source: an import statement of scipy or
    # of any submodule, at any depth of any file of the package, is refused
    package = Path(kuramoto_dephasing.__file__).resolve().parent
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            assert not any(n.split(".")[0] == "scipy" for n in names), (path.name, node.lineno)
