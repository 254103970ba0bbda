import os
import subprocess
import sys
from pathlib import Path

import rpnn_ode

SRC = Path(__file__).resolve().parents[1] / "src"

# numpy is the only runtime dependency: importing the package and running
# each solver must not pull scipy in, even where scipy is installed.
NO_SCIPY_SCRIPT = """
import sys
import numpy as np
import rpnn_ode
import rpnn_ode.cli
decay = rpnn_ode.OdeProblem(name="decay", m=1, x0=0.0, x_end=1.0, alpha=np.array([1.0]),
                            rhs=lambda x, y: -y, ode_jacobian=lambda x, y: -np.eye(1))
sol = rpnn_ode.solve_adaptive(decay, rpnn_ode.SolverConfig(tol=1e-6))
ctrl = rpnn_ode.StepControl(1e-6, 1e-6)
for traj in (rpnn_ode.dp45_solve(decay, ctrl), rpnn_ode.sdirk_solve(decay, ctrl)):
    assert abs(traj(1.0)[0] - sol(1.0)[0]) < 1e-5
assert "scipy" not in sys.modules
"""


def test_every_export_resolves_and_appears_once():
    names = rpnn_ode.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(rpnn_ode, name)]
    assert missing == []


def test_package_and_solvers_never_import_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
