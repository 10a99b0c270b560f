"""The import contract: scipy loads at the first solve and orjson at the
first trajectory file, never on import, and the solver is called through
the module attribute ``flow.solve_ivp``, with the step method
``flow.RowwiseDOP853``, which is built at the first solve.

Each test runs in a fresh interpreter, because any earlier test in this
process may already have loaded scipy or orjson."""
import json
import os
import subprocess
import sys
from pathlib import Path

import solvflow


def run_fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter that imports this solvflow, and
    parse the JSON it prints last."""
    env = dict(os.environ)
    src = str(Path(solvflow.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_scipy_until_a_solve():
    got = run_fresh("""
import json, sys
import numpy as np
import solvflow
from solvflow import asymptotics, catalog, cli, curvature, flow, invariants

for model in catalog.ModelId:
    invariants.detect_monomials(model)
    a = np.linspace(-0.5, 0.5, 10)
    sc = catalog.build_model(model, catalog.params_from_basis_change(model, a))
    curvature.ricci_tensor(sc, curvature.DiagonalMetric((1.0, 2.0, 3.0, 4.0, 5.0)))
t = np.geomspace(1.0, 1e4, 100)
traj = flow.Trajectory(times=t, coeffs=np.column_stack([t ** 0.25] * 5),
                       termination="reached_t_end")
asymptotics.fit_power_law(traj, "A")
for argv in (["list"], ["describe", "D11"], ["invariants", "D11"]):
    assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
""")
    assert got == []


def test_no_orjson_until_a_trajectory_file():
    got = run_fresh("""
import json, os, sys
import numpy as np
import solvflow
from solvflow import cli, flow

loaded = {"import": "orjson" in sys.modules}
for argv in (["list"], ["describe", "D11"], ["invariants", "D11"]):
    assert cli.main(argv) == 0
    loaded[argv[0]] = "orjson" in sys.modules
traj = flow.Trajectory(times=np.arange(3.0), coeffs=np.ones((3, 5)), termination="reached_t_end")
traj.write_json(os.devnull)
loaded["write_json"] = "orjson" in sys.modules
print(json.dumps(loaded))
""")
    assert got == {"import": False, "list": False, "describe": False, "invariants": False,
                   "write_json": True}


def test_first_solve_loads_the_solver_behind_the_module_attribute():
    got = run_fresh("""
import json, logging, sys
from solvflow import flow
from solvflow.catalog import InitialData, ModelId

records = []
handler = logging.Handler()
handler.emit = lambda r: records.append([r.levelname, r.getMessage()])
logging.getLogger("solvflow.flow").addHandler(handler)
logging.getLogger("solvflow.flow").setLevel(logging.DEBUG)

problem = flow.FlowProblem(ModelId.D5, InitialData((1, 1, 1, 1, 1)), 1.0)
loaded_before = "scipy.integrate" in sys.modules
built_before = "RowwiseDOP853" in vars(flow)
flow.integrate(problem)
import scipy.integrate
same = flow.solve_ivp is scipy.integrate.solve_ivp

calls = []
def replacement(*args, **kwargs):
    method = kwargs["method"]
    calls.append([method.__name__, issubclass(method, scipy.integrate.DOP853)])
    return scipy.integrate.solve_ivp(*args, **kwargs)
flow.solve_ivp = replacement
traj = flow.integrate(problem)
print(json.dumps({"loaded_before": loaded_before, "built_before": built_before,
                  "same": same, "calls": calls, "nfev": traj.meta["nfev"],
                  "records": records}))
""")
    assert got["loaded_before"] is False and got["built_before"] is False
    assert got["same"] is True
    assert got["calls"] == [["RowwiseDOP853", True]] and got["nfev"] > 0
    levels = [level for level, _ in got["records"]]
    assert levels == ["DEBUG", "INFO", "INFO"]
    assert got["records"][0][1].startswith("loaded scipy.integrate in ")
    assert all(msg.startswith("solved D5×1: M=1 ") for _, msg in got["records"][1:])
