"""The benchmark's tracer (perfbench/tracing.py) wraps module attributes
of the package from outside it.  A refactor that unbinds one of those
names would crash every traced benchmark run; this smoke test runs a
small traced campaign instead."""

import importlib.util
import sys
from pathlib import Path

from siegeltheta import cli, halphen, identities, siegel, theta
from siegeltheta.identities import SamplePlan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load(TRACING, "perfbench_tracing")


def test_tracer_wraps_and_restores_the_traced_entry_points():
    checks = ["genus2_eta_product", "weight2_diagonal"]
    tracer = _load_tracing().Tracer().install()
    try:
        report = cli.run_campaign(cli.RunConfig(genus=2, samples=1, identities=checks))
        metrics = tracer.layer_metrics(checks)
    finally:
        tracer.uninstall()
    assert report.overall == "pass"
    names = {span[0] for span in tracer.spans}
    assert {f"identities.{c}" for c in checks} <= names
    assert {"theta.batch_moments", "halphen.genus1_data"} <= names
    assert metrics["theta.box_points"] > 0
    assert identities.batch_moments is theta.batch_moments
    assert identities.theta_values is theta.theta_values
    assert identities.genus1_data is halphen.genus1_data
    assert identities.act is siegel.act
    assert cli.run_check is identities.run_check


def test_the_first_round_gate_of_a_campaign_workload_passes():
    # every benchmark round of a campaign workload first compares each
    # thetanull at the first point of its plan with direct mpmath sums
    # (worker.gate_thetanulls); a kernel change that breaks that contract
    # would refuse every benchmark run
    saved_path, saved_oracle = list(sys.path), sys.modules.pop("oracle", None)
    sys.path.insert(0, str(PERFBENCH))
    try:
        worker = _load(PERFBENCH / "worker.py", "perfbench_worker")
        assert worker.gate_thetanulls(SamplePlan(seed=0, count=1).tau_points(2)[0]) == []
    finally:
        sys.path[:] = saved_path
        sys.modules.pop("oracle", None)
        if saved_oracle is not None:
            sys.modules["oracle"] = saved_oracle
