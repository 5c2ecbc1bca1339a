import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest

import siegeltheta
from siegeltheta import cli, identities
from siegeltheta.cli import RunConfig, build_parser, main
from siegeltheta.identities import REGISTRY, CheckSpec
from siegeltheta.siegel import SiegelPoint
from siegeltheta.theta import truncation_radius


def run_main(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gopel_lists_fifteen_lines(capsys):
    code, out, _ = run_main(capsys, "gopel", "--genus", "2")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 15
    assert "00 01 02 03" in lines


def test_eval_json_shape(capsys):
    code, out, _ = run_main(
        capsys, "eval", "--char", "(0;0)", "--tau", "[[[0,1]]]"
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"value", "grad", "hess", "tail_bound"}
    assert abs(payload["value"][0] - 1.0864348112133080) < 1e-12
    assert payload["value"][1] == 0.0


def test_eval_of_a_coset_with_no_point_in_the_ellipsoid(capsys):
    # at tau = 50i no m = n + 1/2 lies in the z = 0 ellipsoid
    code, out, _ = run_main(capsys, "eval", "--char", "(1;0)", "--tau", "[[[0,50]]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == [0.0, 0.0]
    assert 2.0 * math.exp(-12.5 * math.pi) <= payload["tail_bound"]


def test_eval_with_z_and_genus2_label(capsys):
    code, out, _ = run_main(
        capsys,
        "eval",
        "--char",
        "20",
        "--tau",
        '[[[0.1,1.0],[0.0,0.1]],[[0.0,0.1],[0.0,1.2]]]',
        "--z",
        "[[0.05,0.0],[0.0,0.02]]",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["grad"]) == 2


def test_verify_single_identity_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_main(
        capsys,
        "verify",
        "genus2_quadratic",
        "--genus",
        "2",
        "--samples",
        "2",
        "--seed",
        "5",
        "--json",
        str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["overall"] == "pass"
    assert [c["name"] for c in payload["checks"]] == ["genus2_quadratic"]
    assert "genus2_quadratic" in out and "pass" in out


def test_verify_unknown_identity_exits_2(capsys):
    code, _, err = run_main(capsys, "verify", "not_an_identity", "--samples", "1")
    assert code == 2
    assert "unknown" in err


def test_verify_wrong_genus_exits_2(capsys):
    code, _, err = run_main(capsys, "verify", "gopel_quartet", "--genus", "1", "--samples", "1")
    assert code == 2


def test_verify_failure_exit_one(capsys):
    code, out, _ = run_main(
        capsys, "verify", "genus2_quartic", "--samples", "1", "--tol", "1e-30"
    )
    assert code == 1
    assert "fail" in out


def test_kernel_refusal_is_a_check_error_not_the_end_of_the_campaign(
    capsys, monkeypatch, tmp_path
):
    def near_divisor(genus, plan, eps, tol):
        # thetanull 33 vanishes at every diagonal genus-2 point
        tau = SiegelPoint(2, np.diag([0.3 + 1.1j, -0.2 + 0.9j]))
        identities._point(tau, eps).psi()

    def over_budget(genus, plan, eps, tol):
        truncation_radius(SiegelPoint(3, 1e-3j * np.eye(3)), None, eps, weight=4)

    registry = {
        "near_divisor": CheckSpec(near_divisor, (2,)),
        "over_budget": CheckSpec(over_budget, (2,)),
        "genus2_quartic": REGISTRY["genus2_quartic"],
    }
    monkeypatch.setattr(identities, "REGISTRY", registry)
    monkeypatch.setattr(cli, "REGISTRY", registry)
    out_path = tmp_path / "report.json"
    code, out, err = run_main(
        capsys, "verify", "all", "--genus", "2", "--samples", "1", "--json", str(out_path)
    )
    assert code == 1
    assert "Traceback" not in err
    payload = json.loads(out_path.read_text())
    assert payload["overall"] == "fail"
    near, budget, quartic = payload["checks"]
    assert near["status"] == "error"
    assert near["notes"] == {"exception": "NearZeroThetanull"}
    assert "thetanull 33" in near["witness"]
    assert budget["status"] == "error"
    assert budget["notes"] == {"exception": "TruncationError"}
    assert "lattice points" in budget["witness"]
    assert quartic["status"] == "pass"
    assert "near_divisor" in out and "error" in out


def test_refused_check_records_its_own_tolerance_floor():
    # the kernel refuses this plan during the radius arithmetic, before any
    # allocation; the error record carries heat_equation's floor, not --tol
    plan = identities.SamplePlan(count=1, diag_min=1e-3, diag_max=2e-3, offdiag=0.0)
    name, check, _ = cli._pool_run(("heat_equation", 3, plan, 1e-14, 1e-12))
    assert name == "heat_equation"
    assert check.status == "error"
    assert check.notes == {"exception": "TruncationError"}
    assert check.tolerance == 1e-8 == identities.effective_tol("heat_equation", 1e-12)
    assert identities.effective_tol("riemann_quartic", 1e-12) == 1e-12


def test_verify_report_byte_identical_modulo_timing(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_main(
            capsys,
            "verify",
            "genus2_eta_explicit",
            "--samples",
            "2",
            "--seed",
            "9",
            "--json",
            str(p),
        )
        assert code == 0
    a = json.loads(paths[0].read_text())
    b = json.loads(paths[1].read_text())
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_table_shows_effective_tolerance(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, _ = run_main(
        capsys, "verify", "heat_equation", "--genus", "1", "--samples", "1",
        "--tol", "1e-12", "--json", str(out_path),
    )
    assert code == 0
    header, row = out.splitlines()[:2]
    assert header.split()[:5] == ["check", "genus", "max", "rel", "tol"]
    assert row.split()[0] == "heat_equation"
    assert row.split()[3] == "1e-08"
    payload = json.loads(out_path.read_text())
    assert payload["config"]["tol"] == 1e-12
    assert payload["checks"][0]["tolerance"] == 1e-8


TAU2 = "[[[0.1,1.0],[0.0,0.1]],[[0.0,0.1],[0.0,1.2]]]"


@pytest.mark.parametrize(
    "argv,env",
    [
        (["eval", "--char", "(1;2)", "--tau", "[[[0,1]]]"], {}),
        (["eval", "--char", "00", "--tau", "5"], {}),
        (["eval", "--char", "00", "--tau", "[[1]]"], {}),
        (["eval", "--char", "00", "--tau", TAU2, "--z", "5"], {}),
        (["eval", "--char", "00", "--tau", TAU2, "--z", "[1, 2]"], {}),
        (["report", "EMPTY_LIST_FILE"], {}),
        (["report", "ROW_WITHOUT_GENUS_FILE"], {}),
        (["verify", "all"], {"SIEGELTHETA_WORKERS": "abc"}),
        (["halphen", "check", "--samples", "0"], {}),
        (["halphen", "check", "--samples", "-3"], {}),
        (["eval", "--char", "00", "--tau", '{"genus": 1}'], {}),
        (["eval", "--char", "(0;0)", "--tau", "[[[Infinity,1]]]"], {}),
        (["eval", "--char", "(0;0)", "--tau", "[[[0,1]]]", "--z", "[[NaN,0]]"], {}),
        (["eval", "--char", "(0;0)", "--tau", "[[[0,1]]]", "--z", "[[0,Infinity]]"], {}),
        (["eval", "--char", "(0;0)", "--tau", "[[[0,1,5]]]"], {}),
        (["eval", "--char", "(0;0)", "--tau", "[[[0,1]]]", "--z", "[[1,2,3]]"], {}),
        (["eval", "--char", "(0;0)", "--tau", '{"genus": 1, "tau": [[[0,1,5]]]}'], {}),
        (["halphen", "integrate", "--from", "0+1i", "--to", "0+2i", "--steps", "0"], {}),
    ],
    ids=["char-entry-not-a-bit", "tau-scalar", "tau-entry-not-a-pair", "z-scalar",
         "z-entry-not-a-pair", "report-of-a-list", "report-row-without-genus",
         "workers-env-not-an-int", "halphen-check-no-samples", "halphen-check-negative-samples",
         "tau-point-without-tau", "tau-infinite-real-part", "z-nan", "z-infinite-imaginary-part",
         "tau-entry-a-triple", "z-entry-a-triple", "tau-point-entry-a-triple",
         "halphen-integrate-no-steps"],
)
def test_malformed_input_is_a_usage_error(argv, env, capsys, monkeypatch, tmp_path):
    files = {
        "EMPTY_LIST_FILE": "[]",
        "ROW_WITHOUT_GENUS_FILE": '{"checks": [{"name": "x"}], "overall": "pass"}',
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / arg) if arg in files else arg for arg in argv]
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's own usage errors
        code = exc.code
    assert code == 2
    out = capsys.readouterr()
    # nothing half-rendered reaches stdout before the error
    assert out.out == ""
    assert "error: " in out.err


@pytest.mark.parametrize("name,argv", [
    ("tau", ["--tau", "[[[0,1,5]]]"]),
    ("z", ["--tau", "[[[0,1]]]", "--z", "[[1,2,3]]"]),
])
def test_a_malformed_pair_names_its_field(name, argv, capsys):
    code, _, err = run_main(capsys, "eval", "--char", "(0;0)", *argv)
    assert code == 2
    assert f"error: {name} must be a " in err and "[re, im] pairs" in err


def test_report_rendering(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    run_main(capsys, "verify", "genus2_quadratic", "--samples", "1", "--json", str(out_path))
    code, out, _ = run_main(capsys, "report", str(out_path))
    assert code == 0
    assert "overall: pass" in out


def test_formal_chi(capsys):
    code, out, _ = run_main(capsys, "formal", "chi")
    assert code == 0
    assert "zero polynomial" in out


def test_formal_gopel_sum(capsys):
    code, out, _ = run_main(capsys, "formal", "gopel-sum")
    assert code == 0


def test_halphen_integrate(capsys):
    code, out, _ = run_main(
        capsys, "halphen", "integrate", "--from", "0+1i", "--to", "0+2i", "--steps", "500"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["endpoint_error_vs_theta"] < 1e-9


def test_halphen_check(capsys):
    code, out, _ = run_main(capsys, "halphen", "check", "--samples", "5", "--seed", "2")
    assert code == 0
    assert json.loads(out)["max_rel_residual"] < 1e-9


def test_fourier_command_with_crosscheck(capsys):
    code, out, _ = run_main(
        capsys, "fourier", "--char", "(0;0)", "--order", "40", "--tau", "[[[0,2]]]"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][0]["coeff"] == 1
    assert payload["crosscheck"]["within_bounds"] is True


def test_runconfig_validation(capsys):
    with pytest.raises(ValueError):
        RunConfig(genus=4)
    with pytest.raises(ValueError):
        RunConfig(samples=0)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            RunConfig(eps=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            RunConfig(tol=bad)
    for flag in ("--eps", "--tol"):
        code, _, err = run_main(capsys, "verify", "heat_equation", "--genus", "1", flag, "nan")
        assert code == 2 and "finite and positive" in err
    with pytest.raises(KeyError):
        RunConfig(identities=["nope"])
    with pytest.raises(ValueError, match="does not apply at genus 3"):
        RunConfig(genus=3, identities=["gopel_quartet"])
    cfg = RunConfig(identities=["second_order_system"])
    assert cfg.to_json()["identities"] == ["second_order_system"]


def test_registry_names_usable_from_parser():
    parser = build_parser()
    args = parser.parse_args(["verify", "all", "--genus", "2"])
    assert args.identity == "all"
    for name in REGISTRY:
        parser.parse_args(["verify", name])


def test_module_entrypoint_subprocess():
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(siegeltheta.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "siegeltheta", "gopel"],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert len(proc.stdout.splitlines()) == 15


def test_verify_all_runs_full_registry(capsys, tmp_path):
    out_path = tmp_path / "all.json"
    code, out, _ = run_main(
        capsys,
        "verify",
        "all",
        "--genus",
        "2",
        "--samples",
        "1",
        "--seed",
        "7",
        "--json",
        str(out_path),
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    names = [c["name"] for c in payload["checks"]]
    assert len(names) >= 12
    assert names == [n for n in REGISTRY if 2 in REGISTRY[n].genera]
    assert payload["overall"] == "pass"
    assert set(payload["timing"]["wall_times"]) == set(names)


def test_workers_pool_matches_serial(capsys, tmp_path):
    serial = tmp_path / "serial.json"
    pooled = tmp_path / "pooled.json"
    for path, workers in ((serial, "1"), (pooled, "2")):
        code, _, _ = run_main(
            capsys,
            "verify",
            "genus2_quartic",
            "--samples",
            "2",
            "--seed",
            "4",
            "--json",
            str(path),
            "--workers",
            workers,
        )
        assert code == 0
    a = json.loads(serial.read_text())
    b = json.loads(pooled.read_text())
    assert a["checks"] == b["checks"]


def test_campaign_matches_direct_checks_at_genus_3():
    # the campaign shares point records among its checks; each check still
    # reports what it reports when it runs alone, without a memo
    config = RunConfig(genus=3, seed=5, samples=1)
    report = cli.run_campaign(config)
    direct = [
        identities.run_check(name, 3, config.plan(), config.eps, config.tol).to_json()
        for name in identities.checks_for_genus(3)
    ]
    assert [c.to_json() for c in report.checks] == direct
    assert identities._POINTS.get() is None


def test_no_point_memo_survives_a_campaign(monkeypatch):
    seen = []

    def shares(genus, plan, eps, tol):
        tau = plan.tau_points(genus)[0]
        seen.append(identities._point(tau, eps) is identities._point(tau, eps))
        return identities.IdentityCheck("shares", genus, plan.count, plan.seed, tol).finish()

    def near_divisor(genus, plan, eps, tol):
        tau = SiegelPoint(2, np.diag([0.3 + 1.1j, -0.2 + 0.9j]))
        identities._point(tau, eps).psi()

    def broken(genus, plan, eps, tol):
        identities._point(plan.tau_points(genus)[0], eps)
        raise RuntimeError("not a kernel refusal")

    registry = {
        "shares": CheckSpec(shares, (2,)),
        "near_divisor": CheckSpec(near_divisor, (2,)),
        "broken": CheckSpec(broken, (2,)),
    }
    monkeypatch.setattr(identities, "REGISTRY", registry)
    monkeypatch.setattr(cli, "REGISTRY", registry)
    config = RunConfig(genus=2, samples=1, identities=["shares", "near_divisor"])
    report = cli.run_campaign(config)
    assert [c.status for c in report.checks] == ["pass", "error"]
    assert seen == [True]
    assert identities._POINTS.get() is None
    # a check that raises past the campaign still closes its memo
    with pytest.raises(RuntimeError, match="not a kernel refusal"):
        cli.run_campaign(RunConfig(genus=2, samples=1, identities=["shares", "broken"]))
    assert seen == [True, True]
    assert identities._POINTS.get() is None


def test_pool_has_no_more_workers_than_checks(monkeypatch):
    # a pool forks all its workers at once, so it is sized by the checks it
    # runs; the report keeps the requested count
    pools = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    names = identities.checks_for_genus(1)
    assert len(names) > 2
    for workers, chosen, sizes in ((64, [], [len(names)]), (2, [], [2]), (64, names[:1], [])):
        pools.clear()
        report = cli.run_campaign(RunConfig(genus=1, samples=1, identities=chosen, workers=workers))
        assert pools == sizes
        assert [c.name for c in report.checks] == (chosen or names)
        assert report.to_json()["config"]["workers"] == workers


def test_every_exported_name_resolves():
    # a name left in an __all__ after its definition went breaks
    # `from siegeltheta.<module> import *`
    modules = [siegeltheta] + [
        importlib.import_module(f"siegeltheta.{info.name}")
        for info in pkgutil.iter_modules(siegeltheta.__path__)
        if info.name != "__main__"  # running it is the command line
    ]
    assert len(modules) == 9
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], module.__name__


def test_workers_pool_matches_serial_for_all_genus3_checks(capsys, tmp_path):
    paths = {workers: tmp_path / f"w{workers}.json" for workers in ("1", "2")}
    for workers, path in paths.items():
        code, _, _ = run_main(
            capsys, "verify", "all", "--genus", "3", "--samples", "1", "--json", str(path),
            "--workers", workers,
        )
        assert code == 0
    serial, pooled = (json.loads(path.read_text()) for path in paths.values())
    assert serial["checks"] == pooled["checks"]
    assert len(serial["checks"]) == len(identities.checks_for_genus(3))
