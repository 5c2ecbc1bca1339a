"""Command-line surface: evaluation, verification campaigns, formal checks.

Subcommands:

  eval      evaluate one theta jet and print it as JSON
  verify    run identity checks (one by name, or `all`) over seeded samples
  formal    exact polynomial identities (chi | phi | gopel-sum | all)
  halphen   integrate the genus-1 system / run its residual checks
  fourier   exact q-expansion coefficients, optional series crosscheck
  gopel     list the Gopel systems
  report    re-render a JSON campaign report as a table

Machine output is always JSON; the human-readable table is derived from
it.  The table's tol column is each check's effective tolerance, which a
check with its own floor (heat_equation, phi_leading, transformation)
raises above --tol.  Exit status: 0 on success, 1 on verification
failure, 2 on usage errors.  A check the kernel refuses
(NearZeroThetanull, TruncationError) gets status "error" with its
effective tolerance, and the campaign goes on with the other checks.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, exactpoly, fourier, halphen, identities
from .characteristics import Characteristic, digit_decode, gopel_systems
from .identities import DEFAULT_TOL, REGISTRY, IdentityCheck, SamplePlan
from .identities import checks_for_genus, effective_tol, point_memo, run_check
from .siegel import SiegelPoint
from .theta import DEFAULT_EPS, NearZeroThetanull, TruncationError, theta_jet

__all__ = ["main", "RunConfig", "CampaignReport"]


@dataclass
class RunConfig:
    """Validated configuration of a verification campaign."""

    genus: int = 2
    seed: int = 0
    samples: int = 20
    eps: float = DEFAULT_EPS
    tol: float = DEFAULT_TOL
    identities: list[str] = field(default_factory=list)
    workers: int = 1

    def __post_init__(self):
        if not (1 <= self.genus <= 3):
            raise ValueError("genus must be 1, 2 or 3")
        if self.samples <= 0 or self.workers <= 0:
            raise ValueError("samples and workers must be positive")
        if not (0 < self.eps < math.inf and 0 < self.tol < math.inf):
            raise ValueError("eps and tol must be finite and positive")
        unknown = [n for n in self.identities if n not in REGISTRY]
        if unknown:
            raise KeyError(f"unknown identities: {', '.join(unknown)}")
        for name in self.identities:
            if self.genus not in REGISTRY[name].genera:
                raise ValueError(f"identity {name!r} does not apply at genus {self.genus}")

    def plan(self) -> SamplePlan:
        return SamplePlan(seed=self.seed, count=self.samples)

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class CampaignReport:
    """Outcome of running a set of identity checks."""

    config: RunConfig
    checks: list
    wall_times: dict

    @property
    def overall(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"

    def to_json(self) -> dict:
        return {
            "version": __version__,
            "config": self.config.to_json(),
            "checks": [c.to_json() for c in self.checks],
            "overall": self.overall,
            "timing": {
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "wall_times": self.wall_times,
            },
        }


def _pool_run(args):
    name, genus, plan, eps, tol = args
    t0 = time.perf_counter()
    try:
        check = run_check(name, genus, plan, eps, tol)
    except (NearZeroThetanull, TruncationError) as exc:
        check = IdentityCheck(name, genus, plan.count, plan.seed, effective_tol(name, tol),
                              status="error", witness=str(exc),
                              notes={"exception": type(exc).__name__})
    return name, check, time.perf_counter() - t0


def _open_point_memo():
    """Pool initializer: a worker lives as long as its campaign, so its
    checks share one memo for the worker's life."""
    identities._POINTS.set({})


def run_campaign(config: RunConfig) -> CampaignReport:
    """Run the configured checks, each as _pool_run does.  The checks of
    one campaign share their point records (identities.point_memo), which
    are dropped when it ends."""
    names = config.identities or checks_for_genus(config.genus)
    plan = config.plan()
    tasks = [(name, config.genus, plan, config.eps, config.tol) for name in names]
    checks, times = [], {}
    with contextlib.ExitStack() as stack:
        run = map
        if config.workers > 1:
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=config.workers, initializer=_open_point_memo
            )
            run = stack.enter_context(pool).map
        else:
            stack.enter_context(point_memo())
        for name, check, dt in run(_pool_run, tasks):
            checks.append(check)
            times[name] = dt
    return CampaignReport(config, checks, times)


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------

def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j").replace(" ", ""))

def _parse_char(text: str, genus: int | None = None) -> Characteristic:
    text = text.strip()
    if len(text) == 2 and text.isdigit():
        return digit_decode(text)
    return Characteristic.parse(text, genus)


def _parse_tau(text: str) -> SiegelPoint:
    obj = json.loads(text)
    try:
        if isinstance(obj, dict):
            return SiegelPoint.from_json(obj)
        mat = np.array([[complex(re, im) for re, im in row] for row in obj])
    except TypeError as exc:
        raise ValueError(f"tau must be a JSON point or a matrix of [re, im] pairs ({exc})") from exc
    return SiegelPoint(mat.shape[0], mat)


def _parse_z(text: str, genus: int) -> np.ndarray:
    obj = json.loads(text)
    try:
        z = np.array([complex(re, im) for re, im in obj])
    except TypeError as exc:
        raise ValueError(f"z must be a JSON list of [re, im] pairs ({exc})") from exc
    if z.shape != (genus,):
        raise ValueError(f"z must have {genus} entries")
    return z


def _render_table(report_json: dict) -> str:
    """The report as a text table; raises before returning anything on a
    malformed report, so a caller prints all of it or none."""
    rows = report_json["checks"]
    width = max((len(r["name"]) for r in rows), default=4)
    lines = [f"{'check':<{width}}  genus  {'max rel':>10}  {'tol':>8}  {'max abs':>10}  status"]
    for r in rows:
        lines.append(
            f"{r['name']:<{width}}  {r['genus']:^5}  {r['max_rel_residual']:>10.2e}  "
            f"{r['tolerance']:>8.2g}  {r['max_abs_residual']:>10.2e}  {r['status']}"
        )
    lines.append(f"overall: {report_json['overall']}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# subcommand drivers
# ----------------------------------------------------------------------

def _emit(payload, args) -> None:
    text = json.dumps(payload)
    if getattr(args, "json", None):
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_eval(args) -> int:
    tau = _parse_tau(args.tau)
    a = _parse_char(args.char, tau.genus)
    z = _parse_z(args.z, tau.genus) if args.z else None
    jet = theta_jet(a, z, tau, args.eps)
    _emit(jet.to_json(), args)
    return 0


def _cmd_verify(args) -> int:
    identities = [] if args.identity == "all" else [args.identity]
    try:
        config = RunConfig(
            genus=args.genus,
            seed=args.seed,
            samples=args.samples,
            eps=args.eps,
            tol=args.tol,
            identities=identities,
            workers=args.workers,
        )
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_campaign(config)
    payload = report.to_json()
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
    print(_render_table(payload))
    return 0 if report.overall == "pass" else 1


def _cmd_formal(args) -> int:
    ok = True
    results = {}
    if args.which in ("chi", "all"):
        poly = exactpoly.chi_combination()
        results["chi"] = {"zero": poly.is_zero(), "terms": poly.term_count}
    if args.which in ("phi", "all"):
        poly, stats = exactpoly.phi_combination()
        results["phi"] = {"zero": poly.is_zero(), **stats}
    if args.which in ("gopel-sum", "all"):
        defect = exactpoly.gopel_sum_defect()
        results["gopel-sum"] = {"zero": defect.is_zero(), "terms": defect.term_count}
    for name, rec in results.items():
        ok = ok and rec["zero"]
        detail = ", ".join(f"{k}={v}" for k, v in rec.items() if k != "zero")
        print(f"{name}: {'zero polynomial' if rec['zero'] else 'NON-ZERO'} ({detail})")
    _emit(results, args)
    return 0 if ok else 1


def _cmd_halphen(args) -> int:
    if args.action == "integrate":
        start = _parse_complex(args.start)
        end = _parse_complex(args.end)
        state = halphen.integrate(start, end, args.steps)
        ref = halphen.state_from_theta(end)
        err = max(
            abs(state.psi10 - ref.psi10),
            abs(state.psi00 - ref.psi00),
            abs(state.psi01 - ref.psi01),
        )
        out = {
            "tau": [state.tau.real, state.tau.imag],
            "psi10": [state.psi10.real, state.psi10.imag],
            "psi00": [state.psi00.real, state.psi00.imag],
            "psi01": [state.psi01.real, state.psi01.imag],
            "endpoint_error_vs_theta": err,
        }
        _emit(out, args)
        return 0
    # residual checks over seeded genus-1 samples
    plan = SamplePlan(seed=args.seed, count=args.samples)
    worst = 0.0
    for tau in plan.tau_points(1):
        t0 = complex(tau.tau[0, 0])
        worst = max(worst, halphen.theta4_differences(t0)["max_rel_residual"])
        worst = max(worst, halphen.legendre_lambda_checks(t0)["max_rel_residual"])
    _emit({"samples": args.samples, "max_rel_residual": worst}, args)
    return 0 if worst < 1e-9 else 1


def _cmd_fourier(args) -> int:
    a = _parse_char(args.char)
    qe = fourier.thetanull_qexp(a, args.order)
    out = {
        "characteristic": a.label(),
        "genus": a.genus,
        "order": args.order,
        "coefficients": qe.to_json(),
    }
    if args.tau:
        tau = _parse_tau(args.tau)
        out["crosscheck"] = {
            k: (v if not isinstance(v, complex) else [v.real, v.imag])
            for k, v in fourier.crosscheck(a, tau, args.order).items()
        }
    _emit(out, args)
    return 0


def _cmd_gopel(args) -> int:
    systems = gopel_systems(args.genus)
    for system in systems:
        print(" ".join(system.labels()))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump([list(s.labels()) for s in systems], fh)
    return 0


def _cmd_report(args) -> int:
    with open(args.path) as fh:
        payload = json.load(fh)
    try:
        table = _render_table(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{args.path} is not a campaign report ({exc})") from exc
    print(table)
    return 0 if payload["overall"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegeltheta",
        description="theta constants with 2-characteristics: evaluation and verification",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a theta jet")
    p.add_argument("--char", required=True, help="characteristic, e.g. '(1,0;0,1)' or genus-2 '20'")
    p.add_argument("--tau", required=True, help="JSON point or matrix of [re,im] pairs")
    p.add_argument("--z", help="JSON list of [re,im] pairs")
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--json", help="also write the JSON payload here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("verify", help="run identity checks")
    p.add_argument("identity", help="registry name or 'all'")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--json", help="write the JSON report here")
    p.add_argument(
        "--workers",
        type=int,
        # a string default goes through type=int, so a malformed value is a usage error
        default=os.environ.get("SIEGELTHETA_WORKERS", "1"),
        help="process pool size (default from SIEGELTHETA_WORKERS)",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("formal", help="exact polynomial identities")
    p.add_argument("which", choices=["chi", "phi", "gopel-sum", "all"])
    p.add_argument("--json", help="also write the JSON payload here")
    p.set_defaults(func=_cmd_formal)

    p = sub.add_parser("halphen", help="genus-1 system")
    hs = p.add_subparsers(dest="action", required=True)
    pi = hs.add_parser("integrate")
    pi.add_argument("--from", dest="start", required=True, help="e.g. 0+1i")
    pi.add_argument("--to", dest="end", required=True)
    pi.add_argument("--steps", type=int, default=10000)
    pi.add_argument("--json", help="also write the JSON payload here")
    pi.set_defaults(func=_cmd_halphen)
    pc = hs.add_parser("check")
    pc.add_argument("--samples", type=int, default=20)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--json", help="also write the JSON payload here")
    pc.set_defaults(func=_cmd_halphen)

    p = sub.add_parser("fourier", help="exact q-expansion coefficients")
    p.add_argument("--char", required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--tau", help="optional point for a series crosscheck")
    p.add_argument("--json", help="also write the JSON payload here")
    p.set_defaults(func=_cmd_fourier)

    p = sub.add_parser("gopel", help="list Gopel systems")
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--json", help="also write the JSON payload here")
    p.set_defaults(func=_cmd_gopel)

    p = sub.add_parser("report", help="render a JSON report")
    p.add_argument("path")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
