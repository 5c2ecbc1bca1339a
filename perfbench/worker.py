"""One round of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py '<json spec>'

The spec names the workload, the run seed, the round index and whether
to trace, to run the mpmath gates, or only to set up.  The worker times
its own set-up (imports plus input generation) and the operations of the
round, checks the outputs, and prints one JSON object as its last line.  run.py starts
one worker per round, so every round pays the import and cache costs a
command-line call pays.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from siegeltheta import cli, exactpoly, theta  # noqa: E402
from siegeltheta.characteristics import enumerate_characteristics  # noqa: E402
from siegeltheta.identities import SamplePlan, checks_for_genus  # noqa: E402
from siegeltheta.siegel import SiegelPoint  # noqa: E402

EPS = theta.DEFAULT_EPS

#: campaign workloads and their genus; round k runs corpus plan k
CAMPAIGNS = {"verify-g2": 2, "verify-g3": 3}
#: sample points per campaign plan
PLAN_COUNT = 3
#: relative jitter the run seed applies to the sample region of a plan
JITTER = 0.02
#: eval points per genus at two controlled depths.  Im tau is a fixed
#: corpus (eigenvalues from the depth, eigenvectors from the point's
#: index) and |Im z| is fixed, which fixes every box radius and the
#: sizes of the terms; the seed draws Re tau and z
EVAL_POINTS = {1: (40, 4), 2: (30, 2), 3: (4, 1)}  # (shallow, deep)
EVAL_DEPTH = {False: (0.8, 0.15), True: (0.3, 0.1)}  # (lambda_min, |Im z|)
#: the eigenvalues of Im tau run evenly from lambda_min towards this
EVAL_EIG_TOP = 2.0


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def campaign_plan(seed: int, index: int) -> SamplePlan:
    """Plan `index` of the campaign corpus, its sample region jittered by
    the run seed.

    The plan seed, which also draws the transformation words, is the
    corpus index.  The run seed moves every sample point by rescaling the
    real range, the upper end of the imaginary diagonal and the imaginary
    off-diagonal range by up to JITTER.  The floor of the imaginary
    diagonal and the z box, which set the box radii, stay at their
    defaults, as the depth of the eval points does.  See README.md for why.
    """
    base = SamplePlan()
    u = np.random.default_rng([seed, index, 0x71]).uniform(-JITTER, JITTER, 3)
    return SamplePlan(
        seed=index,
        count=PLAN_COUNT,
        re_range=float(base.re_range * (1 + u[0])),
        diag_max=float(base.diag_max * (1 + u[1])),
        offdiag=float(base.offdiag * (1 + u[2])),
    )


class PlanConfig(cli.RunConfig):
    """A RunConfig whose plan is given rather than built from seed/samples."""

    def __init__(self, genus: int, plan: SamplePlan):
        super().__init__(genus=genus, seed=plan.seed, samples=plan.count, workers=1)
        self._plan = plan

    def plan(self) -> SamplePlan:
        return self._plan


def _eval_point(rng, genus: int, deep: bool, index: int):
    lam, im_norm = EVAL_DEPTH[deep]
    corpus = np.random.default_rng([genus, int(deep), index, 0x1A])
    q, _ = np.linalg.qr(corpus.normal(size=(genus, genus)))
    eig = lam + (EVAL_EIG_TOP - lam) * np.arange(genus) / genus
    y = q @ np.diag(eig) @ q.T
    x = rng.uniform(-1.0, 1.0, (genus, genus))
    tau = SiegelPoint(genus, (x + x.T) / 2 + 1j * (y + y.T) / 2)
    d = rng.normal(size=genus)
    z = rng.uniform(-0.25, 0.25, genus) + 1j * im_norm * d / np.linalg.norm(d)
    return tau, z


def eval_jets(seed: int) -> list:
    """(characteristic, z, tau, deep) for every characteristic at every
    eval point, genus by genus."""
    rng = np.random.default_rng([seed, 0xE7])
    jets = []
    for genus, counts in EVAL_POINTS.items():
        chars = enumerate_characteristics(genus, "all")
        for deep, count in zip((False, True), counts):
            for index in range(count):
                tau, z = _eval_point(rng, genus, deep, index)
                jets.extend((a, z, tau, deep) for a in chars)
    return jets


def formal_ops(seed: int) -> list:
    """(name, callable, expect_zero): the three certifications and one
    mutation control each, the constants and the phi slot drawn from the
    seed (never the true values)."""
    cross = 3 + seed % 4
    product = (60, 61, 62, 63, 65, 66, 67, 68)[seed % 8]
    quarter = Fraction(1, 3 + 2 * (seed % 3))
    slot = 1 + seed % 2
    return [
        ("chi", lambda: exactpoly.chi_combination(), True),
        (f"chi[cross_factor={cross}]", lambda: exactpoly.chi_combination(cross), False),
        (f"phi[slot={slot}]", lambda: exactpoly.phi_combination(slot=slot)[0], True),
        (
            f"phi[slot={slot},product_constant={product}]",
            lambda: exactpoly.phi_combination(product, slot)[0],
            False,
        ),
        ("gopel-sum", lambda: exactpoly.gopel_sum_defect(), True),
        (f"gopel-sum[quarter={quarter}]", lambda: exactpoly.gopel_sum_defect(quarter), False),
    ]


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

class Round:
    def __init__(self):
        self.ops_ms: list[float | None] = []  # in input order
        self.run_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # why operations failed
        self.problems: list[str] = []  # outputs that are wrong

    def attempt(self, label: str, op):
        """Time one operation; an exception counts it as failed, with a
        latency of None, and returns None, so one failure does not hide
        the others."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op()
        except Exception as exc:
            self.run_s += time.perf_counter() - t0
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            self.ops_ms.append(None)
            return None
        dt = time.perf_counter() - t0
        self.run_s += dt
        self.ops_ms.append(1e3 * dt)
        return result


def run_campaign(genus: int, plan: SamplePlan) -> Round:
    """One `verify all` campaign, the round's one operation.  A check that
    reports anything but "pass" fails the operation and is a wrong output,
    as it makes `siegeltheta verify` exit 1."""
    rnd = Round()
    report = rnd.attempt(f"plan {plan.seed}", lambda: cli.run_campaign(PlanConfig(genus, plan)))
    if report is None:
        return rnd
    names = checks_for_genus(genus)
    got = [c.name for c in report.checks]
    if got != names:
        rnd.problems.append(f"plan {plan.seed}: ran {got}, expected {names}")
    for c in report.checks:
        detail = f"plan {plan.seed}: {c.name} abs={c.max_abs_residual} rel={c.max_rel_residual}"
        if c.status != "pass":
            rnd.problems.append(f"{detail} status={c.status} tol={c.tolerance}")
        elif not (math.isfinite(c.max_abs_residual) and math.isfinite(c.max_rel_residual)):
            rnd.problems.append(f"{detail}: passed with a non-finite residual")
    if report.overall != "pass":
        rnd.failed += 1
    return rnd


def run_eval(jets) -> tuple[Round, list]:
    rnd = Round()
    results = []
    for a, z, tau, _ in jets:
        jet = rnd.attempt(f"jet {a.label()}", lambda: theta.theta_jet(a, z, tau, EPS))
        results.append(jet)
        if jet is None:
            continue
        parts = [jet.value, *jet.z_gradient, *jet.z_hessian.ravel()]
        if not all(math.isfinite(abs(v)) for v in parts) or not 0 <= jet.tail_bound <= EPS:
            rnd.problems.append(f"jet {a.label()}: non-finite output or tail bound {jet.tail_bound}")
    return rnd, results


def run_formal(ops) -> Round:
    """One operation: every certification and control in turn, as
    `siegeltheta formal all` runs them.  (Timed one by one, the slowest of
    a run's few phi expansions set op_p99_ms, and that maximum spread more
    between runs than the bound allows.)"""
    rnd = Round()
    polys = rnd.attempt("formal all with controls", lambda: [op() for _, op, _ in ops])
    for (name, _, expect_zero), poly in zip(ops, polys or []):
        if poly.is_zero() != expect_zero:
            verdict = "zero" if poly.is_zero() else f"non-zero ({poly.term_count} terms)"
            rnd.problems.append(f"{name}: expected {'zero' if expect_zero else 'non-zero'}, got {verdict}")
    return rnd


# ----------------------------------------------------------------------
# gates against independent mpmath sums
# ----------------------------------------------------------------------

def gate_thetanulls(tau: SiegelPoint) -> list[str]:
    """Every thetanull at one campaign point against direct summation,
    within the kernel's certified truncation bound plus rounding slack."""
    import oracle  # here, so that set-up time holds only the program's imports

    chars = enumerate_characteristics(tau.genus, "all")
    got = theta.theta_values(chars, None, tau, EPS)
    ref = oracle.thetanulls([(a.a_prime, a.a_double_prime) for a in chars], tau.tau)
    problems = []
    for a in chars:
        value, slack = ref[(a.a_prime, a.a_double_prime)]
        bound = theta.truncation_radius(tau, None, EPS, 0, a).bound + slack
        if not abs(got[a] - value) <= bound:
            problems.append(f"thetanull {a.label()}: |kernel - mpmath| = {abs(got[a] - value):.3g} > {bound:.3g}")
    return problems


def gate_jets(seed: int, jets, results) -> list[str]:
    """A seeded subset of eval jets against direct summation: one shallow
    jet per genus and one deep jet."""
    import oracle

    rng = np.random.default_rng([seed, 0x9A])
    picks = []
    for genus in (1, 2, 3):
        shallow = [i for i, (a, _, _, deep) in enumerate(jets) if a.genus == genus and not deep]
        picks.append(shallow[rng.integers(len(shallow))])
    deep = [i for i, (a, _, _, d) in enumerate(jets) if d and a.genus == 1 + seed % 3]
    picks.append(deep[rng.integers(len(deep))])
    problems = []
    for i in picks:
        a, z, tau, _ = jets[i]
        jet = results[i]
        if jet is None:
            continue  # already counted as failed
        value, grad, hess, slack = oracle.jet(a.a_prime, a.a_double_prime, z, tau.tau)
        errs = {
            "value": (abs(jet.value - value), jet.tail_bound + slack["value"]),
            "grad": (max(abs(jet.z_gradient[j] - grad[j]) for j in range(a.genus)), EPS + slack["grad"]),
            "hess": (
                max(abs(jet.z_hessian[j, l] - hess[j][l]) for j in range(a.genus) for l in range(a.genus)),
                EPS + slack["hess"],
            ),
        }
        for part, (err, bound) in errs.items():
            if not err <= bound:
                problems.append(f"jet {i} {a.label()} genus {a.genus}: {part} error {err:.3g} > {bound:.3g}")
    return problems


# ----------------------------------------------------------------------

def main(spec: dict) -> dict:
    workload, seed, index = spec["workload"], spec["seed"], spec["round"]
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
    if workload in CAMPAIGNS:
        genus = CAMPAIGNS[workload]
        plan = campaign_plan(seed, index)
    elif workload == "eval":
        jets = eval_jets(seed)
    elif workload == "formal":
        ops = formal_ops(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    setup_s = time.perf_counter() - _T0
    if spec["setup_only"]:
        return {"setup_s": setup_s}

    if tracer:
        tracer.install()
    if workload in CAMPAIGNS:
        rnd = run_campaign(genus, plan)
    elif workload == "eval":
        rnd, results = run_eval(jets)
    else:
        rnd = run_formal(ops)
    if tracer:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t0 = time.perf_counter()
    if spec["gate"]:
        if workload in CAMPAIGNS:
            rnd.problems += gate_thetanulls(plan.tau_points(genus)[0])
        elif workload == "eval":
            rnd.problems += gate_jets(seed, jets, results)
    out = {
        "setup_s": setup_s,
        "run_s": rnd.run_s,
        "ops_ms": rnd.ops_ms,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "problems": rnd.problems,
        "peak_rss_mib": peak_rss_mib,
        "gate_s": time.perf_counter() - t0,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics(list(cli.REGISTRY))
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
