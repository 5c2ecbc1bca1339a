"""Spans and counts around the public entry points of each layer.

The tracer replaces module attributes with timing wrappers from outside
the package; no program source is changed.  Every wrapped call records a
span (name, start, end, parent) in memory, and the layer metrics are
computed from the spans after the timed section.

Layers and their wrapped entry points:

  identities  cli.run_check (one span per registry check)
  theta       theta.theta_jet / theta_values / batch_moments, as bound in
              the theta and identities modules (theta_moments and the
              halphen module reach batch_moments through theta)
  siegel      act, cocycle_factor, random_gamma_48 as bound in identities
  halphen     genus1_data as bound in identities
  exactpoly   chi_combination, phi_combination, gopel_sum_defect, and a
              count of RationalPoly products with their largest term count
"""

from __future__ import annotations

import functools
import inspect
import time

#: kernel entry points wrapped in the theta and identities modules
THETA_ENTRIES = ("theta_jet", "theta_values", "batch_moments")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.kernel_calls: list[tuple] = []  # (entry, bound arguments, result)
        self.mul_calls = 0
        self.high_water_terms = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, owner, attr: str, span_name, keep_call: bool = False):
        original = getattr(owner, attr)
        sig = inspect.signature(original) if keep_call else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = span_name(args) if callable(span_name) else span_name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append([name, time.perf_counter(), None, parent])
            tracer._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.spans[index][2] = time.perf_counter()
                tracer._stack.pop()
            if keep_call:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tracer.kernel_calls.append((attr, dict(bound.arguments), result))
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _count_products(self, cls):
        tracer = self
        for attr in ("__mul__", "__rmul__"):
            original = getattr(cls, attr)

            def wrapper(self_, other, _original=original):
                result = _original(self_, other)
                tracer.mul_calls += 1
                tracer.high_water_terms = max(tracer.high_water_terms, result.term_count)
                return result

            self._saved.append((cls, attr, original))
            setattr(cls, attr, wrapper)

    def install(self):
        from siegeltheta import cli, exactpoly, identities, theta

        self._wrap(cli, "run_check", lambda args: f"identities.{args[0]}")
        for owner in (theta, identities):
            for entry in THETA_ENTRIES:
                if hasattr(owner, entry):
                    self._wrap(owner, entry, f"theta.{entry}", keep_call=True)
        for entry in ("act", "cocycle_factor", "random_gamma_48"):
            self._wrap(identities, entry, f"siegel.{entry}")
        self._wrap(identities, "genus1_data", "halphen.genus1_data")
        for entry in ("chi_combination", "phi_combination", "gopel_sum_defect"):
            self._wrap(exactpoly, entry, f"exactpoly.{entry}")
        self._count_products(exactpoly.RationalPoly)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- metrics -----------------------------------------------------------

    def _total(self, prefix: str) -> float:
        """Summed duration of the spans named prefix or prefix.*"""
        return sum(
            e - s
            for name, s, e, _ in self.spans
            if name == prefix or name.startswith(prefix + ".")
        )

    def box_points(self) -> int:
        """Lattice points the box kernel enumerates, summed over every
        coset pass of every kernel call.  Computed from the radii: the
        Moments.radius a batch returns, or the public truncation_radius
        for calls that do not return one."""
        from siegeltheta.theta import truncation_radius

        total = 0
        for entry, args, result in self.kernel_calls:
            tau, eps = args["tau"], args["eps"]
            if entry == "batch_moments":
                cosets = {a.a_prime: mom.radius for a, mom in result.items()}
            elif entry == "theta_values":
                cosets = {}
                for a in args["chars"]:
                    if a.a_prime not in cosets:
                        cosets[a.a_prime] = truncation_radius(tau, args["z"], eps, 0, a).radius
            else:
                a = args["a"]
                two_pi = 6.283185307179586
                cosets = {
                    a.a_prime: max(
                        truncation_radius(tau, args["z"], eps / two_pi**w, w, a).radius
                        for w in (0, 1, 2)
                    )
                }
            for a_prime, nrad in cosets.items():
                points = 1
                for aj in a_prime:
                    points *= 2 * nrad + 1 if aj % 2 == 0 else 2 * nrad
                total += points
        return total

    def layer_metrics(self, check_names) -> dict:
        theta_busy = self._total("theta")
        box = self.box_points()
        out = {
            "theta.busy_s": theta_busy,
            "theta.calls": sum(1 for s in self.spans if s[0].startswith("theta.")),
            "theta.batch_moments_s": self._total("theta.batch_moments"),
            "theta.theta_values_s": self._total("theta.theta_values"),
            "theta.theta_jet_s": self._total("theta.theta_jet"),
            "theta.box_points": box,
            "theta.ns_per_box_point": 1e9 * theta_busy / box if box else 0.0,
            "siegel.busy_s": self._total("siegel"),
            "halphen.busy_s": self._total("halphen"),
            "exactpoly.chi_s": self._total("exactpoly.chi_combination"),
            "exactpoly.phi_s": self._total("exactpoly.phi_combination"),
            "exactpoly.gopel_sum_s": self._total("exactpoly.gopel_sum_defect"),
            "exactpoly.mul_calls": self.mul_calls,
            "exactpoly.high_water_terms": self.high_water_terms,
        }
        # self time of the identity layer: each check span minus the
        # kernel, siegel and halphen spans directly inside it
        child_time = [0.0] * len(self.spans)
        for name, s, e, parent in self.spans:
            if parent >= 0:
                child_time[parent] += e - s
        out["identities.self_s"] = sum(
            (e - s) - child_time[i]
            for i, (name, s, e, _) in enumerate(self.spans)
            if name.startswith("identities.")
        )
        for check in check_names:
            out[f"identities.{check}_s"] = self._total(f"identities.{check}")
        return out
