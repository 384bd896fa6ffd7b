"""Span tracing of the cartanhartogs layers, installed from outside the package.

Every public function of a layer module is replaced by a timing wrapper at
each place that binds it: the defining module, every package module that
imported it by name (``from .jtsys import norm_self``), the package namespace,
and the `verify.CHECKS` table.  Spans (name, start, end, parent) stay in memory
until the run writes them out; counters are taken at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

PACKAGE = "cartanhartogs"
LAYERS = ("jtsys", "hartogs", "forms", "measures", "capacity", "verify", "cli")

_SVD = {"jtsys.singular_values", "jtsys.membership", "jtsys.b_quarter_power_on_z"}
_DET = {"jtsys.norm_self", "jtsys.generic_norm"}
_INVERSES = {"hartogs.psi_inverse", "hartogs.phi_inverse"}
_QUADRATURE = {"measures.selberg_quadrature", "measures.selberg_quadrature_symmetrized",
               "measures.selberg_quadrature_auto"}
_MC = {"measures.mc_volume_flat", "measures.mc_volume_dual"}


def _rows(arr) -> int:
    shape = np.shape(arr)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def layer_functions() -> dict:
    """original function -> 'layer.name' for every public layer function."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[obj] = f"{layer}.{name}"
    return out


class Tracer:
    """Wraps the layer functions and records spans and counters."""

    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1)
        self._open: list = []      # indices of open spans
        self._names: list = []     # names of open spans
        self.counts = Counter()
        self.mc = []               # (span index of the enclosing check, kind, rse)
        self.raised = set()        # indices of spans that ended in an exception
        self._wrapped = {}         # original -> wrapper
        self._sites = []           # (namespace, key, original)

    # -- installation -------------------------------------------------------

    def _namespaces(self):
        for modname, mod in list(sys.modules.items()):
            if modname == PACKAGE or modname.startswith(PACKAGE + "."):
                yield vars(mod)
        yield sys.modules[f"{PACKAGE}.verify"].CHECKS

    def install(self) -> None:
        self._wrapped = {fn: self._wrap(fn, label) for fn, label in layer_functions().items()}
        for ns in self._namespaces():
            for key, val in list(ns.items()):
                if inspect.isfunction(val) and val in self._wrapped:
                    self._sites.append((ns, key, val))
                    ns[key] = self._wrapped[val]
        self.self_check()

    def uninstall(self) -> None:
        for ns, key, original in self._sites:
            ns[key] = original
        self._sites.clear()

    def self_check(self) -> None:
        """Raise if any binding of a layer function escaped its wrapper."""
        missed = [f"{key} (in {ns.get('__name__', 'verify.CHECKS')})"
                  for ns in self._namespaces() for key, val in ns.items()
                  if inspect.isfunction(val) and val in self._wrapped]
        if missed:
            raise RuntimeError(f"unwrapped layer functions: {missed}")
        if not self._sites:
            raise RuntimeError("no layer function was wrapped")

    def _wrap(self, fn, label):
        spans, open_, names = self.spans, self._open, self._names
        hook = _HOOKS.get(label)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(idx)
            names.append(label)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised.add(idx)
                raise
            finally:
                end = clock()
                open_.pop()
                names.pop()
                spans[idx] = (label, start, end, parent)
            if hook is not None:
                hook(self, args, kwargs, result, end - start)
            return result

        return functools.update_wrapper(wrapper, fn)

    def under(self, labels) -> bool:
        """True when an open span (an ancestor of the current call) has one of the labels."""
        return any(n in labels for n in self._names)

    def parent(self):
        """Name of the innermost open span, or None."""
        return self._names[-1] if self._names else None

    def enclosing(self, label):
        for idx, name in zip(reversed(self._open), reversed(self._names)):
            if name == label:
                return idx
        return None


# -- counters taken at layer boundaries ---------------------------------------


def _count_jtsys(kind):
    def hook(tr: Tracer, args, kwargs, result, seconds):
        group = _SVD if kind == "svd" else _DET
        if not tr.under(group):
            tr.counts[f"jtsys.{kind}_rows"] += _rows(_arg(args, kwargs, 1, "z"))
    return hook


def _count_membership(tr: Tracer, args, kwargs, result, seconds):
    _count_jtsys("svd")(tr, args, kwargs, result, seconds)
    if tr.parent() == "hartogs.sample_member_points_full":
        tr.counts["hartogs.sampler_tested_rows"] += int(np.size(result))


def _count_hessian(tr: Tracer, args, kwargs, result, seconds):
    pts = np.asarray(_arg(args, kwargs, 1, "pts"))
    batch = _rows(pts) if pts.ndim > 1 else 1
    k = 2 * pts.shape[-1]
    per_point = 1 + 2 * k + 2 * k * (k - 1)
    tr.counts["forms.hessian_field_rows"] += batch * per_point
    tr.counts["forms.stencil_bytes_max"] = max(tr.counts["forms.stencil_bytes_max"],
                                               batch * per_point * k * 8)


def _count_jacobian(tr: Tracer, args, kwargs, result, seconds):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    batch, k = x.shape
    tr.counts["forms.jacobian_map_rows"] += 2 * batch * k
    tr.counts["forms.stencil_bytes_max"] = max(tr.counts["forms.stencil_bytes_max"],
                                               2 * batch * k * k * 8)


def _count_map(tr: Tracer, args, kwargs, result, seconds):
    tr.counts["hartogs.map_rows"] += _rows(_arg(args, kwargs, 1, "pts"))
    if tr.under(_INVERSES):
        tr.counts["hartogs.newton_map_calls"] += 1


def _count_inverse(tr: Tracer, args, kwargs, result, seconds):
    tr.counts["hartogs.inverses"] += 1


def _count_sampler(tr: Tracer, args, kwargs, result, seconds):
    tr.counts["hartogs.sampler_returned_rows"] += int(np.shape(result)[0])


def _count_mc(kind):
    def hook(tr: Tracer, args, kwargs, result, seconds):
        tr.counts["measures.mc_samples"] += int(result.samples)
        rse = result.standard_error / result.value if result.value > 0 else float("inf")
        if kind == "flat":
            n = result.samples
            # hit-or-miss estimate: rse^2 = (1 - p) / (p n)
            tr.counts["measures.flat_hits"] += (0.0 if result.value <= 0
                                                else n / (1.0 + n * rse * rse))
            tr.counts["measures.flat_draws"] += n
        tr.mc.append((tr.enclosing("verify.check_volume"), kind, rse))
    return hook


def _count_target(tr: Tracer, args, kwargs, result, seconds):
    tr.counts["capacity.target_solves"] += 1


def _count_certificate(tr: Tracer, args, kwargs, result, seconds):
    side = "flat" if _arg(args, kwargs, 1, "side") == "flat-hartogs" else "dual"
    tr.counts[f"capacity.{side}_cert_s"] += seconds


_HOOKS = {
    "jtsys.singular_values": _count_jtsys("svd"),
    "jtsys.b_quarter_power_on_z": _count_jtsys("svd"),
    "jtsys.membership": _count_membership,
    "jtsys.norm_self": _count_jtsys("det"),
    "jtsys.generic_norm": _count_jtsys("det"),
    "forms.complex_hessian_batch": _count_hessian,
    "forms.jacobian_batch": _count_jacobian,
    "hartogs.psi_map_vec": _count_map,
    "hartogs.phi_map_vec": _count_map,
    "hartogs.psi_inverse": _count_inverse,
    "hartogs.phi_inverse": _count_inverse,
    "hartogs.sample_member_points_full": _count_sampler,
    "measures.mc_volume_flat": _count_mc("flat"),
    "measures.mc_volume_dual": _count_mc("dual"),
    "capacity.solve_target_system": _count_target,
    "capacity.capacity_certificate": _count_certificate,
}


# -- reduction ----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, families, pass_wall_s: float) -> dict:
    """Per-layer numbers for one traced pass (values only; units in run.py)."""
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for (name, _, _, _), s in zip(spans, own):
        out[name.split(".", 1)[0] + ".self_s"] += s
    mc_time = sum(end - start for name, start, end, _ in spans if name in _MC)
    # outermost quadrature spans only, so the auto-refining driver counts once
    quadrature = sum(end - start for name, start, end, parent in spans
                     if name in _QUADRATURE
                     and (parent < 0 or spans[parent][0] not in _QUADRATURE))
    # calls that enter jtsys from another layer
    entries = sum(1 for name, _, _, parent in spans if name.startswith("jtsys.")
                  and (parent < 0 or not spans[parent][0].startswith("jtsys.")))

    out.update({
        "forms.hessian_field_rows": counts["forms.hessian_field_rows"],
        "forms.jacobian_map_rows": counts["forms.jacobian_map_rows"],
        "forms.stencil_mb_computed": counts["forms.stencil_bytes_max"] / 1e6,
        "jtsys.svd_rows": counts["jtsys.svd_rows"],
        "jtsys.det_rows": counts["jtsys.det_rows"],
        "jtsys.calls": entries,
        "hartogs.sampler_accept_ratio": _ratio(counts["hartogs.sampler_returned_rows"],
                                               counts["hartogs.sampler_tested_rows"]),
        "hartogs.map_rows": counts["hartogs.map_rows"],
        "hartogs.newton_map_calls_per_inverse": _ratio(counts["hartogs.newton_map_calls"],
                                                       counts["hartogs.inverses"]),
        "measures.mc_samples_per_s": _ratio(counts["measures.mc_samples"], mc_time),
        "measures.quadrature_s": quadrature,
        "measures.flat_hit_ratio": _ratio(counts["measures.flat_hits"],
                                          counts["measures.flat_draws"]),
        "measures.rse_max": rse_max([m for m in tracer.mc if m[0] not in tracer.raised]),
        "capacity.flat_cert_s": counts["capacity.flat_cert_s"],
        "capacity.dual_cert_s": counts["capacity.dual_cert_s"],
        "capacity.target_solves": counts["capacity.target_solves"],
    })
    for family in families:
        out[f"verify.{family}_s"] = 0.0
    check_names = {f"verify.check_{f.replace('-', '_')}": f for f in families}
    for name, start, end, parent in spans:
        if name in check_names:
            out[f"verify.{check_names[name]}_s"] += end - start
    covered = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["trace.unattributed_s"] = pass_wall_s - covered
    out["trace.spans"] = len(spans)
    return out


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def rse_max(mc) -> float:
    """Worst finite relative standard error of a flat estimate or of the
    dual/flat ratio, pairing each dual estimate with the flat one before it
    inside the same volume check.  Callers leave out the estimates of a check
    that raised, since it reports none of them."""
    worst = 0.0
    last_flat = {}
    for check, kind, rse in mc:
        if kind == "flat":
            last_flat[check] = rse
            cand = rse
        else:
            flat = last_flat.get(check, float("inf"))
            cand = float(np.hypot(rse, flat))
        if np.isfinite(cand):
            worst = max(worst, cand)
    return worst
