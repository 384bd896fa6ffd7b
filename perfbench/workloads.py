"""Workload definitions and output gates for the chverify benchmark.

A workload is a list of calls; each call is one `cli.RunConfig`, as one
`chverify <family> --mu <mu>` invocation would build it, for every domain,
family and mu in {0.5, 1, 2}.  Families that ignore mu run once per domain.
One call per mu keeps the work of a call fixed: a family that raises at one mu
does not skip the later ones, which would make the pass length depend on the
seed.  The benchmark passes the configs to `cli.run` and serializes with
`cli.report_json`, one call at a time.
"""

from __future__ import annotations

import hashlib
import json
import math

MUS = (0.5, 1.0, 2.0)
MU_FREE = ("selberg", "duality")

# polydisc n = 1, 2, 3 and type-I (1,2), (2,2), (2,3): the ROADMAP acceptance grid
GRID = (
    ("polydisc", {"n": 1}),
    ("polydisc", {"n": 2}),
    ("polydisc", {"n": 3}),
    ("type-I", {"p": 1, "q": 2}),
    ("type-I", {"p": 2, "q": 2}),
    ("type-I", {"p": 2, "q": 3}),
)
RANK3 = ("type-I", {"p": 3, "q": 3})

# eps of capacity.capacity_certificate, whose intervals the gate checks
CAPACITY_EPS = 1e-3

# sizes not given are the chverify defaults, which those families do not use
WORKLOADS = {
    # batched finite-difference stencils in forms feeding jtsys det/SVD
    "pullback": {"families": ("darboux", "dual-darboux", "psh"),
                 "domains": GRID + (RANK3,), "points": 500},
    # the same kernels at batch size 1: per-point loops and Newton inverses
    "pointwise": {"families": ("det-formula", "equivariance"),
                  "domains": GRID + (RANK3,), "points": 1000},
    # chunked Monte Carlo and Gamma/quadrature code in measures
    "montecarlo": {"families": ("volume", "selberg", "duality"),
                   "domains": GRID + (RANK3,), "samples": 200_000},
    # capacity certificates; type-I(3,3) is left out, see BENCHMARK.json
    "capacity": {"families": ("capacity",), "domains": GRID, "samples": 10_000},
}


def domain_label(kind: str, dims: dict) -> str:
    if kind == "polydisc":
        return f"polydisc-{dims['n']}"
    return f"type-I({dims['p']},{dims['q']})"


def make_calls(cli, workload: str, seed: int) -> list[tuple[str, object]]:
    """The workload's (label, RunConfig) calls, in run order."""
    spec = WORKLOADS[workload]
    calls = []
    for kind, dims in spec["domains"]:
        for family in spec["families"]:
            for mu in (1.0,) if family in MU_FREE else MUS:
                cfg = cli.RunConfig(kind=kind, n=dims.get("n"), p=dims.get("p"),
                                    q=dims.get("q"), mu=(mu,), checks=(family,),
                                    points=spec.get("points", 100),
                                    samples=spec.get("samples", 200_000),
                                    seed=seed, fd_step=1e-5, tol=1e-5, jobs=1)
                label = f"{family}@{domain_label(kind, dims)}"
                calls.append((label if family in MU_FREE else f"{label} mu={mu:g}", cfg))
    return calls


def report_digest(text: str) -> str:
    """sha256 of a JSON report with every wall_time_s field removed."""

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "wall_time_s"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    canon = json.dumps(strip(json.loads(text)), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()


def error_digest(exc: BaseException) -> str:
    return hashlib.sha256(f"{type(exc).__name__}: {exc}".encode()).hexdigest()


def capacity_interval(side: str, mu: float) -> tuple[float, float]:
    """Closed-form certified interval: flat [pi(1-eps)^2, pi]; dual
    [pi(min(1, sqrt mu) - eps)^2, pi min(1, mu)]."""
    if side == "flat-hartogs":
        return math.pi * (1.0 - CAPACITY_EPS) ** 2, math.pi
    r = min(1.0, math.sqrt(mu))
    return math.pi * (r - CAPACITY_EPS) ** 2, math.pi * min(1.0, mu)


def report_problems(report: dict, cfg) -> list[str]:
    """Ways in which a report is malformed or a capacity interval is wrong."""
    problems = []
    checks = report.get("checks", [])
    summary = report.get("summary", {})
    failed = sum(1 for c in checks if c.get("status") != "pass")
    if summary.get("total") != len(checks) or summary.get("failed") != failed:
        problems.append("summary counts disagree with the check entries")
    if any(c.get("status") not in ("pass", "fail") for c in checks):
        problems.append("a check has a status other than pass or fail")
    if report.get("config", {}).get("checks") != list(cfg.checks):
        problems.append("config echo does not match the RunConfig")
    for c in checks:
        if c.get("name") != "capacity":
            continue
        params = c["parameters"]
        want = capacity_interval(params["side"], params["mu"])
        got = params["interval"]
        if not all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want)):
            problems.append(f"capacity {params['side']} mu={params['mu']:g}: "
                            f"interval {got} != closed form {list(want)}")
    return problems


def residual_ratios(report: dict) -> list[float]:
    """worst_residual / tolerance of the deterministic residual checks
    (tolerance > 0; the Monte Carlo z-scores of `volume` are left out)."""
    return [c["worst_residual"] / c["tolerance"] for c in report["checks"]
            if c["tolerance"] > 0 and c["name"] != "volume"
            and math.isfinite(c["worst_residual"])]


def volume_rses(report: dict) -> list[float]:
    """Relative standard errors recovered from the volume entries: the
    z-score is |estimate - reference| / se, so se = |estimate - reference| / z."""
    out = []
    for c in report["checks"]:
        if c["name"] != "volume" or not c["worst_residual"] > 0:
            continue
        p = c["parameters"]
        est, ref = (p["estimate"], p["exact"]) if "estimate" in p else (p["ratio"], p["formula"])
        out.append(abs(est - ref) / c["worst_residual"] / abs(est))
    return out
