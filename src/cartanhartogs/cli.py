"""Configuration-driven verification runs with reproducible reports.

`chverify <check> [flags]` runs one family of checks (or `all`).  The run's
settings merge four layers, each over the one before: the field defaults of
`RunConfig`, then the CHVERIFY_SEED environment variable, then a JSON config
file (--config), then the flags given on the command line.
Reports are deterministic given the seed, except for wall-time fields.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields

import click

from . import jtsys, verify

ARTIFACT_VERSION = "0.1.0"
SEED_ENVVAR = "CHVERIFY_SEED"
_MAX_POINTS = 10**9  # the sampled families stream, so more points would run for days


@dataclass(frozen=True)
class RunConfig:
    """One run; the field defaults are the defaults of every flag and config key."""

    kind: str | None = None
    n: int | None = None
    p: int | None = None
    q: int | None = None
    mu: tuple[float, ...] = (1.0,)
    checks: tuple[str, ...] = ()
    points: int = 100
    # Accepted and validated; no check reads it.  Every capacity check takes a
    # fixed draw; the flat cylinder check cannot fail and stays only because
    # the benchmark's traced crosscheck counts its sampler's rows.  The
    # benchmark's workloads still pass samples=.
    samples: int = 200_000
    seed: int = 0
    fd_step: float = 1e-5  # accepted and validated; no check reads it
    tol: float = 1e-5
    jobs: int = 1
    fmt: str = "json"
    output: str | None = None

    @property
    def domain_spec(self) -> jtsys.DomainSpec:
        return jtsys.make_domain(self.kind, n=self.n, p=self.p, q=self.q)


def _validate(cfg: RunConfig) -> RunConfig:
    if not cfg.mu:
        raise click.UsageError("mu list must be nonempty")
    # nan fails both "> 0" and isfinite
    if not all(m > 0 and math.isfinite(m) for m in cfg.mu):
        raise click.UsageError("every mu must be positive and finite")
    for field in ("points", "samples", "fd_step", "tol", "jobs"):
        # exact for an int, where math.isfinite overflows past the float range
        if not 0 < getattr(cfg, field) <= sys.float_info.max:
            raise click.UsageError(f"{field} must be positive and finite")
    if cfg.points > _MAX_POINTS:
        raise click.UsageError(f"points must be at most {_MAX_POINTS:,}")
    if cfg.seed < 0:
        raise click.UsageError("seed must be nonnegative")
    if cfg.output is not None:
        # Fail before the checks run, not after minutes of sampling.
        existed = os.path.exists(cfg.output)
        try:
            with open(cfg.output, "a"):
                pass
        except OSError as exc:
            raise click.UsageError(f"cannot write report to {cfg.output}: {exc}")
        if not existed:
            os.remove(cfg.output)
    try:
        domain = cfg.domain_spec
    except ValueError as exc:  # unknown kind, missing or out-of-range dimensions
        raise click.UsageError(str(exc))
    # the volume formulas take mu^n, which leaves the float range near 1e308
    # and, below 1e-300, loses its digits (subnormal) and then underflows to 0
    powers = [domain.n * math.log10(m) for m in cfg.mu] if "volume" in cfg.checks else []
    if any(e > 300 for e in powers):
        raise click.UsageError(f"volume supports mu^n <= 1e300; this domain has n = {domain.n}")
    if any(e < -300 for e in powers):
        raise click.UsageError(f"volume supports mu^n >= 1e-300; this domain has n = {domain.n}")
    return cfg


def config_echo(cfg: RunConfig) -> dict:
    # field by field: every value is a str, number, None or a tuple of them,
    # so dataclasses.asdict's recursive deep copy has nothing to copy
    echo = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    echo["mu"] = list(cfg.mu)
    echo["checks"] = list(cfg.checks)
    return echo


def run(cfg: RunConfig) -> dict:
    """Execute the selected checks and assemble the report dictionary."""
    started = time.perf_counter()
    if cfg.jobs > 1 and len(cfg.checks) > 1:
        # imported here, as csv in report_csv, so that a run without them
        # does not pay for their import
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.jobs) as pool:
            batches = list(pool.map(lambda name: verify.CHECKS[name](cfg), cfg.checks))
    else:
        batches = [verify.CHECKS[name](cfg) for name in cfg.checks]
    checks = [item for batch in batches for item in batch]
    failed = sum(1 for c in checks if c["status"] != "pass")
    return {
        "config": config_echo(cfg),
        "checks": checks,
        "summary": {
            "artifact_version": ARTIFACT_VERSION,
            "seed": cfg.seed,
            "total": len(checks),
            "passed": len(checks) - failed,
            "failed": failed,
            "overall": "pass" if failed == 0 else "fail",
            "wall_time_s": round(time.perf_counter() - started, 3),
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_csv(report: dict) -> str:
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "status", "worst_residual", "tolerance",
                     "wall_time_s", "parameters"])
    for c in report["checks"]:
        writer.writerow([c["name"], c["status"], repr(c["worst_residual"]),
                         repr(c["tolerance"]), c["wall_time_s"],
                         json.dumps(c["parameters"], sort_keys=True)])
    return buf.getvalue()


# config file keys spelled apart from their RunConfig fields; a `-` in any key reads as `_`
_FILE_ALIASES = {"domain": "kind", "format": "fmt"}


def _read_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON, or an int past 4300 digits
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise click.UsageError("config file must hold a JSON object")
    out = {}
    for key, val in raw.items():
        key = key.replace("-", "_")
        out[_FILE_ALIASES.get(key, key)] = val
    return out


def _typed(key: str, val, types: tuple, what: str):
    """val when it is an instance of types, where a JSON true or false is no
    number; TypeError naming what was expected otherwise."""
    if isinstance(val, types) and not isinstance(val, bool):
        return val
    raise TypeError(f"{key} must be {what}, not {val!r}")


def _merge_config(check_name: str, ctx: click.Context, flags: dict) -> RunConfig:
    """RunConfig from four layers, each over the one before: the field
    defaults, then $CHVERIFY_SEED, then the --config file, then the flags
    given on the command line."""
    from click.core import ParameterSource

    merged = {f.name: f.default for f in fields(RunConfig)}
    file_vals = _read_config_file(flags["config_path"]) if flags["config_path"] else {}
    for key in file_vals:  # any field or flag; a file's config_path goes unread
        if key not in merged and key not in flags:
            raise click.UsageError(f"unknown config key {key!r}")

    def given(source: ParameterSource) -> dict:
        return {key: val for key, val in flags.items() if ctx.get_parameter_source(key) == source}

    for layer in (given(ParameterSource.ENVIRONMENT), file_vals, given(ParameterSource.COMMANDLINE)):
        merged.update(layer)

    try:
        if check_name == "all":
            checks = tuple(_typed("checks", c, (str,), "a list of names")
                           for c in _typed("checks", file_vals.get("checks", list(verify.CHECKS)),
                                           (list,), "a list of names"))
        else:
            checks = (check_name,)
        ints = {key: _typed(key, merged[key], (int,), "an integer")
                for key in ("points", "seed", "jobs")}
        ints.update({key: _typed(key, merged[key], (int, type(None)), "an integer")
                     for key in ("n", "p", "q")})
        reals = {key: float(_typed(key, merged[key], (int, float), "a number"))
                 for key in ("fd_step", "tol")}
        # --samples takes a string such as 1e6
        samples = int(float(_typed("samples", merged["samples"], (int, float, str), "a number")))
        cfg = RunConfig(kind=merged["kind"],
                        mu=tuple(float(_typed("mu", m, (int, float), "a list of numbers"))
                                 for m in _typed("mu", merged["mu"], (list, tuple),
                                                 "a list of numbers")),
                        checks=checks, samples=samples, fmt=merged["fmt"],
                        output=_typed("output", merged["output"], (str, type(None)), "a path"),
                        **ints, **reals)
    except (TypeError, ValueError, OverflowError) as exc:  # int(inf) overflows
        raise click.UsageError(f"malformed config value: {exc}")
    unknown = [c for c in checks if c not in verify.CHECKS]
    if unknown:
        raise click.UsageError(f"unknown checks in config file: {unknown}")
    if cfg.kind is None:
        raise click.UsageError("a domain kind is required (--domain or config file)")
    if cfg.fmt not in ("json", "csv"):
        raise click.UsageError("format must be json or csv")
    return _validate(cfg)


def _emit(report: dict, cfg: RunConfig) -> None:
    text = report_json(report) if cfg.fmt == "json" else report_csv(report)
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write report to {cfg.output}: {exc}")
        for c in report["checks"]:
            click.echo(_check_line(c))
        click.echo(f"report written to {cfg.output}")
    else:
        click.echo(text, nl=False)


def _check_line(c: dict) -> str:
    extra = ""
    if "mu" in c["parameters"]:
        extra += f" mu={c['parameters']['mu']:g}"
    for key in ("root", "estimate", "ratio", "interval", "fitted"):
        if key in c["parameters"]:
            val = c["parameters"][key]
            formatted = f"{val:.9f}" if isinstance(val, float) else val
            extra += f" {key} = {formatted}"
            break
    return (f"{c['name']}: {c['status']}{extra} "
            f"(worst {c['worst_residual']:.3g}, tol {c['tolerance']:.3g})")


@click.group()
@click.version_option(ARTIFACT_VERSION, prog_name="chverify")
def main() -> None:
    """Numerical verification battery for Cartan-Hartogs domains."""


def _register(check_name: str, help_text: str) -> None:
    @main.command(name=check_name, help=help_text)
    @click.option("--config", "config_path", type=click.Path(), default=None,
                  help="JSON config file; flags override its values.")
    @click.option("--domain", "kind", default=None,
                  help="polydisc | type-I | chn")
    @click.option("--n", type=int, default=None, help="polydisc/chn dimension")
    @click.option("--p", type=int, default=None, help="type-I rows")
    @click.option("--q", type=int, default=None, help="type-I columns")
    @click.option("--mu", type=float, multiple=True, help="fiber exponent(s)")
    @click.option("--points", type=int, default=None, help="sample points per check")
    @click.option("--samples", default=None,
                  help="sample size (accepts 1e6); accepted and validated, but no "
                       "check reads it: every capacity check takes a fixed draw, "
                       "and the flat cylinder check cannot fail")
    @click.option("--seed", type=int, default=None, envvar=SEED_ENVVAR,
                  help=f"RNG seed (default from ${SEED_ENVVAR})")
    @click.option("--fd-step", "fd_step", type=float, default=None,
                  help="finite-difference step scale; accepted and validated, "
                       "but no check reads it")
    @click.option("--tol", type=float, default=None,
                  help="residual tolerance (relative to the form for the darboux families)")
    @click.option("--output", type=click.Path(), default=None,
                  help="report path (stdout when omitted)")
    @click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                  default=None, help="report format")
    @click.option("--jobs", type=int, default=None,
                  help="concurrent check families (only useful with `all`)")
    @click.pass_context
    def _cmd(ctx: click.Context, **flags) -> None:
        cfg = _merge_config(check_name, ctx, flags)
        report = run(cfg)
        _emit(report, cfg)
        ctx.exit(0 if report["summary"]["overall"] == "pass" else 1)


_HELP = {
    "darboux": "Pull the flat form back through Psi and compare with the domain form.",
    "dual-darboux": "Pull the flat form back through Phi and compare with the dual form.",
    "psh": "Certify strict plurisubharmonicity of the dual potential.",
    "det-formula": "Product-formula dual Hessian determinant vs the closed-form Hessian.",
    "volume": "Exact quadrature volumes against F(mu) and the dual/flat ratio formula.",
    "selberg": "Exact Gauss-Jacobi quadrature of F(s) against the Gamma product.",
    "duality": "Root of the duality equation, equal volumes there, the rank-one equality case.",
    "capacity": "Embedding-certified symplectic capacity intervals.",
    "equivariance": "Isotropy equivariance, hereditary maps, inverses, ball case.",
    "all": "Run every check family.",
}
for _name in (*verify.CHECKS, "all"):
    _register(_name, _HELP[_name])


if __name__ == "__main__":
    main()
