"""Print one `label sha256` line per chverify report and per `--help` text.

Two checkouts give byte-identical reports (apart from `wall_time_s`) and help
texts when this script prints the same lines in both, so a refactor is
checked with `diff`:

    python tools/report_digests.py --seed 0 > new.txt
    python tools/report_digests.py --seed 0 --root ../parent > old.txt
    diff old.txt new.txt

The help texts come first: `chverify --help`, then each subcommand's
`--help`, in name order.  The reports, wall times left out, are every call
of the four benchmark workloads at the seed, built with
`perfbench/workloads.make_calls`, and `cli.run` of every check family on
the acceptance grid plus type-I(3,3), polydisc-32, type-I(1,32), polydisc-16,
type-I(4,8) and type-I(5,6) at each mu in {0.5, 1, 2}, at the default sizes.
polydisc-32 and type-I(1,32) are the largest domains of the diagonal Jordan
frame, where the polydisc's isotropy is a permutation and phases; with the
other three they are the edge domains of the tier-1 edges test.  Last come
the multi-draw cells: each sampled family at mu = 1 on type-I(2,2),
polydisc-8 and type-I(3,3) at 20000 points (80000 --points for det-formula
and equivariance, which take a quarter), three draws of `verify._CHUNK` and
40 blocks of `verify._BLOCK`, so a diff covers both boundaries.  A call that raises is digested by its exception.  Both the
library and the workloads module are imported from the checkout at --root.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="repository checkout to import (default: this one)")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


# the largest domains of the diagonal frame route, at the dimension cap, then
# the other edge domains of the tier-1 edges test, where psh's sign was once
# an eigensolver's rounding
LARGE_DOMAINS = (("polydisc", {"n": 32}), ("type-I", {"p": 1, "q": 32}),
                 ("polydisc", {"n": 16}), ("type-I", {"p": 4, "q": 8}),
                 ("type-I", {"p": 5, "q": 6}))
# --points of each streamed family past one draw and one block: 20000 points,
# or pairs and draws for the families that take a quarter of --points
MULTI_DRAW = {"darboux": 20000, "dual-darboux": 20000, "psh": 20000,
              "det-formula": 80000, "equivariance": 80000}
MULTI_DRAW_DOMAINS = (("type-I", {"p": 2, "q": 2}), ("polydisc", {"n": 8}),
                      ("type-I", {"p": 3, "q": 3}))


def family_calls(cli, workloads, families, seed: int):
    """(label, RunConfig) of each family on the grid plus type-I(3,3) and
    `LARGE_DOMAINS` at each mu."""
    for kind, dims in workloads.GRID + (workloads.RANK3,) + LARGE_DOMAINS:
        for family in families:
            for mu in workloads.MUS:
                cfg = cli.RunConfig(kind=kind, mu=(mu,), checks=(family,), seed=seed, **dims)
                yield f"run:{family}@{workloads.domain_label(kind, dims)} mu={mu:g}", cfg


def multi_draw_calls(cli, workloads, seed: int):
    """(label, RunConfig) of each `MULTI_DRAW` family at its --points and
    mu = 1 on `MULTI_DRAW_DOMAINS`."""
    for kind, dims in MULTI_DRAW_DOMAINS:
        for family, points in MULTI_DRAW.items():
            cfg = cli.RunConfig(kind=kind, mu=(1.0,), checks=(family,), points=points,
                                seed=seed, **dims)
            yield f"run:{family}@{workloads.domain_label(kind, dims)} points={points}", cfg


def help_digests(cli):
    """(label, sha256) of `chverify --help` and of each subcommand's `--help`."""
    from click.testing import CliRunner

    for args in ([], *([name] for name in sorted(cli.main.commands))):
        text = CliRunner().invoke(cli.main, [*args, "--help"], prog_name="chverify").output
        yield "help:" + " ".join(["chverify", *args]), hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from cartanhartogs import cli, verify

    for label, digest in help_digests(cli):
        print(f"{label} {digest}", flush=True)
    calls = [(f"{name}:{label}", cfg) for name in workloads.WORKLOADS
             for label, cfg in workloads.make_calls(cli, name, args.seed)]
    calls += family_calls(cli, workloads, verify.CHECKS, args.seed)
    calls += multi_draw_calls(cli, workloads, args.seed)
    for label, cfg in calls:
        try:
            digest = workloads.report_digest(cli.report_json(cli.run(cfg)))
        except Exception as exc:  # a raising call is digested by its exception
            digest = "error:" + workloads.error_digest(exc)
        print(f"{label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
