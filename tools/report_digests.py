"""Print one `label sha256` line per chverify report, wall times left out.

Two checkouts give byte-identical reports (apart from `wall_time_s`) when this
script prints the same lines in both, so a refactor is checked with `diff`:

    python tools/report_digests.py --seed 0 > new.txt
    python tools/report_digests.py --seed 0 --root ../parent > old.txt
    diff old.txt new.txt

The reports are every call of the four benchmark workloads at the seed, built
with `perfbench/workloads.make_calls`, and `cli.run` of every check family on
the acceptance grid plus type-I(3,3) at each mu in {0.5, 1, 2}, at the
default sizes.  A call that raises is digested by its exception.  Both the
library and the workloads module are imported from the checkout at --root.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(HERE),
                    help="repository checkout to import (default: this one)")
    ap.add_argument("--seed", type=int, default=0)
    return ap.parse_args(argv)


def family_calls(cli, workloads, families, seed: int):
    """(label, RunConfig) of each family on the grid plus type-I(3,3) at each mu."""
    for kind, dims in workloads.GRID + (workloads.RANK3,):
        for family in families:
            for mu in workloads.MUS:
                cfg = cli.RunConfig(kind=kind, mu=(mu,), checks=(family,), seed=seed, **dims)
                yield f"run:{family}@{workloads.domain_label(kind, dims)} mu={mu:g}", cfg


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from cartanhartogs import cli, verify

    calls = [(f"{name}:{label}", cfg) for name in workloads.WORKLOADS
             for label, cfg in workloads.make_calls(cli, name, args.seed)]
    calls += family_calls(cli, workloads, verify.CHECKS, args.seed)
    for label, cfg in calls:
        try:
            digest = workloads.report_digest(cli.report_json(cli.run(cfg)))
        except Exception as exc:  # a raising call is digested by its exception
            digest = "error:" + workloads.error_digest(exc)
        print(f"{label} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
