#!/usr/bin/env python3
"""Regenerate the paper's figures/tables from the command line.

    python examples/reproduce_paper.py               # list experiments
    python examples/reproduce_paper.py fig3 fig14    # run a subset
    python examples/reproduce_paper.py all           # run everything
    REPRO_FULL=1 python examples/reproduce_paper.py all   # full grids

Each experiment prints the series the paper plots plus the paper's
claim, so the shape comparison is immediate.
"""

import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        print("available experiments:")
        for name, fn in ALL_EXPERIMENTS.items():
            # a key may be a functools.partial of another key's function
            target = getattr(fn, "func", fn)
            doc = target.__doc__.strip().splitlines()[0]
            bound = f" {fn.keywords}" if target is not fn else ""
            print(f"  {name:8s} {doc}{bound}")
        return 0
    names = list(ALL_EXPERIMENTS) if "all" in argv[1:] else argv[1:]
    for name in names:
        fn = ALL_EXPERIMENTS.get(name)
        if fn is None:
            print(f"unknown experiment {name!r}; choose from "
                  f"{', '.join(ALL_EXPERIMENTS)}")
            return 1
        started = time.time()
        result = fn()
        print()
        print(result.format())
        print(f"[{name} took {time.time() - started:.0f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
