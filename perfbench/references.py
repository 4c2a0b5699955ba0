"""Print every reference value the checkers use for one seed.

    python3 perfbench/references.py --seed N

The values are computed by the benchmark's own code (``checks.py``) from
the generated inputs, the same way ``run.py`` computes them; nothing is
read from a stored copy of the program's output.  The OEIS terms that the
regular counts are also held to are printed next to the counter's values.
"""

from __future__ import annotations

import argparse

import checks
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for k, table in checks.OEIS.items():
        for n, published in table.items():
            got = checks.count_realizations([k] * n)
            print(f"{k}-regular n={n}: OEIS {published}, counter {got}"
                  f"{'' if got == published else '  MISMATCH'}")
    for name in workloads.BUILDERS:
        wl = workloads.build(name, args.seed)
        print(f"{name} (seed {args.seed}):")
        for i, op in enumerate(wl.ops):
            argv = " ".join(a if len(a) < 40 else a[:37] + "..." for a in op.argv)
            print(f"  op {i}: graphreal {argv}")
            print(f"        expects {op.expected}")


if __name__ == "__main__":
    main()
