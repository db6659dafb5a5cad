"""Record the reference answers that the benchmark checks rates against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Solves every candidate of the solve-mix pool and writes the rates to
``perfbench/reference/solve_pool.json``.
A query that fails is recorded as null and is then checked against its
budgets only.  Run it only to re-record answers after a deliberate change
of results; the files in the repository were recorded from the library
before any optimisation.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl


def solve_pool(api) -> dict:
    rates = []
    for m in range(wl.POOL_VARIANTS):
        row = []
        for j in range(wl.SIZED_STRATA):
            lam, D, P, kind = wl.sized_query(j, m)
            op = wl.SolveOp(api, lam, D, P, kind, None)
            try:
                row.append(op().total_rate)
            except api.RdpError:
                row.append(None)
        rates.append(row)
        print(f"solve pool variant {m}: {sum(r is None for r in row)} failures", file=sys.stderr)
    return {"strata": wl.SIZED_STRATA, "variants": wl.POOL_VARIANTS, "rates": rates}


def main() -> int:
    import gaussian_rdp as api

    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(wl.REFERENCE_DIR, "solve_pool.json"), "w", encoding="utf-8") as f:
        json.dump(solve_pool(api), f, separators=(",", ":"))
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
