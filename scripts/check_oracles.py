#!/usr/bin/env python
"""Driver-mimic: run every __ray_entry__ query and compare against its
DuckDB oracle (row count + sorted-column value equality), like the
per-round CORRECTNESS check.

Usage: python scripts/check_oracles.py [sf_dir] [--only name1,name2] [--repeat N]

``--repeat N`` runs each selected query N times (all N results must
match) and prints the median wall of the N runs.
"""

import os
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# the tables the oracles read: the corpus, plus TPC-H lineitem for the
# table-doc extraction queries
TABLES = ["documents", "embeddings", "lineitem"]


def main() -> int:
    args = [a for a in sys.argv[1:]]
    only = None
    if "--only" in args:
        i = args.index("--only")
        only = set(args[i + 1].split(","))
        del args[i : i + 2]
    repeat = 1
    if "--repeat" in args:
        i = args.index("--repeat")
        repeat = int(args[i + 1])
        del args[i : i + 2]
    sf_dir = args[0] if args else "/root/testdata/sf0.01"
    import duckdb
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR"
        )
    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        p = f"{sf_dir}/{t}.parquet"
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    oracles = E.oracle_sql()
    failures = 0
    for name, fn in E.queries().items():
        if only is not None and name not in only:
            continue
        runs, walls = [], []
        try:
            for _ in range(repeat):
                t0 = time.perf_counter()
                got = fn(sf_dir)
                runs.append(got.to_pandas() if hasattr(got, "to_pandas") else got)
                walls.append(time.perf_counter() - t0)
        except Exception as exc:
            print(f"{name}: ERROR {type(exc).__name__}: {exc}")
            failures += 1
            continue
        wall = statistics.median(walls)
        got = runs[0]
        if name not in oracles:
            print(f"{name}: rows-only ({len(got)} rows, {wall * 1000:.0f} ms)")
            continue
        want = con.sql(oracles[name]).df()
        cols = sorted(want.columns)
        if any(sorted(r.columns) != cols for r in runs):
            print(f"{name}: SCHEMA MISMATCH {sorted(got.columns)} vs {cols}")
            failures += 1
            continue
        w = want[cols].sort_values(cols).reset_index(drop=True)
        for got in runs:
            g = got[cols].sort_values(cols).reset_index(drop=True)
            ok = g.shape == w.shape and g.equals(w)
            if not ok:
                break
        print(f"{name}: {'MATCH' if ok else 'MISMATCH'} ({len(g)} rows, {wall * 1000:.0f} ms)")
        if not ok:
            failures += 1
            if g.shape == w.shape:
                diff = (g != w).any(axis=1)
                print(g[diff].head(3))
                print(w[diff].head(3))
            else:
                print("shapes:", g.shape, w.shape)
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
