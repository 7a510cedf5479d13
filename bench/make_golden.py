"""Write the golden outputs in `golden/` from the current source tree.

Run from the repository root, at a commit whose outputs are known good:

    python3 bench/make_golden.py

The files it writes are what every benchmark run checks against, so only
regenerate them on purpose, when a change of output is intended.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import evebounds  # noqa: E402
import workloads  # noqa: E402
from evebounds import cli  # noqa: E402

OUT = HERE / "out"

POINT_QUERIES_GOLDEN = 200


def main():
    golden = workloads.GOLDEN
    golden.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)

    csv = OUT / "ref-scan.csv"
    workloads.ref_scan(cli, csv)
    digest = hashlib.sha256(csv.read_bytes()).hexdigest()
    (golden / "ref-scan.sha256").write_text(f"{digest}  ref-scan.csv\n")

    rows = [row for cell in workloads.ORACLE_GRID for row in workloads.oracle_cell(cli, cell)]
    (golden / "oracle-scan.csv").write_text("\n".join([cli.CSV_HEADER] + rows) + "\n")

    seed = workloads.PointQueries.golden_seed
    rng = random.Random(seed)
    points = []
    for _ in range(POINT_QUERIES_GOLDEN):
        point = workloads.draw_point(rng)
        values = workloads.query_point(evebounds, point)
        if not workloads.verify_point(point, values):
            raise SystemExit(f"estimator ordering fails at {point}: {values}")
        points.append(list(point) + list(values))
    lines = ",\n".join(json.dumps(p) for p in points)
    (golden / "point-queries.json").write_text(f'{{"seed": {seed}, "points": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
