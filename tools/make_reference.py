"""Write the high-precision reference fixture ``tests/data/reference.json``.

For each p of ``P_VALUES`` the fixture holds pi_p, the worst-case explored
measure e_p, the separation gamma_p and the worst-case cost, evaluated with
mpmath at 20 significant digits by the benchmark's reference formulas
(``perfbench/reference.py``), which are independent of the program.  The
tier-1 tests read only the JSON, so they need no mpmath.

Run from anywhere with ``python3 tools/make_reference.py``; it takes about a
second and rewrites the fixture in place.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from reference import DPS, critical_ref, pi_ref  # noqa: E402

P_VALUES = (1.001, 1.0625, 1.5, 2.0, 3.0, 10.0, 45.0, 50.5, 100.0, 200.0, 500.0, 1000.0, 10000.0)
OUT = ROOT / "tests" / "data" / "reference.json"


def build() -> dict:
    rows = []
    for p in P_VALUES:
        row = {"p": p, **critical_ref(p)}
        if row["pi"] != pi_ref(p):
            raise ArithmeticError(f"pi_p at p={p}: {row['pi']} vs {pi_ref(p)}")
        rows.append(row)
    return {"source": "perfbench/reference.py (mpmath)", "dps": DPS, "values": rows}


def main() -> None:
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(build(), indent=1) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)} ({len(P_VALUES)} values of p)")


if __name__ == "__main__":
    main()
