"""Record the exact values that runs on the default seed must reproduce.

    python3 perfbench/golden.py

Computes the exact squared norm of every witness-random file and every
dual-certificate vector of seed ``GOLDEN_SEED`` with the program as it is,
and writes them to ``golden.json``.  Re-record only when the generators in
``workloads.py`` change, never to make a failing run pass.
"""

from __future__ import annotations

import json
import shutil

from run import OUT, import_program


def main() -> None:
    import_program()
    from jamestree.norm import jt_norm
    from jamestree.vectors import EXACT, JTVector, scalar_to_json

    import workloads

    workdir = OUT / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    doc = {}
    try:
        for cls in (workloads.WitnessRandom, workloads.DualCertificate):
            wl = cls()
            wl.make(workloads.GOLDEN_SEED, workdir)
            doc[wl.name] = [
                scalar_to_json(jt_norm(JTVector.from_entries(entries, EXACT)).value_squared)
                for entries in wl.inputs
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
