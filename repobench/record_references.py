#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks its runs against.

    python3 repobench/record_references.py --workload chat_turns --seeds 0-63

writes (or extends) ``repobench/references/<workload>.json`` with each
seed's digests: per experiment for ``paper_regen``, of the counted turns for
``chat_turns``, of the cell records for ``dispatched_sweep``.  Run it when a
change to the program is meant to change its outputs, and say so in the
change; the benchmark fails every run of a seed whose outputs differ from
the file.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

import run


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper_regen", "chat_turns", "dispatched_sweep"))
    parser.add_argument("--seeds", type=seed_range, required=True, help="first-last, e.g. 0-31")
    args = parser.parse_args(argv)
    run.normalise_environment()
    run.import_program()
    import numpy
    import scipy

    import workloads

    record = {
        "paper_regen": workloads.regen_digests,
        "chat_turns": workloads.turns_digest,
        "dispatched_sweep": workloads.cells_digest,
    }[args.workload]
    path = workloads.REFERENCES / f"{args.workload}.json"
    data = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"seeds": {}}
    data["recorded_with"] = {"python": platform.python_version(), "numpy": numpy.__version__,
                             "scipy": scipy.__version__}
    for seed in args.seeds:
        data["seeds"][str(seed)] = record(seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{args.workload} seed {seed} recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
