"""Record the reference outputs that runs with the reference seed must match.

    python3 bench/record_reference.py

Runs the first calls of every workload's plan for ``reference.json``'s seed
and rewrites its value lists, keeping the seed and the tolerances.  Record
only from a commit whose outputs are known to be right: a run with that seed
reports ``correct: false`` when a later change moves a value by more than the
tolerance.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402

# more calls than a run makes in its time budget on the reference machine
CALLS = {"sparse-deviation": 61, "phase": 80, "cli-pipeline": 6}


def main():
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    scratch = os.path.join(os.path.dirname(HERE), ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    for workload, count in CALLS.items():
        values = []
        for _, call in zip(range(count), workloads.plan(workload, doc["seed"])):
            out = workloads.run_call(workload, call, scratch)
            if out.problems:
                raise SystemExit(f"{workload} call {call.index}: {out.problems}")
            values.append(out.values)
        doc[workload] = values
        print(f"{workload}: {len(values)} calls", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
