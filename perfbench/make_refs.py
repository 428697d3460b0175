"""Write refs.json: the output summary of every input a workload can draw.

    python3 perfbench/make_refs.py

Run once, from the repository root, at the commit whose outputs are the
reference; the benchmark then checks every operation against it to a
relative 1e-9.  Takes a few minutes.
"""

import json
import os
import tempfile

from run import HERE, ROOT, import_program
import workloads


def main() -> None:
    import_program()
    refs = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(workdir)
            refs[name] = {}
            for key in workloads.all_keys(name):
                workload.prepare(key)
                refs[name][key] = workload.summarize(key, workload.run(key))
                print(name, key, flush=True)
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
