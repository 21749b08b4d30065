"""Regenerate references.json: per-workload means and across-seed spreads.

    python3 perfbench/make_references.py [--scale full|tiny]...

Each workload's entry point runs once for each of SEEDS seeds, the workload's
default seed first, through the same worker process the benchmark uses.  For
every checked value the file stores the mean over the seeds and its
across-seed standard deviation, which the checks combine with each run's own
standard error.
Regenerate only when the program's results are meant to change, and say why.
"""

from __future__ import annotations

import argparse
import json
import statistics

from run import HERE, child_env, run_worker
from workloads import SCALES, WORKLOADS

QUANTITIES = ("a_minus", "a_plus", "hjb_american")
SEEDS = 16


def summarize(values: list[float]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.stdev(values)


def aggregate(outputs: list[dict]) -> dict:
    if "probes" in outputs[0]:
        probes = []
        for i, (t, s, _) in enumerate(outputs[0]["probes"]):
            mean, sd = summarize([o["probes"][i][2] for o in outputs])
            probes.append({"t": t, "s": s, "b2": mean, "b2_sd": sd})
        return {"probes": probes}
    rows = []
    for i, row in enumerate(outputs[0]["rows"]):
        ref = {"strike": row["strike"], "n_t": row["n_t"]}
        for q in QUANTITIES:
            if q in row:
                ref[q], ref[q + "_sd"] = summarize([o["rows"][i][q] for o in outputs])
        rows.append(ref)
    return {"rows": rows}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=SCALES, action="append")
    args = ap.parse_args(argv)

    path = HERE / "references.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    env = child_env()
    for scale in args.scale or SCALES:
        refs[scale] = {}
        for w in WORKLOADS.values():
            seeds = [w.default_seed + 1000 * k for k in range(SEEDS)]
            outputs = []
            for seed in seeds:
                res = run_worker(["--workload", w.name, "--seed", str(seed), "--scale", scale],
                                 env, 600.0)
                if "error" in res["output"]:
                    raise SystemExit(f"{w.name} seed {seed}: {res['output']['error']}")
                outputs.append(res["output"])
            refs[scale][w.name] = {"seeds": seeds, **aggregate(outputs)}
            print(f"{scale} {w.name}: {len(seeds)} seeds", flush=True)
    path.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
