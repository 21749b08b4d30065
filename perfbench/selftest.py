"""Self-test of the benchmark at the tiny scale.

    python3 perfbench/selftest.py

For every workload and both trace modes it runs run.py and asserts that the
result line carries every BENCHMARK.json metric of that mode with its unit,
that the layers a workload runs read non-zero, and that no operation failed.
It then checks each run's recorded output against a copy of the references
with one value per workload perturbed and asserts that failed operations
appear, that tracing a function the program lacks is an error, and that a
directory holding only the benchmark (no program) exits non-zero without a
result.  About a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types

import checks
import tracing
from run import HERE, OUT, ROOT
from workloads import WORKLOADS

PRICED = {"bs3d-sweep", "bs3d-pde", "bachelier5d-converge"}
NEWTON = {"bs3d-sweep", "bs3d-pde", "bs25d-surface"}
# metric -> workloads whose traced run must read it non-zero
APPLIES = {
    "mc.s": PRICED, "mc.strike_path_steps": PRICED, "rng.normals": set(WORKLOADS),
    "hjb.solves": PRICED, "hjb.node_steps": PRICED, "surface.s": set(WORKLOADS),
    "surface.laplace_points": set(WORKLOADS), "projection.newton_iters_max": NEWTON,
    "surface.residual_rms_max": NEWTON, "pipeline.self_s": set(WORKLOADS),
    "pipeline.cpu_s": set(WORKLOADS), "mc.gap_rel": PRICED,
    "hjb.err_rel": {"bs3d-sweep", "bs3d-pde"},
}


def bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
           "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def record(proc: subprocess.CompletedProcess) -> dict:
    """The run record whose path the first output line names."""
    path = proc.stdout.split("record=", 1)[1].split()[0]
    return json.loads((ROOT / path).read_text(encoding="utf-8"))


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, f"exit status {proc.returncode}"
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res)
    assert res["attempted"] >= 1
    return res


def check_metrics(workload: str, res: dict, declared: list) -> None:
    got = res["metrics"]
    assert set(got) == {m["name"] for m in declared}, sorted(set(got) ^ {m["name"] for m in declared})
    for m in declared:
        value = got[m["name"]]
        assert value["unit"] == m["unit"], (m["name"], value["unit"])
        assert isinstance(value["value"], (int, float)), m["name"]
        if workload in APPLIES.get(m["name"], ()):
            assert value["value"] != 0, f"{workload}: {m['name']} reads zero"


def perturb(refs: dict) -> dict:
    """Move one stored reference per workload far outside its tolerance."""
    for ref in refs["tiny"].values():
        if "rows" in ref:
            ref["rows"][-1]["a_minus"] = 1.5 * ref["rows"][-1]["a_minus"] + 1.0
        else:
            ref["probes"][0]["b2"] *= 1.5
    return refs


def failures(name: str, rec: dict, refs: dict) -> int:
    workload = WORKLOADS[name]
    per_probe = workload.tiny["surface_abscissae"] if workload.entry == "surface" else 0
    failed, _ = checks.count_failures(workload.entry, [rec["output"]], refs["tiny"][name],
                                      rec["attempted"], per_probe)
    return failed


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    records = {}
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench(name, trace)
            res = result(proc)
            assert res["correct"] and res["failed"] == 0, (name, trace, res["failed"])
            check_metrics(name, res, spec[key])
            if trace == 0:
                assert all(m["value"] > 0 for m in res["metrics"].values()), name
                records[name] = record(proc)
        print(f"ok   {name}: every metric emitted with its unit, no failed operation")

    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    bad_refs = perturb(json.loads(json.dumps(refs)))
    for name, rec in records.items():
        assert failures(name, rec, refs) == 0, name
        failed = failures(name, rec, bad_refs)
        assert failed > 0, name
        print(f"ok   {name}: a perturbed reference fails {failed} of {rec['attempted']} operations")

    try:
        tracing.Tracer().wrap(types.ModuleType("basketproj.gone"), "solve", "hjb.solve")
    except SystemExit as exc:
        assert "basketproj.gone.solve" in str(exc), exc
    else:
        raise AssertionError("tracing a missing function did not fail")
    print("ok   tracing a function the program lacks is an error")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("bs3d-sweep", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.returncode
    shutil.rmtree(bare)
    print("ok   without the program: non-zero exit, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
