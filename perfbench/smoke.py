#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced.

    python3 perfbench/smoke.py

Each run must exit 0 with a correct result and emit every metric that
BENCHMARK.json names for its mode, with its unit, plus the workload's own
end-to-end metrics; the traced and untraced runs of a workload must
produce byte-identical outputs.  Exits 1 and lists the findings otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
COMMON = {"setup_s": "s", "round_s": "s", "call_s": "s", "peak_rss_mb": "MB",
          "ops": "count", "failed_frac": "1", "wall_s": "s", "offcpu_frac": "1",
          "cal_scale": "1"}
WORKLOAD_METRICS = {
    "verify-sample": {"verify_s": "s", "steps_per_s": "1/s"},
    "certify-scaling": {"cert_s.n3": "s", "cert_s.n10": "s", "cert_s.n30": "s",
                        "certs_per_s": "1/s"},
    "simulate-wide": {"simulate_s": "s", "steps_per_s": "1/s"},
}


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return None, None, f"exit code {proc.returncode}: {proc.stderr.strip()}"
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / ".work" / f"{workload}-seed{SEED}-trace{trace}" / "result.json")
                        .read_text())
    return last, record, None


def missing(metrics: dict, wanted: dict) -> list[str]:
    return [f"{name} [{unit}]" for name, unit in wanted.items()
            if name not in metrics or metrics[name]["unit"] != unit
            or not isinstance(metrics[name]["value"], (int, float))]


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
             1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    findings = []
    for workload in (w["name"] for w in bench["workloads"]):
        before = len(findings)
        digests = {}
        for trace, wanted in modes.items():
            tag = f"{workload} --trace {trace}"
            last, record, error = run(workload, trace)
            if error:
                findings.append(f"{tag}: {error}")
                continue
            if not last["correct"] or last["failed"] or last["attempted"] < 1:
                findings.append(f"{tag}: incorrect result {record['problems']}")
            if set(last["metrics"]) != set(wanted):
                findings.append(f"{tag}: last line has metrics {sorted(last['metrics'])}")
            lost = missing(last["metrics"], wanted)
            lost += missing(record["end_to_end"], {**COMMON, **WORKLOAD_METRICS[workload]})
            if lost:
                findings.append(f"{tag}: missing {lost}")
            digests[trace] = record["digests"]
        if len(digests) == 2 and digests[0] != digests[1]:
            findings.append(f"{workload}: traced and untraced outputs differ")
        print(f"{workload}: {'ok' if len(findings) == before else 'FAILED'}", flush=True)
    for f in findings:
        print(f"FAIL {f}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
