"""Benchmark for `relaypower run`: end-to-end metrics, correctness, per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run it from anywhere; it works on the checkout that holds it. Every repeat is
a fresh child process (`perfbench/child.py`, which calls `relaypower.cli.main`
with the workload's scenario and `--seed N`), so no cache carries over from
one repeat to the next. Children run one at a time, with BLAS threads capped
at the number of usable cores.

--trace 0 times untraced repeats until the next one would overrun S seconds
(at least one) and reports the end-to-end metrics. --trace 1 alternates
untraced and traced repeats under the same rule and reports the per-layer
metrics; tracing overhead is the difference of their median run times.
Every child's CSVs are checked: against stored SHA-256 digests at the
scenario's own seed, by structure at any other seed, and for byte identity
across the repeats of one run. bler_m2 also runs once with `--shards 3`,
which must reproduce the same bytes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Child logs, the spans of the traced repeats
(spans.jsonl) and the per-layer self-time table (layers.txt) go to
.perfbench/<workload>/ in the checkout; CSVs are removed once checked.
--smoke runs every workload once with both trace settings and checks that
each metric named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("bler_m2", "ber_power_m4_m8_m12", "asym_m32")
SHARD_CHECK = {"bler_m2": 3}
SETUP_PROBES = 10
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"run_s": "s", "samples_per_s": "1/s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# SHA-256 of every CSV of each workload at the scenario's own seed
DIGESTS = json.loads((HERE / "digests.json").read_text())

_RATE_COLUMNS = {"bler", "ber", "equality_fraction"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child, killing it past the deadline or on interrupt; returns (exit code, rusage)."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


class Workload:
    def __init__(self, name: str):
        self.name = name
        self.scenario = HERE / "workloads" / f"{name}.yaml"
        self.spec = yaml.safe_load(self.scenario.read_text())
        self.dir = OUT / name

    @property
    def samples(self) -> int:
        """Frames (or channel trials) one run simulates."""
        s = self.spec
        kind = s["kind"]
        if kind == "bler_vs_snr":
            return s["frames"] * len(s["snr_db"]) * len(s["schemes"])
        if kind == "ber_vs_network_power":
            return s["frames"] * len(s["snr_db"]) * len(s["m_grid"]) * len(s["schemes"])
        return s["trials"] * len(s["m_grid"]) * len(s["r_grid"])

    def expected_csvs(self) -> dict[str, tuple[str, int]]:
        """CSV name -> (header, row count)."""
        s = self.spec
        kind, name = s["kind"], s["name"]
        if kind == "bler_vs_snr":
            header = "scheme,snr_db,frames,block_errors,bit_errors,bler,ber,stderr_bler"
            return {f"{name}_{t}.csv": (header, len(s["snr_db"])) for t in s["schemes"]}
        if kind == "ber_vs_network_power":
            header = "scheme,M,snr_db,frames,block_errors,bit_errors,bler,ber,stderr_bler"
            return {f"{name}_{t}.csv": (header, len(s["snr_db"]) * len(s["m_grid"])) for t in s["schemes"]}
        header = ("M,r,trials,count_onoff,count_waterfill_partial,count_waterfill_statistical,"
                  "count_maxpower,equality_fraction,max_water_level_spread")
        return {f"{name}.csv": (header, len(s["m_grid"]) * len(s["r_grid"]))}

    def check_structure(self, out: Path) -> str | None:
        """Header, row count, finite values and rates in [0, 1]; None when sound."""
        expected = self.expected_csvs()
        plot = f"{self.spec['name']}_plot.py"
        found = sorted(p.name for p in out.iterdir())
        if found != sorted([*expected, plot]):
            return f"output files {found}, expected {sorted([*expected, plot])}"
        budget = self.spec.get("frames") or self.spec.get("trials")
        for fname, (header, nrows) in expected.items():
            with open(out / fname, newline="") as fh:
                rows = list(csv.reader(fh))
            if ",".join(rows[0]) != header or len(rows) - 1 != nrows:
                return f"{fname}: header or row count differs"
            for row in rows[1:]:
                rec = dict(zip(rows[0], row))
                rec.pop("scheme", None)
                vals = {k: float(v) for k, v in rec.items()}
                if not all(math.isfinite(v) for v in vals.values()):
                    return f"{fname}: non-finite value in {row}"
                if any(not 0.0 <= vals[k] <= 1.0 for k in _RATE_COLUMNS & vals.keys()):
                    return f"{fname}: rate outside [0, 1] in {row}"
                if vals.get("frames", vals.get("trials")) != budget:
                    return f"{fname}: frame or trial count differs from {budget} in {row}"
                if "block_errors" in vals and not 0 <= vals["block_errors"] <= budget:
                    return f"{fname}: block errors outside [0, frames] in {row}"
        return None


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


class Runner:
    """Starts the children of one benchmark run and tallies them."""

    def __init__(self, workload: Workload, seed: int, deadline: float):
        self.w = workload
        self.seed = seed
        self.deadline = deadline
        self.env = _child_env()
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.attempted = 0

    def child(self, *options: str, traced: bool = False, setup_only: bool = False) -> dict | None:
        """One child process; returns its measurements, or None if it failed."""
        self.attempted += 1
        work = self.w.dir / f"child{self.attempted}"
        out = work / "out"
        work.mkdir(parents=True)
        times = work / "times.json"
        span_file = work / "spans.jsonl" if traced else "-"
        argv = [sys.executable, str(HERE / "child.py"), str(times), str(span_file), str(self.attempted),
                "run", str(self.w.scenario), "--seed", str(self.seed), "--out-dir", str(out), *options]
        if setup_only:
            argv.append("--print-config")
        with open(work / "log.txt", "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            code, usage = _wait(proc, self.deadline)
        failure = self._check(code, times, out, setup_only, work)
        if failure:
            self.failures.append(f"child {self.attempted}: {failure}")
            return None
        marks = json.loads(times.read_text())
        rec = {"setup_s": marks["loaded"] - spawned}
        if not setup_only:
            rec.update(run_s=marks["done"] - marks["loaded"], cpu_s=usage.ru_utime + usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss / 1024.0)
            rec["samples_per_s"] = self.w.samples / rec["run_s"]
        if traced:
            rec["spans"] = spans.load(span_file)
            span_file.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def _check(self, code, times: Path, out: Path, setup_only: bool, work: Path) -> str | None:
        if code != 0 or not times.exists():
            tail = (work / "log.txt").read_text().strip().splitlines()[-1:]
            return f"exit code {code}: {' '.join(tail)}"
        if setup_only:
            return None
        problem = self.w.check_structure(out)
        if problem:
            return problem
        digests = _digests(out)
        if self.seed == self.w.spec["seed"] and digests != DIGESTS[self.w.name]:
            return "CSV digests differ from the stored reference"
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            return "CSV bytes differ between repeats of one run"
        return None


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "relaypower" / "cli.py").is_file():
        raise BenchError(f"no relaypower sources under {ROOT / 'src'}")
    w = Workload(name)
    shutil.rmtree(w.dir, ignore_errors=True)
    start = time.monotonic()
    runner = Runner(w, seed, start + RUN_DEADLINE_S)
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            rec = runner.child(setup_only=True)
            if rec:
                setups.append(rec["setup_s"])

    plain, traced = [], []
    while True:
        t0 = time.monotonic()
        want_traced = trace and len(traced) < len(plain)
        rec = runner.child(traced=want_traced)
        if rec:
            (traced if want_traced else plain).append(rec)
        last = time.monotonic() - t0
        enough = plain and (traced or not trace)
        if not rec and not enough:
            break
        if enough and time.monotonic() - start + last > seconds:
            break
    if name in SHARD_CHECK:
        runner.child("--shards", str(SHARD_CHECK[name]))

    if not plain or (trace and not traced):
        raise BenchError("no repeat succeeded:\n" + "\n".join(runner.failures))
    if trace:
        per_run = [spans.layer_metrics(rec["spans"]) for rec in traced]
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(r["run_s"] for r in plain))
        all_spans = [s for rec in traced for s in rec["spans"]]
        (w.dir / "spans.jsonl").write_text("".join(json.dumps(s) + "\n" for s in all_spans))
        table = spans.self_time_table(traced[-1]["spans"])
        (w.dir / "layers.txt").write_text(table + "\n")
        print(f"per-layer self time, {name}, last traced repeat:\n{table}")
        units = {k: spans.unit(k) for k in metrics}
    else:
        setups += [r["setup_s"] for r in plain]
        metrics = {k: statistics.median(r[k] for r in plain) for k in END_TO_END_UNITS if k != "setup_s"}
        metrics["setup_s"] = statistics.median(setups)
        units = END_TO_END_UNITS
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"{name}: {len(plain)} untraced, {len(traced)} traced repeats, {len(setups)} set-up samples,"
          f" fail_ratio {len(runner.failures) / runner.attempted:.4g} ({len(runner.failures)}/{runner.attempted})")
    for k, v in metrics.items():
        print(f"  {k:<48} {v:>16.6g} {units[k]}")
    return {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def smoke() -> int:
    """Each workload once per trace setting, with the smallest time budget."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = bench(name, seed=0, seconds=1, trace=trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared[key]}
            if got != want or not result["correct"]:
                ok = False
                print(f"SMOKE FAIL {name} trace={int(trace)}: correct={result['correct']}, "
                      f"missing {sorted(want.keys() - got.keys())}, extra {sorted(got.keys() - want.keys())}, "
                      f"unit mismatches {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test every workload and metric")
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
