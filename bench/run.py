"""slidevlm benchmark: set-up, then four phases, each in its own child process.

    python3 bench/run.py --workload shared --seed 0 --seconds 36 --trace 0

Run it from the root of a source tree; the package is imported from
./src. The phases are ingest, train, answer and curate (bench/README.md
says what each measures and why). Each child gets one BLAS thread and an
address-space cap, so running out of memory raises MemoryError in that
child, where it counts as a failed operation.

With `--trace 0` all four children stay alive and this process hands out
work slices to one child at a time, each phase getting its share of
`--seconds`, so a phase's medians cover the whole run. With `--trace 1`
the children run one after another, each tracing one round.

Human-readable lines come first: revision, config hash, versions, and per
phase the operations attempted and failed. The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer ones with `--trace 1`.
A full record of the run is saved under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("shared", "distinct")
# Share of --seconds each phase is given, and the fewest slices it must run
# whatever the time (enough for its medians and the answer tail percentile).
SHARES = {"ingest": 0.15, "train": 0.15, "answer": 0.60, "curate": 0.10}
MIN_SLICES = {"ingest": 3, "train": 1, "answer": 25, "curate": 10}
PHASES = tuple(SHARES)
BLAS_THREADS = 1
DEADLINE_S = 170.0
MEMORY_CAP_BYTES = 6 * 2**30


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def config_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(BENCH.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


class Child:
    """One phase process; stdout is its slice protocol, stderr passes through."""

    def __init__(self, phase: str, args, work: Path, deadline: float, serve: bool):
        self.phase = phase
        self.deadline = deadline
        self.out = work / f"result_{phase}.json"
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
        })
        cmd = [
            sys.executable, str(BENCH / "phases.py"), phase,
            "--work", str(work / "inputs"), "--workload", args.workload,
            "--seed", str(args.seed), "--trace", str(args.trace), "--out", str(self.out),
        ]
        self.proc = subprocess.Popen(
            cmd, env=env, cwd=ROOT, text=True, preexec_fn=cap_memory,
            stdin=subprocess.PIPE if serve else subprocess.DEVNULL,
            stdout=subprocess.PIPE if serve else sys.stderr,
        )

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise RuntimeError(f"phase {self.phase} ran past the deadline")
        return left

    def read(self) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], self.remaining())
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"phase {self.phase} stopped answering")
        return line.strip()

    def slice(self) -> float | None:
        """Seconds the next slice took, or None once the phase has no more work."""
        self.proc.stdin.write("slice\n")
        self.proc.stdin.flush()
        reply = self.read()
        return None if reply == "done" else float(reply.split()[1])

    def finish(self) -> dict:
        if self.proc.stdin is not None:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
        try:
            code = self.proc.wait(timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"phase {self.phase} ran past the deadline") from None
        if code != 0:
            raise RuntimeError(f"phase {self.phase} exited with code {code}")
        return json.loads(self.out.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def interleave(children: dict[str, Child], seconds: float) -> None:
    """Give each phase slices in proportion to its share until time is up."""
    used = dict.fromkeys(children, 0.0)
    count = dict.fromkeys(children, 0)
    active = set(children)
    start = time.monotonic()
    while active:
        short = {p for p in active if count[p] < MIN_SLICES[p]}
        if time.monotonic() - start >= seconds:
            if not short:
                break
            pool = short
        else:
            pool = active
        phase = min(sorted(pool), key=lambda p: used[p] / SHARES[p])
        took = children[phase].slice()
        if took is None:
            active.discard(phase)
            continue
        used[phase] += took
        count[phase] += 1


def run_phases(args, work: Path, deadline: float) -> tuple[dict, dict]:
    children: list[Child] = []
    try:
        setup_child = Child("setup", args, work, deadline, serve=False)
        children.append(setup_child)
        setup = setup_child.finish()
        if args.trace:
            results = {}
            for p in PHASES:
                children.append(Child(p, args, work, deadline, serve=False))
                results[p] = children[-1].finish()
            return setup, results
        serving = {}
        for p in PHASES:
            # Start one at a time so preparation and warm-up never overlap.
            serving[p] = Child(p, args, work, deadline, serve=True)
            children.append(serving[p])
            if serving[p].read() != "ready":
                raise RuntimeError(f"phase {p} did not start")
        interleave(serving, args.seconds)
        return setup, {p: serving[p].finish() for p in PHASES}
    finally:
        for child in children:
            child.kill()


def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind so that the children are killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "slidevlm" / "__init__.py").is_file():
        print(f"bench: no slidevlm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    e2e_units, layer_units = declared_metrics()

    deadline = time.monotonic() + DEADLINE_S
    runs = ROOT / ".bench_work"
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    work = runs / name
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        setup, phases = run_phases(args, work, deadline)
        if args.trace:
            (runs / "spans" / name).mkdir(parents=True, exist_ok=True)
            for p in PHASES:
                shutil.copy(work / "inputs" / f"spans_{p}.jsonl", runs / "spans" / name / f"{p}.jsonl")
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in phases.values())
    failed = sum(r["failed"] for r in phases.values())
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "config_hash": config_hash(),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "memory_cap_bytes": MEMORY_CAP_BYTES,
        **setup["env"],
        "output_digest": hashlib.sha256("".join(r["digest"] for r in phases.values()).encode()).hexdigest(),
        "setup_runs_s": setup["setup_runs_s"],
        "phases": {
            p: {"attempted": r["attempted"], "failed": r["failed"], "prep_s": r["prep_s"],
                "peak_rss_mib": r["peak_rss_mib"], "slices": r.get("slices"), **r["info"],
                "problems": r["problems"]}
            for p, r in phases.items()
        },
    }
    for key in ("git_revision", "source_sha256", "config_hash", "nproc", "blas_threads",
                "python", "numpy", "blas", "workload", "seed", "output_digest"):
        print(f"{key}: {record[key]}")
    for p, info in record["phases"].items():
        print(f"phase {p}: " + " ".join(f"{k}={v}" for k, v in info.items() if k != "problems"))
        for problem in info["problems"]:
            print(f"  failed: {problem}")

    values: dict[str, float] = {}
    if args.trace:
        for r in phases.values():
            values.update(r["layers"])
        values["trace.overhead_ms"] = sum(r["layers"]["trace.overhead_ms"] for r in phases.values())
        values["trace.spans"] = sum(r["layers"]["trace.spans"] for r in phases.values())
        units = layer_units
    else:
        for p, r in phases.items():
            values.update(r.get("metrics", {}))  # absent when no operation of a kind succeeded
            values[f"{p}_peak_rss_mb"] = r["peak_rss_mib"]
        values["setup_s"] = setup["setup_s"] + sum(r["prep_s"] for r in phases.values())
        units = e2e_units
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"bench: metrics not produced: {missing}", file=sys.stderr)
        return 1
    for metric in sorted(units):
        print(f"{metric} = {values[metric]!r} {units[metric]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record["result"] = result
    (runs / "results").mkdir(parents=True, exist_ok=True)
    (runs / "results" / f"{name}.json").write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
