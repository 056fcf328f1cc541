#!/usr/bin/env python3
"""The repository benchmark: builds the program from source and runs one
workload, then prints every metric by name and unit and, as the last line,
one JSON result.

Usage (from the root of the checkout):
  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

Workloads and metrics are declared in BENCHMARK.json; perfbench/METRICS.md
maps every per-layer metric to the end-to-end metric and workload it
should move. --trace 0 reports the end-to-end metrics; --trace 1 runs the
traced variant and reports the per-layer metrics (a layer the workload does
not cross reads 0 and is listed as such), its tracing overhead, and writes
its spans to .bench_build/traces/.

The build lives in .bench_build/perfbench (CMake, Release); the first run
in a fresh checkout compiles the library, relax_server and perfbench.
"""

import argparse
import contextlib
import hashlib
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
DEADLINE_S = 170.0  # a run must exit within 180 s; keep a margin

# Untraced metrics printed for people next to the contract metrics (they
# are the per-kind and per-rate views behind latency_ms and
# throughput_per_s). Not part of the JSON result.
DETAIL = {
    "mis_solve_s", "matching_solve_s", "sssp_solve_s",
    "req_p50_ms.light", "req_p99_ms.light", "req_p50_ms.busy",
    "req_p99_ms.busy", "max_rate_rps",
}

SERVER_ARGS = ["--threads=2", "--port=0", "--graph-n=4000", "--graph-m=24000"]


def server_mix_cpus():
    """CPUs for relax_server and for the load client's socket threads, or
    (None, None) with fewer than 4 CPUs. The client gets the last CPU to
    itself and the server the three before it: its 2 workers pin to the
    first two, its event loop shares the three, and the generator never
    time-slices with any of them."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 4:
        return None, None
    return cpus[-4:-1], cpus[-1]


@contextlib.contextmanager
def inherited_affinity(cpus):
    """Children spawned inside inherit `cpus`."""
    if cpus is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark package. Raises on error."""
    BUILD.mkdir(parents=True, exist_ok=True)
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=5)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "none (not a git checkout)"


def source_digest():
    """sha256 over the sources the benchmark builds (stands in for the git
    revision when the checkout is not a repository)."""
    h = hashlib.sha256()
    files = sorted(list((ROOT / "src").rglob("*")) +
                   [ROOT / "tools" / "relax_server.cc"] +
                   list(BENCH_DIR.rglob("*")))
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def host_facts(notes):
    nodes = [p for p in Path("/sys/devices/system/node").glob("node[0-9]*")]
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "numa_nodes": len(nodes) or 1,
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }
    for note in notes:
        for key in ("compiler", "build_type"):
            if note.startswith(key + "="):
                facts[key] = note[len(key) + 1:]
    return facts


def peak_rss_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM for the server process")


def stop(proc):
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def start_server(cpus):
    """Starts relax_server on `cpus`; returns (process, port) once it
    listens."""
    t0 = time.perf_counter()
    with inherited_affinity(cpus):
        proc = subprocess.Popen([str(BUILD / "relax_server")] + SERVER_ARGS,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, bufsize=0)
    try:
        fd = proc.stdout.fileno()
        seen = b""
        deadline = t0 + 30.0
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 1.0)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            m = re.search(rb"listening on [^:\s]+:(\d+)", seen)
            if m:
                return proc, int(m.group(1))
        raise RuntimeError("relax_server did not become ready")
    except BaseException:
        stop(proc)
        raise


def run_perfbench(args, extra, timeout):
    cmd = [str(BUILD / "perfbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}"] + extra
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, timeout=timeout)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError(f"perfbench printed nothing (exit {out.returncode})")
    result = json.loads(lines[-1])
    if out.returncode != 0 and result.get("correct", False):
        raise RuntimeError(f"perfbench exited {out.returncode}")
    return result


def run_workload(args, started):
    extra = []
    if args.trace:
        TRACES.mkdir(parents=True, exist_ok=True)
        extra.append(f"--trace-out={TRACES / f'{args.workload}-seed{args.seed}.json'}")
    if args.workload != "server-mix":
        return run_perfbench(args, extra,
                             DEADLINE_S - (time.perf_counter() - started))

    # server-mix: the process under test is relax_server; the client times
    # the server's set-up in process (see server_mix.cc).
    server_cpus, client_cpu = server_mix_cpus()
    proc = None
    try:
        proc, port = start_server(server_cpus)
        client = [f"--port={port}"]
        if client_cpu is not None:
            client.append(f"--client-cpu={client_cpu}")
        result = run_perfbench(args, extra + client,
                               DEADLINE_S - (time.perf_counter() - started))
        if proc.poll() is not None:
            raise RuntimeError("relax_server exited during the run")
        if not args.trace:
            result["metrics"]["peak_rss_mb"] = {
                "value": peak_rss_mib(proc.pid), "unit": "MiB"}
        return result
    finally:
        if proc is not None:
            stop(proc)


def select_metrics(spec, result, trace):
    """The contract metrics for this mode, in BENCHMARK.json order."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    known = {m["name"] for m in spec["per_layer"] + spec["end_to_end"]} | DETAIL
    emitted = result["metrics"]
    unknown = sorted(set(emitted) - known)
    if unknown:
        raise RuntimeError(f"undeclared metrics emitted: {unknown}")
    chosen, not_crossed = {}, []
    for m in declared:
        name = m["name"]
        if name in emitted:
            if emitted[name]["unit"] != m["unit"]:
                raise RuntimeError(f"{name}: unit {emitted[name]['unit']} "
                                   f"!= declared {m['unit']}")
            value = emitted[name]["value"]
            if value is None:
                raise RuntimeError(f"{name}: no finite value")
        elif trace:
            value = 0.0
            not_crossed.append(name)
        else:
            raise RuntimeError(f"end-to-end metric {name} missing")
        chosen[name] = {"value": value, "unit": m["unit"]}
    return chosen, not_crossed


def selftest():
    """Builds, runs the C++ logic tests, and checks BENCHMARK.json against
    the benchmark contract's shape rules."""
    build()
    subprocess.run([str(BUILD / "perfbench_logic_test")], check=True)
    spec = load_spec()
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errors.append(f"top-level keys {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        names.append(w["name"])
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            errors.append(f"workload {w}")
    for m in spec["end_to_end"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better", "bound"}:
            errors.append(f"end-to-end keys {m}")
        if not 0 < m["bound"] <= 0.25:
            errors.append(f"bound {m}")
    for m in spec["per_layer"]:
        names.append(m["name"])
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per-layer keys {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT_RE.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"unit/better {m}")
    for name in names + sorted(DETAIL):
        if not NAME_RE.match(name):
            errors.append(f"invalid name {name!r}")
    if len(names) != len(set(names)):
        errors.append("duplicate names")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be declared in s, lower is better")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must carry the largest bound")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("2 to 8 workloads")
    if len(json.dumps(spec)) > 64 * 1024:
        errors.append("BENCHMARK.json over 64 KiB")
    for e in errors:
        log(f"FAIL: {e}")
    if not errors:
        print("BENCHMARK.json: contract shape OK")
    return 1 if errors else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()

    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        log(f"--workload must be one of {workloads}")
        return 2
    build()
    started = time.perf_counter()
    result = run_workload(args, started)
    metrics, not_crossed = select_metrics(spec, result, args.trace)

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    print("host: " + json.dumps(host_facts(result.get("notes", []))))
    for note in result.get("notes", []):
        print(f"  {note}")
    for name, m in result["metrics"].items():
        if name in DETAIL:
            print(f"  {name:38s} {m['value']:.6g} {m['unit']}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if not_crossed:
        print("not crossed by this workload (reported as 0): " +
              ", ".join(not_crossed))
    correct = bool(result["correct"])
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
