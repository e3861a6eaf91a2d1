"""sdke benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; sdke is imported from ./src.  This
process generates the workload's inputs from the seed, starts one warm
worker process (worker.py) that runs the library ops, and runs the sdke
CLI in fresh interpreters.  The loop is closed with one caller: one op or
one CLI process at a time, never both.

--trace 0 measures the end-to-end metrics: library ops in the worker,
interleaved with `python -m sdke <cmd> FILE` runs, 60 % of the window
going to the former.  --trace 1 measures the per-layer metrics instead: each op
runs untraced and then traced on the same input, followed by in-process
CLI calls and cold-start timings.  Every answer is checked.  Human-readable
lines come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  See WORKLOADS.md for what each
workload stresses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
from gen import Input, inputs_hash, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

LIB_SHARE = 0.6  # of the window, for library ops; CLI runs get the rest
TRACE_SHARE = 0.8  # of the window, for traced ops in a --trace 1 run
SETUPS = 3  # set-up repeats; setup_s is their median
COLD_STARTS = 5  # fresh interpreters per cold-start metric
CLI_TIMEOUT_S = 60
OP_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    specs: tuple[tuple[int, float], ...]  # (n, p) of each input graph
    cli: tuple[str, ...]  # sdke CLI arguments before the input file


WORKLOADS = {
    "split-mixed": Workload(((400, 2 / 400),) * 16, ("decompose",)),
    "dense-perm": Workload(((18, 0.4),) * 12, ("perm",)),
    "verify-small": Workload(((12, 0.2), (12, 0.3), (12, 0.4)) * 16, ("verify",)),
    "match-large": Workload(((5000, 2 / 5000),) * 20, ("export-dot",)),
}

CALLS = (
    "graph.induced_subgraph",
    "matching.maximum_matching",
    "alternating.semi_jposy_witness",
    "alternating.reachable_set",
    "decomposition.sd_ke_partition",
    "decomposition.check_stability_under_deletion",
    "configurations.sd_vertices_bruteforce",
    "determinantal.perm_adjacency",
    "determinantal.det_adjacency",
    "verification.independence_number",
)
SELF_MS = (
    "graph.parse_edge_list",
    "graph.induced_subgraph",
    "matching.maximum_matching",
    "matching.enumerate_perfect_matchings",
    "matching.enumerate_maximum_matchings",
    "alternating.semi_jposy_witness",
    "alternating.reachable_set",
    "decomposition.sd_ke_partition",
    "decomposition.check_stability_under_deletion",
    "configurations.sd_vertices_bruteforce",
    "determinantal.perm_adjacency",
    "determinantal.det_adjacency",
    "determinantal.enumerate_sachs",
    "verification.run_theorem_suite",
    "verification.independence_number",
)


class Worker:
    """The warm worker process and its line-per-message pipe."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def call(self, msg: dict, timeout: float = OP_TIMEOUT_S) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise TimeoutError(f"worker gave no reply to {msg['cmd']} within {timeout} s")
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    That is the 11th-largest sample.  With fewer than 21 samples no sample
    above the median has ten beyond it, and the upper median is reported,
    so the value does not jump as the sample count crosses 21.
    """
    s = sorted(samples)
    rank = max(len(s) - 11, len(s) // 2)
    return s[rank], 100 * (rank + 1) / len(s)


def check_cli(workload: str, code: int, out: str, ref: dict, inp: Input) -> str | None:
    """Reason the CLI output for one input is wrong, or None."""
    if code != 0:
        return f"exit code {code}"
    if workload == "match-large":
        edges = {tuple(map(int, ln.strip(" ;").split(" -- "))) for ln in out.splitlines() if " -- " in ln}
        nodes = sum(1 for ln in out.splitlines() if "[label=" in ln)
        if nodes != inp.n or edges != set(inp.edges):
            return "DOT output does not list the input's vertices and edges"
        return None
    try:
        data = json.loads(out)
        if workload == "split-mixed":
            part = data["partition"]
            ok = part["sd"] == ref["sd"] and part["ke"] == ref["ke"]
        elif workload == "dense-perm":
            ok = data["perm"] == ref["perm"]
        else:
            ok = (
                [c["name"] for c in data["checks"]] == ref["checks"]
                and all(c["pass"] for c in data["checks"])
                and data["determinants"]["ok"] is True
                and data["permanents"]["ok"] is True
            )
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed CLI output: {type(exc).__name__}: {exc}"
    return None if ok else "CLI answer differs from the library's"


class Run:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path) -> None:
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workload = WORKLOADS[name]
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.worker: Worker | None = None
        self.attempted = 0
        self.failed = 0
        self.refs: dict[int, dict] = {}
        self.bruteforce_ops = 0

    def record(self, errors: list[str], what: str, attempts: int = 1) -> None:
        self.attempted += attempts
        self.failed += len(errors)
        for err in errors:
            print(f"FAIL {what}: {err}", file=sys.stderr)

    def setup(self) -> float:
        """Generate and write the inputs, start the worker, one warm-up op."""
        t0 = perf_counter()
        w = self.workload
        self.inputs = make_inputs(self.name, self.seed, list(w.specs))
        texts = [g.text for g in self.inputs]
        self.paths = []
        for i, text in enumerate(texts):
            path = self.work / f"input{i}.edges"
            path.write_text(text)
            self.paths.append(str(path))
        self.worker = Worker(self.env)
        self.hello = self.worker.call({"cmd": "load", "workload": self.name, "texts": texts,
                                       "trace": self.trace})
        self.worker.call({"cmd": "op", "i": 0, "warmup": True})
        return perf_counter() - t0

    def op(self, i: int) -> dict:
        """One checked op; in a traced run the reply also covers its traced rerun."""
        r = self.worker.call({"cmd": "op", "i": i, "warmup": False})
        if "ref" in r:
            self.refs[i] = r["ref"]
        self.bruteforce_ops += r["bruteforce"]
        self.record(r["errors"], f"op on input {i}", 2 if self.trace else 1)
        return r

    def cli_inputs(self) -> list[int]:
        """Inputs with a checked library answer to compare the CLI's with."""
        return sorted(self.refs) or list(range(len(self.inputs)))

    def cli_run(self, i: int) -> float:
        argv = [sys.executable, "-m", "sdke", *self.workload.cli, self.paths[i]]
        t0 = perf_counter()
        try:
            p = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                               timeout=CLI_TIMEOUT_S)
            ms = (perf_counter() - t0) * 1000
            err = check_cli(self.name, p.returncode, p.stdout, self.refs.get(i, {}), self.inputs[i])
            if err and i not in self.refs:
                err = "no library answer to compare with"
        except subprocess.TimeoutExpired:
            ms, err = (perf_counter() - t0) * 1000, f"timed out after {CLI_TIMEOUT_S} s"
        self.record([err] if err else [], f"CLI on input {i}")
        return ms

    def measure(self) -> dict:
        """The end-to-end metrics, from library ops and CLI runs interleaved.

        Interleaving spreads both kinds of sample over the whole window, so a
        slow spell of the machine hits both alike.  LIB_SHARE of the time
        goes to library ops.
        """
        start = perf_counter()
        lib: list[float] = []
        cli: list[float] = []
        lib_s = cli_s = 0.0
        while not cli or perf_counter() - start < self.seconds:
            t0 = perf_counter()
            if not lib or lib_s * (1 - LIB_SHARE) <= cli_s * LIB_SHARE:
                lib.append(self.op(len(lib) % len(self.inputs))["ms"])
                lib_s += perf_counter() - t0
            else:
                order = self.cli_inputs()
                cli.append(self.cli_run(order[len(cli) % len(order)]))
                cli_s += perf_counter() - t0
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        worker_rss = self.worker.call({"cmd": "finish", "trace_out": None})["peak_rss_mb"]
        lib_tail, lib_q = tail(lib)
        cli_tail, cli_q = tail(cli)
        print(f"lib ops: {len(lib)} samples, tail is p{lib_q:.1f}; cli runs: {len(cli)} samples, "
              f"tail is p{cli_q:.1f}; peak RSS worker {worker_rss:.1f} MB, children {children:.1f} MB")
        return {
            "lib_ops_per_s": (len(lib) / (sum(lib) / 1000), "1/s", len(lib)),
            "lib_p50_ms": (statistics.median(lib), "ms", len(lib)),
            "lib_tail_ms": (lib_tail, "ms", len(lib)),
            "cli_p50_ms": (statistics.median(cli), "ms", len(cli)),
            "cli_tail_ms": (cli_tail, "ms", len(cli)),
            "peak_rss_mb": (max(worker_rss, children), "MB", 1),
        }

    def cold_start_ms(self, code: str) -> float:
        times = []
        for _ in range(COLD_STARTS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True,
                           timeout=CLI_TIMEOUT_S)
            times.append((perf_counter() - t0) * 1000)
        return statistics.median(times)

    def measure_layers(self) -> dict:
        """The per-layer metrics, from a traced pass over the inputs."""
        interpreter = self.cold_start_ms("pass")
        imported = self.cold_start_ms("import sdke")
        start = perf_counter()
        ops: list[dict] = []
        while not ops or perf_counter() - start < self.seconds * TRACE_SHARE:
            ops.append(self.op(len(ops) % len(self.inputs)))
        untraced = sum(r["ms"] for r in ops)
        traced = sum(r["traced_ms"] for r in ops)
        roots = sum(r["roots_ms"] for r in ops)
        for r in ops:
            if not 0.9 * r["traced_ms"] - 0.5 <= r["roots_ms"] <= r["traced_ms"]:
                self.record([f"spans cover {r['roots_ms']:.3f} ms of a {r['traced_ms']:.3f} ms op"],
                            "trace", attempts=0)
        cli_self, cli_bytes = [], []
        for i in self.cli_inputs()[:3]:
            r = self.worker.call({"cmd": "run_cli", "argv": [*self.workload.cli, self.paths[i]]})
            err = check_cli(self.name, r["code"], r["stdout"], self.refs.get(i, {}), self.inputs[i])
            self.record([err] if err else [], f"in-process CLI on input {i}")
            cli_self.append(r["self_ms"])
            cli_bytes.append(len(r["stdout"].encode()))
        trace_out = OUT / f"trace-{self.name}-seed{self.seed}.jsonl.gz"
        worker_rss = self.worker.call({"cmd": "finish", "trace_out": str(trace_out)})["peak_rss_mb"]
        print(f"traced ops: {len(ops)}; spans written to {trace_out.relative_to(ROOT)}; "
              f"peak RSS worker {worker_rss:.1f} MB")

        totals: dict[str, dict[str, float]] = {}
        for r in ops:
            for name, entry in r["layers"].items():
                t = totals.setdefault(name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    t[key] += value
        for name, t in sorted(totals.items(), key=lambda kv: -kv[1]["self_ms"]):
            print(f"layer {name}: {t['calls'] / len(ops):.6g} calls/op, "
                  f"{t['self_ms'] / len(ops):.6g} self ms/op, {t['total_ms'] / len(ops):.6g} total ms/op")

        def per_op(name: str, key: str) -> float:
            return totals.get(name, {}).get(key, 0) / len(ops)

        witness = totals.get("alternating.semi_jposy_witness", {})
        m = {f"{name}.calls": (per_op(name, "calls"), "count") for name in CALLS}
        m.update({f"{name}.self_ms": (per_op(name, "self_ms"), "ms") for name in SELF_MS})
        m.update({
            "alternating.semi_jposy_witness.hit_ratio": (
                witness["noted"] / witness["calls"] if witness else 0.0, "ratio"),
            "alternating.witness_edges": (per_op("alternating.semi_jposy_witness", "note_sum"), "count"),
            "determinantal.ryser_terms": (per_op("determinantal.perm_adjacency", "note_sum"), "count"),
            "determinantal.enumerate_sachs.yielded": (per_op("determinantal.enumerate_sachs", "noted"), "count"),
            "configurations.sd_vertices_bruteforce.total_ms": (
                per_op("configurations.sd_vertices_bruteforce", "total_ms"), "ms"),
            "configurations.sd_vertices_bruteforce.ops": (
                sum(1 for r in ops if "configurations.sd_vertices_bruteforce" in r["layers"]), "count"),
            "trace.overhead_frac": (traced / untraced - 1, "ratio"),
            "trace.self_sum_frac": (roots / traced, "ratio"),
        })
        m = {k: (v, unit, len(ops)) for k, (v, unit) in m.items()}
        m.update({
            "cli.interpreter_ms": (interpreter, "ms", COLD_STARTS),
            "cli.import_ms": (imported - interpreter, "ms", COLD_STARTS),
            "cli.run_cli.self_ms": (statistics.mean(cli_self), "ms", len(cli_self)),
            "cli.output_bytes": (statistics.mean(cli_bytes), "bytes", len(cli_bytes)),
        })
        return m

    def close(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sdke" / "__init__.py").is_file():
        print(f"sdke sources not found under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    print(f"env: python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, "
          f"loadavg {os.getloadavg()[0]:.2f}, workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    work = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        setups = []
        for _ in range(SETUPS):
            run.close()
            setups.append(run.setup())
        print(f"numpy {run.hello['numpy']}; sdke from {Path(run.hello['sdke']).relative_to(ROOT)}")
        print(f"setup_s samples: {' '.join(f'{t:.3f}' for t in setups)}")
        stats = [checks.input_stats(g.n, g.edges, g.pairing) for g in run.inputs]
        print(f"inputs: {len(run.inputs)} graphs, n {statistics.mean(g.n for g in run.inputs):g}, "
              f"m mean {statistics.mean(len(g.edges) for g in run.inputs):.2f}, "
              f"KE share mean {statistics.mean(s[0] for s in stats):.4f}, "
              f"cut edges mean {statistics.mean(s[1] for s in stats):.2f}, "
              f"sha256 {inputs_hash(run.inputs)}")
        if run.trace:
            metrics = run.measure_layers()
        else:
            metrics = run.measure()
            metrics["setup_s"] = (statistics.median(setups), "s", len(setups))
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)

    print(f"ops reaching configurations.sd_vertices_bruteforce: {run.bruteforce_ops}")
    print(f"fail_frac {run.failed / run.attempted:.6g} ratio ({run.failed} of {run.attempted})")
    for name, (value, unit, count) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={count})")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
