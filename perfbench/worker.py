"""Warm worker: imports sdke once and runs one workload's library ops.

The main process (run.py) talks to it over stdin/stdout, one JSON object per
line each way:

  {"cmd": "load", "workload": W, "texts": [...], "trace": b} -> versions
  {"cmd": "op", "i": k, "warmup": b}                  -> timing, verdict
  {"cmd": "run_cli", "argv": [...]}                   -> traced in-process CLI call
  {"cmd": "finish", "trace_out": path or null}        -> peak RSS, then exit

An op's latency covers only the library call.  Its answer is checked
afterwards against references from checks.py, outside the timed region.
In a traced run each op runs once untraced and then once traced, with
the tracer's wrappers installed only for the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
from time import perf_counter

import numpy
import sdke
from sdke import (
    alternating,
    cli,
    configurations,
    decomposition,
    determinantal,
    graph,
    matching,
    verification,
)

import checks
from tracing import Tracer, summarize

MODULES = (sdke, graph, matching, alternating, decomposition, configurations,
           determinantal, verification, cli)

# The inputs whose first checked answer is also compared with the column-subset
# permanent, which costs about a second at n = 18.
PERMANENT_SUBSAMPLE = (0,)


class Input:
    """One input as the worker holds it, with the checker's own adjacency."""

    def __init__(self, index: int, text: str, preparse: bool) -> None:
        self.index = index
        self.text = text
        self.n, self.edges = checks.parse_edge_list(text)
        self.adj = checks.adjacency(self.n, self.edges)
        self.edge_set = frozenset(self.edges)
        self.graph = sdke.parse_edge_list(text) if preparse else None


def _perfect_matching_error(inp: Input, pairing) -> str | None:
    for v, w in enumerate(pairing):
        if w == v or pairing[w] != v or (min(v, w), max(v, w)) not in inp.edge_set:
            return f"matching is not a perfect matching of the graph at vertex {v}"
    return None


# Each workload: (parse the graph at load rather than in the op?, op, check,
# reference for the CLI check).  A check returns None when the answer is
# right and a reason otherwise.

def _split_op(inp):
    g = sdke.parse_edge_list(inp.text)
    return g, sdke.sd_ke_partition(g)


def _split_check(inp, answer, first):
    g, part = answer
    pairing = part.matching.pairing
    err = _perfect_matching_error(inp, pairing)
    if err:
        return err
    everyone = frozenset(range(inp.n))
    if part.sd_vertices | part.ke_vertices != everyone or part.sd_vertices & part.ke_vertices:
        return "SD and KE do not partition the vertices"
    if part.sd_vertices != checks.sd_vertices(inp.adj, pairing):
        return "SD set differs from the strong-component reference"
    sd = part.sd_vertices
    if part.cut != {e for e in inp.edges if (e[0] in sd) != (e[1] in sd)}:
        return "cut is not the set of crossing edges"
    if set(part.witnesses) != sd:
        return "witnesses are not exactly the SD vertices"
    for v, w in part.witnesses.items():
        if w.kind != "mm" or w.vertices[0] != v or w.vertices[-1] != v:
            return f"witness of {v} is not an mm-closed walk at {v}"
        if not sdke.verify_walk(g, part.matching, w):
            return f"witness of {v} fails verify_walk"
    for v in part.ke_vertices:
        u = pairing[v]
        if v < u:
            member = v if v in part.failed_searches else u if u in part.failed_searches else None
            if member is None:
                return f"KE pair {v},{u} has no failed search"
            if checks.has_mm_closed_walk(inp.adj, pairing, member):
                return f"KE member {member} has an mm-closed walk"
    return None


def _split_ref(answer):
    part = answer[1]
    return {"sd": sorted(part.sd_vertices), "ke": sorted(part.ke_vertices)}


def _perm_op(inp):
    return sdke.factorization_report(inp.graph)


def _perm_check(inp, r, first):
    if r.det_g != r.det_sd * r.det_ke or not r.det_product_ok:
        return "det product does not hold"
    if r.perm_g != r.perm_sd * r.perm_ke or not r.perm_product_ok:
        return "perm product does not hold"
    if (r.perm_g - r.det_g) % 2:
        return "perm and det differ mod 2"
    if first and inp.index in PERMANENT_SUBSAMPLE and r.perm_g != checks.permanent(inp.n, inp.adj):
        return "perm differs from the column-subset reference"
    return None


def _verify_op(inp):
    return sdke.run_theorem_suite(inp.graph)


def _verify_check(inp, r, first):
    if not r.checks:
        return "theorem suite ran no checks"
    failed = [c.name for c in r.checks if not c.passed]
    return f"theorem checks failed: {failed}" if failed else None


def _match_op(inp):
    return sdke.is_matchable(sdke.parse_edge_list(inp.text))


WORKLOADS = {
    "split-mixed": (False, _split_op, _split_check, _split_ref),
    "dense-perm": (True, _perm_op, _perm_check, lambda r: {"perm": str(r.perm_g)}),
    "verify-small": (True, _verify_op, _verify_check,
                     lambda r: {"checks": [c.name for c in r.checks]}),
    "match-large": (False, _match_op,
                    lambda inp, ok, first: None if ok is True else f"is_matchable gave {ok!r}",
                    lambda ok: {}),
}


def _count_calls(module, attr: str) -> list[int]:
    fn = getattr(module, attr)
    count = [0]

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    setattr(module, attr, counted)
    return count


class Runner:
    def __init__(self, workload: str, texts: list[str], trace: bool) -> None:
        preparse, self.op, self.check, self.ref = WORKLOADS[workload]
        self.inputs = [Input(i, t, preparse) for i, t in enumerate(texts)]
        self.checked: set[int] = set()  # inputs whose reference answer was sent
        # decomposition reaches the exhaustive search through this attribute;
        # the counter costs one call frame on that (rare) path only.
        self.bruteforce = _count_calls(configurations, "sd_vertices_bruteforce")
        self.tracer = Tracer(MODULES) if trace else None
        self.traced_ops: list[tuple[int, int]] = []

    def _timed(self, inp):
        before = self.bruteforce[0]
        t0 = perf_counter()
        try:
            answer = self.op(inp)
        except Exception as exc:  # a library failure is a measured outcome
            return (perf_counter() - t0) * 1000, None, f"{type(exc).__name__}: {exc}", False
        ms = (perf_counter() - t0) * 1000
        return ms, answer, None, self.bruteforce[0] > before

    def _verdict(self, inp, answer, error, reply) -> None:
        first = inp.index not in self.checked
        if error is None:
            try:
                error = self.check(inp, answer, first)
            except Exception as exc:  # a malformed answer fails its check
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None and first:
            self.checked.add(inp.index)
            reply["ref"] = self.ref(answer)
        if error is not None:
            reply["errors"].append(error)

    def op_request(self, i: int, warmup: bool) -> dict:
        """Time one op; unless it is a warm-up, check it and, if tracing, trace a rerun."""
        inp = self.inputs[i]
        ms, answer, error, bruteforce = self._timed(inp)
        reply = {"ms": ms, "errors": [], "bruteforce": bruteforce}
        if warmup:
            return reply
        self._verdict(inp, answer, error, reply)
        tracer = self.tracer
        if tracer is not None:
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced_ms, answer, error, _ = self._timed(inp)
            finally:
                tracer.uninstall()
            hi = len(tracer.spans)
            self.traced_ops.append((lo, hi))
            reply.update(summarize(tracer.spans, lo, hi), traced_ms=traced_ms)
            self._verdict(inp, answer, error, reply)
        return reply

    def run_cli(self, argv: list[str]) -> dict:
        out = io.StringIO()
        lo = len(self.tracer.spans)
        self.tracer.install()
        try:
            with contextlib.redirect_stdout(out):
                code = cli.run_cli(argv)
        finally:
            self.tracer.uninstall()
        layers = summarize(self.tracer.spans, lo, len(self.tracer.spans))["layers"]
        return {"code": code, "stdout": out.getvalue(),
                "self_ms": layers["cli.run_cli"]["self_ms"]}


def main() -> None:
    runner: Runner | None = None
    for line in sys.stdin:
        msg = json.loads(line)
        cmd = msg["cmd"]
        if cmd == "load":
            runner = Runner(msg["workload"], msg["texts"], msg["trace"])
            reply = {"numpy": numpy.__version__, "sdke": sdke.__file__}
        elif cmd == "op":
            reply = runner.op_request(msg["i"], msg["warmup"])
        elif cmd == "run_cli":
            reply = runner.run_cli(msg["argv"])
        elif cmd == "finish":
            if msg.get("trace_out") and runner.tracer is not None:
                runner.tracer.dump(msg["trace_out"], runner.traced_ops)
            reply = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        else:
            raise ValueError(f"unknown command {cmd!r}")
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
        if cmd == "finish":
            return


if __name__ == "__main__":
    main()
