"""One benchmark workload, run in a process of its own by bench/run.py.

The process imports digraphlab from the checkout's `src`, builds the
workload's instances from the seed, prints `ready`, and then (unless
`--setup-only`) runs the instance list in passes from a single thread as a
closed loop: each operation starts after the previous one has finished and
been checked.  The last line it prints is one JSON object with the results.

Checks use an engine other than the one timed.  Cheap checks (witness
validation, colouring checks, report digests) run inside the timed region;
cross-engine checks run outside it, once per instance.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

# chi-sparse: sparse undirected G(n, m) graphs at the 3-colourability
# threshold (average degree 4.69), where about one graph in eight is
# 3-colourable.  The cost of one instance is heavy-tailed, and the tail grows
# fast with n: at n = 150 single instances took up to 88 s, and at n = 120
# about one in 1,500 ran for seconds, some of them close to any fixed limit,
# so whether such an operation failed depended on how busy the machine was.
# At n = 80 and degree 4.7 the median instance takes about 6 ms; of the
# 34,000 instances of seeds 1 to 60, one took 1.5 s and the next slowest
# 0.15 s.  Many instances keep the per-seed total steady.
CHI_N = 80
CHI_DEGREE = 4.7
CHI_COUNT = 600

#: Seconds after which an operation on a random threshold instance is
#: stopped and counted as failed.  It is a guard that keeps a run within its
#: time, not a cut of the workload: the slowest instances seen took 1.5 s
#: in chi-sparse (the next 0.15 s) and 0.48 s among 480 K3 searches of
#: hom-deep, so no seeded operation comes near it on a quiet machine or on a
#: busy one.
OP_LIMIT_S = 5.0

#: Seconds allowed for one cross-engine check; past it, the operation's
#: answer counts as unverified, i.e. failed.
CHECK_LIMIT_S = 30.0

# hom-deep: random oriented trees into C5 (arc consistency decides, the
# search recurses once per vertex, so the largest trees hit the recursion
# limit), plus sparse oriented graphs near the threshold into K3.
TREE_SIZES = (300, 500, 700, 900, 1100, 1300)
K3_N = 150
K3_DEGREE = 4.6
K3_COUNT = 12


class WrongAnswer(Exception):
    """The program returned an answer that an independent check refutes."""


class TimeLimit(Exception):
    """An operation or check ran past its time limit."""


class _Alarm:
    """Raises TimeLimit in the main thread after a delay.  While a tracer is
    recording a span boundary the alarm is deferred by a millisecond, so
    that spans stay well formed."""

    def __init__(self):
        self.tracer = None
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.tracer is not None and self.tracer.busy:
            signal.setitimer(signal.ITIMER_REAL, 0.001)
            return
        raise TimeLimit

    def call(self, seconds, fn, *args):
        """fn(*args), stopped with TimeLimit after `seconds` (None: no limit)."""
        if seconds is None:
            return fn(*args)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def import_digraphlab():
    """Import digraphlab from this checkout's sources, and from nowhere else."""
    pkg_dir = SRC / "digraphlab"
    if not (pkg_dir / "__init__.py").is_file():
        sys.exit(f"bench: no digraphlab sources at {pkg_dir}")
    sys.path.insert(0, str(SRC))
    import digraphlab

    if Path(digraphlab.__file__).resolve().parent != pkg_dir.resolve():
        sys.exit(f"bench: digraphlab was imported from {digraphlab.__file__}, not from {pkg_dir}")
    return digraphlab


def _edges(rng: random.Random, n: int, degree: float) -> list[tuple[int, int]]:
    """round(n * degree / 2) distinct undirected edges (u < v), uniformly."""
    m = round(n * degree / 2)
    edges: set[tuple[int, int]] = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def _random_tree(dl, rng: random.Random, n: int):
    """Random recursive tree: vertex i hangs off a uniform earlier vertex,
    with a uniformly random arc direction."""
    arcs = []
    for i in range(1, n):
        j = rng.randrange(i)
        arcs.append((i, j) if rng.random() < 0.5 else (j, i))
    return dl.make_digraph(n, arcs, name=f"tree({n})")


def pinned_job_ids() -> list[str]:
    return list(_pinned())


def _pinned() -> dict:
    """FULL_PROFILE job id -> sha256 of its report JSON at the seed commit."""
    return json.loads((BENCH / "verify_full_digests.json").read_text())["jobs"]


def _digest(report) -> str:
    text = json.dumps(report.to_json_dict(include_timing=False), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- workloads ---------------------------------------------------------------
#
# Each workload holds a list of operations.  `run(i)` performs operation i
# through the package's module attributes (so tracing wrappers apply),
# within `limit(i)` seconds (None: no limit);
# `outcome(i, result)` returns None for an answer, or the reason the
# operation gave no verdict, and raises WrongAnswer on a refuted answer;
# `cross_check(i, result)` runs the expensive independent check.


class VerifyFull:
    """Every FULL_PROFILE job, serially through `verify.run_job`."""

    def __init__(self, dl, seed: int):
        self.verify = dl.verify
        self.pinned = _pinned()
        self.jobs = list(self.verify.FULL_PROFILE)
        ids = [j[0] for j in self.jobs]
        if ids != list(self.pinned):
            sys.exit(f"bench: FULL_PROFILE job ids {ids} differ from the pinned list {list(self.pinned)}")

    def __len__(self):
        return len(self.jobs)

    def limit(self, i):
        return None

    def run(self, i):
        return self.verify.run_job(self.jobs[i])

    def outcome(self, i, report):
        job_id = self.jobs[i][0]
        if report.verdict == self.verify.INDETERMINATE:
            return "INDETERMINATE"
        if report.verdict != self.verify.PASS:
            raise WrongAnswer(f"{job_id}: verdict {report.verdict}")
        if _digest(report) != self.pinned[job_id]:
            raise WrongAnswer(f"{job_id}: report differs from the pinned output")
        return None

    def cross_check(self, i, report):
        pass


class ChiSparse:
    """`chromatic_number` on seeded sparse undirected graphs."""

    def __init__(self, dl, seed: int):
        self.dl = dl
        rng = random.Random(f"chi-sparse:{seed}")
        self.graphs = []
        for i in range(CHI_COUNT):
            edges = _edges(rng, CHI_N, CHI_DEGREE)
            arcs = edges + [(v, u) for u, v in edges]
            self.graphs.append(dl.make_digraph(CHI_N, arcs, name=f"sparse({CHI_N},{CHI_DEGREE})#{i}"))

    def __len__(self):
        return len(self.graphs)

    def limit(self, i):
        return OP_LIMIT_S

    def run(self, i):
        return self.dl.chromatic_number(self.graphs[i])

    def outcome(self, i, res):
        g = self.graphs[i]
        if res.chi is None:
            return "no chromatic number"
        colours = res.colouring
        if not self.dl.check_colouring(g, colours) or len(set(colours)) != res.chi:
            raise WrongAnswer(f"{g.name}: colouring is not a proper {res.chi}-colouring")
        cert = res.lower_bound_cert
        if cert is not None and (
            len(cert) != res.chi or any(not g.has_arc(u, v) for u in cert for v in cert if u != v)
        ):
            raise WrongAnswer(f"{g.name}: clique certificate {cert} is not a {res.chi}-clique")
        return None

    def cross_check(self, i, res):
        dl, g = self.dl, self.graphs[i]
        if dl.hom_exists(g, dl.complete(res.chi - 1)) is not None:
            raise WrongAnswer(f"{g.name}: maps into K_{res.chi - 1}, so chi < {res.chi}")
        w = dl.hom_exists(g, dl.complete(res.chi))
        if w is None or w is dl.BUDGET_EXCEEDED or not dl.validate_hom(w, g, dl.complete(res.chi)):
            raise WrongAnswer(f"{g.name}: no checked hom into K_{res.chi}")


class HomDeep:
    """`hom_exists` on large trees into C5 and sparse oriented graphs into K3."""

    def __init__(self, dl, seed: int):
        self.dl = dl
        rng = random.Random(f"hom-deep:{seed}")
        c5 = dl.circular_complete(5, 2)
        k3 = dl.complete(3)
        self.pairs = [(_random_tree(dl, rng, n), c5) for n in TREE_SIZES]
        for i in range(K3_COUNT):
            arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in _edges(rng, K3_N, K3_DEGREE)]
            self.pairs.append((dl.make_digraph(K3_N, arcs, name=f"oriented({K3_N},{K3_DEGREE})#{i}"), k3))

    def __len__(self):
        return len(self.pairs)

    def limit(self, i):
        # trees are decided by arc consistency; only the K3 searches backtrack
        return OP_LIMIT_S if self.pairs[i][1].n == 3 else None

    def run(self, i):
        g, h = self.pairs[i]
        return self.dl.hom_exists(g, h)

    def outcome(self, i, w):
        g, h = self.pairs[i]
        if w is self.dl.BUDGET_EXCEEDED:
            return "BUDGET_EXCEEDED"
        if w is None:
            if h.n == 5:
                raise WrongAnswer(f"{g.name}: no hom into C5, but trees are bipartite")
            return None
        if not self.dl.validate_hom(w, g, h):
            raise WrongAnswer(f"{g.name}: witness is not a hom into {h.name}")
        return None

    def cross_check(self, i, w):
        g, h = self.pairs[i]
        if w is None:
            # chromatic_number raises the global recursion limit; restore it
            # so that later searches fail exactly where they would alone.
            limit = sys.getrecursionlimit()
            try:
                chi = self.dl.chromatic_number(g).chi
            finally:
                sys.setrecursionlimit(limit)
            if chi <= 3:
                raise WrongAnswer(f"{g.name}: no hom into K3, but chi = {chi}")


WORKLOAD_CLASSES = {"verify-full": VerifyFull, "chi-sparse": ChiSparse, "hom-deep": HomDeep}
WORKLOADS = tuple(WORKLOAD_CLASSES)


# --- measuring ---------------------------------------------------------------


class Run:
    """Passes over one workload's operation list, with failure counts.

    Passes repeat the same operations to time them again.  So `attempted`
    counts each operation of the list once, and an operation counts as
    failed, with the reason it first failed for, if it failed in any pass.
    Both then depend on the seed alone, not on how many passes fit in the
    run.
    """

    def __init__(self, work):
        self.work = work
        self.tracer = None
        self.alarm = _Alarm()
        self.checked: set[int] = set()
        self.failures: dict[int, str] = {}
        #: op_times[i]: the timed seconds of operation i in each untraced pass
        self.op_times: list[list[float]] = [[] for _ in range(len(work))]

    @property
    def attempted(self) -> int:
        return len(self.work)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def failure_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for reason in self.failures.values():
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    def _fail(self, i: int, reason: str) -> None:
        self.failures.setdefault(i, reason)

    def one_pass(self, traced: bool) -> float:
        """Run every operation once; return the timed seconds of the pass.

        The timed region covers each operation and its cheap checks; the
        cross-engine check of an instance's first answer runs outside it.
        Garbage left by the previous pass is collected before the pass.
        """
        work, tracer = self.work, self.tracer
        self.alarm.tracer = tracer if traced else None
        gc.collect()
        timed = 0.0
        for i in range(len(work)):
            t0 = perf_counter()
            if traced:
                tracer.enabled = True
            try:
                result = self.alarm.call(work.limit(i), work.run, i)
                error = None
            except Exception as e:  # every raised exception is a failed operation
                result, error = None, type(e).__name__
            finally:
                if traced:
                    tracer.enabled = False
                    tracer.close_open_spans()
            if error is None:
                error = work.outcome(i, result)
            took = perf_counter() - t0
            timed += took
            if not traced:
                self.op_times[i].append(took)
            if error is not None:
                self._fail(i, error)
            elif i not in self.checked:
                try:
                    self.alarm.call(CHECK_LIMIT_S, work.cross_check, i, result)
                except TimeLimit:
                    self._fail(i, "unverified: check ran past its time limit")
                    continue
                self.checked.add(i)
        return timed


def measure(run: Run, seconds: float, trace: bool) -> dict:
    """Untraced: passes while the next one is expected to end within
    `seconds` of the start, at least one.  Traced: one untraced pass, then
    traced passes likewise."""
    t_start = perf_counter()
    untraced = []
    if trace:
        from tracing import Tracer

        untraced.append(run.one_pass(traced=False))
        run.tracer = Tracer()
        run.tracer.install(sys.modules["digraphlab"])
    passes: list[float] = []
    while True:
        passes.append(run.one_pass(traced=trace))
        # later passes skip the cross-engine checks, so they take about as
        # long as this pass's timed part
        if perf_counter() - t_start + passes[-1] > seconds:
            break
    return {"passes": passes, "untraced": untraced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up (set-up time probe)")
    args = ap.parse_args(argv)

    dl = import_digraphlab()
    work = WORKLOAD_CLASSES[args.workload](dl, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    run = Run(work)
    try:
        m = measure(run, args.seconds, bool(args.trace))
    except WrongAnswer as e:
        print(f"bench: wrong answer: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": run.failed}), flush=True)
        return 1
    passes = m["passes"]
    out: dict = {"correct": True, "attempted": run.attempted, "failed": run.failed}
    out["failures"] = run.failure_counts()
    out["passes"] = passes
    if not args.trace:
        # one pass, estimated operation by operation, so that a stall of the
        # machine in one pass moves only the operations it hit
        out["pass_s"] = sum(statistics.median(t) for t in run.op_times)
    out["ops_per_pass"] = len(work)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        from tracing import layer_metrics

        tracer = run.tracer
        tracer.write(TRACE_DIR / f"spans-{args.workload}")
        out["layers"] = layer_metrics(tracer, pinned_job_ids(), len(passes), statistics.mean(passes), m["untraced"][0])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
