"""swcalc benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {ladder,wide,search,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source tree (the package is imported from ``src/``).
A closed loop with one client runs the workload's items one at a time, the
next starting when the previous verdict is in, in passes over the seeded item
list until about S seconds are used (at least one pass).  Times are read at
a reference CPU speed (see ``speed.py``), and an item's verdict time is its
median over the passes.  Every result is checked by the exact oracle in
``oracle.py``; an exception, a CLI traceback, a mismatch or an item that
overruns its time budget counts as failed and the run goes on.  The last
line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.  The
line before it holds the details (provenance, tail percentile, failures,
layer rollup).
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import oracle
import workloads
from speed import Sampler
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROCESS_START = perf_counter()

WORKLOADS = ("ladder", "wide", "search", "cli")
# Per-item budgets, several times the slowest item of each workload at the
# commit that introduced the benchmark; the run deadline keeps a run that is
# full of overrunning items inside three minutes.
ITEM_BUDGET_S = {"ladder": 30.0, "wide": 30.0, "search": 15.0, "cli": 20.0}
RUN_DEADLINE_S = 150.0
PROBE_REPEATS = 7
CATALOG_NAMES = ("K3", "E3", "E4", "E5", "E6")


class SetupError(Exception):
    """The source tree or the generated inputs are not usable."""


class ItemTimeout(BaseException):
    """Raised by the interval timer when an in-process item overruns its budget.

    A BaseException, so library code that catches Exception cannot swallow it."""


def _on_alarm(signum, frame):
    raise ItemTimeout


# ---- set-up ---------------------------------------------------------------------

def import_swcalc():
    init = SRC / "swcalc" / "__init__.py"
    if not init.is_file():
        raise SetupError(f"no swcalc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import swcalc
    import swcalc.cli  # noqa: F401  (the cli workload calls swcalc.cli.main)
    if Path(swcalc.__file__).resolve() != init.resolve():
        raise SetupError(f"imported swcalc from {swcalc.__file__}, not from {SRC}")
    return swcalc


def _check_manifest(sw, text: str) -> None:
    """Each generated manifest passes validate and survives a round trip."""
    manifest = sw.parse_manifest(text)
    report = sw.validate(manifest.to_manifold())
    if not report.passed:
        failed = ", ".join(c.name for c in report.failures())
        raise SetupError(f"generated manifest {manifest.name} fails validate: {failed}")
    if sw.parse_manifest(sw.serialize_manifest(manifest)) != manifest:
        raise SetupError(f"generated manifest {manifest.name} does not round-trip")


@dataclass
class Inputs:
    sw: object
    items: list = field(default_factory=list)        # library workloads
    manifests: dict = field(default_factory=dict)    # cli: name -> manifest dict


def setup(workload: str, seed: int) -> Inputs:
    """Import swcalc, then build, parse and check the workload's manifests."""
    sw = import_swcalc()
    if workload == "cli":
        manifests = {name: workloads.catalog(name) for name in CATALOG_NAMES}
        manifests["search"] = workloads.cli_search_manifest(seed)
        for manifest in manifests.values():
            _check_manifest(sw, json.dumps(manifest))
        return Inputs(sw, manifests=manifests)
    items = workloads.generate(workload, seed)
    for item in items:
        _check_manifest(sw, item.text)
    return Inputs(sw, items=items)


def _child_env(speed_file: str | None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SWCALC_RADIUS", None)
    env.pop("PERFBENCH_SPEED_FILE", None)
    if speed_file is not None:
        env["PERFBENCH_SPEED_FILE"] = speed_file
    return env


@dataclass
class Spawned:
    start: float
    end: float
    code: int
    out: str
    err: str
    maxrss_kib: int
    killed: bool

    @property
    def seconds(self) -> float:
        return self.end - self.start


def spawn(argv, budget: float, workdir: str, sampler: Sampler | None = None) -> Spawned:
    """Run one child to completion; kill it when it overruns the budget.

    os.wait4 gives the child's own resource usage, so each call has its peak
    resident memory.  With a sampler, the child is one that records its CPU
    speed samples (child.py, --setup-probe) and they are added to the sampler."""
    speed_file = None if sampler is None else str(Path(workdir) / "speed.json")
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=_child_env(speed_file), cwd=ROOT)
        timer = threading.Timer(budget, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        if speed_file is not None:
            try:
                sampler.add(json.loads(Path(speed_file).read_text(encoding="utf-8")))
                os.unlink(speed_file)
            except (OSError, ValueError):
                pass  # a killed child leaves none; its neighbours' samples stand in
        return Spawned(start, end, proc.returncode, out.read().decode("utf-8", "replace"),
                       err.read().decode("utf-8", "replace"), usage.ru_maxrss,
                       proc.returncode == -signal.SIGKILL)


def fresh_seconds(argv, workdir: str, what: str, sampler: Sampler | None = None) -> list[float]:
    """Times of PROBE_REPEATS fresh processes, from spawn to exit: wall times,
    or with a sampler (argv must then record speed samples) times at the
    reference speed."""
    children = []
    for _ in range(PROBE_REPEATS):
        child = spawn(argv, ITEM_BUDGET_S["cli"], workdir, sampler)
        if child.code != 0:
            raise SetupError(f"{what} failed: " + child.err.strip()[-500:])
        children.append(child)
    if sampler is None:
        return [c.seconds for c in children]
    return [sampler.normalize(c.start, c.end) for c in children]


# ---- items ----------------------------------------------------------------------

@dataclass
class Outcome:
    subject: object          # the workloads.Item or workloads.Call that ran
    start: float
    end: float
    value: object = None     # raw result, summarized and checked after the pass
    error: str | None = None
    problems: list = field(default_factory=list)
    maxrss_kib: int = 0
    seconds: float = 0.0     # the wall time, or the time at the reference speed

    def __post_init__(self):
        self.seconds = self.wall

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def key(self) -> str:
        return self.subject.key

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)


@dataclass
class Pass:
    wall: float
    outcomes: list


def _budget(workload: str) -> float:
    return min(ITEM_BUDGET_S[workload], RUN_DEADLINE_S - (perf_counter() - PROCESS_START))


def timed_call(fn, budget: float):
    """(start, end, value, error) of fn(), stopped by an interval timer at budget."""
    start = perf_counter()
    if budget <= 0:
        return start, start, None, "not started: run deadline reached"
    value, error = None, None
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except ItemTimeout:
        error = f"stopped after its {budget:.1f} s budget"
    except Exception as e:  # the run goes on; the item counts as failed
        error = f"{type(e).__name__}: {e}"
    return start, perf_counter(), value, error


def run_item(sw, item):
    """One manifest through its pipeline; calls go through the package namespace
    so that traced runs see the wrapped entry points."""
    manifest = sw.parse_manifest(item.text)
    m = manifest.to_manifold()
    if not sw.validate(m).passed:
        return ("invalid",)
    if item.pipeline == "abundance":
        complement = sw.orthogonal_complement(m.form, [e.k for e in m.basic_classes])
        pair = sw.find_hyperbolic_pair(complement, item.radius)
        classes = None if pair is None else sw.construct_abundance_classes(pair, m.chi, m.sigma)
        return ("abundance", pair, classes)
    w = sw.CohClass(manifest.w) if manifest.w is not None else sw.characteristic_vector(m.form)
    return ("vanishing", w, sw.sst_check(m, w), sw.dvanish_theorem_check(m, w))


def summarize(raw) -> dict:
    """Plain lists and verdicts of a pipeline result, in the oracle's format."""
    if raw[0] == "invalid":
        return {"validate": "fail"}
    coords = lambda c: list(c.coords)  # noqa: E731
    if raw[0] == "abundance":
        _, pair, classes = raw
        result = {"verdict": "undetermined"}
        if pair is not None:
            result = {"verdict": "pass", "e1": coords(pair.e1), "e2": coords(pair.e2),
                      "lambda0": coords(classes.lambda0), "lambda1": coords(classes.lambda1),
                      "lambda_even": coords(classes.lambda_even)}
        return {"validate": "pass", "abundance": result}
    _, w, sst, dv = raw
    order = None if sst.order is None else [sst.order.kind, sst.order.value]
    return {
        "validate": "pass",
        "w": coords(w),
        "sst": {
            "verdict": sst.verdict, "order": order,
            "lambda0": sst.lambda0 and coords(sst.lambda0),
            "lambda1": sst.lambda1 and coords(sst.lambda1),
            "entries": [[e.d, e.m, e.delta, e.vanishing_applies, e.relation_is_zero]
                        for e in sst.entries],
        },
        "dvanish": {
            "verdict": dv.verdict, "lambda": coords(dv.lam),
            "admissible_d": list(dv.admissible_d),
            "entries": [[e.d, e.m, e.route, e.value_is_zero] for e in dv.entries],
        },
    }


def library_pass(inputs: Inputs, workload: str, tracer: Tracer | None = None) -> Pass:
    outcomes = []
    start = perf_counter()
    for item in inputs.items:
        if tracer is not None:
            tracer.item = item.key
        outcomes.append(Outcome(item, *timed_call(lambda: run_item(inputs.sw, item), _budget(workload))))
    return Pass(perf_counter() - start, outcomes)


def verify_library(run_pass: Pass, reference: dict, rng) -> None:
    for outcome in run_pass.outcomes:
        if outcome.error:
            continue
        try:
            outcome.problems = oracle.check_item(
                json.loads(outcome.subject.text), summarize(outcome.value),
                reference[outcome.key], rng)
        except (KeyError, TypeError, ValueError) as e:
            outcome.problems = [f"result could not be checked: {type(e).__name__}: {e}"]
        outcome.value = None


# ---- cli ------------------------------------------------------------------------

@dataclass
class CliContext:
    inputs: Inputs
    calls: list
    workdir: str
    search_path: str

    def manifest_for(self, argv):
        if argv[0] == "catalog":
            return None
        if argv[1] == self.search_path:
            return self.inputs.manifests["search"]
        return self.inputs.manifests[argv[1]]


def cli_context(inputs: Inputs, seed: int, workdir: str) -> CliContext:
    search_path = str(Path(workdir) / "search-p3q3.json")
    Path(search_path).write_text(json.dumps(inputs.manifests["search"]), encoding="utf-8")
    return CliContext(inputs, workloads.cli(seed, search_path), workdir, search_path)


def cli_fresh_pass(ctx: CliContext, sampler: Sampler) -> Pass:
    """Each call in a fresh process: ``child.py ARGS``, which runs as
    ``python -m swcalc ARGS`` does and adds its speed samples to the sampler."""
    outcomes = []
    start = perf_counter()
    for call in ctx.calls:
        budget = _budget("cli")
        if budget <= 0:
            now = perf_counter()
            outcomes.append(Outcome(call, now, now, error="not started: run deadline reached"))
            continue
        child = spawn([sys.executable, str(HERE / "child.py"), *call.argv], budget, ctx.workdir, sampler)
        error = f"killed after its {budget:.1f} s budget" if child.killed else None
        outcomes.append(Outcome(call, child.start, child.end,
                                (call.argv, child.code, child.out, child.err),
                                error, maxrss_kib=child.maxrss_kib))
    return Pass(perf_counter() - start, outcomes)


def cli_inprocess_pass(ctx: CliContext, tracer: Tracer | None = None) -> Pass:
    """cli.main(argv) in this process, standard output and error captured."""
    main = ctx.inputs.sw.cli.main
    outcomes = []
    start = perf_counter()
    for call in ctx.calls:
        if tracer is not None:
            tracer.item = call.key
        out, err = io.StringIO(), io.StringIO()

        def invoke():
            with redirect_stdout(out), redirect_stderr(err):
                return main(list(call.argv))

        start, end, code, error = timed_call(invoke, _budget("cli"))
        outcomes.append(Outcome(call, start, end, (call.argv, code, out.getvalue(), err.getvalue()),
                                error))
    return Pass(perf_counter() - start, outcomes)


def verify_cli(ctx: CliContext, run_pass: Pass, reference: dict, rng) -> None:
    for outcome in run_pass.outcomes:
        if outcome.error:
            continue
        argv, code, out, err = outcome.value
        try:
            outcome.problems = oracle.check_cli(argv, code, out, err, ctx.manifest_for(argv),
                                                reference[outcome.key], rng)
        except (KeyError, TypeError, ValueError) as e:
            outcome.problems = [f"result could not be checked: {type(e).__name__}: {e}"]
        outcome.value = None


# ---- the loop -------------------------------------------------------------------

def closed_loop(run_pass, verify, seconds: float, modes):
    """Passes in the given cycle of modes until the next one would end after
    ``seconds`` (at least one full cycle) or the run deadline is near."""
    passes = {mode: [] for mode in modes}
    start = perf_counter()
    count = 0
    while True:
        mode = modes[count % len(modes)]
        done = run_pass(mode)
        verify(done)
        passes[mode].append(done)
        count += 1
        elapsed = perf_counter() - start
        if count >= len(modes) and elapsed + done.wall > seconds:
            break
        if perf_counter() - PROCESS_START + done.wall > RUN_DEADLINE_S:
            break
    return passes


def normalize(passes: list, sampler: Sampler) -> None:
    """Read every outcome's time at the reference speed."""
    for p in passes:
        for o in p.outcomes:
            if o.wall > 0:
                o.seconds = sampler.normalize(o.start, o.end)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(passes: list, setup_s: float, peak_kib: int, wall: bool = False) -> tuple[dict, dict]:
    """Each item's verdict time is its median over the run's passes.

    Every pass runs the same items.  The tail is the highest percentile with
    at least ten items beyond it when a pass has 21 or more items (so that
    percentile is above the median); with fewer, it is the slowest item.
    With ``wall``, item times are wall times instead of reference-speed times."""
    times = sorted(statistics.median(p.outcomes[i].wall if wall else p.outcomes[i].seconds for p in passes)
                   for i in range(len(passes[0].outcomes)))
    n = len(times)
    if n >= 21:
        tail, tail_info = times[n - 11], {"percentile": round(100.0 * (n - 10) / n, 2), "beyond": 10}
    else:
        tail, tail_info = times[-1], {"percentile": 100.0, "beyond": 0}
    tail_info.update(items=n, repeats=len(passes))
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "solve_s": _metric(sum(times), "s"),
        "verdict_p50_s": _metric(statistics.median(times), "s"),
        "verdict_tail_s": _metric(tail, "s"),
        "peak_rss_mib": _metric(peak_kib / 1024.0, "MiB"),
    }
    return metrics, tail_info


def _slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx, ly = [math.log(x) for x in xs], [math.log(max(y, 1e-9)) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def layer_metrics(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Per-layer numbers per traced pass (sizes as means per call)."""
    roll = tracer.rollup()
    n = len(traced)

    def row(name):
        return roll.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "sizes": {}})

    def per_pass(name, key="total_s"):
        return row(name)[key] / n

    def size_per_call(name, key):
        r = row(name)
        return r["sizes"].get(key, 0) / r["calls"] if r["calls"] else 0.0

    def size_per_pass(name, key):
        return row(name)["sizes"].get(key, 0) / n

    traced_solve = statistics.median(p.wall for p in traced)
    untraced_solve = statistics.median(p.wall for p in untraced)
    seconds = {
        "lattice.complement_s": per_pass("lattice.complement"),
        "lattice.characteristic_vector_s": per_pass("lattice.characteristic_vector"),
        "lattice.pair_search_s": per_pass("lattice.pair_search"),
        "relations.dswrel_s": per_pass("relations.dswrel"),
        "relations.sst_self_s": per_pass("relations.sst", "self_s"),
        "relations.dvanish_self_s": per_pass("relations.dvanish", "self_s"),
        "relations.region_s": per_pass("relations.region"),
        "region.render_s": per_pass("region.render"),
        "series.jet_s": per_pass("series.jet"),
        "series.sw_series_s": per_pass("series.sw_series"),
        "manifold.to_manifold_s": per_pass("manifold.to_manifold"),
        "manifold.validate_s": per_pass("manifold.validate"),
        "manifest.parse_s": per_pass("manifest.parse"),
        "trace.overhead_s": traced_solve - untraced_solve,
    }
    metrics = {name: _metric(value, "s") for name, value in seconds.items()}
    metrics.update({
        "lattice.complement_rank": _metric(size_per_call("lattice.complement", "complement_rank"), "count"),
        "lattice.constraint_rank": _metric(size_per_call("lattice.complement", "constraint_rank"), "count"),
        "lattice.pair_found_ratio": _metric(size_per_call("lattice.pair_search", "found"), "1"),
        "relations.dswrel_calls": _metric(per_pass("relations.dswrel", "calls"), "count"),
        "series.jet_width": _metric(size_per_call("series.jet", "width"), "count"),
        "series.jet_monomials": _metric(size_per_pass("series.jet", "monomials"), "count"),
        "manifest.input_bytes": _metric(size_per_pass("manifest.parse", "input_bytes"), "B"),
        "trace.overhead_share": _metric((traced_solve - untraced_solve) / untraced_solve, "1"),
    })
    return metrics


def rank_exponents(tracer: Tracer, traced: list, untraced: list) -> dict:
    """Fitted log-log exponents against lattice rank on the ladder."""
    ranks = {f"E{n}": 12 * n - 2 for n in workloads.LADDER_N}
    keys = sorted(ranks, key=ranks.get)
    complement = tracer.by_item("lattice.complement")
    item_s = {k: min(o.seconds for p in untraced for o in p.outcomes if o.key == k) for k in keys}
    xs = [ranks[k] for k in keys]
    return {
        "ladder.complement_rank_exponent": _slope(xs, [complement.get(k, 0.0) / len(traced) for k in keys]),
        "ladder.item_rank_exponent": _slope(xs, [item_s[k] for k in keys]),
    }


PURPOSE = {
    "ladder": ("lattice.complement_s", "relations.dswrel_s"),
    "wide": ("series.jet_s", "relations.dswrel_s"),
    "search": ("lattice.pair_search_s",),
    "cli": ("cli.interpreter_s", "cli.import_s"),
}


# ---- provenance -----------------------------------------------------------------

def provenance(args) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": args.seed,
        "workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
    }


# ---- runs -----------------------------------------------------------------------

def run(args) -> tuple[list, dict, dict]:
    """Returns (all passes, metrics, details)."""
    reference = oracle.load_reference()[args.workload]
    rng = random.Random(args.seed)
    details = {"provenance": provenance(args)}
    import_swcalc()
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".work-") as workdir:
        if not args.trace:
            probe = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                     "--workload", args.workload, "--seed", str(args.seed)]
            details["setup_s_samples"] = fresh_seconds(probe, workdir, "set-up probe", Sampler())
        inputs = setup(args.workload, args.seed)
        if args.workload == "cli":
            return run_cli(args, inputs, workdir, reference, rng, details)
        return run_library(args, inputs, reference, rng, details)


def run_library(args, inputs, reference, rng, details):
    workload = args.workload
    verify = lambda p: verify_library(p, reference, rng)  # noqa: E731
    if not args.trace:
        sampler = Sampler()
        with sampler.running():
            passes = closed_loop(lambda _: library_pass(inputs, workload), verify,
                                 args.seconds, (None,))[None]
        normalize(passes, sampler)
        details["speed"] = _speed_details(passes, sampler)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, details["tail"] = end_to_end(passes, statistics.median(details["setup_s_samples"]), peak)
        return passes, metrics, details
    tracer = Tracer()

    def one(traced):
        if not traced:
            return library_pass(inputs, workload)
        with tracer.installed():
            return library_pass(inputs, workload, tracer)

    by_mode = closed_loop(one, verify, args.seconds, (False, True))
    metrics = layer_metrics(tracer, by_mode[True], by_mode[False])
    metrics.update({k: _metric(0.0, "s") for k in ("cli.interpreter_s", "cli.import_s", "cli.main_s")})
    exponents = rank_exponents(tracer, by_mode[True], by_mode[False]) if workload == "ladder" else {}
    for name in ("ladder.complement_rank_exponent", "ladder.item_rank_exponent"):
        metrics[name] = _metric(exponents.get(name, 0.0), "1")
    traced_wall = statistics.fmean(p.wall for p in by_mode[True])
    details["rollup"] = _rollup(workload, metrics, traced_wall, "traced pass wall time")
    details["layers"] = tracer.rollup()
    return by_mode[False] + by_mode[True], metrics, details


def _speed_details(passes: list, sampler: Sampler) -> dict:
    """Wall times next to the normalized ones, and the speed the run saw."""
    walls = [sum(o.wall for o in p.outcomes) for p in passes]
    wall_metrics = end_to_end(passes, 0.0, 0, wall=True)[0]
    return {"samples": len(sampler.at), "mean_speed": sampler.speed(-math.inf, math.inf),
            "wall_s": {k: wall_metrics[k]["value"] for k in ("solve_s", "verdict_p50_s", "verdict_tail_s")},
            "pass_item_wall_s": walls,
            "pass_item_reference_s": [sum(o.seconds for o in p.outcomes) for p in passes]}


def _rollup(workload, metrics, base, base_name) -> dict:
    share = sum(metrics[name]["value"] for name in PURPOSE[workload]) / base
    return {"layers": list(PURPOSE[workload]), "base": base_name, "base_value": base,
            "share": share, "purpose_confirmed": share > 0.5}


def run_cli(args, inputs, workdir, reference, rng, details):
    ctx = cli_context(inputs, args.seed, workdir)
    warm = spawn([sys.executable, str(HERE / "child.py"), "catalog", "list"], ITEM_BUDGET_S["cli"],
                 workdir, Sampler())
    if warm.code != 0:
        raise SetupError("warm-up call failed: " + warm.err.strip()[-500:])
    interpreter = statistics.median(fresh_seconds([sys.executable, "-c", "pass"], workdir, "interpreter probe"))
    details["cli_interpreter_s"] = interpreter
    verify = lambda p: verify_cli(ctx, p, reference, rng)  # noqa: E731
    if not args.trace:
        sampler = Sampler()
        passes = closed_loop(lambda _: cli_fresh_pass(ctx, sampler), verify, args.seconds, (None,))[None]
        normalize(passes, sampler)
        details["speed"] = _speed_details(passes, sampler)
        peak = max(o.maxrss_kib for p in passes for o in p.outcomes)
        metrics, details["tail"] = end_to_end(passes, statistics.median(details["setup_s_samples"]), peak)
        return passes, metrics, details
    import_s = statistics.median(
        fresh_seconds([sys.executable, "-c", "import swcalc.cli"], workdir, "import probe")) - interpreter
    fresh = cli_fresh_pass(ctx, Sampler())
    verify(fresh)
    p50 = statistics.median(o.seconds for o in fresh.outcomes)
    tracer = Tracer()

    def one(traced):
        if not traced:
            return cli_inprocess_pass(ctx)
        with tracer.installed():
            return cli_inprocess_pass(ctx, tracer)

    by_mode = closed_loop(one, verify, max(args.seconds - fresh.wall, 0.0), (False, True))
    metrics = layer_metrics(tracer, by_mode[True], by_mode[False])
    main_s = statistics.median(o.seconds for p in by_mode[False] for o in p.outcomes)
    metrics.update({
        "cli.interpreter_s": _metric(interpreter, "s"),
        "cli.import_s": _metric(import_s, "s"),
        "cli.main_s": _metric(main_s, "s"),
        "ladder.complement_rank_exponent": _metric(0.0, "1"),
        "ladder.item_rank_exponent": _metric(0.0, "1"),
    })
    details["rollup"] = _rollup("cli", metrics, p50, "verdict_p50_s (fresh processes)")
    details["layers"] = tracer.rollup()
    return [fresh] + by_mode[False] + by_mode[True], metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only do the set-up and exit (times setup_s in a fresh process); "
                             "CPU speed samples go to the file named by PERFBENCH_SPEED_FILE")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            sampler = Sampler()
            try:
                with sampler.running():
                    setup(args.workload, args.seed)
            finally:
                if os.environ.get("PERFBENCH_SPEED_FILE"):
                    sampler.dump(os.environ["PERFBENCH_SPEED_FILE"])
            return 0
        os.environ.pop("SWCALC_RADIUS", None)
        signal.signal(signal.SIGALRM, _on_alarm)
        passes, metrics, details = run(args)
    except SetupError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    outcomes = [o for p in passes for o in p.outcomes]
    failed = [o for o in outcomes if o.failed]
    details.update(
        passes=len(passes), items_per_pass=len(passes[0].outcomes),
        pass_walls_s=[p.wall for p in passes],
        attempted=len(outcomes), failed=len(failed),
        failed_share=len(failed) / len(outcomes),
        failures=[{"item": o.key, "error": o.error, "problems": o.problems[:5]} for o in failed[:10]],
    )
    for name, m in metrics.items():
        print(f"{args.workload:7} {name:34} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:7} {'failed_share':34} {details['failed_share']:.6g} 1")
    print(json.dumps({"details": details}, default=str))
    print(json.dumps({"correct": not failed, "attempted": len(outcomes), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
