"""The chartevo benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload search-network --seed 1 --seconds 20 --trace 0

The workload's inputs are made with the program's own ``chartevo synth``
and ``chartevo preprocess`` (the set-up); its measured commands then run
in whole rounds until ``--seconds`` have passed.  Every command's output
is checked against ``oracle.py``, which is written apart from the
program.  One operation is one CLI command, run and checked.

With ``--trace 0`` each command runs as its own process, as a user runs
it, with no ``--workers`` flag and no BLAS thread variable set, and the
last line of stdout holds the end-to-end metrics.  With ``--trace 1``
the same commands run inside this process under the span wrappers of
``spans.py`` and the line holds the per-layer metrics.  Run artefacts,
``run_info.json`` (nproc, thread environment, per-round figures) and
the span file go to ``.bench_runs/<workload>/``.
"""
import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# every run must end well inside three minutes, builds aside
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# the README configuration
N_DAYS = 1330
K = 20
ALPHA = 20000.0
SPLIT_RANGES = {
    "training": ["2012-01-01", "2014-12-31"],
    "validation": ["2015-01-01", "2015-12-31"],
    "test": ["2016-01-01", "2016-12-31"],
}
SYNTH = {"n_days": N_DAYS, "base_volatility": 0.015, "injection_rate": 0.02,
         "motif_amplitude": 0.08, "motif_shape": "falling", "motif_length": 8,
         "drift": 0.08, "drift_horizon": 20}
# EvolutionConfig defaults the history check relies on; the config leaves them alone
THRESHOLD0, THRESHOLD_GROWTH, OVERSPECIATION, MAX_SPECIES = 3.0, 1.001, 1.1, 100


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    instruments: int
    substrate: str = ""  # empty for the corpus-scoring workload
    population: int = 0
    generations: int = 0


WORKLOADS = {w.name: w for w in (
    # forward pass dominates: 64->192->48->1 phenotypes over 6310 training charts
    Workload("search-network", 10, "network", 100, 3),
    # 64->1 phenotypes: NEAT reproduction and CPPN expression dominate
    Workload("search-template-large-pop", 10, "template", 1000, 10),
    # ~1.2e5 charts: corpus write path in set-up, read path and one-network scoring measured
    Workload("corpus-score", 100),
)}


def workload_config(w: Workload) -> dict:
    cfg = {
        "synth": dict(SYNTH, n_instruments=w.instruments),
        "preprocess": {"horizons": [20, 50], "split_ranges": SPLIT_RANGES},
    }
    if w.substrate:
        cfg["evolution"] = {"population_size": w.population, "generations": w.generations,
                            "add_connection_rate": 0.3, "add_node_rate": 0.1}
        cfg["eval"] = {"k": K, "alpha": ALPHA, "dropout_retain": 0.8}
        cfg["search"] = {"substrate": w.substrate}
    return cfg


@dataclasses.dataclass
class OpResult:
    name: str
    wall: float
    cpu: float
    rss_mb: float  # peak resident set of the command's process; 0 in-process
    problems: list


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Checks:
    """One check per command, each returning a list of problems."""

    def __init__(self, work: str, w: Workload) -> None:
        self.work = work
        self.w = w
        self.pattern = None
        self._dates = None
        self._splits: dict = {}
        self._search_digest = None

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def split(self, name: str) -> oracle.Split:
        if name not in self._splits:
            self._splits[name] = oracle.Split(self.path("corpus", f"{name}.npz"))
        return self._splits[name]

    def synth(self, stdout: str) -> list:
        self._dates = oracle.read_price_dates(self.path("prices"))
        problems = []
        if len(self._dates) != self.w.instruments:
            problems.append(f"{len(self._dates)} instruments, expected {self.w.instruments}")
        problems += [f"{iid}: {len(d)} days" for iid, d in self._dates.items() if len(d) != N_DAYS]
        return problems

    def preprocess(self, stdout: str) -> list:
        expected = oracle.expected_split_counts(self._dates, SPLIT_RANGES)
        return oracle.check_split_counts(expected, self.path("corpus"), stdout)

    def search(self, stdout: str) -> list:
        problems = oracle.check_history(
            _read(self.path("run", "history.csv")), self.w.generations, self.w.population,
            THRESHOLD0, THRESHOLD_GROWTH, OVERSPECIATION, MAX_SPECIES)
        net = oracle.read_net(_read(self.path("run", "pattern.net")))
        reports = oracle.parse_run_report(_read(self.path("run", "report.txt")))
        for name in SPLIT_RANGES:
            score = oracle.Score(net, self.split(name))
            problems += [f"{name}: {p}" for p in oracle.check_report(reports[name], score, K, ALPHA)]
        # the search exports its overlay on the test split
        problems += oracle.check_overlay(self.path("run", "overlay.csv"),
                                         oracle.Score(net, self.split("test")))
        digest = self.search_digest()
        if self._search_digest is None:
            self._search_digest = digest
        elif digest != self._search_digest:
            problems.append("history.csv or pattern.cppn differs from the first round's")
        return problems

    def search_digest(self) -> str:
        h = hashlib.sha256()
        for name in ("history.csv", "pattern.cppn"):
            with open(self.path("run", name), "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    def evaluate(self, stdout: str) -> list:
        return oracle.check_report(oracle.parse_report(stdout),
                                   oracle.Score(self.pattern, self.split("training")), K, ALPHA)

    def export_overlay(self, stdout: str) -> list:
        count = int(stdout.split()[0])
        return oracle.check_overlay(self.path("overlay.csv"),
                                    oracle.Score(self.pattern, self.split("validation")), count)


def setup_ops(seed: int, checks: Checks) -> list:
    return [
        ("synth", ["synth", "--config", "config.json", "--seed", str(seed), "--out", "prices"],
         checks.synth),
        ("preprocess", ["preprocess", "--config", "config.json", "--prices", "prices",
                        "--out", "corpus"], checks.preprocess),
    ]


def round_ops(w: Workload, seed: int, checks: Checks, workers: int | None) -> list:
    if w.substrate:
        argv = ["search", "--config", "config.json", "--corpus", "corpus", "--out", "run",
                "--seed", str(seed)]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return [("search", argv, checks.search)]
    score_args = ["--corpus", "corpus", "--pattern", "pattern.net"]
    return [
        ("evaluate", ["evaluate", *score_args, "--split", "training", "--k", str(K),
                      "--alpha", repr(ALPHA)], checks.evaluate),
        ("export-overlay", ["export-overlay", *score_args, "--split", "validation",
                            "--out", "overlay.csv"], checks.export_overlay),
    ]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Client of ``spawner.py``, which starts every child process."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, **request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


class Runner:
    """Runs CLI commands in the work directory and checks what they wrote.

    With a spawner each command is a child process whose CPU time and
    peak RSS come from its own rusage; without one, the command is a
    call of ``chartevo.cli.main`` in this process.
    """

    def __init__(self, work: str, deadline: float, spawner: Spawner | None) -> None:
        self.work = work
        self.deadline = deadline
        self.spawner = spawner
        self.tracer = None  # set while a traced in-process round runs
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0

    def run(self, op) -> OpResult:
        name, argv, check = op
        for stale in ("run", "overlay.csv"):
            target = os.path.join(self.work, stale)
            if os.path.isdir(target):
                shutil.rmtree(target)
            elif os.path.exists(target):
                os.remove(target)
        out_path = os.path.join(self.work, f"{name}.out")
        err_path = os.path.join(self.work, f"{name}.err")
        if self.spawner is None:
            code, wall, cpu, rss_mb = self._in_process(argv, out_path, err_path)
        else:
            code, wall, cpu, rss_mb = self._spawn(argv, out_path, err_path)
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {_read(err_path).strip()[-500:]}"]
        else:
            try:
                problems = check(_read(out_path))
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            self.check_failures += bool(problems)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"bench: {name}: {p}", file=sys.stderr)
        return OpResult(name, wall, cpu, rss_mb, problems)

    def _spawn(self, argv, out_path, err_path):
        reply = self.spawner.run(
            argv=[sys.executable, "-m", "chartevo.cli", *argv], cwd=self.work, env=child_env(),
            stdout=out_path, stderr=err_path, timeout=self.deadline - time.perf_counter())
        return reply["code"], reply["wall"], reply["cpu"], reply["maxrss_kb"] / 1024.0

    def _in_process(self, argv, out_path, err_path):
        from chartevo import cli

        cwd = os.getcwd()
        with open(out_path, "w", encoding="utf-8") as out, \
                open(err_path, "w", encoding="utf-8") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            os.chdir(self.work)
            before = resource.getrusage(resource.RUSAGE_SELF)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = 1
            finally:
                wall = time.perf_counter() - start
                after = resource.getrusage(resource.RUSAGE_SELF)
                os.chdir(cwd)
                if self.tracer is not None:
                    self.tracer.end_command()
        cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return code, wall, cpu, 0.0


def measure_rounds(runner: Runner, ops: list, seconds: float) -> list:
    """Whole rounds of ``ops`` until ``seconds`` pass or the deadline nears."""
    rounds = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        rounds.append([runner.run(op) for op in ops])
        now = time.perf_counter()
        if now - start >= seconds or now + 2.0 * (now - began) > runner.deadline:
            return rounds


def startup_seconds(repeats: int = 3) -> float:
    """Median wall time of a process that only starts and imports the CLI."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import chartevo.cli"], env=child_env(),
                       check=True, timeout=60)
        walls.append(time.perf_counter() - start)
    return statistics.median(walls)


# share of validation charts the corpus-score pattern matches, so that every
# seed's export-overlay writes about the same number of rows
PATTERN_MATCH_SHARE = 0.1


def write_pattern(checks: Checks, seed: int) -> None:
    """The fixed network-sized pattern the corpus-score commands use.

    Its weights come from the seed; its output bias puts the decision
    boundary midway between two neighbouring validation outputs, so no
    chart sits on it.
    """
    net = oracle.random_net(np.random.default_rng([seed, 7]))
    split = checks.split("validation")
    out = np.sort(oracle.forward(net, split.values.reshape(len(split), -1))[0])
    cut = int(len(out) * (1.0 - PATTERN_MATCH_SHARE))
    net.biases[-1] = np.array([-0.5 * (out[cut - 1] + out[cut])])
    text = oracle.write_net(net)
    with open(checks.path("pattern.net"), "w", encoding="utf-8") as fh:
        fh.write(text)
    checks.pattern = oracle.read_net(text)


def untraced(w, args, work, checks, info, spawner) -> tuple[Runner, dict]:
    runner = Runner(work, PROCESS_START + DEADLINE_S, spawner)
    first_command = time.perf_counter()
    setup = [runner.run(op) for op in setup_ops(args.seed, checks)]
    setup_s = first_command - PROCESS_START + sum(r.wall for r in setup)
    if not w.substrate:
        write_pattern(checks, args.seed)
    rounds = measure_rounds(runner, round_ops(w, args.seed, checks, args.workers), args.seconds)
    walls = [sum(r.wall for r in rnd) for rnd in rounds]
    cpus = [sum(r.cpu for r in rnd) for rnd in rounds]
    rss = max(r.rss_mb for r in setup + [r for rnd in rounds for r in rnd])
    info["rounds"] = [[dataclasses.asdict(r) for r in rnd] for rnd in rounds]
    info["setup"] = [dataclasses.asdict(r) for r in setup]
    return runner, {
        "setup_s": {"value": setup_s, "unit": "s"},
        "run_s": {"value": statistics.median(walls), "unit": "s"},
        "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
        "peak_rss_mb": {"value": rss, "unit": "MiB"},
    }


@contextlib.contextmanager
def tracing(runner: Runner, tracer):
    tracer.install()
    runner.tracer = tracer
    try:
        yield
    finally:
        runner.tracer = None
        tracer.uninstall()


def traced(w, args, work, checks, info) -> tuple[Runner, dict]:
    import spans

    sys.path.insert(0, SRC)
    startup_s = startup_seconds()
    # the CLI's own logging set-up would bind a handler to a redirected stream
    logging.basicConfig(filename=os.path.join(work, "trace.log"), level=logging.WARNING)
    tracer = spans.Tracer()
    runner = Runner(work, PROCESS_START + DEADLINE_S, None)
    ops = round_ops(w, args.seed, checks, args.workers)
    with tracing(runner, tracer):
        for op in setup_ops(args.seed, checks):
            runner.run(op)
    if not w.substrate:
        write_pattern(checks, args.seed)
    # an untraced round in this process warms it up; the next one is the overhead baseline
    for op in ops:
        runner.run(op)
    untraced_s = sum(runner.run(op).wall for op in ops)
    with tracing(runner, tracer):
        traced_s = sum(runner.run(op).wall for op in ops)
    overhead_s = traced_s - untraced_s
    tracer.write(os.path.join(work, "trace.jsonl"))
    times = tracer.times()
    info["trace"] = dict(times, untraced_s=untraced_s, traced_s=traced_s, startup_s=startup_s)
    for kind in ("self", "module_self"):
        for name, value in sorted(times[kind].items(), key=lambda kv: -kv[1]):
            print(f"bench: {kind} {value:9.3f} s  {name}", file=sys.stderr)
    metrics = spans.layer_metrics(tracer, startup_s, overhead_s)
    units = {m["name"]: m["unit"] for m in load_manifest()["per_layer"]}
    return runner, {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def load_manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int,
                        help="pass --workers to chartevo search (reference figures only)")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "chartevo", "cli.py")):
        print(f"bench: no chartevo sources under {SRC}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_runs", w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    with open(os.path.join(work, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(workload_config(w), fh, indent=2)
    info = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": sys.version.split()[0], "numpy": np.__version__,
    }
    checks = Checks(work, w)
    if args.trace:
        runner, metrics = traced(w, args, work, checks, info)
    else:
        spawner = Spawner()
        try:
            runner, metrics = untraced(w, args, work, checks, info, spawner)
        finally:
            spawner.close()
    if w.substrate and os.path.exists(checks.path("run", "history.csv")):
        info["search_digest"] = checks.search_digest()
    info["metrics"] = metrics
    with open(os.path.join(work, "run_info.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=2)
    print(json.dumps({
        "correct": runner.check_failures == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
