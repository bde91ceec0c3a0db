"""End-to-end benchmark of the coordtext CLI pipeline on three generated workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload spatial-oracle --seed 0 --seconds 30 --trace 0

Every stage runs as ``python -m coordtext.cli ...`` in a fresh process with
PYTHONPATH=src, so caches start cold as they do for users; each stage's
wall time and peak RSS (from ``os.wait4``) are recorded. The pipeline
repeats until ``--seconds`` have passed and every metric is the median over
the repeats. Set-up (generating the inputs from ``--seed``, and starting the
stub model server) is done SETUP_REPEATS times and reported as its median.

Times are reported in reference seconds. A shared host's CPU speed drifts
by a fifth or more over tens of seconds, which no number of repeats inside
one run averages out. So the runner and every process it starts (the stub
model server too) are pinned to one CPU, a fixed pure-Python calibration
loop is timed on that CPU just before and just after each stage (one
calibration between two stages serves both), and the stage's wall time is
scaled by REFERENCE_LOOP_S over the mean of the two: a reference second is a
second on a CPU that runs the loop in REFERENCE_LOOP_S. The human-readable
lines also give the unscaled wall time and the median loop time.

With ``--trace 1`` the repeats alternate between untraced and traced
pipelines. A traced pipeline runs each stage under ``trace_stage.py``, and
the per-layer metrics are the medians over the traced repeats;
``trace.overhead_pct`` compares the two kinds of repeat. Metric names and
units come from BENCHMARK.json (``end_to_end`` and ``per_layer``);
``layers.json`` holds each per-layer metric's predictions.

Outputs are checked on every repeat: every stage exits 0, no response row
has ``status: error``, every output's records digest is the same on every
repeat (and matches ``pinned.json`` for the pinned seed), and the first
repeat's report and dump hold the expected values. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the command exits 1 when a check fails.
"""

import argparse
import http.client
import json
import math
import os
import re
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".perfbench_work")
PY = sys.executable
SETUP_REPEATS = 5
CALIBRATION_ITERATIONS = 60_000
CALIBRATION_REPEATS = 9
REFERENCE_LOOP_S = 0.005

# Input sizes are part of the benchmark's definition: pinned.json holds for these only.
SPATIAL_IMAGES = 4_000
REGION_IMAGES = 4_000
PRESENCE_IMAGES = 600
REGION_SCHEMES = ("nfp", "ivb", "diga")

STAGES = ("build", "query", "evaluate", "verify")

# The runner and every process it starts, the stub server too, share one CPU.
PIPELINE_CPU = min(os.sched_getaffinity(0))


def _calibration_loop() -> int:
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    return total


def loop_seconds() -> float:
    """The median time of the calibration loop on this process's CPU now."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Timed:
    """Wall time of a block, bracketed by calibration loops on the same CPU.

    ``loop_before`` may be the calibration that closed the block just before.
    """

    def __init__(self, loop_before: float | None = None):
        self.loop_before = loop_before

    def __enter__(self):
        if self.loop_before is None:
            self.loop_before = loop_seconds()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self.start
        self.loop_after = loop_seconds()
        self.loop_s = (self.loop_before + self.loop_after) / 2
        self.seconds = self.wall * REFERENCE_LOOP_S / self.loop_s  # in reference seconds


def stage_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("GATEWAY_")}
    env["PYTHONPATH"] = str(SRC)
    # the stub server is local; a proxy from the caller's environment must not apply
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def spawn(argv: list[str], log: Path) -> int:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), flags, 0o644), (os.POSIX_SPAWN_DUP2, 1, 2)]
    return os.posix_spawn(PY, argv, stage_env(), file_actions=actions)


def read_meta(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.loads(fh.readline())


def read_rows(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return rows[1:]


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Rep:
    """One run of a workload's pipeline. Stages stop at the first failure."""

    def __init__(self, directory: Path, traced: bool, run_id: str):
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        self.dir = directory
        self.traced = traced
        self.run_id = run_id
        self.stages: list[dict] = []
        self.steps: list[Timed] = []
        self.problems: list[str] = []
        self.queried: list[tuple[str, str]] = []  # (records, responses) of each query stage
        self.requests = 0
        self.error_rows = 0
        self.items = 0  # records built, set once the pipeline succeeded
        self.layers: dict[str, float] = {}  # per-layer metrics of a traced pipeline
        self.last_loop: float | None = None

    @contextmanager
    def timed(self):
        """Time one stage or step; back-to-back blocks share the calibration between them."""
        timed = Timed(self.last_loop)
        with timed:
            yield timed
        self.last_loop = timed.loop_after

    def path(self, name: str) -> str:
        return str(self.dir / name)

    @property
    def ok(self) -> bool:
        return all(s["code"] == 0 for s in self.stages)

    def cli(self, kind: str, *args: str) -> None:
        if not self.ok:
            return
        tag = f"{len(self.stages):02d}-{kind}"
        if self.traced:
            argv = [PY, str(HERE / "trace_stage.py"), self.path(f"{tag}.trace.json"), self.run_id, "--", *args]
        else:
            argv = [PY, "-m", "coordtext.cli", *args]
        log = self.dir / f"{tag}.log"
        with self.timed() as timed:
            pid = spawn(argv, log)
            try:
                _, status, usage = os.wait4(pid, 0)
            except BaseException:  # interrupted: leave no stage process behind
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                raise
        code = os.waitstatus_to_exitcode(status)
        self.stages.append({"kind": kind, "timed": timed, "rss_mb": usage.ru_maxrss / 1024, "code": code})
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace")[-1500:].strip()
            self.problems.append(f"`{' '.join(args[:2])}` exited {code}: {tail}")

    def query(self, records: str, responses: str, *flags: str) -> None:
        self.cli("query", "query", "--records", records, *flags, "--out", responses)
        self.queried.append((records, responses))

    def count_responses(self) -> None:
        """After the pipeline: count the requests sent and the responses marked as errors."""
        for records, responses in self.queried:
            if Path(records).exists():
                self.requests += read_meta(records)["count"]
            if Path(responses).exists():
                self.error_rows += sum(1 for row in read_rows(responses) if row.get("status") == "error")

    @property
    def attempted(self) -> int:
        return len(self.stages) + self.requests

    @property
    def failed(self) -> int:
        return sum(1 for s in self.stages if s["code"] != 0) + self.error_rows

    def times(self) -> dict:
        """Stage times in reference seconds. pipeline_s sums the stages and the
        in-process steps, leaving out the calibration loops between them."""
        out = {f"{k}_s": sum(s["timed"].seconds for s in self.stages if s["kind"] == k) for k in STAGES}
        out["pipeline_s"] = sum(s["timed"].seconds for s in self.stages) + sum(t.seconds for t in self.steps)
        out["peak_rss_mb"] = max(s["rss_mb"] for s in self.stages)
        out["loop_s"] = statistics.median(s["timed"].loop_s for s in self.stages)
        out["wall_s"] = sum(s["timed"].wall for s in self.stages) + sum(t.wall for t in self.steps)
        return out


# ---------------- checks on outputs ---------------- #


def check_boolean_task(report_path: str, dump_path: str, records_path: str) -> list[str]:
    """An oracle answers every item correctly: accuracy and every split are 1.0."""
    problems = []
    report = read_json(report_path)
    n = read_meta(records_path)["count"]
    if report["n"] != n or report["missing"] != 0:
        problems.append(f"report n={report['n']} missing={report['missing']}, expected n={n} missing=0")
    scores = {"accuracy": report["accuracy"], **{f"split {k}": v for k, v in report["per_split"].items()}}
    if report["task"] == "hallucination":
        scores.update({k: report.get(k) for k in ("precision", "recall", "f1")})
    problems += [f"{name} is {value}, expected 1.0" for name, value in scores.items() if value != 1.0]
    rows = read_rows(dump_path)
    wrong = sum(1 for row in rows if row["correct"] is not True or row["missing"])
    if len(rows) != n or wrong:
        problems.append(f"dump holds {len(rows)} rows with {wrong} not correct, expected {n} correct rows")
    return problems


_TOKEN_RE = re.compile(r"[a-z0-9]+")


def check_region(report_path: str, dump_path: str, records_path: str, pinned_mean) -> list[str]:
    """Recount the report from the dump; a verbatim response must score 1 - 0.5/m^3."""
    problems = []
    report = read_json(report_path)
    rows = read_rows(dump_path)
    n = read_meta(records_path)["count"]
    if report["n"] != n or report["missing"] != 0 or len(rows) != n:
        problems.append(f"report n={report['n']} missing={report['missing']} dump rows={len(rows)}, expected n={n}")
    scores = [row["score"] for row in rows]
    if any(not 0.0 <= s <= 1.0 for s in scores):
        problems.append("a score lies outside [0, 1]")
    if rows and not math.isclose(sum(scores) / len(scores), report["meteor_mean"], rel_tol=1e-12):
        problems.append(f"meteor_mean {report['meteor_mean']} does not match the dump's mean")
    verbatim = [row for row in rows if row["response"] == row["gt"]]
    off = [r for r in verbatim if not math.isclose(r["score"], 1 - 0.5 / len(_TOKEN_RE.findall(r["gt"].lower())) ** 3)]
    if not verbatim or off:
        problems.append(f"{len(off)} of {len(verbatim)} verbatim responses score other than 1 - 0.5/m^3")
    if pinned_mean is not None and report["meteor_mean"] != pinned_mean:
        problems.append(f"meteor_mean {report['meteor_mean']!r} differs from pinned {pinned_mean!r}")
    return problems


# ---------------- workloads ---------------- #


class Workload:
    """A named pipeline over inputs generated from the seed.

    ``setup``/``teardown`` bracket a run; ``before`` runs ahead of each
    repeat, outside its timing; ``run`` executes the stages; the ``check_*``
    hooks return the problems found in every repeat, in the first repeat's
    reports and dumps, and in the traced per-layer metrics.
    """

    name = ""
    # record files whose records digest must repeat; the build outputs among them are pinned
    build_outputs: tuple[str, ...] = ()
    other_outputs: tuple[str, ...] = ()

    def __init__(self, inputs: Path, seed: int):
        self.inputs = inputs
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def before(self, rep: Rep) -> None:
        pass

    def run(self, rep: Rep) -> None:
        raise NotImplementedError

    def check_rep(self, rep: Rep) -> list[str]:
        return []

    def check_values(self, rep: Rep, pinned: dict) -> list[str]:
        raise NotImplementedError

    def check_layers(self, layers: dict) -> list[str]:
        return []

    def input(self, name: str) -> str:
        return str(self.inputs / name)


class SpatialOracle(Workload):
    name = "spatial-oracle"
    build_outputs = ("spatial.jsonl",)
    other_outputs = ("responses.jsonl", "dump.jsonl")

    def setup(self):
        import inputs

        inputs.write_spatial_inputs(self.inputs, self.seed, SPATIAL_IMAGES)

    def run(self, rep):
        records, responses, dump = rep.path("spatial.jsonl"), rep.path("responses.jsonl"), rep.path("dump.jsonl")
        rep.cli("build", "build", "spatial-bench", "--annotations", self.input("annotations.json"),
                "--seed", str(self.seed), "--out", records)
        rep.query(records, responses, "--mock", "oracle")
        rep.cli("evaluate", "evaluate", "--records", records, "--responses", responses,
                "--report", rep.path("report.json"), "--dump", dump)
        rep.cli("verify", "verify", records, responses, dump)

    def check_values(self, rep, pinned):
        return check_boolean_task(rep.path("report.json"), rep.path("dump.jsonl"), rep.path("spatial.jsonl"))


class IftRegion(Workload):
    name = "ift-region"
    build_outputs = tuple(f"ift-{scheme}.jsonl" for scheme in REGION_SCHEMES)
    other_outputs = tuple(f"oracle-{scheme}.jsonl" for scheme in REGION_SCHEMES) + ("responses.jsonl", "dump.jsonl")

    def setup(self):
        import inputs

        self.lexicon = inputs.write_region_inputs(self.inputs, self.seed, REGION_IMAGES)

    def run(self, rep):
        import inputs
        from coordtext.records import read_records, write_records

        for scheme in REGION_SCHEMES:
            rep.cli("build", "build", "ift", "--annotations", self.input("annotations.json"),
                    "--captions", self.input("captions.jsonl"), "--mix", "revloc=1", "--scheme", scheme,
                    "--seed", str(self.seed), "--out", rep.path(f"ift-{scheme}.jsonl"))
        # The oracle answers each item of every scheme with its caption; the
        # benchmark then paraphrases the ivb answers, as a model that describes
        # in its own words, and scores those.
        for scheme in REGION_SCHEMES:
            rep.query(rep.path(f"ift-{scheme}.jsonl"), rep.path(f"oracle-{scheme}.jsonl"), "--mock", "oracle")
        records, oracle, responses = rep.path("ift-ivb.jsonl"), rep.path("oracle-ivb.jsonl"), rep.path("responses.jsonl")
        if rep.ok:
            # an in-process step between stages: it counts toward pipeline_s only
            with rep.timed() as timed:
                _, rows = read_records(oracle)
                paraphrased = inputs.paraphrase_responses(self.lexicon, self.seed, rows)
                write_records(responses, paraphrased, {"paraphrase_of": oracle, "seed": self.seed}, "responses")
            rep.steps.append(timed)
        rep.cli("evaluate", "evaluate", "--records", records, "--responses", responses,
                "--report", rep.path("report.json"), "--dump", rep.path("dump.jsonl"))
        rep.cli("verify", "verify", *(rep.path(f) for f in self.build_outputs + self.other_outputs))

    def check_values(self, rep, pinned):
        return check_region(rep.path("report.json"), rep.path("dump.jsonl"), rep.path("ift-ivb.jsonl"),
                            pinned.get("meteor_mean"))


class PresenceHttp(Workload):
    name = "presence-http"
    build_outputs = ("presence.jsonl",)
    other_outputs = ("responses.jsonl", "dump.jsonl")
    STARTUP_TIMEOUT_S = 30

    def setup(self):
        import inputs

        inputs.write_presence_inputs(self.inputs, self.seed, PRESENCE_IMAGES)
        port_file = self.inputs / "stub.port"
        port_file.unlink(missing_ok=True)
        self.server = spawn([PY, str(HERE / "stub_server.py"), self.input("answer_key.json"), str(port_file),
                             str(self.seed)], self.inputs / "stub.log")
        deadline = time.monotonic() + self.STARTUP_TIMEOUT_S
        while not port_file.exists():
            if os.waitpid(self.server, os.WNOHANG) != (0, 0) or time.monotonic() > deadline:
                self.server = None
                raise RuntimeError(f"stub server did not start; see {self.inputs / 'stub.log'}")
            time.sleep(0.01)
        self.port = int(port_file.read_text())

    def teardown(self):
        if getattr(self, "server", None):
            os.kill(self.server, signal.SIGTERM)
            os.waitpid(self.server, 0)
            self.server = None

    def _call(self, method: str, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request(method, path, body=b"{}" if method == "POST" else None)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def before(self, rep):
        self._call("POST", "/reset")

    def run(self, rep):
        records, responses, dump = rep.path("presence.jsonl"), rep.path("responses.jsonl"), rep.path("dump.jsonl")
        rep.cli("build", "build", "hallucination", "--annotations", self.input("annotations.json"),
                "--seed", str(self.seed), "--out", records)
        rep.query(records, responses, "--endpoint", f"http://127.0.0.1:{self.port}/",
                  "--max-inflight", "2", "--backoff", "0.001")
        rep.cli("evaluate", "evaluate", "--records", records, "--responses", responses,
                "--report", rep.path("report.json"), "--dump", dump)
        rep.cli("verify", "verify", records, responses, dump)

    def expected_faults(self, rep) -> int:
        from stub_server import is_faulty

        return sum(is_faulty(row["sample_id"], self.seed) for row in read_rows(rep.path("presence.jsonl")))

    def check_rep(self, rep):
        stats = self._call("GET", "/stats")
        if not rep.ok:
            return []
        if not hasattr(self, "faults"):
            self.faults = self.expected_faults(rep)
        n = read_meta(rep.path("presence.jsonl"))["count"]
        want = {"requests": n, "attempts": n + self.faults, "faults": self.faults}
        return [] if stats == want else [f"stub server counted {stats}, expected {want}"]

    def check_values(self, rep, pinned):
        return check_boolean_task(rep.path("report.json"), rep.path("dump.jsonl"), rep.path("presence.jsonl"))

    def check_layers(self, layers):
        problems = []
        if layers["gateway.retries"] != self.faults:
            problems.append(f"gateway.retries is {layers['gateway.retries']}, expected {self.faults} injected faults")
        if layers["gateway.errors"] != 0:
            problems.append(f"gateway.errors is {layers['gateway.errors']}")
        return problems


WORKLOADS = {w.name: w for w in (SpatialOracle, IftRegion, PresenceHttp)}


# ---------------- per-layer metrics from traces ---------------- #


def _quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def layer_metrics(rep: Rep) -> dict:
    """Sum the traces of one traced pipeline into per-layer metrics.

    A span counts toward its own name even when nested in another span, so
    records.read.s includes the reads that verify_records makes.
    """
    values: dict[str, float] = defaultdict(float)
    sends: list = []
    stem_distinct = 0
    for path in sorted(rep.dir.glob("*.trace.json")):
        trace = read_json(path)
        values["cli.import_s"] += trace["import_s"]
        values["cli.self_s"] += trace["self_s"]
        for span in trace["spans"]:
            values[f"{span['name']}.s"] += span["end"] - span["start"]
        for name, (calls, seconds) in trace["counters"].items():
            values[f"{name}.calls"] += calls
            values[f"{name}.s"] += seconds
        for name, value in trace["totals"].items():
            values[name] += value
        sends += trace["sends"]
        stem_distinct += trace["stem_distinct"]
    latencies = sorted(ms for _, ms in sends)
    values["gateway.send.calls"] = len(sends)
    values["gateway.send.p50_ms"] = _quantile(latencies, 0.50)
    values["gateway.send.p99_ms"] = _quantile(latencies, 0.99)
    values["gateway.retries"] = len(sends) - len({rid for rid, _ in sends})
    stem_calls = values["meteor.stem.calls"]
    values["meteor.stem.distinct_ratio"] = stem_distinct / stem_calls if stem_calls else 0.0
    return values


# ---------------- measurement loop ---------------- #


def report_end_to_end(reps: list[Rep], setup_times: list[Timed], end_to_end: list[dict]) -> tuple[dict, list[str]]:
    """Medians over the untraced repeats (over the set-ups for setup_s)."""
    per_rep = []
    for r in reps:
        if r.ok and not r.traced:
            times = r.times()
            per_rep.append(dict(times, items_per_s=r.items / times["pipeline_s"]))
    metrics, lines = {}, []
    for m in end_to_end:
        name, unit = m["name"], m["unit"]
        samples = [t.seconds for t in setup_times] if name == "setup_s" else [p[name] for p in per_rep]
        value = statistics.median(samples) if samples else 0.0
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:<28} {value:>14.6g} {unit:<6} median of {len(samples)}")
    for name in ("wall_s", "loop_s"):
        if per_rep:
            value = statistics.median(p[name] for p in per_rep)
            lines.append(f"{'pipeline ' + name:<28} {value:>14.6g} {'s':<6} median of {len(per_rep)}, not scaled")
    return metrics, lines


def report_layers(workload: Workload, reps: list[Rep], per_layer: list[dict],
                  predictions: dict) -> tuple[dict, list[str], list[str]]:
    """Medians over the traced repeats, and the checks the traces allow."""
    traced = [r for r in reps if r.ok and r.traced]
    plain_s = [r.times()["pipeline_s"] for r in reps if r.ok and not r.traced]
    traced_s = [r.times()["pipeline_s"] for r in traced]
    per_rep = [r.layers for r in traced]
    metrics, lines, problems = {}, [], []
    unpredicted = sorted({m["name"] for m in per_layer} ^ set(predictions))
    if unpredicted:
        problems.append(f"per_layer metrics and layers.json predictions differ: {unpredicted}")
    for m in per_layer:
        name = m["name"]
        if name == "trace.overhead_pct":
            value = 100 * (statistics.median(traced_s) / statistics.median(plain_s) - 1) if plain_s and traced_s else 0.0
        else:
            value = statistics.median(p.get(name, 0.0) for p in per_rep) if per_rep else 0.0
        metrics[name] = {"value": value, "unit": m["unit"]}
        lines.append(f"{name:<28} {value:>14.6g} {m['unit']:<6} median of {len(per_rep)} traced run(s)")
        if per_rep and workload.name in predictions.get(name, {}).get("zero_on", ()) and value != 0:
            problems.append(f"{name} is {value} on {workload.name}, predicted 0")
    if per_rep:
        problems += workload.check_layers({name: metric["value"] for name, metric in metrics.items()})
    return metrics, lines, problems


def measure(workload: Workload, seconds: float, trace: bool, pinned: dict) -> tuple[list[Rep], list[str]]:
    """Repeat the pipeline until ``seconds`` pass; check every repeat's outputs."""
    reps: list[Rep] = []
    problems: list[str] = []
    digests = None
    start = perf_counter()
    while True:
        traced = trace and sum(r.traced for r in reps) < sum(not r.traced for r in reps)
        rep = Rep(WORK / workload.name / "rep", traced, f"{workload.name}:{workload.seed}:{len(reps)}")
        workload.before(rep)
        workload.run(rep)
        rep.count_responses()
        rep.problems += workload.check_rep(rep)
        if rep.ok:
            # every repeat reuses one directory, so read what it left before the next one starts
            rep.items = sum(read_meta(rep.path(f))["count"] for f in workload.build_outputs)
            if rep.traced:
                rep.layers = layer_metrics(rep)
            found = {f: read_meta(rep.path(f))["records_digest"] for f in workload.build_outputs + workload.other_outputs}
            if digests is None:
                digests = found
                rep.problems += workload.check_values(rep, pinned)
                for f, digest in pinned.get("records_digest", {}).items():
                    if found[f] != digest:
                        rep.problems.append(f"{f}: records digest {found[f]} differs from pinned {digest}")
            elif found != digests:
                changed = sorted(f for f in found if found[f] != digests[f])
                rep.problems.append(f"outputs differ between repeats: {changed}")
        if rep.error_rows:
            rep.problems.append(f"{rep.error_rows} response rows have status error")
        problems += rep.problems
        reps.append(rep)
        if problems:
            break
        both = not trace or (any(r.traced for r in reps) and any(not r.traced for r in reps))
        if both and perf_counter() - start >= seconds:
            break
    return reps, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coordtext" / "cli.py").is_file():
        print(f"coordtext sources not found under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.sched_setaffinity(0, {PIPELINE_CPU})
    # on SIGTERM, unwind through the finally blocks that stop child processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = read_json(ROOT / "BENCHMARK.json")
    predictions = read_json(HERE / "layers.json")["predictions"]
    pinned_all = read_json(HERE / "pinned.json")
    pinned = pinned_all["workloads"][args.workload] if args.seed == pinned_all["seed"] else {}

    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    inputs = WORK / args.workload / "inputs"
    inputs.mkdir(parents=True)
    workload = WORKLOADS[args.workload](inputs, args.seed)
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            workload.teardown()
            with Timed() as timed:
                workload.setup()
            setup_times.append(timed)
        reps, problems = measure(workload, args.seconds, bool(args.trace), pinned)
    finally:
        workload.teardown()

    if args.trace:
        metrics, lines, layer_problems = report_layers(workload, reps, bench["per_layer"], predictions)
        problems += layer_problems
    else:
        metrics, lines = report_end_to_end(reps, setup_times, bench["end_to_end"])

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    lines.append(f"{'error_rate':<28} {failed / attempted:>14.6g} {'ratio':<6} "
                 f"{failed} failed of {attempted} operations attempted")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not problems and failed == 0
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} pipeline run(s), trace {args.trace}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
