"""Cohort benchmark for the pcgkit command line.

    python3 perfbench/run.py --workload hr_readme --seed 4 --seconds 30 --trace 0

Run it from anywhere; it uses the checkout that contains this file and
puts ``<checkout>/src`` first on ``PYTHONPATH``. Each run synthesizes the
workload's cohort from ``--seed`` with ``pcgkit synth`` (not timed), then:

``--trace 0``
    runs the workload's CLI command again and again for ``--seconds`` in a
    closed loop with one client: each invocation is a fresh interpreter that
    starts after the previous one exits, and each is preceded by a timed
    ``python -m pcgkit --version`` (``setup_s``). Every invocation's reports
    are checked against the cohort's ground truth. Every time is reported
    at a reference host speed: it is multiplied by the nominal time of a
    fixed numpy/Python job over that job's time measured around the sample
    (``Run.scaled``). Raw times are printed too.
``--trace 1``
    times ``python -X importtime -c "import pcgkit"``, one untraced
    invocation, and one traced invocation (``tracer.py``), and reports
    per-layer metrics.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Details (all samples, environment, checks) are written to
``<checkout>/.perfbench_out/``; scratch data lives in
``<checkout>/.perfbench_tmp/`` and is removed at the end.

Timing is process level only: wall clock around each child process and the
child's rusage. Sandboxed hosts allow no system-wide tracing and no dropping
of the page cache, so the benchmark uses neither.
"""

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_ROOT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import HR_STAGES, LAYERS, PER_FRAME  # noqa: E402

DEFAULT_SEED = 4
FRAME_S = 4.0  # the CLI's default frame length
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
TIMING_NOTE = ("process-level timing only (wall clock and rusage of child "
               "processes); no system-wide tracing and no page-cache "
               "dropping are available in the sandbox")

# A fixed CPU-bound job that does not depend on this repository: a fresh
# interpreter imports numpy and runs FFTs and a Python loop. It is timed
# before and after every sample to measure the host's speed at that moment.
REFERENCE_CODE = """
import numpy as np
x = np.random.default_rng(0).standard_normal(1 << 14)
for _ in range(200):
    np.fft.irfft(np.fft.rfft(x))
total = 0
for i in range(400_000):
    total += i % 7
"""
# A fixed constant that sets the units of the scaled times. REFERENCE_CODE
# took 0.27-0.44 s on the host the bounds were set on (2 vCPU Xeon, Python
# 3.11.7, numpy 2.4.6).
REFERENCE_NOMINAL_S = 0.35
# On the host above the speed holds for a few seconds, so the reference
# timings just before and after a sample describe only a short one: ten-run
# sets spread by at most 0.12 scaled against 0.27 raw for 2-4 s samples,
# but by 0.27 scaled against 0.17 raw for ~27 s ones. Once a sample has run
# for SCALE_WINDOW_S, a smaller fixed job (probe_job) is therefore timed in
# this process at every watcher tick while the child runs, on the CPU the
# single-threaded child leaves idle, and the sample is scaled by the median
# of those timings; a ten-run quality_readme set then spread by 0.10 scaled
# against 0.26 raw. PROBE_NOMINAL_S sets their units: the probe job took
# 10.8-14.0 ms (median per invocation) alongside a quality_readme
# invocation on the host above, whose reference timings were near nominal.
SCALE_WINDOW_S = 10.0
PROBE_NOMINAL_S = 0.0125
_PROBE_INPUT = np.random.default_rng(0).standard_normal(1 << 14)


def probe_job():
    """Time one run of a small fixed numpy/Python job in this process (s)."""
    t0 = time.perf_counter()
    for _ in range(20):
        np.fft.irfft(np.fft.rfft(_PROBE_INPUT))
    total = 0
    for i in range(40_000):
        total += i % 7
    return time.perf_counter() - t0


# Correctness limits on accuracy against the synthetic ground truth. pcgkit
# 0.1.0 reads 0.049-0.058 bpm on seeds 0-9 for the first; the BP limit is on
# the median absolute LOOCV error, which is robust to the few subjects whose
# 10 dB recordings mis-segment (those drive the RMSE from 0.13 to 7.5 mmHg).
HR_ERR_LIMIT_BPM = 0.2
BP_MEDIAN_ERR_LIMIT_MMHG = 0.5
# Largest share of frames whose analysis may fail. pcgkit 0.1.0 fails no
# frame of either cohort on seeds 0-11.
FRAME_FAIL_LIMIT = 0.0


@dataclass(frozen=True)
class Cohort:
    subjects: int
    duration_s: float
    spec: dict = None  # extra synth parameters (--spec-file)

    @property
    def audio_s(self):
        return self.subjects * self.duration_s

    @property
    def frames_per_subject(self):
        return int(self.duration_s // FRAME_S)


README = Cohort(15, 60.0)
BP_SHORT = Cohort(60, 12.0, {"snr_db": 10, "jitter_ms": 4})


@dataclass(frozen=True)
class Workload:
    name: str
    cohort: Cohort
    argv: tuple  # CLI arguments; the data is in "data", reports go to "out"
    reports: tuple  # files the command must write


WORKLOADS = {w.name: w for w in (
    Workload("hr_readme", README, ("hr", "data", "--out", "out"),
             ("hr_report.json", "hr_pairs.csv", "hr_bland_altman.csv",
              "hr_scatter.svg", "hr_bland_altman.svg")),
    Workload("quality_readme", README, ("quality", "data", "--out", "out"),
             ("quality_report.json", "quality_table.csv")),
    Workload("bp_short", BP_SHORT,
             ("bp", "loocv", "data", "--features-from-audio", "--out", "out"),
             ("bp_loocv.json",)),
)}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "audio_s_per_s": "s/s",
                    "peak_rss_mb": "MB"}


def per_layer_units():
    """Name -> unit of every metric the traced run reports."""
    units = {"setup.numpy_s": "s", "setup.scipy_s": "s",
             "setup.pcgkit_self_s": "s"}
    for layer, funcs in LAYERS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            units[f"{name}.calls"] = "count"
            units[f"{name}.self_s"] = "s"
            if name in PER_FRAME:
                units[f"{name}.p50_ms"] = "ms"
                units[f"{name}.p95_ms"] = "ms"
    units["hr.hr_pipeline.ok_frac"] = "frac"
    for stage in HR_STAGES:
        units[f"hr.hr_pipeline.errors.{stage}"] = "count"
    units.update({"segmentation.truncated_peaks": "count", "proc.cpu_s": "s",
                  "trace.overhead_s": "s"})
    return units


class BenchError(Exception):
    """The benchmark cannot run: no program to measure or no input."""


# ---------------------------------------------------------------- processes

def _proc_tree_rss(root_pid):
    """Summed RSS in bytes of a process and its descendants."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    page = os.sysconf("SC_PAGE_SIZE")
    total, todo = 0, [root_pid]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        try:
            with open(f"/proc/{pid}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * page
        except OSError:
            continue
    return total


class _Watcher(threading.Thread):
    """Samples a child's process tree and kills it at the deadline.

    After the child has run for SCALE_WINDOW_S it also times probe_job once
    per tick.
    """

    PERIOD_S = 0.2

    def __init__(self, pid, t0, deadline):
        super().__init__(daemon=True)
        self.pid, self.t0, self.deadline = pid, t0, deadline
        self.peak_rss, self.timed_out = 0, False
        self.probe_s = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(self.PERIOD_S):
            now = time.perf_counter()
            if now > self.deadline:
                self.timed_out = True
                _kill_group(self.pid)
                return
            self.peak_rss = max(self.peak_rss, _proc_tree_rss(self.pid))
            if now - self.t0 > SCALE_WINDOW_S:
                self.probe_s.append(probe_job())


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Invocation:
    argv: list
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    timed_out: bool
    probe_s: list  # probe_job timings taken while the child ran


def run_process(argv, cwd, env, deadline):
    """Run one child to completion; time it and measure its process tree.

    Peak RSS is the larger of the child's own ``ru_maxrss`` and the largest
    sampled sum over its descendants, so a worker pool counts in full.
    """
    cwd = Path(cwd)
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        watcher = _Watcher(proc.pid, t0, deadline)
        watcher.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            watcher.done.set()
            watcher.join()
            _kill_group(proc.pid)  # anything the child left running
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")
    return Invocation(
        argv=list(argv), exit_code=proc.returncode, wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=max(usage.ru_maxrss * 1024, watcher.peak_rss) / 2 ** 20,
        stdout=stdout, stderr=stderr,
        timed_out=watcher.timed_out, probe_s=watcher.probe_s)


def child_env():
    """The user's environment, with the checkout's sources first on the path.

    BLAS threading is left as the user has it. ``PCGKIT_CONFIG`` is dropped
    so that every run uses the default analysis settings.
    """
    env = dict(os.environ)
    env.pop("PCGKIT_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


# ------------------------------------------------------------------- checks

def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def load_strict_json(path):
    """Parse a report, rejecting NaN and Infinity."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh, parse_constant=_reject_constant)


def load_truth(data_dir):
    """subject id -> meta.json of every subject in a synthesized cohort."""
    return {d.name: load_strict_json(d / "meta.json")
            for d in sorted(Path(data_dir).iterdir())
            if (d / "pcg.wav").exists()}


def _coverage_problems(report, truth):
    problems = []
    if report.get("errors"):
        problems.append(f"subjects in error manifest: {sorted(report['errors'])}")
    covered = set(report.get("subjects", {})) | set(report.get("errors", {}))
    if covered != set(truth):
        problems.append(f"report covers {len(covered)} of {len(truth)} subjects")
    return problems


def _frame_fail_problems(failed, frames):
    if frames and failed / frames > FRAME_FAIL_LIMIT:
        return [f"{failed} of {frames} frames failed (limit "
                f"{FRAME_FAIL_LIMIT:g})"]
    return []


def check_hr(out, truth, cohort):
    report = load_strict_json(out / "hr_report.json")
    problems = _coverage_problems(report, truth)
    frames = failed = 0
    errs = []
    for sid, entry in report["subjects"].items():
        rows = entry["frames"]
        if len(rows) != cohort.frames_per_subject:
            problems.append(f"{sid}: {len(rows)} frames, expected "
                            f"{cohort.frames_per_subject}")
        for row in rows:
            frames += 1
            if "bpm_pcg" in row:
                errs.append(abs(row["bpm_pcg"] - truth[sid]["hr_bpm"]))
            else:
                failed += 1
    acc = {"frames": frames, "frames_failed": failed,
           "subjects_failed": len(report["errors"])}
    problems += _frame_fail_problems(failed, frames)
    if not errs:
        problems.append("no frame has a heart-rate estimate")
    else:
        acc["hr_err_bpm"] = statistics.fmean(errs)
        if acc["hr_err_bpm"] > HR_ERR_LIMIT_BPM:
            problems.append(f"hr_err_bpm {acc['hr_err_bpm']:.4f} above "
                            f"{HR_ERR_LIMIT_BPM}")
    return acc, problems


def check_quality(out, truth, cohort):
    report = load_strict_json(out / "quality_report.json")
    problems = _coverage_problems(report, truth)
    frames = failed = 0
    for sid, entry in report["subjects"].items():
        n = entry["n_frames"] + entry["n_failed"]
        if n != cohort.frames_per_subject:
            problems.append(f"{sid}: {n} frames, expected "
                            f"{cohort.frames_per_subject}")
        if len(entry["per_frame_snr_db"]) != entry["n_frames"]:
            problems.append(f"{sid}: per-frame SNR count mismatch")
        if set(entry["nrmse"]) != {"morlet", "morse", "bump"}:
            problems.append(f"{sid}: nrmse families {sorted(entry['nrmse'])}")
        frames += n
        failed += entry["n_failed"]
    problems += _frame_fail_problems(failed, frames)
    return ({"frames": frames, "frames_failed": failed,
             "subjects_failed": len(report["errors"])}, problems)


def check_bp(out, truth, cohort):
    report = load_strict_json(out / "bp_loocv.json")
    problems = _coverage_problems({"errors": report["errors"],
                                   "subjects": report["predictions"]}, truth)
    loocv, preds = report["loocv"], report["predictions"]
    if loocv["n_subjects"] != len(truth):
        problems.append(f"LOOCV over {loocv['n_subjects']} of {len(truth)}")
    acc = {"subjects_failed": len(report["errors"]),
           "sbp_rmse_mmhg": loocv["sbp_rmse"], "dbp_rmse_mmhg": loocv["dbp_rmse"]}
    for side in ("sbp", "dbp"):
        errors = []
        for sid, p in preds.items():
            if p[f"{side}_ref"] != truth[sid][f"{side}_ref"]:
                problems.append(f"{sid}: {side}_ref differs from meta.json")
            errors.append(p[side] - p[f"{side}_ref"])
        if not errors:
            problems.append("no LOOCV predictions")
            continue
        rmse = math.sqrt(statistics.fmean(e * e for e in errors))
        if not math.isclose(rmse, loocv[f"{side}_rmse"], rel_tol=1e-9):
            problems.append(f"{side}_rmse {loocv[f'{side}_rmse']} does not "
                            f"match its predictions ({rmse})")
        acc[f"{side}_median_err_mmhg"] = statistics.median(map(abs, errors))
        if acc[f"{side}_median_err_mmhg"] > BP_MEDIAN_ERR_LIMIT_MMHG:
            problems.append(f"{side} median LOOCV error "
                            f"{acc[f'{side}_median_err_mmhg']:.4f} above "
                            f"{BP_MEDIAN_ERR_LIMIT_MMHG} mmHg")
    return acc, problems


CHECKS = {"hr_readme": check_hr, "quality_readme": check_quality,
          "bp_short": check_bp}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def text_deviation(golden, current):
    """Largest absolute difference between the numbers of two texts.

    The texts must match outside their numbers, else the result is infinite.
    """
    if _NUMBER.split(golden) != _NUMBER.split(current):
        return math.inf
    return max((abs(float(a) - float(b)) for a, b in
                zip(_NUMBER.findall(golden), _NUMBER.findall(current))),
               default=0.0)


def golden_deviation(golden_dir, out):
    """(max deviation, byte-identical) of every report against its golden."""
    names = {p.name for p in golden_dir.iterdir()}
    if names != {p.name for p in out.iterdir()}:
        return math.inf, False
    dev, identical = 0.0, True
    for name in sorted(names):
        g = (golden_dir / name).read_text(encoding="utf-8")
        c = (out / name).read_text(encoding="utf-8")
        identical &= g == c
        dev = max(dev, text_deviation(g, c))
    return dev, identical


def golden_check(golden_dir, out):
    """The reports must be byte-identical to the goldens. Returns (acc, problems)."""
    dev, identical = golden_deviation(golden_dir, out)
    acc = {"report_max_dev": dev, "report_identical": identical}
    if identical:
        return acc, []
    return acc, [f"reports differ from the goldens in {golden_dir.name} "
                 f"(report_max_dev {dev:g})"]


def check_invocation(inv, workload, run_dir, truth, cohort, with_golden):
    """Validate one invocation's exit code and reports. Returns (acc, problems)."""
    if inv.timed_out:
        return {}, ["timed out"]
    if inv.exit_code != 0:
        return {}, [f"exit code {inv.exit_code}: {inv.stderr[-400:]}"]
    out = run_dir / "out"
    missing = [r for r in workload.reports if not (out / r).is_file()]
    if missing:
        return {}, [f"missing reports {missing}"]
    try:
        acc, problems = CHECKS[workload.name](out, truth, cohort)
    except (ValueError, KeyError, TypeError) as exc:
        return {}, [f"malformed report: {type(exc).__name__}: {exc}"]
    if with_golden:
        golden_acc, golden_problems = golden_check(GOLDEN / workload.name, out)
        acc.update(golden_acc)
        problems += golden_problems
    return acc, problems


# ---------------------------------------------------------------- the run

def _median(values):
    return statistics.median(values) if values else math.nan


def _percentile(values, q):
    """q-th percentile (0-100) by linear interpolation; 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def parse_importtime(stderr):
    """Sum ``-X importtime`` self times (s) of numpy, scipy and pcgkit modules."""
    totals = {"numpy": 0.0, "scipy": 0.0, "pcgkit": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        if top in totals and self_us.strip().isdigit():
            totals[top] += int(self_us) / 1e6
    return totals


class Run:
    """One benchmark run: a cohort on disk and the invocations made on it."""

    def __init__(self, workload, seed, cohort, deadline):
        self.workload, self.seed, self.cohort = workload, seed, cohort
        self.deadline = deadline
        self.env = child_env()
        self.attempted = self.failed = 0
        self.problems = []
        self.last_reference = None
        TMP_ROOT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                         dir=TMP_ROOT))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def python(self, *args):
        return run_process([sys.executable, *args], self.dir, self.env,
                           self.deadline)

    def prepare(self):
        """Synthesize the cohort and probe the environment (not timed)."""
        synth = ["-m", "pcgkit", "synth", "--out", "data",
                 "--subjects", str(self.cohort.subjects), "--seed",
                 str(self.seed), "--duration", str(self.cohort.duration_s)]
        if self.cohort.spec:
            (self.dir / "spec.json").write_text(json.dumps(self.cohort.spec))
            synth += ["--spec-file", "spec.json"]
        inv = self.python(*synth)
        if inv.exit_code != 0:
            raise BenchError(f"pcgkit synth failed: {inv.stderr[-2000:]}")
        self.truth = load_truth(self.dir / "data")
        probe = self.python(str(HERE / "tracer.py"), "--env")
        if probe.exit_code != 0:
            raise BenchError(f"environment probe failed: {probe.stderr[-2000:]}")
        self.env_record = {
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), **json.loads(probe.stdout),
            "blas_env": {k: v for k, v in os.environ.items()
                         if k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")},
            "timing": TIMING_NOTE}
        self.timed_version()  # warm-up: byte-compiles the sources

    def record(self, inv, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{' '.join(inv.argv[1:4])}: {problems}")

    def reference_s(self):
        inv = self.python("-c", REFERENCE_CODE)
        if inv.exit_code != 0:
            raise BenchError(f"reference job failed: {inv.stderr[-2000:]}")
        return inv.wall_s

    def scaled(self, sample):
        """Run ``sample()``, which returns an Invocation, between two timings
        of the reference job.

        Returns (speed scale, invocation). The scale is PROBE_NOMINAL_S over
        the median probe timing if the probe ran during the sample (it ran
        longer than SCALE_WINDOW_S), else REFERENCE_NOMINAL_S over the mean
        of the reference timings just before and just after it.
        """
        if self.last_reference is None:
            self.last_reference = self.reference_s()
        before = self.last_reference
        inv = sample()
        self.last_reference = self.reference_s()
        if inv.probe_s:
            return PROBE_NOMINAL_S / statistics.median(inv.probe_s), inv
        return 2 * REFERENCE_NOMINAL_S / (before + self.last_reference), inv

    def timed_version(self):
        inv = self.python("-m", "pcgkit", "--version")
        ok = inv.exit_code == 0 and inv.stdout.strip()
        self.record(inv, [] if ok else [f"--version exit {inv.exit_code}"])
        return inv

    def invoke(self):
        """One workload command in a fresh interpreter."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        return self.python("-m", "pcgkit", *self.workload.argv)

    def check(self, inv):
        """Check an invocation's exit code and reports and count it."""
        acc, problems = check_invocation(
            inv, self.workload, self.dir, self.truth, self.cohort,
            self.with_golden)
        self.record(inv, problems)
        return acc

    @property
    def with_golden(self):
        return (self.seed == DEFAULT_SEED
                and self.cohort == WORKLOADS[self.workload.name].cohort)


def measure_end_to_end(run, seconds):
    # On a shared 2-vCPU host a fixed job runs at speeds up to 40% apart,
    # changing within seconds and drifting over minutes as other tenants load
    # the machine; raw wall time spread by up to 22% (IQR over median) over
    # ten runs. Each timed sample is therefore scaled to a reference speed
    # (see Run.scaled). Raw times are printed and kept in the details file. The set-up samples alternate with the first invocations. Another
    # invocation starts only if it should end within ``seconds``.
    setups, invocations, accs = [], [], []
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_SAMPLES:
            setups.append(run.scaled(run.timed_version))
        scale, inv = run.scaled(run.invoke)
        invocations.append((scale, inv))
        accs.append(run.check(inv))
        next_end = time.perf_counter() + inv.wall_s
        if next_end - start > seconds or next_end > run.deadline:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.scaled(run.timed_version))
    # Means, not medians: with samples at two speeds the median jumps between
    # them, and in trials the mean over a run was the steadier of the two.
    walls = [i.wall_s for _, i in invocations]
    wall = statistics.fmean(k * i.wall_s for k, i in invocations)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.fmean(k * s.wall_s for k, s in setups),
        "audio_s_per_s": run.cohort.audio_s / wall,
        "peak_rss_mb": _median([i.peak_rss_mb for _, i in invocations]),
    }
    scales = [k for k, _ in invocations + setups]
    lines = [
        f"wall_s = {wall:.4f} s (mean of {len(walls)} invocations, "
        f"{_scaled_note(invocations)}; raw mean {statistics.fmean(walls):.4f}, "
        f"min {min(walls):.4f}, max {max(walls):.4f})",
        f"setup_s = {metrics['setup_s']:.4f} s (mean of {len(setups)} fresh "
        f"`python -m pcgkit --version`, {_scaled_note(setups)}; raw mean "
        f"{statistics.fmean(s.wall_s for _, s in setups):.4f})",
        f"speed scale = {statistics.fmean(scales):.4f} (nominal over measured "
        f"time of the reference or probe job; min {min(scales):.4f}, max "
        f"{max(scales):.4f})",
        f"audio_s_per_s = {metrics['audio_s_per_s']:.2f} s/s "
        f"({run.cohort.audio_s:g} s of audio per invocation)",
        f"peak_rss_mb = {metrics['peak_rss_mb']:.1f} MB (median of "
        f"{len(invocations)})",
    ]
    lines += accuracy_lines(run, accs[-1] if accs else {})
    details = {"setup_samples_s": [s.wall_s for _, s in setups],
               "wall_samples_s": walls,
               "speed_scales": {"setup": [k for k, _ in setups],
                                "wall": [k for k, _ in invocations]},
               "probe_median_s": [_median(i.probe_s) if i.probe_s else None
                                  for _, i in invocations],
               "cpu_samples_s": [i.cpu_s for _, i in invocations],
               "peak_rss_samples_mb": [i.peak_rss_mb for _, i in invocations],
               "accuracy": accs}
    return metrics, lines, details


def _scaled_note(samples):
    """Says how the (scale, invocation) pairs were scaled."""
    n = sum(bool(i.probe_s) for _, i in samples)
    return (f"{len(samples) - n} scaled by the reference job around them, {n} "
            f"(over {SCALE_WINDOW_S:g} s) by the probe job during them")


def accuracy_lines(run, acc):
    """Printed report-derived metrics; each is a count or fraction of the run."""
    lines = []
    n_sub = len(run.truth)
    if "subjects_failed" in acc:
        lines.append(f"subject_fail_frac = {acc['subjects_failed'] / n_sub:g} "
                     f"({acc['subjects_failed']}/{n_sub} subjects)")
    if "frames" in acc:
        lines.append(f"frame_fail_frac = {acc['frames_failed'] / acc['frames']:g} "
                     f"({acc['frames_failed']}/{acc['frames']} frames)")
    elif acc:
        lines.append("frame_fail_frac = n/a (the report does not list frames; "
                     "see hr.hr_pipeline.ok_frac in the --trace 1 run)")
    for key, unit in (("hr_err_bpm", "bpm"), ("sbp_rmse_mmhg", "mmHg"),
                      ("dbp_rmse_mmhg", "mmHg"), ("sbp_median_err_mmhg", "mmHg"),
                      ("dbp_median_err_mmhg", "mmHg")):
        if key in acc:
            lines.append(f"{key} = {acc[key]:.6g} {unit}")
    if "report_max_dev" in acc:
        lines.append(f"report_max_dev = {acc['report_max_dev']:g} (against "
                     f"golden reports for seed {DEFAULT_SEED}; byte-identical: "
                     f"{'yes' if acc['report_identical'] else 'no'})")
    elif acc:
        lines.append(f"report_max_dev = n/a (goldens exist for seed "
                     f"{DEFAULT_SEED} only)")
    return lines


def measure_layers(run, spans_path):
    importtimes = []
    for _ in range(IMPORTTIME_SAMPLES):
        inv = run.python("-X", "importtime", "-c", "import pcgkit")
        run.record(inv, [] if inv.exit_code == 0 else
                   [f"importtime exit {inv.exit_code}"])
        importtimes.append(parse_importtime(inv.stderr))
    plain_scale, plain = run.scaled(run.invoke)
    run.check(plain)
    shutil.rmtree(run.dir / "out", ignore_errors=True)
    summary_path = run.dir / "trace_summary.json"
    traced_scale, traced = run.scaled(lambda: run.python(
        str(HERE / "tracer.py"), "--summary", str(summary_path),
        "--spans", str(spans_path), "--", *run.workload.argv))
    _, problems = check_invocation(traced, run.workload, run.dir, run.truth,
                                   run.cohort, run.with_golden)
    summary = (load_strict_json(summary_path) if summary_path.exists()
               else {"functions": {}, "errors": [], "truncated_peaks": 0})
    calls = summary["functions"].get("hr.hr_pipeline", {"calls": 0})["calls"]
    frame_errors = sum(e["count"] for e in summary["errors"]
                       if e["function"] == "hr.hr_pipeline")
    # The only frame-failure check on bp_short, whose report lists no frames.
    problems += _frame_fail_problems(frame_errors, calls)
    run.record(traced, problems)

    metrics = {f"setup.{k}_s" if k != "pcgkit" else "setup.pcgkit_self_s":
               _median([t[k] for t in importtimes])
               for k in ("numpy", "scipy", "pcgkit")}
    for layer, funcs in LAYERS.items():
        for func in funcs:
            name = f"{layer}.{func}"
            stat = summary["functions"].get(
                name, {"calls": 0, "self_s": 0.0, "durations_s": []})
            metrics[f"{name}.calls"] = stat["calls"]
            metrics[f"{name}.self_s"] = stat["self_s"]
            if name in PER_FRAME:
                durs = stat["durations_s"]
                metrics[f"{name}.p50_ms"] = _percentile(durs, 50) * 1e3
                metrics[f"{name}.p95_ms"] = _percentile(durs, 95) * 1e3
    stage_errors = {stage: 0 for stage in HR_STAGES}
    for e in summary["errors"]:
        if e["function"] == "hr.hr_pipeline" and e["stage"] in stage_errors:
            stage_errors[e["stage"]] += e["count"]
    metrics["hr.hr_pipeline.ok_frac"] = (
        (calls - frame_errors) / calls if calls else 0.0)
    for stage, n in stage_errors.items():
        metrics[f"hr.hr_pipeline.errors.{stage}"] = n
    metrics["segmentation.truncated_peaks"] = summary["truncated_peaks"]
    metrics["proc.cpu_s"] = plain.cpu_s
    # One invocation each, scaled by the rule of Run.scaled; the difference
    # is still noisy on a shared host.
    metrics["trace.overhead_s"] = (traced_scale * traced.wall_s
                                   - plain_scale * plain.wall_s)

    pair = [(traced_scale, traced), (plain_scale, plain)]
    lines = [f"traced wall {traced.wall_s:.4f} s, untraced {plain.wall_s:.4f} s "
             f"(raw, one each; trace.overhead_s has {_scaled_note(pair)}); "
             f"spans in {spans_path}"]
    for name in sorted(n for n in PER_FRAME if metrics[f"{n}.calls"]):
        n_calls = metrics[f"{name}.calls"]
        lines.append(f"{name}: {n_calls} calls, self {metrics[f'{name}.self_s']:.4f} s, "
                     f"p50 {metrics[f'{name}.p50_ms']:.3f} ms, p95 "
                     f"{metrics[f'{name}.p95_ms']:.3f} ms"
                     + ("" if n_calls >= 200 else " (p95 from < 200 calls)"))
    details = {"importtime_s": importtimes, "errors": summary["errors"],
               "traced_wall_s": traced.wall_s, "untraced_wall_s": plain.wall_s}
    return metrics, lines, details


def measure(workload_name, seed, seconds, trace, cohort=None):
    """Run the benchmark once. Returns (result, lines, details).

    ``cohort`` replaces the workload's cohort (the smoke test uses a tiny one).
    """
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[workload_name]
    cohort = cohort or workload.cohort
    if not (SRC / "pcgkit" / "__init__.py").is_file():
        raise BenchError(f"no pcgkit sources under {SRC}")
    OUT_ROOT.mkdir(exist_ok=True)
    run = Run(workload, seed, cohort, deadline)
    try:
        run.prepare()
        if trace:
            spans = OUT_ROOT / f"{workload_name}-seed{seed}-spans.json"
            metrics, lines, details = measure_layers(run, spans)
            units = per_layer_units()
        else:
            metrics, lines, details = measure_end_to_end(run, seconds)
            units = END_TO_END_UNITS
    finally:
        run.close()
    env = run.env_record
    header = [
        f"workload {workload_name} seed {seed} trace {trace}: "
        f"{cohort.subjects} subjects x {cohort.duration_s:g} s, "
        f"`pcgkit {' '.join(workload.argv)}`",
        f"env: nproc {env['nproc']} ({env['cpus_usable']} usable), "
        f"{env['cpu_model']}, Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, BLAS threads {env['blas_threads']}, "
        f"BLAS env {env['blas_env'] or 'unset'}",
        f"timing: {TIMING_NOTE}",
    ]
    lines = header + lines + [f"check problem: {p}" for p in run.problems]
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    details.update({"workload": workload_name, "seed": seed, "trace": trace,
                    "cohort": vars(cohort), "env": env,
                    "problems": run.problems, "result": result})
    out = OUT_ROOT / f"{workload_name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(details, indent=1, default=str) + "\n")
    return result, lines, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result, lines, _ = measure(args.workload, args.seed, args.seconds,
                                   args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
