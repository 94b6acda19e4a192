"""Smoke test of the benchmark itself, on tiny cohorts.

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced on a few short
recordings and checks that each metric named in BENCHMARK.json is present
with its unit, that call counts match the cohort, that wrapped functions
a workload never calls report zero, and that the report checks reject a
report edited by one number. Exits 0 when all pass.
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from run import BP_SHORT, Cohort, measure
from tracer import LAYERS, PER_FRAME, Tracer

TINY = {
    "hr_readme": Cohort(3, 8.0),
    "quality_readme": Cohort(3, 8.0),
    "bp_short": Cohort(12, 8.0, BP_SHORT.spec),  # LOOCV needs >= 12 subjects
}

# Wrapped functions each workload's command never reaches.
NEVER_CALLED = {
    "hr_readme": ("core.resample_rational", "wavelets.cwt", "wavelets.wes",
                  "quality.frame_quality", "bp.loocv_subjectwise"),
    "quality_readme": ("core.resample_rational", "hr.hr_from_ecg_frame",
                       "bp.loocv_subjectwise", "evaluation.bland_altman"),
    "bp_short": ("core.resample_rational", "wavelets.cwt", "wavelets.wes",
                 "quality.frame_quality", "hr.hr_from_ecg_frame",
                 "plots.write_scatter_svg"),
}


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def check_metrics(result, declared, label):
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
          f"{label}: run not correct: {result}")
    metrics = result["metrics"]
    names = [m["name"] for m in declared]
    check(sorted(metrics) == sorted(names),
          f"{label}: metrics {sorted(set(metrics) ^ set(names))} differ "
          f"from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
        check(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
              f"{label}: {m['name']} = {got['value']}")


def smoke_runs(bench):
    for name, cohort in TINY.items():
        frames = cohort.subjects * cohort.frames_per_subject
        result, lines, _ = measure(name, 1, 0, 0, cohort)
        check_metrics(result, bench["end_to_end"], f"{name} trace 0")
        check(all(v["value"] > 0 for v in result["metrics"].values()),
              f"{name}: an end-to-end metric is not positive")
        check(any(line.startswith("wall_s = ") for line in lines),
              f"{name}: no wall_s line")

        result, _, _ = measure(name, 1, 0, 1, cohort)
        check_metrics(result, bench["per_layer"], f"{name} trace 1")
        m = {k: v["value"] for k, v in result["metrics"].items()}
        check(m["hr.hr_pipeline.calls"] == frames,
              f"{name}: hr_pipeline calls {m['hr.hr_pipeline.calls']} != {frames}")
        expected_cwt = 3 * frames if name == "quality_readme" else 0
        check(m["wavelets.cwt.calls"] == expected_cwt,
              f"{name}: cwt calls {m['wavelets.cwt.calls']} != {expected_cwt}")
        check(m["bp.loocv_subjectwise.calls"] == (name == "bp_short"),
              f"{name}: loocv calls {m['bp.loocv_subjectwise.calls']}")
        for func in NEVER_CALLED[name]:
            stats = [m[f"{func}.calls"], m[f"{func}.self_s"]]
            if func in PER_FRAME:
                stats += [m[f"{func}.p50_ms"], m[f"{func}.p95_ms"]]
            check(stats == [0] * len(stats), f"{name}: {func} reports {stats}")
        print(f"ok {name}: {len(result['metrics'])} per-layer metrics, "
              f"{frames} frames")


def smoke_missing_function():
    """A listed function that a refactor removed reports zero calls."""
    sys.path.insert(0, str(run.SRC))
    import pcgkit.cli  # noqa: F401

    tracer = Tracer()
    tracer.install({"core": ("no_such_function", "detrend")})
    sys.modules["pcgkit"].detrend(sys.modules["pcgkit"].SampledSignal(
        [0.0, 1.0, 2.0], 10.0))
    stats = tracer.stats({"core": ("no_such_function", "detrend")})
    check(stats["core.no_such_function"]["calls"] == 0, "missing function")
    check(stats["core.detrend"]["calls"] == 1, "detrend not wrapped")
    print("ok missing function reports 0 calls")


def smoke_checks():
    dev = run.text_deviation
    check(dev('{"a": 1.5}', '{"a": 1.5}') == 0.0, "identical text")
    check(dev('{"a": 1.5}', '{"a": 1.25}') == 0.25, "numeric deviation")
    check(dev('{"a": 1.5}', '{"b": 1.5}') == math.inf, "structural mismatch")
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=run.TMP_ROOT) as fh:
        fh.write('{"a": NaN}')
        fh.flush()
        try:
            run.load_strict_json(fh.name)
        except ValueError:
            pass
        else:
            raise AssertionError("NaN accepted by the strict parser")
    check(run.probe_job() > 0, "probe job")
    check(run._frame_fail_problems(0, 225) == [], "no failed frame")
    check(run._frame_fail_problems(1, 225) != [], "one failed frame passes")
    print("ok report checks")


def smoke_golden():
    """A report that differs from its golden by one number fails the check."""
    golden = run.GOLDEN / "hr_readme"
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as tmp:
        out = Path(shutil.copytree(golden, f"{tmp}/out"))
        acc, problems = run.golden_check(golden, out)
        check(not problems and acc["report_max_dev"] == 0.0, "identical copy")
        report = out / "hr_report.json"
        text = report.read_text(encoding="utf-8")
        number = run._NUMBER.search(text, text.index('"bpm_pcg"') + 10)
        edited = f"{float(number.group()) + 0.5:.6f}"
        report.write_text(text[:number.start()] + edited + text[number.end():],
                          encoding="utf-8")
        acc, problems = run.golden_check(golden, out)
        check(problems and 0 < acc["report_max_dev"] < math.inf,
              f"edited number passes: {acc}, {problems}")
        (out / "hr_scatter.svg").unlink()
        acc, problems = run.golden_check(golden, out)
        check(problems and acc["report_max_dev"] == math.inf,
              f"missing report passes: {acc}, {problems}")
    print("ok golden check")


def smoke_bare_directory():
    """Without the program's sources the benchmark fails and prints no result."""
    with tempfile.TemporaryDirectory(dir=run.TMP_ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "hr_readme",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    check(proc.returncode != 0 and "{" not in proc.stdout,
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok bare directory exits {proc.returncode}")


def main():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    run.TMP_ROOT.mkdir(exist_ok=True)
    smoke_checks()
    smoke_golden()
    smoke_bare_directory()
    smoke_missing_function()
    smoke_runs(bench)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
