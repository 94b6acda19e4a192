"""Record the goldens that ``test_golden.py`` compares against.

    PYTHONPATH=src python3 tests/record_golden.py

Writes the ``COHORTS`` synth datasets and the ``BUILT_COHORTS``
datasets and copies the ``INPUTS`` files into a temporary directory,
runs each command of ``CASES`` there through ``pcgkit.cli.main`` and
copies its output tree to ``tests/golden/<case>/``. The numpy version
that computed them goes to ``tests/golden/numpy_version.txt``: FFT
rounding can differ between numpy versions, so the test compares bytes
only under that one.
Re-record only when a change to the reports is intended.
"""

import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
NUMPY_VERSION_FILE = GOLDEN / "numpy_version.txt"

# Dataset name -> synth flags: 4 subjects x 12 s, and 12 x 8 s, enough
# subjects for a full-rank bp fit.
COHORTS = {
    "ds": ["--subjects", "4", "--seed", "11", "--duration", "12"],
    "ds12": ["--subjects", "12", "--seed", "11", "--duration", "8"],
}


def _write_rates_cohort(root):
    """Two 8 s subjects whose pcg.wav is at 4000 and 44100 Hz.

    Each is synthesized at its own rate, so that no resampler makes the
    input and the case pins the one that reads it.
    """
    from pcgkit.io import write_subject_dir
    from pcgkit.synth import SynthSpec, generate_ecg, generate_pcg

    for i, rate in enumerate((4000.0, 44100.0), 1):
        spec = SynthSpec(hr_bpm=60.0 + 15 * i, snr_db=10.0, duration_s=8.0,
                         rate_hz=rate, seed=11 + i)
        write_subject_dir(Path(root) / f"s{i:02d}", generate_pcg(spec)[0],
                          generate_ecg(spec)[0])


# Dataset name -> function that writes it, for datasets synth cannot write.
BUILT_COHORTS = {"ds_rates": _write_rates_cohort}
# Input file name -> checked-in source. They live outside GOLDEN/<case>,
# which recording replaces. The coefficients are synth's cohort set with
# other intercepts, so their predictions are plausible but miss the
# cohort's references by a few mmHg.
INPUTS = {
    "coeffs.json": GOLDEN.parent / "golden_inputs" / "bp_coeffs.json",
    "run.cfg": GOLDEN.parent / "golden_inputs" / "run.cfg",
}
# Paths that tier-1 would otherwise not byte-check: hr on each envelope
# and on the eq. 7 rate formula, bp predict from audio features and from
# a coefficients file, a ridge fit and millisecond LOOCV, LOOCV with
# every setting from a config file, quality at a frame length other than
# 4 s, hr on pcg.wav files that are not at 2000 Hz, and the synth
# dataset itself.
CASES = {
    "hr_shannon": ["hr", "ds"],
    "hr_hilbert": ["hr", "ds", "--method", "hilbert"],
    "hr_eq7": ["hr", "ds", "--formula", "eq7"],
    "hr_wes_morlet": ["hr", "ds", "--method", "wes", "--wavelet", "morlet"],
    "hr_wes_morse": ["hr", "ds", "--method", "wes", "--wavelet", "morse"],
    "hr_wes_bump": ["hr", "ds", "--method", "wes", "--wavelet", "bump"],
    "quality_frames_2": ["quality", "ds", "--frames", "2"],
    "bp_predict_audio": ["bp", "predict", "ds", "--coeffs", "coeffs.json",
                         "--features-from-audio"],
    "bp_predict_coeffs": ["bp", "predict", "ds", "--coeffs", "coeffs.json"],
    "bp_fit_ridge": ["bp", "fit", "ds12", "--features-from-audio",
                     "--ridge", "0.5"],
    "bp_loocv_ms": ["bp", "loocv", "ds12", "--features-from-audio",
                    "--units", "ms"],
    "bp_loocv_config": ["bp", "loocv", "ds12", "--features-from-audio",
                        "--config", "run.cfg"],
    "hr_resampled": ["hr", "ds_rates"],
    "synth_2x4": ["synth", "--subjects", "2", "--seed", "11",
                  "--duration", "4"],
}


def run_case(name):
    """Synthesize the case's cohort, copy its inputs and run case ``name``
    in the working directory.

    Paths are relative because every report lists its ``--out`` and its
    ``--coeffs``. Returns the exit code and the output directory.
    """
    from pcgkit.cli import main

    for arg in CASES[name]:
        if Path(arg).exists():
            continue
        if arg in COHORTS:
            if main(["synth", "--out", arg, *COHORTS[arg]]) != 0:
                raise RuntimeError(f"synth {arg} failed")
        elif arg in BUILT_COHORTS:
            BUILT_COHORTS[arg](arg)
        elif arg in INPUTS:
            shutil.copyfile(INPUTS[arg], arg)
    out = Path("out") / name
    return main([*CASES[name], "--out", str(out)]), out


def main():
    os.environ.pop("PCGKIT_CONFIG", None)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name in CASES:
            code, out = run_case(name)
            if code != 0:
                print(f"{name}: exit {code}", file=sys.stderr)
                return 1
            dest = GOLDEN / name
            shutil.rmtree(dest, ignore_errors=True)
            shutil.copytree(out, dest)
            print(f"{name}: {sorted(p.name for p in dest.iterdir())}")
    NUMPY_VERSION_FILE.write_text(np.__version__ + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
