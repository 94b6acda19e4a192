"""In-process traced run of one pcgkit CLI command, and an environment probe.

Run as a child of ``run.py`` in a fresh interpreter whose ``PYTHONPATH``
points at the checkout's ``src``:

    python perfbench/tracer.py --summary S.json --spans T.json -- hr data --out out
    python perfbench/tracer.py --env

The traced run imports pcgkit, replaces every pcgkit module binding of each
function in ``LAYERS`` with a timing wrapper, and calls
``pcgkit.cli.main(argv)``. No file under ``src/`` changes. Spans (name,
start, end, parent) are kept in memory and written when the command ends.
"""

import argparse
import collections
import ctypes
import functools
import json
import sys
import time
import warnings

# module -> public functions wrapped in the traced run.
LAYERS = {
    "io": ("load_subject_dir", "read_wav_pcm16", "read_ecg_text",
           "write_json_report", "write_csv_series"),
    "core": ("segment_frames", "resample_rational", "detrend",
             "normalize_max_abs", "butterworth_lowpass_zero_phase"),
    "wavelets": ("dwt_denoise_db4", "cwt", "wes"),
    "envelopes": ("compute_envelope", "smooth"),
    "segmentation": ("segment", "find_envelope_peaks", "rise_decay_times"),
    "hr": ("hr_pipeline", "hr_from_pcg", "hr_from_ecg_frame"),
    "quality": ("frame_quality", "fft_band", "snr_frame", "aggregate_quality"),
    "bp": ("extract_subject_features", "loocv_subjectwise",
           "fit_multiple_regression"),
    "evaluation": ("bland_altman", "subject_aggregate"),
    "plots": ("write_scatter_svg",),
    "cli": ("main",),
}

# Functions called once per 4 s frame (or more often) on some workload, so
# that a run has enough calls for per-call percentiles.
PER_FRAME = (
    "core.detrend", "core.normalize_max_abs",
    "core.butterworth_lowpass_zero_phase", "wavelets.dwt_denoise_db4",
    "wavelets.cwt", "wavelets.wes", "envelopes.compute_envelope",
    "envelopes.smooth", "segmentation.segment",
    "segmentation.find_envelope_peaks", "segmentation.rise_decay_times",
    "hr.hr_pipeline", "hr.hr_from_pcg", "hr.hr_from_ecg_frame",
    "quality.frame_quality", "quality.fft_band", "quality.snr_frame",
)

# Stages named by hr_pipeline's StageError.
HR_STAGES = ("denoise", "envelope", "segmentation", "hr")

TRUNCATED_WARNING = "truncated support"


class Tracer:
    """Records one span per wrapped call: name, start, end, parent span."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.errors = collections.Counter()  # (name, stage, error class)
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                cause = getattr(exc, "cause", exc)
                self.errors[(name, getattr(exc, "stage", ""),
                             type(cause).__name__)] += 1
                raise
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self, layers):
        """Wrap each listed function at every pcgkit module binding of it.

        A listed function that no longer exists is skipped; it then reports
        zero calls.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if n == "pcgkit" or n.startswith("pcgkit.")]
        for layer, funcs in layers.items():
            module = sys.modules.get(f"pcgkit.{layer}")
            for func in funcs:
                original = getattr(module, func, None)
                if not callable(original):
                    continue
                wrapper = self.wrap(f"{layer}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def stats(self, layers):
        """Per function: calls, self seconds, and inclusive call durations."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out = {f"{layer}.{f}": {"calls": 0, "self_s": 0.0, "durations_s": []}
               for layer, funcs in layers.items() for f in funcs}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            entry = out[name]
            entry["calls"] += 1
            entry["self_s"] += dur - child[i]
            entry["durations_s"].append(dur)
        return out

    def spans(self):
        return {"fields": ["name", "start_s", "end_s", "parent"],
                "spans": [list(s) for s in zip(self.names, self.starts,
                                               self.ends, self.parents)]}


def blas_threads():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh
                 if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def probe_env():
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads()}


def traced_main(argv, spans_path):
    import pcgkit.cli  # noqa: F401  (pcgkit/__init__ imports every layer)

    tracer = Tracer()
    tracer.install(LAYERS)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = sys.modules["pcgkit.cli"].main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans(), fh)
    errors = [{"function": n, "stage": s, "error": e, "count": c}
              for (n, s, e), c in sorted(tracer.errors.items())]
    return {"exit_code": rc,
            "functions": tracer.stats(LAYERS),
            "errors": errors,
            "truncated_peaks": sum(TRUNCATED_WARNING in str(w.message)
                                   for w in caught)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--env", action="store_true",
                        help="print interpreter and library versions as JSON")
    parser.add_argument("--summary", help="write per-function stats here")
    parser.add_argument("--spans", help="write the span list here")
    parser.add_argument("argv", nargs="*", help="pcgkit CLI arguments")
    args = parser.parse_args()
    if args.env:
        print(json.dumps(probe_env()))
        return 0
    summary = traced_main(args.argv, args.spans)
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return summary["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
