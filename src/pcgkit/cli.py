"""Command-line front end: dataset synthesis, HR, BP, and quality runs.

Every report embeds the fully resolved :class:`RunConfig`, the analysis
chain's fixed settings and the toolkit version, so a report documents
exactly how it was produced and re-running with the same inputs
reproduces it byte for byte.
"""

import argparse
import enum
import inspect
import math
import os
import shutil
import sys
from contextlib import ExitStack, suppress
from dataclasses import asdict, dataclass, fields as dataclass_fields, replace
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .bp import (
    BpCoefficients,
    PcgFeatureVector,
    UnitConvention,
    extract_subject_features,
    fit_coefficients,
    loocv_subjectwise,
    predict_pair,
)
from .core import PCG_RATE_HZ, resample_rational, segment_frames
from .envelopes import SMOOTHING_CUTOFF_HZ, EnvelopeMethod
from .errors import PcgKitError, TooShortError
from .evaluation import MIN_AGREEMENT_PAIRS, bland_altman, subject_aggregate
from .hr import (ECG_PROMINENCE, HrFormula, _denoise_normalize,
                 hr_from_ecg_frame, hr_pipeline)
from .io import (
    _subject_records,
    is_json_number,
    map_subjects,
    read_json_object,
    read_wav_pcm16,
    write_csv_series,
    write_json_report,
    write_subject_dir,
)
from .plots import write_scatter_svg
from .quality import aggregate_quality, frame_qualities
from .segmentation import BASELINE_FRAC, PEAK_DISTANCE_S, PEAK_HEIGHT_FRAC
from .synth import (
    CohortRanges,
    default_cohort_coefficients,
    generate_cohort,
    generate_ecg,
    generate_pcg,
)
from .wavelets import DENOISE_LEVELS, DENOISE_THRESHOLD, WaveletKind

CONFIG_ENV_VAR = "PCGKIT_CONFIG"

# quality_table.csv columns after "subject"; the report nests nrmse_*
_QUALITY_COLUMNS = ("freq_low_hz", "freq_high_hz",
                    *(f"nrmse_{w.value}" for w in WaveletKind),
                    "snr_max_db", "snr_min_db", "snr_avg_db")
# The analysis chain's fixed settings, listed in every report's config.
_FIXED_SETTINGS = dict(
    peak_height_frac=PEAK_HEIGHT_FRAC, peak_distance_s=PEAK_DISTANCE_S,
    baseline_frac=BASELINE_FRAC, smoothing_cutoff_hz=SMOOTHING_CUTOFF_HZ,
    denoise_levels=DENOISE_LEVELS, denoise_threshold=DENOISE_THRESHOLD,
    ecg_prominence=ECG_PROMINENCE, pcg_rate_hz=PCG_RATE_HZ)


@dataclass(frozen=True)
class RunConfig:
    """Resolved user settings, embedded in every report."""

    frame_len_s: float = 4.0
    method: EnvelopeMethod = EnvelopeMethod.SHANNON
    formula: HrFormula = HrFormula.CYCLE_PERIOD
    wavelet: WaveletKind = WaveletKind.MORLET
    units: UnitConvention = UnitConvention.SECONDS
    ridge_lambda: float = 0.0
    out_dir: str = "."

    def __post_init__(self):
        # config-file strings and flag values become the defaults' types
        for f in dataclass_fields(self):
            kind, raw = type(f.default), getattr(self, f.name)
            try:
                object.__setattr__(self, f.name, kind(raw))
            except (TypeError, ValueError):
                raise PcgKitError(
                    f"unknown {f.name} {raw!r}" if issubclass(kind, enum.Enum)
                    else f"bad value for {f.name!r}: {raw!r}") from None
        # 0.5 s at PCG_RATE_HZ is 1000 samples, deep enough for the denoise
        if not 0.5 <= self.frame_len_s <= 30.0:
            raise PcgKitError(
                f"frame_len_s={self.frame_len_s} outside [0.5, 30.0]")
        if not (math.isfinite(self.ridge_lambda) and self.ridge_lambda >= 0):
            raise PcgKitError(
                f"ridge_lambda={self.ridge_lambda} must be finite and >= 0")

    def to_dict(self):
        """These settings (enums by value) and the fixed ones, for a report."""
        return {**{k: getattr(v, "value", v) for k, v in vars(self).items()},
                **_FIXED_SETTINGS}


def load_config_file(path):
    """Parse a flat ``key = value`` config file into a dict of strings.

    A key set twice is an error naming both lines.
    """
    values, first_line = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except OSError as exc:
        raise PcgKitError(f"cannot read config file {path}: "
                          f"{exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise PcgKitError(f"config file {path} is not UTF-8 text: "
                          f"{exc}") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise PcgKitError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise PcgKitError(f"{path}:{line_no}: key {key!r} is already "
                              f"set on line {first_line[key]}")
        values[key], first_line[key] = value.strip(), line_no
    return values


def resolve_config(args):
    """Merge defaults, an optional config file, and CLI overrides.

    A setting flag's ``dest`` is its field; the file is checked whole.
    A flag that another setting leaves unread is rejected (bp's audio
    flags without ``--features-from-audio``, whose features a meta.json
    block replaces); the same key in a config file is always accepted,
    because one file serves every command.
    """
    names = [f.name for f in dataclass_fields(RunConfig)]
    config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    values = load_config_file(config_path) if config_path else {}
    for key in values:
        if key not in names:
            raise PcgKitError(f"unknown config key {key!r}")
    flags = {name: getattr(args, name, None) for name in names}
    config = replace(RunConfig(**values),
                     **{k: v for k, v in flags.items() if v is not None})
    audio = getattr(args, "features_from_audio", True)
    for flag, used, where in (
            ("--wavelet", config.method is EnvelopeMethod.WES,
             "with --method wes"),
            *((f, audio, "with --features-from-audio")
              for f in ("--method", "--wavelet", "--frames", "--formula"))):
        if not used and flags[_FLAGS[flag]["dest"]] is not None:
            raise PcgKitError(f"{flag} is only used {where}")
    return config


def _report_header(config):
    return {"version": __version__, "config": config.to_dict()}


def _raw_frames(pcg, config):
    """A subject's PCG resampled to the analysis rate and framed."""
    if abs(pcg.rate_hz - PCG_RATE_HZ) > 1e-9:
        pcg = resample_rational(pcg, PCG_RATE_HZ)
    return segment_frames(pcg, config.frame_len_s)


def _frame_results(record, config):
    """Resample and frame a subject's PCG now; analyse frames lazily.

    The returned iterator yields, per frame, the :class:`PipelineResult`
    or the :class:`PcgKitError` that frame raised.
    """
    frames = _raw_frames(record.pcg, config)

    def analyse():
        for frame in frames:
            try:
                yield hr_pipeline(frame, config.method, config.formula,
                                  config.wavelet)
            except PcgKitError as exc:
                yield exc

    return analyse()


def _subject_features(record, config, from_audio):
    """The meta.json features block, unless ``from_audio``; else audio.

    A subject without a block uses audio features; a block that lacks a
    feature is an error, so its values are never silently replaced.
    """
    feat = None if from_audio else record.meta.get("features")
    if feat is None:
        per_frame, n_failed = [], 0
        for r in _frame_results(record, config):
            if isinstance(r, PcgKitError):
                n_failed += 1
            else:
                per_frame.append((r.segmentation, r.hr))
        if not per_frame:
            raise PcgKitError(f"all {n_failed} frames failed analysis")
        return extract_subject_features(per_frame).features
    if not isinstance(feat, dict):
        raise PcgKitError(f"meta.json: features must be an object, "
                          f"got {feat!r}")
    names = [f.name for f in dataclass_fields(PcgFeatureVector)]
    for n in names:
        if n in feat and not is_json_number(feat[n]):
            raise PcgKitError(f"meta.json: features.{n} must be a number, "
                              f"got {feat[n]!r}")
    missing = [n for n in names if n not in feat]
    if missing:
        raise PcgKitError(f"meta.json: features lacks {', '.join(missing)} "
                          f"(use --features-from-audio to ignore the block)")
    return PcgFeatureVector(**{n: float(feat[n]) for n in names})


def cmd_synth(args):
    """Generate a cohort fixture dataset on disk."""
    params = read_json_object(args.spec_file) if args.spec_file else {}
    # every spec key goes to generate_cohort; the coefficients are fixed
    spec_params = inspect.signature(generate_cohort).parameters
    unknown = sorted(k for k in params if k not in spec_params or k == "coeffs")
    if unknown:
        raise PcgKitError(f"unknown spec keys: {', '.join(unknown)}")
    for key, value in params.items():
        if key == "ranges" or (key == "snr_db" and value is None):
            continue  # ranges are checked below; a null snr_db is noiseless
        kind = type(spec_params[key].default)  # int or float
        if not is_json_number(value) or not isinstance(value, (int, kind)):
            raise PcgKitError(f"spec {key} must be "
                              f"{'an integer' if kind is int else 'a number'}"
                              f", got {value!r}")
    bounds = {}
    try:
        for key, (lo, hi) in params.get("ranges", {}).items():
            if not (is_json_number(lo) and is_json_number(hi)):
                raise TypeError(f"{key} bounds must be numbers, "
                                f"got {[lo, hi]!r}")
            bounds[key] = (float(lo), float(hi))
        params["ranges"] = CohortRanges(**bounds)
    except (AttributeError, TypeError, ValueError) as exc:
        raise PcgKitError(f"bad spec ranges: {exc}") from None
    flags = {"n_subjects": args.subjects, "seed": args.seed,
             "duration_s": args.duration}
    params.update({k: v for k, v in flags.items() if v is not None})
    coeffs = default_cohort_coefficients()
    cohort = generate_cohort(coeffs=coeffs, **params)
    out = Path(args.out)
    with ExitStack() as undo:  # a failed run removes the folders it made
        made = [p for p in (out, *out.parents) if not p.exists()]
        if made:  # the outermost folder this run makes, --out or above it
            undo.callback(shutil.rmtree, made[-1], ignore_errors=True)
        for subject in cohort:
            pcg, truth = generate_pcg(subject.spec)
            ecg, r_times = generate_ecg(subject.spec)
            peak = float(np.max(np.abs(pcg.samples)))
            if not peak > 0:
                raise PcgKitError(f"subject {subject.subject_id}: its PCG "
                                  f"holds no heart sound")
            pcg = pcg.with_samples(pcg.samples * (0.99 / peak))
            f = subject.features
            meta = {
                "subject_id": subject.subject_id,
                "sbp_ref": subject.sbp_ref,
                "dbp_ref": subject.dbp_ref,
                "hr_bpm": subject.spec.hr_bpm,
                "seed": subject.spec.seed,
                "features": {**asdict(f), "t_s1": f.t_s1, "t_s2": f.t_s2},
                "s1_times": truth.s1_times,
                "s2_times": truth.s2_times,
                "r_times": r_times,
            }
            subject_dir = out / subject.subject_id
            if not subject_dir.exists():
                undo.callback(shutil.rmtree, subject_dir, ignore_errors=True)
            write_subject_dir(subject_dir, pcg, ecg, meta)
        undo.pop_all()
    manifest = {
        "version": __version__,
        "n_subjects": len(cohort),
        "target_coefficients": coeffs.to_json_dict(),
    }
    write_json_report(out / "manifest.json", manifest)
    print(f"wrote {len(cohort)} subjects to {out}")
    return 0


def cmd_hr(args):
    """Per-frame and per-subject heart-rate report, with ECG agreement."""
    config = resolve_config(args)
    pairs = []

    def analyze(record):
        results = _frame_results(record, config)
        # the ECG is only a reference: rows past its end lose their ECG
        # rate, not the subject its PCG rates
        ecg_frames, ecg_error = [], None
        if record.ecg is not None:
            try:
                ecg_frames = segment_frames(record.ecg, config.frame_len_s)
                ecg_error = (f"ecg.txt: {record.ecg.duration_s:.3f} s ends "
                             f"before this frame")
            except TooShortError as exc:
                ecg_error = f"ecg.txt: {exc}"
        frame_rows, diffs = [], []
        for i, result in enumerate(results):
            row = {"frame": i}
            if isinstance(result, PcgKitError):
                row["error"] = str(result)
            else:
                row["bpm_pcg"], row["flags"] = result.hr.bpm, result.hr.flags
            if i < len(ecg_frames):
                try:
                    row["bpm_ecg"] = hr_from_ecg_frame(ecg_frames[i]).bpm
                except PcgKitError as exc:
                    row["ecg_error"] = str(exc)
            elif ecg_error:
                row["ecg_error"] = ecg_error
            if "bpm_pcg" in row and "bpm_ecg" in row and result.hr.accepted:
                pairs.append((row["bpm_ecg"], row["bpm_pcg"]))
                diffs.append(row["bpm_pcg"] - row["bpm_ecg"])
            frame_rows.append(row)
        if not any("bpm_pcg" in r for r in frame_rows):
            raise PcgKitError("no frame produced a usable estimate")
        entry = {"frames": frame_rows,
                 "n_frames": len(frame_rows)}
        if diffs:
            d = np.array(diffs)
            entry["mae"] = float(np.mean(np.abs(d)))
            entry["rmse"] = float(np.sqrt(np.mean(d * d)))
        return entry

    subjects, errors = map_subjects(args.dataset, analyze)
    report = _report_header(config)
    report["subjects"] = subjects
    report["errors"] = errors
    scored = {s: entry for s, entry in subjects.items() if "mae" in entry}
    if scored:
        report["cohort"] = cohort = {}
        for metric in ("mae", "rmse"):
            cohort[metric], cohort[f"per_subject_{metric}"] = subject_aggregate(
                {s: [entry[metric]] for s, entry in scored.items()})
    if len(pairs) >= MIN_AGREEMENT_PAIRS:
        ref = [p[0] for p in pairs]
        pred = [p[1] for p in pairs]
        agreement, means, diffs = bland_altman(np.array(pred), np.array(ref))
        report["agreement"] = asdict(agreement)
        out = Path(config.out_dir)
        write_csv_series(out / "hr_pairs.csv", ["bpm_ecg", "bpm_pcg"], pairs)
        write_csv_series(out / "hr_bland_altman.csv", ["mean_bpm", "diff_bpm"],
                         zip(means, diffs))
        write_scatter_svg(out / "hr_scatter.svg", ref, pred,
                          "ECG heart rate (bpm)", "PCG heart rate (bpm)",
                          "Frame-wise heart-rate agreement", identity=True)
        write_scatter_svg(out / "hr_bland_altman.svg", list(means), list(diffs),
                          "Mean of estimates (bpm)", "Difference (bpm)",
                          "Bland-Altman",
                          hlines=((agreement.bias_mean, False),
                                  (agreement.loa_low, True),
                                  (agreement.loa_high, True)))
    write_json_report(Path(config.out_dir) / "hr_report.json", report)
    return 0 if not errors else 1


def cmd_bp(args):
    """Fit, predict, or cross-validate the pressure model on a dataset."""
    config = resolve_config(args)
    if args.bp_command == "predict":  # a bad file fails before any analysis
        payload = read_json_object(args.coeffs)
        coeffs = BpCoefficients.from_json_dict(
            payload.get("coefficients", payload))
    # the pressure model reads PCG features alone: no ecg.txt is parsed
    # subject id -> (features, sbp_ref, dbp_ref)
    rows, errors = map_subjects(args.dataset, lambda record: (
        _subject_features(record, config, args.features_from_audio),
        record.sbp_ref, record.dbp_ref), ecg=False)
    report = _report_header(config)
    report["errors"] = errors
    out = Path(config.out_dir)
    labeled = [sid for sid, (_, sbp, dbp) in rows.items()
               if sbp is not None and dbp is not None]
    dataset = [rows[sid] for sid in labeled]

    if args.bp_command == "fit":
        coeffs, *fits = fit_coefficients(dataset, config.units,
                                         config.ridge_lambda)
        report["coefficients"] = coeffs.to_json_dict()
        report["diagnostics"] = {"n_subjects": len(dataset)}
        for side, fit in zip(("sbp", "dbp"), fits):
            report["diagnostics"][side] = {
                "residual_rms": fit.residual_rms, "rank": fit.rank,
                "condition_number": fit.condition_number}
        write_json_report(out / "bp_coefficients.json", report)

    elif args.bp_command == "predict":
        predictions = {}
        for sid, (features, *refs) in rows.items():
            pred = predict_pair(features, coeffs)
            entry = {"sbp": pred.sbp, "dbp": pred.dbp, "flags": pred.flags}
            for side, ref in zip(("sbp", "dbp"), refs):
                if ref is not None:
                    entry[f"{side}_ref"] = ref
                    entry[f"{side}_error"] = getattr(pred, side) - ref
            predictions[sid] = entry
        report["coefficients_id"] = str(args.coeffs)
        report["predictions"] = predictions
        write_json_report(out / "bp_predictions.json", report)

    else:  # loocv
        loocv = loocv_subjectwise(dataset, config.units, config.ridge_lambda)
        report["loocv"] = dict(asdict(loocv), n_subjects=len(dataset))
        del report["loocv"]["predictions"]
        report["predictions"] = {
            labeled[i]: {
                "sbp": ps, "dbp": pd, "sbp_ref": rs, "dbp_ref": rd}
            for i, ps, pd, rs, rd in loocv.predictions
        }
        write_json_report(out / "bp_loocv.json", report)

    return 0 if not errors else 1


def _stamp(path):
    """``(size, mtime_ns)`` of a file."""
    st = path.stat()
    return st.st_size, st.st_mtime_ns


def cmd_quality(args):
    """Per-subject quality table: band, energy-track errors, SNR.

    The cohort's frames go through one :func:`frame_qualities` call, so
    each wavelet family's bank is built once. The main thread loads the
    subjects and runs :func:`hr_pipeline` on each frame for the first
    family; for a later one it re-reads each ``pcg.wav``, a subject at a
    time, and denoises and normalizes each frame again. A subject whose
    ``pcg.wav`` changed size or mtime since its first read is an error.
    """
    config = resolve_config(args)
    subjects, errors, table, counts = {}, {}, {}, []
    held = [None, None]  # the subject re-read last, and its raw frames

    def again(sid, path, stamp, i):
        if held[0] != sid:
            held[:] = sid, None  # the previous subject's frames go first
            with suppress(PcgKitError, OSError):
                if _stamp(path) == stamp:
                    held[1] = _raw_frames(read_wav_pcm16(path), config)
        if held[1] is None:
            errors[sid] = "pcg.wav changed during the run"
            raise PcgKitError(errors[sid])
        return _denoise_normalize(held[1][i])[1]

    def frames():
        for folder, record in _subject_records(args.dataset, errors,
                                               ecg=False):
            sid, path = record.subject_id, folder / "pcg.wav"
            try:
                stamp, results = _stamp(path), _frame_results(record, config)
            except (PcgKitError, OSError) as exc:
                errors[sid] = str(exc)
                continue
            finally:
                del record  # before the next folder loads
            n = 0
            for n, r in enumerate(results, 1):
                # a failed frame's traceback would keep its arrays alive
                yield PcgKitError(str(r)) if isinstance(r, PcgKitError) else (
                    r.normalized, r.segmentation,
                    partial(again, sid, path, stamp, n - 1))
            counts.append((sid, n))

    results = iter(frame_qualities(frames()))
    for sid, n in counts:
        qualities = [q for q in islice(results, n)
                     if not isinstance(q, PcgKitError)]
        if sid in errors:  # its pcg.wav changed
            continue
        if not qualities:
            errors[sid] = "no frame survived segmentation"
            continue
        agg = aggregate_quality(qualities)
        row = (*agg.freq_range_hz,
               *(agg.nrmse[w.value] for w in WaveletKind), *agg.snr_db)
        table[sid] = row
        entry = {c: v for c, v in zip(_QUALITY_COLUMNS, row)
                 if not c.startswith("nrmse_")}
        subjects[sid] = dict(entry, nrmse=agg.nrmse,
                             per_frame_snr_db=agg.per_frame_snr,
                             n_frames=len(qualities),
                             n_failed=n - len(qualities))
    report = _report_header(config)
    report["subjects"] = subjects
    report["errors"] = errors
    out = Path(config.out_dir)
    write_json_report(out / "quality_report.json", report)
    write_csv_series(out / "quality_table.csv", ["subject", *_QUALITY_COLUMNS],
                     [(sid, *row) for sid, row in sorted(table.items())])
    return 0 if not errors else 1


# Every report-command flag. A setting's dest is its RunConfig field and
# its metavar the flag's name; an enum's values are its choices.
_FLAGS = {
    "--coeffs": dict(required=True, help="bp fit's coefficients JSON"),
    "--ridge": dict(dest="ridge_lambda", metavar="RIDGE", type=float,
                    help="ridge strength"),
    "--features-from-audio": dict(action="store_true", help=(
        "always derive features from audio, ignoring precomputed "
        "features in meta.json")),
    "--units": dict(dest="units", choices=UnitConvention,
                    help="time-feature unit convention"),
    "--frames": dict(dest="frame_len_s", metavar="FRAMES", type=float,
                     help="frame length in seconds (default 4)"),
    "--method": dict(dest="method", choices=EnvelopeMethod,
                     help="envelope method"),
    "--wavelet": dict(dest="wavelet", choices=WaveletKind,
                      help="wavelet family for the WES envelope "
                           "(--method wes only)"),
    "--out": dict(dest="out_dir", metavar="OUT", help="output directory"),
    "--config": dict(help=f"config file (default ${CONFIG_ENV_VAR})"),
    # quality computes no rate, so only hr and bp take a formula
    "--formula": dict(dest="formula", choices=HrFormula,
                      help="interval-to-rate conversion"),
}
_ANALYSIS_FLAGS = ("--frames", "--method", "--wavelet", "--out", "--config")
_BP_FLAGS = ("--features-from-audio", *_ANALYSIS_FLAGS, "--formula")


def _add_command(sub, name, help, func, flags):
    """A report command: a dataset argument and the flags it reads."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("dataset", help="dataset directory")
    for flag in flags:
        kwargs = dict(_FLAGS[flag])
        if "choices" in kwargs:
            kwargs["choices"] = sorted(m.value for m in kwargs["choices"])
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pcgkit",
        description="Batch phonocardiogram analysis toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True, help="dataset directory")
    p_synth.add_argument("--subjects", type=int, default=None)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--duration", type=float, default=None,
                         help="per-subject recording length in seconds")
    p_synth.add_argument("--spec-file", default=None,
                         help="JSON file with cohort parameters")
    p_synth.set_defaults(func=cmd_synth)

    _add_command(sub, "hr", "heart-rate estimation report", cmd_hr,
                 (*_ANALYSIS_FLAGS, "--formula"))
    bp = sub.add_parser("bp", help="blood-pressure model commands")
    bp_sub = bp.add_subparsers(dest="bp_command", required=True)
    fitting = ("--ridge", "--units")  # a coefficients file names its units
    for name, flags, help in (
            ("fit", fitting, "fit the pressure model"),
            ("predict", ("--coeffs",), "predict pressures"),
            ("loocv", fitting, "leave-one-subject-out cross-validation")):
        _add_command(bp_sub, name, help, cmd_bp, (*flags, *_BP_FLAGS))
    _add_command(sub, "quality", "signal-quality report", cmd_quality,
                 _ANALYSIS_FLAGS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PcgKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
