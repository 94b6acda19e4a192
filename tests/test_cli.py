"""Command-line front end: config layering, subcommands, reports."""

import argparse
import dataclasses
import gc
import json
import shutil
import tempfile
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pcgkit import (
    EnvelopeMethod,
    HrEstimate,
    HrFormula,
    PcgKitError,
    SampledSignal,
    SynthSpec,
    UnitConvention,
    WaveletKind,
    __version__,
    aggregate_quality,
    frame_qualities,
    generate_pcg,
    read_wav_pcm16,
    resample_rational,
    write_subject_dir,
    write_wav_pcm16,
)
from pcgkit import cli
from pcgkit import quality as pcgkit_quality
from pcgkit import wavelets as pcgkit_wavelets
from pcgkit import hr as pcgkit_hr
from pcgkit import io as pcgkit_io
from pcgkit.cli import (
    CONFIG_ENV_VAR,
    RunConfig,
    build_parser,
    load_config_file,
    main,
    resolve_config,
)


# The checked-in coefficient file, and bp predict reading it.
COEFFS = str(Path(__file__).resolve().parent / "golden_inputs"
             / "bp_coeffs.json")
PREDICT = ["bp", "predict", "--coeffs", COEFFS]
# The analysis chain's fixed settings, as every report's config lists them.
FIXED_SETTINGS = {
    "peak_height_frac": 0.15, "peak_distance_s": 0.125,
    "smoothing_cutoff_hz": 20.0, "denoise_threshold": 0.15,
    "denoise_levels": 8, "ecg_prominence": 0.8, "baseline_frac": 0.15,
    "pcg_rate_hz": 2000.0,
}


def synth_ds(root, subjects):
    """Synthesize a seed-1 dataset of 8 s subjects under ``root``."""
    assert main(["synth", "--out", str(root), "--subjects", str(subjects),
                 "--seed", "1", "--duration", "8"]) == 0
    return root


def file_coeffs():
    """A fresh dict of the checked-in file's coefficient entries."""
    return json.loads(Path(COEFFS).read_text())["coefficients"]


def edit_meta(subject_dir, **changes):
    path = subject_dir / "meta.json"
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps(meta))


@pytest.fixture(scope="module")
def small_ds(tmp_path_factory):
    """Three subjects, two 4 s frames each; enough for hr and quality."""
    return synth_ds(tmp_path_factory.mktemp("small") / "ds", 3)


@pytest.fixture(scope="module")
def cohort_ds(tmp_path_factory):
    """Twelve labeled subjects, the fitting minimum."""
    root = tmp_path_factory.mktemp("cohort") / "ds"
    assert main(["synth", "--out", str(root), "--subjects", "12",
                 "--seed", "2", "--duration", "8"]) == 0
    return root


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigResolution:

    def test_defaults_without_any_source(self):
        assert resolve_config(argparse.Namespace()) == RunConfig()

    def test_file_values_applied_and_cast(self, tmp_path):
        path = write_cfg(tmp_path, "frame_len_s = 6.0\n"
                                   "method = wes  # trailing comment\n"
                                   "\n")
        cfg = resolve_config(argparse.Namespace(config=path))
        assert cfg.frame_len_s == 6.0
        assert cfg.method is EnvelopeMethod.WES

    def test_cli_flag_beats_file(self, tmp_path):
        path = write_cfg(tmp_path, "frame_len_s = 6.0\n")
        cfg = resolve_config(argparse.Namespace(config=path,
                                                frame_len_s=5.0))
        assert cfg.frame_len_s == 5.0

    def test_env_var_supplies_file(self, tmp_path, monkeypatch):
        path = write_cfg(tmp_path, "method = hilbert\n")
        monkeypatch.setenv(CONFIG_ENV_VAR, path)
        assert (resolve_config(argparse.Namespace()).method
                is EnvelopeMethod.HILBERT)

    def test_explicit_path_beats_env_var(self, tmp_path, monkeypatch):
        env_path = write_cfg(tmp_path, "frame_len_s = 6.0\n", "env.cfg")
        arg_path = write_cfg(tmp_path, "frame_len_s = 7.0\n", "arg.cfg")
        monkeypatch.setenv(CONFIG_ENV_VAR, env_path)
        cfg = resolve_config(argparse.Namespace(config=arg_path))
        assert cfg.frame_len_s == 7.0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "no_such_knob = 1\n")
        with pytest.raises(PcgKitError, match="unknown config key"):
            resolve_config(argparse.Namespace(config=path))

    @pytest.mark.parametrize("key", sorted(FIXED_SETTINGS))
    def test_fixed_setting_key_rejected(self, key, tmp_path):
        # even at its fixed value: the chain's settings are not options
        path = write_cfg(tmp_path, f"{key} = {FIXED_SETTINGS[key]}\n")
        with pytest.raises(PcgKitError, match=f"unknown config key '{key}'"):
            resolve_config(argparse.Namespace(config=path))

    def test_unparseable_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "frame_len_s = abc\n")
        with pytest.raises(PcgKitError,
                           match="^bad value for 'frame_len_s': 'abc'$"):
            resolve_config(argparse.Namespace(config=path))

    @pytest.mark.parametrize("value", ["abc", "100"])
    def test_bad_file_value_rejected_under_a_flag(self, value, tmp_path,
                                                  capsys):
        # the file is checked whole, also where a flag overrides a value
        path = write_cfg(tmp_path, f"frame_len_s = {value}\n")
        assert main(["hr", str(tmp_path / "nope"), "--config", path,
                     "--frames", "5"]) == 1
        assert "frame_len_s" in capsys.readouterr().err

    def test_out_of_range_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "frame_len_s = 100\n")
        with pytest.raises(PcgKitError,
                           match=r"frame_len_s=100.0 outside \[0.5, 30.0\]"):
            resolve_config(argparse.Namespace(config=path))

    def test_missing_config_file_rejected(self, tmp_path, monkeypatch,
                                          capsys):
        missing = str(tmp_path / "nonexistent.cfg")
        with pytest.raises(PcgKitError, match="cannot read config file"):
            resolve_config(argparse.Namespace(config=missing))
        monkeypatch.setenv(CONFIG_ENV_VAR, missing)
        with pytest.raises(PcgKitError, match="cannot read config file"):
            resolve_config(argparse.Namespace())
        assert main(["hr", str(tmp_path), "--config", missing]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "nonexistent.cfg" in err

    @pytest.mark.parametrize("ridge", [-5.0, float("nan"), float("inf")])
    def test_bad_ridge_rejected(self, ridge):
        with pytest.raises(PcgKitError, match="must be finite and >= 0"):
            RunConfig(ridge_lambda=ridge)

    def test_unknown_method_rejected(self):
        with pytest.raises(PcgKitError, match="^unknown method 'fourier'$"):
            RunConfig(method="fourier")

    def test_every_field_from_file_takes_its_type(self, tmp_path):
        path = write_cfg(tmp_path, "frame_len_s = 4\nmethod = shannon\n"
                                   "formula = cycle\nwavelet = morlet\n"
                                   "units = s\nridge_lambda = 0\n"
                                   "out_dir = reports\n")
        cfg = resolve_config(argparse.Namespace(config=path))
        assert (cfg.method, cfg.formula, cfg.wavelet, cfg.units) == (
            EnvelopeMethod.SHANNON, HrFormula.CYCLE_PERIOD,
            WaveletKind.MORLET, UnitConvention.SECONDS)
        assert type(cfg.frame_len_s) is float
        assert type(cfg.ridge_lambda) is float
        assert cfg.to_dict() == {
            "frame_len_s": 4.0, "method": "shannon", "formula": "cycle",
            "wavelet": "morlet", "units": "s", "ridge_lambda": 0.0,
            "out_dir": "reports", **FIXED_SETTINGS}

    def test_missing_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "just a bare line\n")
        with pytest.raises(PcgKitError,
                           match="run.cfg:1: expected key = value"):
            load_config_file(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_cfg(tmp_path, "# full comment\n\nunits = ms\n")
        assert load_config_file(path) == {"units": "ms"}

    def test_repeated_key_rejected(self, tmp_path, capsys):
        # the last value used to win silently
        path = write_cfg(tmp_path, "frame_len_s = 2\n# four\n"
                                   " frame_len_s=4\n")
        with pytest.raises(PcgKitError, match="run.cfg:3: key 'frame_len_s' "
                                              "is already set on line 1$"):
            load_config_file(path)
        assert main(["hr", str(tmp_path), "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_non_utf8_config_file_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"units = \xff\xfe\n")
        with pytest.raises(PcgKitError, match="not UTF-8"):
            load_config_file(str(path))
        assert main(["hr", str(tmp_path), "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestSynthCommand:

    def test_dataset_layout(self, small_ds):
        names = sorted(p.name for p in small_ds.iterdir())
        assert names == ["manifest.json", "s01", "s02", "s03"]
        for sid in ("s01", "s02", "s03"):
            files = sorted(p.name for p in (small_ds / sid).iterdir())
            assert files == ["ecg.txt", "meta.json", "pcg.wav"]
        manifest = json.loads((small_ds / "manifest.json").read_text())
        assert manifest["n_subjects"] == 3
        assert "target_coefficients" in manifest

    def test_meta_holds_ground_truth(self, small_ds):
        meta = json.loads((small_ds / "s01" / "meta.json").read_text())
        assert meta["subject_id"] == "s01"
        assert meta["sbp_ref"] > meta["dbp_ref"] > 0
        assert set(meta["features"]) >= {"t_sys", "t_dias", "t_rs1", "hr_pcg"}
        assert len(meta["s1_times"]) >= 8
        assert len(meta["r_times"]) >= 8

    def test_audio_written_inside_full_scale(self, small_ds):
        sig = read_wav_pcm16(small_ds / "s02" / "pcg.wav")
        assert float(np.max(np.abs(sig.samples))) <= 0.99 + 1.0 / 32768.0

    def test_seeded_rerun_is_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            assert main(["synth", "--out", str(tmp_path / name),
                         "--subjects", "2", "--seed", "5",
                         "--duration", "6"]) == 0
        for rel in ("s01/pcg.wav", "s01/meta.json", "s02/ecg.txt",
                    "manifest.json"):
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_failed_run_leaves_no_partial_dataset(self, tmp_path, capsys):
        # at 0.1 s, s01 and s02 are written before s03 holds no heart sound
        ds = tmp_path / "ds"
        (ds / "s02").mkdir(parents=True)  # a folder this run did not make
        (ds / "s02" / "notes.txt").write_text("kept")
        assert main(["synth", "--out", str(ds), "--subjects", "6",
                     "--duration", "0.1"]) == 1
        assert "subject s03: its PCG holds no" in capsys.readouterr().err
        assert sorted(p.name for p in ds.iterdir()) == ["s02"]
        assert (ds / "s02" / "notes.txt").read_text() == "kept"

    def test_failed_run_removes_the_folders_it_made(self, tmp_path, capsys):
        # --out and the folder above it are made by this run, so both go
        ds = tmp_path / "new" / "ds"
        assert main(["synth", "--out", str(ds), "--subjects", "6",
                     "--duration", "0.1"]) == 1
        assert "subject s03: its PCG holds no" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags, needle", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--subjects", "-3"], "n_subjects must be >= 1"),
        (["--subjects", "0"], "n_subjects must be >= 1"),
    ])
    def test_out_of_domain_flag_refused(self, flags, needle, tmp_path,
                                        capsys):
        assert main(["synth", "--out", str(tmp_path / "ds"), *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err
        assert not (tmp_path / "ds").exists()


class TestHrCommand:

    def test_report_contents(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        assert report["version"] == __version__
        assert report["config"]["method"] == "shannon"
        assert report["errors"] == {}
        assert sorted(report["subjects"]) == ["s01", "s02", "s03"]
        for sid, entry in report["subjects"].items():
            meta = json.loads((small_ds / sid / "meta.json").read_text())
            assert entry["n_frames"] == 2
            for row in entry["frames"]:
                assert abs(row["bpm_pcg"] - meta["hr_bpm"]) <= 2.0
                assert abs(row["bpm_ecg"] - meta["hr_bpm"]) <= 2.0
            assert entry["mae"] < 1.0
        assert report["agreement"]["n"] == 6
        assert report["cohort"]["mae"] < 1.0
        for name in ("hr_pairs.csv", "hr_bland_altman.csv",
                     "hr_scatter.svg", "hr_bland_altman.svg"):
            assert (out / name).exists()

    def test_report_config_lists_every_setting(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--out", str(out)]) == 0
        text = (out / "hr_report.json").read_text()
        assert json.loads(text)["config"] == {
            "frame_len_s": 4.0, "method": "shannon", "formula": "cycle",
            "wavelet": "morlet", "units": "s", "ridge_lambda": 0.0,
            "out_dir": str(out), **FIXED_SETTINGS}
        assert '"denoise_levels": 8,' in text
        assert '"pcg_rate_hz": 2000.0,' in text

    def test_method_flag_propagates(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--method", "wes",
                     "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        assert report["config"]["method"] == "wes"

    def test_bad_subject_lands_in_error_manifest(self, tmp_path):
        ds = synth_ds(tmp_path / "ds", 1)
        bad = ds / "zzbad"
        bad.mkdir()
        (bad / "pcg.wav").write_bytes(b"garbage, not audio")
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 1
        report = json.loads((out / "hr_report.json").read_text())
        assert "ingest" in report["errors"]["zzbad"]
        assert "s01" in report["subjects"]

    def test_duplicate_subject_id_runs_the_first_folder(self, tmp_path):
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--subjects", "2",
                     "--seed", "1", "--duration", "16"]) == 0
        edit_meta(ds / "s02", subject_id="s01")
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 1
        report = json.loads((out / "hr_report.json").read_text())
        assert report["errors"] == {
            "s02": "ingest: duplicate subject_id s01 (also s01)"}
        assert list(report["subjects"]) == ["s01"]
        # the agreement counts only the frames of the subject it reports
        paired = [r for r in report["subjects"]["s01"]["frames"]
                  if "bpm_pcg" in r and "bpm_ecg" in r and not r["flags"]]
        assert report["agreement"]["n"] == len(paired) >= 3

    def test_three_pairs_make_an_agreement(self, tmp_path):
        # one 12 s subject: three 4 s frames, the fewest pairs that get
        # the agreement block, the pair tables and the plots
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--subjects", "1",
                     "--seed", "1", "--duration", "12"]) == 0
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        assert report["agreement"]["n"] == 3
        assert len((out / "hr_pairs.csv").read_text().splitlines()) == 4
        for name in ("hr_bland_altman.csv", "hr_scatter.svg",
                     "hr_bland_altman.svg"):
            assert (out / name).exists()

    def test_flagged_rows_stay_out_of_the_agreement(self, small_ds, tmp_path,
                                                    monkeypatch):
        # a ceiling between the two fastest subjects flags the fastest
        rates = sorted(json.loads((small_ds / sid / "meta.json").read_text())[
            "hr_bpm"] for sid in ("s01", "s02", "s03"))
        monkeypatch.setattr(pcgkit_hr, "HR_MAX_BPM", (rates[1] + rates[2]) / 2)
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        rows = [row for entry in report["subjects"].values()
                for row in entry["frames"]]
        assert all("bpm_pcg" in row and "bpm_ecg" in row for row in rows)
        unflagged = [row for row in rows if not row["flags"]]
        assert 3 <= len(unflagged) < len(rows)
        assert report["agreement"]["n"] == len(unflagged)

    def test_any_flagged_row_stays_out_of_the_agreement(self, small_ds,
                                                        tmp_path, monkeypatch):
        # an in-range rate with a flag other than out_of_range
        def flag_odd_frames(frame, *args):
            result = real_pipeline(frame, *args)
            calls.append(frame)
            if len(calls) % 2:
                return result
            flagged = HrEstimate(result.hr.bpm, flags=("period_mismatch",))
            return dataclasses.replace(result, hr=flagged)

        real_pipeline, calls = cli.hr_pipeline, []
        monkeypatch.setattr(cli, "hr_pipeline", flag_odd_frames)
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        rows = [row for entry in report["subjects"].values()
                for row in entry["frames"]]
        assert [row["flags"] for row in rows] == [
            [], ["period_mismatch"]] * 3
        assert all("bpm_ecg" in row for row in rows)
        assert report["agreement"]["n"] == 3

    def test_missing_dataset_fails_cleanly(self, tmp_path, capsys):
        assert main(["hr", str(tmp_path / "nope")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_huge_synth_duration_refused_promptly(self, tmp_path, capsys):
        # one Python step per cardiac cycle would take hours to lay out
        start = time.perf_counter()
        assert main(["synth", "--out", str(tmp_path / "ds"), "--subjects",
                     "1", "--duration", "1e9"]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error:") and "duration_s" in err
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("command", ["hr", "synth"])
    @pytest.mark.parametrize("below", [False, True],
                             ids=["file", "below-file"])
    def test_output_path_blocked_by_a_file(self, command, below, small_ds,
                                           tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "out" if below else blocker
        argv = (["hr", str(small_ds)] if command == "hr" else
                ["synth", "--subjects", "1", "--duration", "4"])
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "blocker" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rate", [float("inf"), 1e308],
                             ids=["Infinity", "1e308"])
    def test_unusable_ecg_rate_is_a_subject_error(self, rate, tmp_path,
                                                  capsys):
        ds = synth_ds(tmp_path / "ds", 2)
        edit_meta(ds / "s02", ecg_rate_hz=rate)
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 1
        report = json.loads((out / "hr_report.json").read_text())
        assert sorted(report["subjects"]) == ["s01"]
        assert "finite" in report["errors"]["s02"]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, flags, report", [
        (["hr"], [], "hr_report.json"),
        (["quality"], [], "quality_report.json"),
        (PREDICT, ["--features-from-audio"], "bp_predictions.json"),
    ], ids=["hr", "quality", "bp"])
    def test_wav_too_long_once_resampled_is_a_subject_error(
            self, command, flags, report, tmp_path, capsys):
        # 10,000 samples said to be at 1 Hz would be 2e7 samples at 2 kHz
        ds = synth_ds(tmp_path / "ds", 2)
        pcg = read_wav_pcm16(ds / "s02" / "pcg.wav")
        write_wav_pcm16(ds / "s02" / "pcg.wav",
                        SampledSignal(pcg.samples[:10_000], 1.0))
        out = tmp_path / "out"
        assert main([*command, str(ds), *flags, "--out", str(out)]) == 1
        errors = json.loads((out / report).read_text())["errors"]
        assert list(errors) == ["s02"]
        assert "10000 samples from 1 Hz" in errors["s02"]
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_ecg_is_an_ingest_error(self, tmp_path):
        ds = synth_ds(tmp_path / "ds", 2)
        with open(ds / "s02" / "ecg.txt", "ab") as fh:
            fh.write(b"\xff\xfe\n")
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 1
        report = json.loads((out / "hr_report.json").read_text())
        assert sorted(report["subjects"]) == ["s01"]
        assert report["errors"]["s02"].startswith("ingest: ")
        assert "not UTF-8" in report["errors"]["s02"]

    def test_short_ecg_keeps_pcg_rows(self, tmp_path):
        ds = synth_ds(tmp_path / "ds", 1)
        ecg = ds / "s01" / "ecg.txt"
        ecg.write_text("".join(ecg.read_text().splitlines(True)[:100]))
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        assert report["errors"] == {}
        rows = report["subjects"]["s01"]["frames"]
        assert len(rows) == 2
        for row in rows:
            assert "bpm_pcg" in row and "bpm_ecg" not in row
            assert row["ecg_error"].startswith("ecg.txt: ")
            assert "shorter than one 4.000 s frame" in row["ecg_error"]

    def test_rows_past_the_ecg_end_name_it(self, tmp_path):
        # 1000 of 1520 lines: the ECG covers the first 4 s frame only
        ds = synth_ds(tmp_path / "ds", 1)
        ecg = ds / "s01" / "ecg.txt"
        ecg.write_text("".join(ecg.read_text().splitlines(True)[:1000]))
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 0
        first, second = json.loads((out / "hr_report.json").read_text())[
            "subjects"]["s01"]["frames"]
        assert "bpm_ecg" in first and "ecg_error" not in first
        assert "bpm_pcg" in second and "bpm_ecg" not in second
        assert second["ecg_error"].startswith("ecg.txt: ")
        assert "ends before this frame" in second["ecg_error"]

    def test_all_zero_ecg_frame_names_it(self, tmp_path):
        # lines 761-1520 are the second 4 s frame at 190 Hz
        ds = synth_ds(tmp_path / "ds", 1)
        ecg = ds / "s01" / "ecg.txt"
        ecg.write_text("".join(ecg.read_text().splitlines(True)[:760])
                       + "0\n" * 760)
        out = tmp_path / "out"
        assert main(["hr", str(ds), "--out", str(out)]) == 0
        first, second = json.loads((out / "hr_report.json").read_text())[
            "subjects"]["s01"]["frames"]
        assert "bpm_ecg" in first and "ecg_error" not in first
        assert "bpm_pcg" in second and "bpm_ecg" not in second
        assert second["ecg_error"] == "cannot normalize an all-zero signal"

    def test_wes_wavelet_flag_reaches_the_envelope(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--method", "wes",
                     "--wavelet", "bump", "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        assert report["config"]["wavelet"] == "bump"
        assert report["errors"] == {}
        for sid, entry in report["subjects"].items():
            meta = json.loads((small_ds / sid / "meta.json").read_text())
            assert entry["n_frames"] == 2
            for row in entry["frames"]:
                assert abs(row["bpm_pcg"] - meta["hr_bpm"]) <= 2.0


class TestBpCommand:

    def test_fit_reproduces_generating_targets(self, cohort_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["bp", "fit", str(cohort_ds), "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads((out / "bp_coefficients.json").read_text(),
                            parse_constant=reject)
        diag = report["diagnostics"]
        assert diag["n_subjects"] == 12
        # the S1 width column equals rise + decay, so rank is always 9
        assert diag["sbp"]["rank"] == 9
        assert diag["dbp"]["rank"] == 9
        # rank 9 of 10 makes the condition number infinite: written as null
        assert diag["sbp"]["condition_number"] is None
        assert diag["dbp"]["condition_number"] is None
        assert diag["sbp"]["residual_rms"] < 1e-8
        assert diag["dbp"]["residual_rms"] < 1e-8
        assert report["coefficients"]["unit_convention"] == "s"

    def test_fitted_coefficients_predict_references(self, cohort_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["bp", "fit", str(cohort_ds), "--out", str(out)]) == 0
        coeffs_path = out / "bp_coefficients.json"
        assert main(["bp", "predict", str(cohort_ds),
                     "--coeffs", str(coeffs_path), "--out", str(out)]) == 0
        report = json.loads((out / "bp_predictions.json").read_text())
        assert report["coefficients_id"].endswith("bp_coefficients.json")
        assert len(report["predictions"]) == 12
        for entry in report["predictions"].values():
            assert abs(entry["sbp_error"]) < 1e-8
            assert abs(entry["dbp_error"]) < 1e-8

    def test_loocv_on_exact_cohort_is_tiny(self, cohort_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["bp", "loocv", str(cohort_ds), "--out", str(out)]) == 0
        report = json.loads((out / "bp_loocv.json").read_text())
        loocv = report["loocv"]
        assert loocv["n_subjects"] == 12
        assert loocv["sbp_mae"] < 1e-8
        assert loocv["dbp_mae"] < 1e-8
        assert len(report["predictions"]) == 12

    def test_fit_needs_twelve_labeled_subjects(self, small_ds, tmp_path,
                                               capsys):
        assert main(["bp", "fit", str(small_ds),
                     "--out", str(tmp_path)]) == 1
        assert ">= 12" in capsys.readouterr().err

    def test_predict_from_audio_features(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main([*PREDICT, str(small_ds), "--features-from-audio",
                     "--out", str(out)]) == 0
        report = json.loads((out / "bp_predictions.json").read_text())
        assert sorted(report["predictions"]) == ["s01", "s02", "s03"]
        for entry in report["predictions"].values():
            assert {"sbp", "dbp", "flags"} <= set(entry)

    @pytest.mark.parametrize("command", ["fit", "predict", "loocv"])
    @pytest.mark.parametrize("value", ["abc", None, [0.3], True],
                             ids=["string", "null", "list", "bool"])
    def test_bad_meta_feature_is_a_subject_error(self, command, value,
                                                 cohort_ds, tmp_path, capsys):
        # a 13th subject, so fit and loocv still have their twelve
        ds = tmp_path / "ds"
        shutil.copytree(cohort_ds, ds)
        shutil.copytree(ds / "s01", ds / "s13")
        features = json.loads((ds / "s13" / "meta.json").read_text())[
            "features"]
        edit_meta(ds / "s13", subject_id="s13",
                  features=dict(features, t_sys=value))
        out = tmp_path / "out"
        coeffs = ["--coeffs", COEFFS] if command == "predict" else []
        assert main(["bp", command, str(ds), *coeffs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        name = {"fit": "coefficients", "predict": "predictions",
                "loocv": "loocv"}[command]
        report = json.loads((out / f"bp_{name}.json").read_text())
        assert list(report["errors"]) == ["s13"]
        assert "features.t_sys" in report["errors"]["s13"]

    def test_features_block_must_be_an_object(self, small_ds, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(small_ds, ds)
        edit_meta(ds / "s02", features="abc")
        out = tmp_path / "out"
        assert main([*PREDICT, str(ds), "--out", str(out)]) == 1
        report = json.loads((out / "bp_predictions.json").read_text())
        assert sorted(report["predictions"]) == ["s01", "s03"]
        assert "features must be an object" in report["errors"]["s02"]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_millisecond_units_predict_the_same(self, source, cohort_ds,
                                                small_ds, tmp_path):
        # each coefficients file names the units it was fitted under
        units = (["--units", "ms"] if source == "flag" else
                 ["--config", write_cfg(tmp_path, "units = ms\n")])

        def predictions(name, extra):
            out = tmp_path / name
            assert main(["bp", "fit", str(cohort_ds), *extra,
                         "--out", str(out)]) == 0
            coeffs = out / "bp_coefficients.json"
            fitted = json.loads(coeffs.read_text())["coefficients"]
            assert fitted["unit_convention"] == name
            assert main(["bp", "predict", str(small_ds), "--coeffs",
                         str(coeffs), "--out", str(out)]) == 0
            return json.loads((out / "bp_predictions.json").read_text())[
                "predictions"]

        seconds = predictions("s", ["--units", "s"])
        millis = predictions("ms", units)
        assert sorted(millis) == ["s01", "s02", "s03"]
        for sid, entry in seconds.items():
            for side in ("sbp", "dbp"):
                assert millis[sid][side] == pytest.approx(entry[side],
                                                          rel=1e-9)

    @pytest.mark.parametrize("command", ["fit", "predict", "loocv"])
    def test_partial_features_block_is_a_subject_error(self, command,
                                                       cohort_ds, tmp_path,
                                                       capsys):
        # a 13th subject, so fit and loocv still have their twelve
        ds = tmp_path / "ds"
        shutil.copytree(cohort_ds, ds)
        shutil.copytree(ds / "s01", ds / "s13")
        features = json.loads((ds / "s13" / "meta.json").read_text())[
            "features"]
        del features["t_dd2"], features["hr_pcg"]
        edit_meta(ds / "s13", subject_id="s13",
                  features=dict(features, t_sys=5.0))
        out = tmp_path / "out"
        coeffs = ["--coeffs", COEFFS] if command == "predict" else []
        assert main(["bp", command, str(ds), *coeffs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == ""
        name = {"fit": "coefficients", "predict": "predictions",
                "loocv": "loocv"}[command]
        report = json.loads((out / f"bp_{name}.json").read_text())
        assert list(report["errors"]) == ["s13"]
        assert "t_dd2, hr_pcg" in report["errors"]["s13"]

    def test_partial_features_block_ignored_from_audio(self, small_ds,
                                                       tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(small_ds, ds)
        edit_meta(ds / "s02", features={"t_sys": 5.0})
        meta = json.loads((ds / "s03" / "meta.json").read_text())
        del meta["features"]  # no block at all: audio features
        (ds / "s03" / "meta.json").write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert main([*PREDICT, str(ds), "--features-from-audio",
                     "--out", str(out)]) == 0
        audio = json.loads((out / "bp_predictions.json").read_text())
        assert main([*PREDICT, str(ds), "--out", str(out)]) == 1
        report = json.loads((out / "bp_predictions.json").read_text())
        assert list(report["errors"]) == ["s02"]
        assert report["predictions"]["s03"] == audio["predictions"]["s03"]

    def test_config_file_ridge_accepted_by_predict(self, small_ds, tmp_path):
        # one config file serves every command, so predict accepts its ridge
        config = tmp_path / "run.cfg"
        config.write_text("ridge_lambda = 0.5\n")
        out = tmp_path / "out"
        assert main([*PREDICT, str(small_ds), "--config", str(config),
                     "--out", str(out)]) == 0
        assert (out / "bp_predictions.json").exists()


class TestQualityCommand:

    def test_report_contents(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main(["quality", str(small_ds), "--out", str(out)]) == 0
        report = json.loads((out / "quality_report.json").read_text())
        assert report["errors"] == {}
        assert sorted(report["subjects"]) == ["s01", "s02", "s03"]
        for entry in report["subjects"].values():
            assert entry["n_frames"] == 2
            assert entry["n_failed"] == 0
            assert entry["freq_low_hz"] < entry["freq_high_hz"]
            assert set(entry["nrmse"]) == {"morlet", "morse", "bump"}
            assert entry["snr_min_db"] <= entry["snr_avg_db"] <= entry["snr_max_db"]
            assert len(entry["per_frame_snr_db"]) == 2
        table = (out / "quality_table.csv").read_text().splitlines()
        assert table[0].startswith("subject,freq_low_hz")
        assert len(table) == 4


def write_silent_frame_subject(root, name="s01", silent_from_s=4.0):
    """Subject ``name``: 8 s, silent from ``silent_from_s`` on.

    By default the second 4 s frame is silent; 0 silences both.
    """
    pcg, _ = generate_pcg(SynthSpec(hr_bpm=72.0, duration_s=8.0,
                                    snr_db=30.0, seed=3))
    samples = 0.9 * pcg.samples / np.max(np.abs(pcg.samples))
    samples[int(silent_from_s * pcg.rate_hz):] = 0.0
    write_subject_dir(root / name, pcg.with_samples(samples),
                      meta={"subject_id": name})


class TestFrameFailure:
    """One subject whose second frame is silent, run through every command."""

    @pytest.fixture(scope="class")
    def silent_frame_ds(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("silent") / "ds"
        write_silent_frame_subject(root)
        return root

    def test_hr_row_names_failing_stage(self, silent_frame_ds, tmp_path):
        assert main(["hr", str(silent_frame_ds), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "hr_report.json").read_text())
        first, second = report["subjects"]["s01"]["frames"]
        assert abs(first["bpm_pcg"] - 72.0) <= 2.0
        assert "bpm_pcg" not in second
        assert "segmentation" in second["error"]

    def test_quality_counts_failed_frame(self, silent_frame_ds, tmp_path):
        assert main(["quality", str(silent_frame_ds),
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "quality_report.json").read_text())
        entry = report["subjects"]["s01"]
        assert entry["n_frames"] == 1
        assert entry["n_failed"] == 1

    def test_bp_from_audio_uses_surviving_frame(self, silent_frame_ds,
                                                 tmp_path):
        assert main([*PREDICT, str(silent_frame_ds),
                     "--features-from-audio", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bp_predictions.json").read_text())
        assert report["errors"] == {}
        assert set(report["predictions"]) == {"s01"}

    def test_bp_from_audio_names_all_failed_frames(self, small_ds, tmp_path):
        ds = shutil.copytree(small_ds, tmp_path / "ds")
        write_silent_frame_subject(ds, "silent", silent_from_s=0.0)
        out = tmp_path / "out"
        assert main([*PREDICT, str(ds), "--features-from-audio",
                     "--out", str(out)]) == 1
        report = json.loads((out / "bp_predictions.json").read_text())
        # the screen saw no frame; both failed before it
        assert report["errors"] == {
            "silent": "all 2 frames failed analysis"}
        assert sorted(report["predictions"]) == ["s01", "s02", "s03"]


class TestQualityPool:
    """``quality`` reports do not depend on its frame worker count."""

    @pytest.fixture(scope="class")
    def mixed_ds(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("mixed") / "ds"
        assert main(["synth", "--out", str(root), "--subjects", "3",
                     "--seed", "5", "--duration", "12"]) == 0
        write_silent_frame_subject(root, "silent")
        return root

    def test_reports_identical_at_any_worker_count(self, mixed_ds, tmp_path,
                                                   monkeypatch):
        threads = set()

        def recording(*args, **kwargs):
            threads.add(threading.current_thread())
            return pcgkit_wavelets.wes(*args, **kwargs)

        monkeypatch.setattr(pcgkit_quality, "wes", recording)
        payloads = {}
        for workers in (1, 3):
            threads.clear()
            monkeypatch.setattr(pcgkit_quality, "_usable_cpus",
                                lambda: workers)
            cwd = tmp_path / str(workers)
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main(["quality", str(mixed_ds), "--out", "out"]) == 0
            assert threading.main_thread() not in threads
            assert len(threads) <= workers
            payloads[workers] = {name: (cwd / "out" / name).read_bytes()
                                 for name in ("quality_report.json",
                                              "quality_table.csv")}
        assert payloads[1] == payloads[3]
        report = json.loads(payloads[3]["quality_report.json"])
        assert report["errors"] == {}
        assert report["subjects"]["silent"]["n_failed"] == 1
        assert len(report["subjects"]) == 4

    def test_cwt_thrice_and_hr_pipeline_once_per_frame(self, small_ds,
                                                       tmp_path, monkeypatch):
        # the call counts perfbench/smoke.py asserts on this cohort: each
        # wavelet family's cwt and one analysis per 4 s frame
        cwt_kinds, hr_calls = [], []
        real_cwt, real_hr = pcgkit_wavelets.cwt, cli.hr_pipeline

        def counting_cwt(s, kind, **kwargs):
            cwt_kinds.append(kind)
            return real_cwt(s, kind, **kwargs)

        def counting_hr(*args):
            hr_calls.append(args)
            return real_hr(*args)

        monkeypatch.setattr(pcgkit_wavelets, "cwt", counting_cwt)
        monkeypatch.setattr(cli, "hr_pipeline", counting_hr)
        assert main(["quality", str(small_ds), "--out", str(tmp_path)]) == 0
        frames = 3 * 2
        assert len(hr_calls) == frames
        assert len(cwt_kinds) == 3 * frames
        assert {k: cwt_kinds.count(k) for k in WaveletKind} == dict.fromkeys(
            WaveletKind, frames)

    def test_peak_memory_holds_one_bank(self, small_ds, tmp_path,
                                        monkeypatch):
        # Bound set before measuring: the largest bank, Bump's for a 4 s
        # frame (64 rows of 20736 complex, 21.2 MB), plus a 16 MiB margin
        # for the kernels a build samples (3.3 MB at most), one CWT
        # workspace per thread (a 4-row block and the signal's spectrum,
        # 1.7 MB each), a frame's tracks, and the cohort's records,
        # frames and reports. All three banks together (43.8 MB) exceed
        # it. tracemalloc sees no memory mapping, so each bank is
        # allocated by numpy here instead.
        monkeypatch.setattr(pcgkit_wavelets, "_held", None)
        monkeypatch.setattr(pcgkit_wavelets, "_pages", lambda rows, length:
                            np.zeros((rows, length), dtype=complex))
        monkeypatch.setattr(pcgkit_quality, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            assert main(["quality", str(small_ds), "--out",
                         str(tmp_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 20736 * 16 + 16 * 2 ** 20

    def test_one_bank_build_per_family_per_run(self, small_ds, tmp_path,
                                              monkeypatch, bank_maps):
        # three subjects of two 4 s frames: one build per family, and each
        # later family re-reads each subject's pcg.wav once
        maps, _ = bank_maps
        reads = []
        real_read = cli.read_wav_pcm16
        monkeypatch.setattr(pcgkit_wavelets, "_held", None)
        monkeypatch.setattr(cli, "read_wav_pcm16",
                            lambda path: reads.append(path.parent.name)
                            or real_read(path))
        assert main(["quality", str(small_ds), "--out", str(tmp_path)]) == 0
        assert len(maps) == 3
        assert reads == ["s01", "s02", "s03"] * 2

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_bank_built_on_the_main_thread(self, small_ds, tmp_path,
                                                workers, monkeypatch):
        # at any thread count the run makes one mapping per family, each
        # on the thread that calls frame_qualities, none on a worker
        threads = []
        real_pages = pcgkit_wavelets._pages

        def recording(rows, length):
            threads.append(threading.current_thread())
            return real_pages(rows, length)

        monkeypatch.setattr(pcgkit_wavelets, "_held", None)
        monkeypatch.setattr(pcgkit_wavelets, "_pages", recording)
        monkeypatch.setattr(pcgkit_quality, "_usable_cpus", lambda: workers)
        assert main(["quality", str(small_ds), "--out", str(tmp_path)]) == 0
        assert threads == [threading.main_thread()] * 3

    def test_each_bank_released_before_the_next_is_built(
            self, small_ds, tmp_path, monkeypatch, bank_maps):
        # every frame has one length, so no wes reads a bank while it is
        # replaced: each build finds every earlier mapping gone, and only
        # the held one outlives the run
        maps, alive = bank_maps
        monkeypatch.setattr(pcgkit_wavelets, "_held", None)
        monkeypatch.setattr(pcgkit_quality, "_usable_cpus", lambda: 2)
        assert main(["quality", str(small_ds), "--out", str(tmp_path)]) == 0
        assert len(maps) >= 3
        assert alive == [0] * len(maps)
        assert [ref() is not None for ref in maps] == [False] * (
            len(maps) - 1) + [True]


def quality_entries(subject_dir):
    """The ``quality`` report entry of one subject, from its in-memory
    frames measured by one ``frame_qualities`` call, or its error."""
    record = pcgkit_io.load_subject_dir(subject_dir, ecg=False)
    got = frame_qualities([
        r if isinstance(r, PcgKitError) else (r.normalized, r.segmentation)
        for r in cli._frame_results(record, RunConfig())])
    qualities = [q for q in got if not isinstance(q, PcgKitError)]
    if not qualities:
        return "no frame survived segmentation"
    agg = aggregate_quality(qualities)
    return json.loads(json.dumps(dict(
        freq_low_hz=agg.freq_range_hz[0], freq_high_hz=agg.freq_range_hz[1],
        snr_max_db=agg.snr_db[0], snr_min_db=agg.snr_db[1],
        snr_avg_db=agg.snr_db[2], nrmse=agg.nrmse,
        per_frame_snr_db=agg.per_frame_snr, n_frames=len(qualities),
        n_failed=len(got) - len(qualities))))


class TestQualityPasses:
    """One pass per wavelet family over the whole cohort."""

    @pytest.fixture(scope="class")
    def mixed_ds(self, tmp_path_factory, small_ds):
        # s02 one 4 s frame long, s03 at 4 kHz, a subject whose second
        # frame is silent, one silent throughout, and one that fails ingest
        ds = shutil.copytree(small_ds, tmp_path_factory.mktemp("passes")
                             / "ds")
        pcg = read_wav_pcm16(ds / "s02" / "pcg.wav")
        write_wav_pcm16(ds / "s02" / "pcg.wav",
                        pcg.with_samples(pcg.samples[:11000]))
        pcg = read_wav_pcm16(ds / "s03" / "pcg.wav")
        write_wav_pcm16(ds / "s03" / "pcg.wav",
                        resample_rational(pcg, 4000.0))
        write_silent_frame_subject(ds, "half")
        write_silent_frame_subject(ds, "silent", silent_from_s=0.0)
        (ds / "zzbad").mkdir()
        (ds / "zzbad" / "pcg.wav").write_bytes(b"garbage, not audio")
        return ds

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_subject_as_measured_alone(self, mixed_ds, workers,
                                            tmp_path, monkeypatch):
        monkeypatch.setattr(pcgkit_quality, "_usable_cpus", lambda: workers)
        assert main(["quality", str(mixed_ds), "--out", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "quality_report.json").read_text())
        expected = {d.name: quality_entries(d) for d in mixed_ds.iterdir()
                    if d.is_dir() and d.name != "zzbad"}
        assert report["errors"].pop("zzbad").startswith("ingest: ")
        assert report["errors"] == {
            "silent": "no frame survived segmentation"}
        assert report["subjects"] == {
            sid: e for sid, e in expected.items() if sid != "silent"}
        assert report["subjects"]["s02"]["n_frames"] == 1
        assert report["subjects"]["half"]["n_failed"] == 1
        assert report["subjects"]["s03"]["n_frames"] == 2

    def test_pcg_rewritten_between_passes_is_an_error(
            self, small_ds, tmp_path, monkeypatch):
        ds = shutil.copytree(small_ds, tmp_path / "ds")
        real_hold = pcgkit_quality.hold_bank
        holds = []

        def rewriting(*args):
            holds.append(args[0])
            if len(holds) == 2:  # the second family is about to start
                pcg = read_wav_pcm16(ds / "s02" / "pcg.wav")
                write_wav_pcm16(ds / "s02" / "pcg.wav",
                                pcg.with_samples(pcg.samples[:12000]))
            return real_hold(*args)

        monkeypatch.setattr(pcgkit_quality, "hold_bank", rewriting)
        assert main(["quality", str(ds), "--out", str(tmp_path / "out")]) == 1
        report = json.loads((tmp_path / "out" / "quality_report.json")
                            .read_text())
        assert report["errors"] == {"s02": "pcg.wav changed during the run"}
        assert report["subjects"] == {
            sid: quality_entries(small_ds / sid) for sid in ("s01", "s03")}
        table = (tmp_path / "out" / "quality_table.csv").read_text()
        assert [line.split(",")[0] for line in table.splitlines()] == [
            "subject", "s01", "s03"]


class TestStreaming:
    """Commands hold one subject's record at a time, with eager results."""

    @pytest.mark.parametrize("argv", [
        ["hr"], ["quality"], ["bp", "loocv", "--features-from-audio"]],
        ids=lambda argv: argv[-1])
    @pytest.mark.parametrize("bad_middle", [False, True],
                             ids=["clean", "bad_middle"])
    def test_one_live_record_and_eager_reports(self, argv, bad_middle,
                                               cohort_ds, tmp_path,
                                               monkeypatch):
        ds = shutil.copytree(cohort_ds, tmp_path / "ds")
        if bad_middle:  # sorts between s06 and s07
            (ds / "s06x").mkdir()
            (ds / "s06x" / "pcg.wav").write_bytes(b"garbage, not audio")
        monkeypatch.chdir(tmp_path)

        def run():
            rc = main([*argv, str(ds), "--out", "out"])
            payload = {p.name: p.read_bytes()
                       for p in (tmp_path / "out").iterdir()}
            shutil.rmtree(tmp_path / "out")
            return rc, payload

        load = pcgkit_io.load_subject_dir
        kept = []

        def keep(subject_dir, **kwargs):
            kept.append(load(subject_dir, **kwargs))
            return kept[-1]

        # the baseline run keeps every record alive to its end
        with monkeypatch.context() as m:
            m.setattr(pcgkit_io, "load_subject_dir", keep)
            eager = run()
        assert len(kept) == 12

        loaded, live_at_load = [], []

        def tracked(subject_dir, **kwargs):
            gc.collect()
            live_at_load.append(sum(r() is not None for r in loaded))
            record = load(subject_dir, **kwargs)
            loaded.append(weakref.ref(record))
            return record

        monkeypatch.setattr(pcgkit_io, "load_subject_dir", tracked)
        streamed = run()
        assert len(live_at_load) == 12 + bad_middle
        # no earlier record is alive when the next folder loads
        assert max(live_at_load) == 0
        assert streamed == eager
        assert eager[0] == (1 if bad_middle else 0)


class TestDeterminism:

    def test_artifacts_identical_across_working_dirs(self, small_ds, tmp_path,
                                                     monkeypatch):
        payloads = {}
        for run in ("a", "b"):
            cwd = tmp_path / run
            cwd.mkdir()
            monkeypatch.chdir(cwd)
            assert main(["hr", str(small_ds), "--out", "out"]) == 0
            assert main(["quality", str(small_ds), "--out", "out"]) == 0
            assert main([*PREDICT, str(small_ds), "--out", "out"]) == 0
            payloads[run] = {p.name: p.read_bytes()
                             for p in (cwd / "out").iterdir()}
        assert sorted(payloads["a"]) == sorted(payloads["b"])
        for name in payloads["a"]:
            assert payloads["a"][name] == payloads["b"][name], name

    def test_wes_rerun_rewrites_the_same_bytes(self, small_ds, tmp_path):
        # the WES rows stream from the CWT, block by block
        out = tmp_path / "out"
        argv = ["hr", str(small_ds), "--method", "wes", "--wavelet", "bump",
                "--out", str(out)]
        assert main(argv) == 0
        first = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first
        assert len(first) == 5


class TestMainEntry:

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestUnreadFlags:
    """A flag the command would ignore is rejected; config values are not."""

    @pytest.mark.parametrize("command, flag, needle", [
        (["hr"], ["--units", "ms"], None),
        (["quality"], ["--units", "ms"], None),
        (["quality"], ["--formula", "eq7"], None),
        (["bp", "fit"], ["--coeffs", "/nonexistent.json"], None),
        (["bp", "loocv"], ["--coeffs", "/nonexistent.json"], None),
        (PREDICT, ["--ridge", "5"], None),
        # a coefficients file names its own units
        (PREDICT, ["--units", "ms"], None),
        # there is no built-in coefficient set to predict with
        (["bp", "predict"], [], "the following arguments are required: "
                                "--coeffs"),
    ], ids=["hr-units", "quality-units", "quality-formula", "bp-fit-coeffs",
            "bp-loocv-coeffs", "bp-predict-ridge", "bp-predict-units",
            "bp-predict-no-coeffs"])
    def test_flag_not_registered(self, command, flag, needle, small_ds,
                                 tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*command, str(small_ds), *flag, "--out", str(out)])
        assert exc.value.code == 2
        needle = needle or f"unrecognized arguments: {flag[0]}"
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_each_command_registers_the_flags_it_reads(self):
        def subcommands(parser):
            action, = (a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction))
            return action.choices

        def flags(parser):
            return {s for a in parser._actions for s in a.option_strings
                    if s not in ("-h", "--help")}

        commands = subcommands(build_parser())
        bp = subcommands(commands["bp"])
        analysis = {"--frames", "--method", "--wavelet", "--out", "--config"}
        bp_flags = analysis | {"--formula", "--features-from-audio"}
        assert flags(commands["hr"]) == analysis | {"--formula"}
        assert flags(commands["quality"]) == analysis
        assert flags(bp["fit"]) == bp_flags | {"--ridge", "--units"}
        assert flags(bp["predict"]) == bp_flags | {"--coeffs"}
        assert flags(bp["loocv"]) == bp_flags | {"--ridge", "--units"}
        # a setting flag stores its value under the RunConfig field name
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        for parser in (commands["hr"], commands["quality"], *bp.values()):
            dests = {a.dest for a in parser._actions if a.option_strings}
            assert dests - {"help", "config", "coeffs",
                            "features_from_audio"} <= fields

    @pytest.mark.parametrize("argv", [
        ["hr"],
        ["hr", "--method", "hilbert"],
        ["quality"],
        PREDICT,
    ], ids=["hr", "hr-hilbert", "quality", "bp"])
    def test_wavelet_without_wes_rejected(self, argv, tmp_path, capsys):
        # the dataset does not exist: the flag is rejected before loading
        out = tmp_path / "out"
        assert main([*argv, str(tmp_path / "nope"), "--wavelet", "morse",
                      "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: --wavelet is only used with --method wes\n")
        assert not out.exists()

    def test_wavelet_with_config_file_wes_accepted(self, small_ds, tmp_path):
        config = write_cfg(tmp_path, "method = wes\n")
        out = tmp_path / "out"
        assert main(["hr", str(small_ds), "--config", config,
                     "--wavelet", "morse", "--out", str(out)]) == 0
        report = json.loads((out / "hr_report.json").read_text())
        assert report["config"]["wavelet"] == "morse"

    @pytest.mark.parametrize("flag", ["method", "wavelet", "frames",
                                      "formula"])
    def test_bp_analysis_flag_needs_features_from_audio(self, flag, tmp_path,
                                                         capsys):
        # the dataset does not exist: the flag is rejected before loading
        argv = {"method": ["--method", "hilbert"],
                "wavelet": ["--config", write_cfg(tmp_path, "method = wes\n"),
                            "--wavelet", "bump"],
                "frames": ["--frames", "2"],
                "formula": ["--formula", "eq7"]}[flag]
        out = tmp_path / "out"
        assert main([*PREDICT, str(tmp_path / "nope"), *argv,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --{flag} is only used with --features-from-audio\n")
        assert not out.exists()

    def test_config_file_units_and_formula_accepted_with_coeffs(
            self, small_ds, tmp_path):
        config = write_cfg(tmp_path, "units = ms\nformula = eq7\n")
        out = tmp_path / "out"
        assert main([*PREDICT, str(small_ds), "--config", config,
                     "--out", str(out)]) == 0
        report = json.loads((out / "bp_predictions.json").read_text())
        assert (report["config"]["units"], report["config"]["formula"]) == (
            "ms", "eq7")
        assert sorted(report["predictions"]) == ["s01", "s02", "s03"]

    def test_bp_analysis_flags_used_from_audio(self, small_ds, tmp_path):
        out = tmp_path / "out"
        assert main([*PREDICT, str(small_ds), "--features-from-audio",
                     "--method", "wes", "--wavelet", "bump", "--frames", "4",
                     "--out", str(out)]) == 0
        config = json.loads((out / "bp_predictions.json").read_text())[
            "config"]
        assert (config["method"], config["wavelet"]) == ("wes", "bump")

    def test_bp_config_file_analysis_values_accepted(self, small_ds,
                                                     tmp_path):
        config = write_cfg(tmp_path, "method = wes\nwavelet = bump\n"
                                     "frame_len_s = 4.0\n")
        out = tmp_path / "out"
        assert main([*PREDICT, str(small_ds), "--config", config,
                     "--out", str(out)]) == 0
        report = json.loads((out / "bp_predictions.json").read_text())
        assert report["config"]["method"] == "wes"

    @pytest.mark.parametrize("command", ["hr", "quality"])
    def test_config_file_values_accepted(self, command, small_ds, tmp_path):
        config = write_cfg(tmp_path, "units = ms\nformula = eq7\n"
                                     "wavelet = bump\n")
        out = tmp_path / "out"
        assert main([command, str(small_ds), "--config", config,
                     "--out", str(out)]) == 0
        report = json.loads(
            (out / f"{command}_report.json").read_text())
        assert report["config"]["units"] == "ms"
        assert report["config"]["wavelet"] == "bump"


# JSON numbers no float64 holds: 1e400 parses as inf, and a 400-digit
# integer overflows any float conversion
out_of_range = pytest.mark.parametrize(
    "literal", ["1e400", "1" + "0" * 399], ids=["1e400", "400_digits"])


class TestJsonInputs:
    """User-named JSON inputs end in ``error:`` and exit 1, not a traceback."""

    def fails_cleanly(self, argv, capsys, needle):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert "Traceback" not in err

    def test_missing_coeffs_file(self, small_ds, tmp_path, capsys):
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(tmp_path / "nope.json"), "--out",
                            str(tmp_path)], capsys, "nope.json")

    @pytest.mark.parametrize("bad", ["missing", "no_c1"])
    def test_bad_coeffs_file_fails_before_any_subject(
            self, bad, small_ds, tmp_path, capsys, monkeypatch):
        path = tmp_path / "coeffs.json"
        if bad == "no_c1":
            path.write_text(json.dumps({"coefficients": dict(
                file_coeffs(), c1=None)}))
        analysed = []
        real = cli._subject_features
        monkeypatch.setattr(cli, "_subject_features",
                            lambda *args: analysed.append(args) or real(*args))
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--features-from-audio", "--out",
                            str(tmp_path / "out")], capsys, "coeffs.json"
                           if bad == "missing" else "c1")
        assert analysed == []
        assert not (tmp_path / "out").exists()

    def test_coeffs_missing_entry(self, small_ds, tmp_path, capsys):
        coeffs = file_coeffs()
        del coeffs["c1"]
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"coefficients": coeffs}))
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--out", str(tmp_path)], capsys, "c1")

    def test_coeffs_boolean_entry(self, small_ds, tmp_path, capsys):
        # JSON true would otherwise read as the number 1.0
        coeffs = dict(file_coeffs(), c1=True)
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"coefficients": coeffs}))
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--out", str(tmp_path)], capsys,
                           "c1 must be a number")

    def test_coeffs_unknown_entry(self, small_ds, tmp_path, capsys):
        # a misspelt coefficient would otherwise leave the real one in use
        coeffs = dict(file_coeffs(),
                      sigma_sys_typo=5.0)
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"coefficients": coeffs}))
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--out", str(tmp_path / "out")],
                           capsys, "sigma_sys_typo")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_meta(self, constant, small_ds, tmp_path):
        ds = shutil.copytree(small_ds, tmp_path / "ds")
        edit_meta(ds / "s02", sbp_ref=float(constant))  # json writes constant
        out = tmp_path / "out"
        assert main([*PREDICT, str(ds), "--out", str(out)]) == 1
        report = strict_json((out / "bp_predictions.json").read_text())
        assert sorted(report["predictions"]) == ["s01", "s03"]
        error = report["errors"]["s02"]
        assert error.startswith("ingest:") and constant in error

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_coeffs(self, constant, small_ds,
                                           tmp_path, capsys):
        coeffs = dict(file_coeffs(),
                      c1=float(constant))
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"coefficients": coeffs}))
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--out", str(tmp_path / "out")],
                           capsys, constant)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_in_spec(self, constant, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"duration_s": {constant}}}')
        self.fails_cleanly(["synth", "--out", str(tmp_path / "ds"),
                            "--spec-file", str(path)], capsys, constant)
        assert not (tmp_path / "ds").exists()

    def test_repeated_key_in_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text('{"n_subjects": 1, "n_subjects": 2}')
        self.fails_cleanly(["synth", "--out", str(tmp_path / "ds"),
                            "--spec-file", str(path)], capsys,
                           "duplicate key 'n_subjects'")
        assert not (tmp_path / "ds").exists()

    def test_repeated_key_in_coeffs(self, small_ds, tmp_path, capsys):
        coeffs = file_coeffs()
        text = json.dumps({"coefficients": coeffs})
        path = tmp_path / "coeffs.json"
        path.write_text(text[:-2] + ', "c1": 0.5}}')
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--out", str(tmp_path / "out")],
                           capsys, "duplicate key 'c1'")
        assert not (tmp_path / "out").exists()

    def test_repeated_key_in_meta(self, small_ds, tmp_path):
        ds = shutil.copytree(small_ds, tmp_path / "ds")
        meta = ds / "s02" / "meta.json"
        meta.write_text('{"sbp_ref": 90.0, ' + meta.read_text()[1:])
        out = tmp_path / "out"
        assert main([*PREDICT, str(ds), "--out", str(out)]) == 1
        report = strict_json((out / "bp_predictions.json").read_text())
        assert sorted(report["predictions"]) == ["s01", "s03"]
        error = report["errors"]["s02"]
        assert error.startswith("ingest:") and "duplicate key 'sbp_ref'" in error

    @staticmethod
    def write_with(path, payload, literal):
        """Write ``payload`` as JSON, each ``"@"`` in it as ``literal``."""
        path.write_text(json.dumps(payload).replace('"@"', literal))
        return path

    @out_of_range
    @pytest.mark.parametrize("keys, argv, prefix", [
        (("sbp_ref",), PREDICT, "ingest: "),
        (("ecg_rate_hz",), ["hr"], "ingest: "),
        (("features", "t_sys"), PREDICT, "meta.json: features."),
    ])
    def test_out_of_range_number_in_meta(self, keys, argv, prefix, literal,
                                         small_ds, tmp_path):
        ds = shutil.copytree(small_ds, tmp_path / "ds")
        meta = json.loads((ds / "s02" / "meta.json").read_text())
        parent = meta
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = "@"
        self.write_with(ds / "s02" / "meta.json", meta, literal)
        out = tmp_path / "out"
        assert main([*argv, str(ds), "--out", str(out)]) == 1
        name = "hr_report.json" if argv == ["hr"] else "bp_predictions.json"
        report = strict_json((out / name).read_text())
        results = report["subjects" if argv == ["hr"] else "predictions"]
        assert sorted(results) == ["s01", "s03"]
        assert list(report["errors"]) == ["s02"]
        error = report["errors"]["s02"]
        assert error.startswith(prefix)
        assert f"{keys[-1]} must be a number" in error

    @out_of_range
    def test_out_of_range_number_in_coeffs(self, literal, small_ds, tmp_path,
                                           capsys):
        coeffs = dict(file_coeffs(), c1="@")
        path = self.write_with(tmp_path / "coeffs.json",
                               {"coefficients": coeffs}, literal)
        self.fails_cleanly(["bp", "predict", str(small_ds), "--coeffs",
                            str(path), "--out", str(tmp_path / "out")],
                           capsys, "c1 must be a number")
        assert not (tmp_path / "out").exists()

    @out_of_range
    @pytest.mark.parametrize("spec, needle", [
        ({"duration_s": "@"}, "duration_s must be a number"),
        ({"ranges": {"hr_bpm": [60, "@"]}}, "hr_bpm bounds must be numbers"),
    ])
    def test_out_of_range_number_in_spec(self, spec, needle, literal,
                                         tmp_path, capsys):
        path = self.write_with(tmp_path / "spec.json", spec, literal)
        self.fails_cleanly(["synth", "--out", str(tmp_path / "ds"),
                            "--spec-file", str(path)], capsys, needle)
        assert not (tmp_path / "ds").exists()

    def test_missing_spec_file(self, tmp_path, capsys):
        self.fails_cleanly(["synth", "--out", str(tmp_path / "ds"),
                            "--spec-file", str(tmp_path / "nope.json")],
                           capsys, "nope.json")

    @pytest.mark.parametrize("spec, needle", [
        ({"ranges": {"bogus": [1, 2]}}, "bogus"),
        ({"ranges": {"hr_bpm": [60, 70, 80]}}, "ranges"),
        ({"n_subject": 3}, "n_subject"),
        ({"coeffs": {}}, "coeffs"),
        ({"seed": "x"}, "seed"),
        ({"n_subjects": "3"}, "n_subjects"),
        ({"snr_db": "x"}, "snr_db"),
        # float() would read "0.5" as 0.5 and true as 1.0
        ({"ranges": {"s2_rel_amp": ["0.5", 0.8]}}, "ranges"),
        ({"ranges": {"s2_rel_amp": [0.5, True]}}, "ranges"),
        ({"ranges": {"hr_bpm": [90, 60]}}, "ranges.hr_bpm"),
        ({"n_subjects": 0}, "n_subjects"),
        ({"seed": -1}, "seed"),
        ({"sbp_noise_sd": -1}, "sbp_noise_sd"),
        ({"dbp_noise_sd": -0.5}, "dbp_noise_sd"),
        ({"jitter_ms": -1}, "jitter_ms"),
        # finite, but 10 ** (snr_db / 10) overflowed or reached zero
        ({"snr_db": 1e300, "n_subjects": 1, "duration_s": 2}, "snr_db"),
        ({"snr_db": -3300, "n_subjects": 1, "duration_s": 2}, "snr_db"),
    ])
    def test_bad_spec_rejected(self, tmp_path, capsys, spec, needle):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        self.fails_cleanly(["synth", "--out", str(tmp_path / "ds"),
                            "--spec-file", str(path)], capsys, needle)
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("argv, spec, subject", [
        # S1 jittered before 0 s, S2 past the end of 0.1 s
        (["--subjects", "6", "--duration", "0.1"], None, "s03"),
        # finite, but every event jittered out of the recording
        ([], {"jitter_ms": 1e308}, "s01"),
    ], ids=["short", "huge_jitter"])
    def test_subject_without_heart_sound_fails_cleanly(
            self, argv, spec, subject, tmp_path, capsys):
        if spec is not None:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec))
            argv = [*argv, "--spec-file", str(path)]
        self.fails_cleanly(["synth", "--out", str(tmp_path / "ds"), *argv],
                           capsys, f"subject {subject}: its PCG holds no "
                           f"heart sound")

    def test_null_snr_spec_is_noiseless(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_subjects": 1, "duration_s": 2,
                                    "snr_db": None}))
        assert main(["synth", "--out", str(tmp_path / "ds"),
                     "--spec-file", str(path)]) == 0

    def test_spec_values_used(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"n_subjects": 2, "duration_s": 4,
                                    "ranges": {"hr_bpm": [70, 70]}}))
        ds = tmp_path / "ds"
        assert main(["synth", "--out", str(ds), "--spec-file", str(path)]) == 0
        metas = [json.loads(p.read_text()) for p in sorted(ds.glob("*/meta.json"))]
        assert [m["hr_bpm"] for m in metas] == [70.0, 70.0]


BREAKAGES = (None, "pcg.wav", "meta.json", "ecg.txt")
BROKEN_BYTES = {"pcg.wav": b"not a wav", "meta.json": b"{not json",
                "ecg.txt": b"0.5\nnot a number\n"}


@st.composite
def dataset_specs(draw):
    """1-5 folders, each with a subject_id and at most one broken file.

    An id is absent (the folder name is used), another folder's name, or
    junk shared with other folders.
    """
    names = [f"f{i}" for i in range(draw(st.integers(1, 5)))]
    ids = st.one_of(st.none(), st.sampled_from(names),
                    st.sampled_from(["x", "y"]))
    return [(name, draw(ids), draw(st.sampled_from(BREAKAGES)))
            for name in names]


@pytest.fixture(scope="module")
def template_subject(tmp_path_factory):
    """One 4 s subject (one frame) to copy into generated datasets."""
    root = tmp_path_factory.mktemp("template")
    assert main(["synth", "--out", str(root), "--subjects", "1",
                 "--seed", "1", "--duration", "4"]) == 0
    return root / "s01"


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestEveryFolderOnce:
    """Each folder lands once, as a result or an error, under its own key."""

    @settings(max_examples=25, deadline=None)
    @given(spec=dataset_specs())
    # a folder taking the id of a later folder, broken or not
    @example(spec=[("f0", "f1", None), ("f1", None, "pcg.wav")])
    @example(spec=[("f0", "f1", None), ("f1", None, None)])
    def test_reports_count_each_folder_once(self, spec, template_subject):
        with tempfile.TemporaryDirectory() as tmp:
            ds = Path(tmp) / "ds"
            for name, subject_id, broken in spec:
                folder = shutil.copytree(template_subject, ds / name)
                meta = json.loads((folder / "meta.json").read_text())
                del meta["subject_id"]  # without one the folder name is used
                if subject_id is not None:
                    meta["subject_id"] = subject_id
                (folder / "meta.json").write_text(json.dumps(meta))
                if broken:
                    (folder / broken).write_bytes(BROKEN_BYTES[broken])
            for argv, report_name, key in (
                    (["hr"], "hr_report.json", "subjects"),
                    (["quality"], "quality_report.json", "subjects"),
                    (PREDICT, "bp_predictions.json", "predictions")):
                out = Path(tmp) / "out"
                rc = main([*argv, str(ds), "--out", str(out)])
                report = strict_json((out / report_name).read_text())
                shutil.rmtree(out)
                results, errors = report[key], report["errors"]
                assert not set(results) & set(errors), argv
                assert len(results) + len(errors) == len(spec), argv
                assert rc == (1 if errors else 0), argv


ECG_DAMAGES = ("intact", "missing", "broken", "not UTF-8", "directory")


def damage_ecg(path, damage):
    """Leave ``path`` as it is, remove it, or spoil it as ``damage`` says."""
    if damage == "intact":
        return
    data = path.read_bytes()
    path.unlink()
    if damage == "broken":
        path.write_bytes(BROKEN_BYTES["ecg.txt"])
    elif damage == "not UTF-8":
        path.write_bytes(data + b"\xff\xfe\n")
    elif damage == "directory":
        path.mkdir()


class TestEcgReadByHrAlone:
    """Only ``hr`` reads ecg.txt, so only its report sees one damaged."""

    @settings(max_examples=10, deadline=None)
    @given(damages=st.lists(st.sampled_from(ECG_DAMAGES), min_size=1,
                            max_size=4))
    @example(damages=["missing", "broken", "not UTF-8", "directory"])
    def test_other_commands_ignore_ecg(self, damages, template_subject):
        with tempfile.TemporaryDirectory() as tmp:
            ds, out = Path(tmp) / "ds", Path(tmp) / "out"
            names = [f"f{i}" for i in range(len(damages))]
            for name in names:
                folder = shutil.copytree(template_subject, ds / name)
                meta = json.loads((folder / "meta.json").read_text())
                del meta["subject_id"]  # without one the folder name is used
                (folder / "meta.json").write_text(json.dumps(meta))

            def run(*argv):
                rc = main([*argv, str(ds), "--out", str(out)])
                files = {p.name: p.read_bytes() for p in out.iterdir()}
                shutil.rmtree(out)
                return rc, files

            others = (["quality"],
                      [*PREDICT, "--features-from-audio"])
            intact = [run(*argv) for argv in others]
            for name, damage in zip(names, damages):
                damage_ecg(ds / name / "ecg.txt", damage)
            assert [run(*argv) for argv in others] == intact
            assert [rc for rc, _ in intact] == [0, 0]

            rc, files = run("hr")
        report = strict_json(files["hr_report.json"])
        damaged = {name for name, damage in zip(names, damages)
                   if damage not in ("intact", "missing")}
        assert set(report["errors"]) == damaged
        assert all(e.startswith("ingest: ")
                   for e in report["errors"].values())
        assert rc == (1 if damaged else 0)
        for name, damage in zip(names, damages):
            if name not in damaged:
                rows = report["subjects"][name]["frames"]
                assert rows and all(("bpm_ecg" in row) == (damage == "intact")
                                    for row in rows)
