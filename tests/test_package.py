"""The package namespace is the union of the library modules' ``__all__``."""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pcgkit
from pcgkit import PcgKitError, cli, errors, quality
from pcgkit.plots import write_scatter_svg

README = Path(__file__).resolve().parents[1] / "README.md"


def run_interpreter(args, cwd):
    """Run a fresh interpreter that imports this package; its result."""
    src = str(Path(pcgkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter; its standard output."""
    return run_interpreter(["-c", textwrap.dedent(code)], cwd).stdout


def test_package_reexports_each_module_all():
    exported = []
    for info in pkgutil.iter_modules(pcgkit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pcgkit.{info.name}")
        for name in getattr(module, "__all__", ()):
            value = getattr(module, name)
            # listed by the module that defines it
            assert getattr(value, "__module__", module.__name__) == \
                module.__name__, name
            assert getattr(pcgkit, name) is value
            exported.append(name)
    assert len(set(pcgkit.__all__)) == len(pcgkit.__all__)
    assert sorted(pcgkit.__all__) == sorted(["__version__", *exported])


def test_errors_keep_only_the_caught_classes():
    """A class stays only where code catches it or reads its attributes."""
    assert errors.__all__ == ["PcgKitError", "TooShortError",
                              "DegenerateSignalError",
                              "UndefinedCorrelationError", "StageError"]


def test_each_error_subclass_is_caught_by_type():
    """``StageError`` is kept for its attributes; the rest are caught."""
    src = Path(pcgkit.__file__).resolve().parent
    caught = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = (node.type.elts if isinstance(node.type, ast.Tuple)
                         else [node.type])
                caught.update(t.id for t in types if isinstance(t, ast.Name))
    assert {"TooShortError", "DegenerateSignalError",
            "UndefinedCorrelationError"} <= caught


def test_each_equivalent_mutant_is_still_found():
    """Every entry of ``mutants_equivalent.json`` names a mutant that the
    mutation probe finds in today's source, with a reason."""
    spec = importlib.util.spec_from_file_location(
        "mutants", Path(__file__).with_name("mutants.py"))
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    src = Path(pcgkit.__file__).resolve().parent
    entries = json.loads(mutants.EQUIVALENT.read_text())
    found = {}
    for module in {entry["module"] for entry in entries}:
        _, keyed = mutants.find_mutants(
            module, (src / f"{module}.py").read_text())
        found[module] = [key for key, _ in keyed]
    for entry in entries:
        key = {k: v for k, v in entry.items() if k != "reason"}
        assert entry["reason"] and key in found[entry["module"]], entry


def test_scatter_plot_refuses_empty_series(tmp_path):
    with pytest.raises(PcgKitError, match="equal-length and non-empty"):
        write_scatter_svg(tmp_path / "s.svg", [], [])


def test_readme_library_example(capsys):
    """The README's Python block runs as written and prints its estimate."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    bpm, t_sys, t_dias = map(float, capsys.readouterr().out.split())
    assert abs(bpm - 75.0) <= 2.0
    assert 0.0 < t_sys < t_dias


def _scipy_modules_after(code, cwd):
    """Sorted ``scipy*`` modules loaded once ``code`` has run."""
    out = run_python(textwrap.dedent(code) + textwrap.dedent("""
        import json, sys
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")))
    """), cwd)
    return json.loads(out.splitlines()[-1])


def test_import_and_version_load_no_scipy(tmp_path):
    """Start-up pays for numpy only; scipy loads where it is used."""
    for code in ("import pcgkit", "import pcgkit.cli"):
        assert _scipy_modules_after(code, tmp_path) == [], code
    proc = run_interpreter(["-X", "importtime", "-m", "pcgkit", "--version"],
                           tmp_path)
    assert pcgkit.__version__ in proc.stdout
    imported = [line.rsplit("|", 1)[-1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "pcgkit.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]
    assert "concurrent.futures" not in imported


def _synth(cwd, subjects=2):
    """A ``subjects``-subject, 8 s dataset ``ds`` under ``cwd``."""
    run_python(f"""
        from pcgkit.cli import main
        assert main(["synth", "--out", "ds", "--subjects", "{subjects}",
                     "--seed", "3", "--duration", "8"]) == 0
    """, cwd)


def test_hr_bp_and_quality_load_no_scipy(tmp_path):
    """Every envelope, the lowpass and the CWT run on numpy alone."""
    _synth(tmp_path, subjects=12)  # the fitting minimum, for bp loocv
    commands = [["hr", "ds"], ["hr", "ds", "--method", "hilbert"],
                ["hr", "ds", "--method", "wes"],
                ["bp", "loocv", "ds", "--features-from-audio"],
                ["quality", "ds"]]
    # in one interpreter: no scipy module after all of them, so after none
    code = "from pcgkit.cli import main\n" + "".join(
        f"assert main({argv + ['--out', 'r']!r}) == 0\n" for argv in commands)
    assert _scipy_modules_after(code, tmp_path) == []


def test_first_fft_import_on_quality_threads(tmp_path, monkeypatch):
    """The main thread's lowpass loads numpy.fft before quality's frame
    pool runs, and three workers write the reports one worker writes."""
    _synth(tmp_path)
    out = run_python("""
        import json, sys, threading
        import pcgkit.cli as cli
        import pcgkit.quality as quality

        class Watch:
            threads = []

            def find_spec(self, name, path=None, target=None):
                if name == "numpy.fft":
                    self.threads.append(threading.current_thread().name)
                return None  # the usual finders load it

        assert "numpy.fft" not in sys.modules
        sys.meta_path.insert(0, Watch())
        quality._usable_cpus = lambda: 3
        assert cli.main(["quality", "ds", "--out", "r"]) == 0
        print(json.dumps(Watch.threads))
    """, tmp_path)
    threads = json.loads(out.splitlines()[-1])
    assert threads == ["MainThread"]
    (tmp_path / "r").rename(tmp_path / "three")
    monkeypatch.setattr(quality, "_usable_cpus", lambda: 1)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["quality", "ds", "--out", "r"]) == 0
    for name in ("quality_report.json", "quality_table.csv"):
        assert (tmp_path / "three" / name).read_bytes() == \
            (tmp_path / "r" / name).read_bytes()


def test_non_2000_hz_wav_resamples_through_hr(tmp_path):
    """A 4000 Hz pcg.wav runs through hr with every scipy import refused,
    and no scipy module loads."""
    out = run_python("""
        import json, sys

        class RefuseScipy:
            def find_spec(self, name, path=None, target=None):
                if name.split(".")[0] == "scipy":
                    raise ImportError(f"{name} refused")
                return None  # the usual finders load it

        sys.meta_path.insert(0, RefuseScipy())
        from pcgkit import load_subject_dir, resample_rational, write_wav_pcm16
        from pcgkit.cli import main
        assert main(["synth", "--out", "ds", "--subjects", "1", "--seed",
                     "3", "--duration", "8"]) == 0
        assert main(["hr", "ds", "--out", "at2000"]) == 0
        pcg = load_subject_dir("ds/s01").pcg
        write_wav_pcm16("ds/s01/pcg.wav", resample_rational(pcg, 4000.0))
        assert load_subject_dir("ds/s01").pcg.rate_hz == 4000.0
        assert main(["hr", "ds", "--out", "at4000"]) == 0
        print(json.dumps(sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")))
    """, tmp_path)
    assert json.loads(out.splitlines()[-1]) == []
    frames = [json.loads((tmp_path / d / "hr_report.json").read_text())
              ["subjects"]["s01"]["frames"] for d in ("at2000", "at4000")]
    assert len(frames[0]) == len(frames[1]) == 2
    for a, b in zip(*frames):
        assert abs(a["bpm_pcg"] - b["bpm_pcg"]) < 2.0
