"""The package namespace is the union of the library modules' ``__all__``."""

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pcgkit

README = Path(__file__).resolve().parents[1] / "README.md"


def run_python(code, cwd):
    """Run ``code`` in a fresh interpreter that imports this package."""
    src = str(Path(pcgkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def test_readme_library_example(capsys):
    """The README's Python block runs as written and prints its estimate."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    bpm, t_sys, t_dias = map(float, capsys.readouterr().out.split())
    assert abs(bpm - 75.0) <= 2.0
    assert 0.0 < t_sys < t_dias


def test_cli_import_loads_no_scipy_signal_or_stats(tmp_path):
    """Start-up pays for scipy.fft and LAPACK only, not scipy.signal."""
    out = run_python("""
        import sys
        import pcgkit.cli
        print(sorted(m for m in sys.modules
                     if m.startswith(("scipy.signal", "scipy.stats"))))
    """, tmp_path)
    assert out.strip() == "[]"


def test_non_2000_hz_wav_resamples_through_hr(tmp_path):
    """A 4000 Hz pcg.wav loads scipy.signal inside the resampler only."""
    out = run_python("""
        import json, sys
        from pcgkit import load_subject_dir, resample_rational, write_wav_pcm16
        from pcgkit.cli import main
        assert main(["synth", "--out", "ds", "--subjects", "1", "--seed",
                     "3", "--duration", "8"]) == 0
        assert main(["hr", "ds", "--out", "at2000"]) == 0
        pcg = load_subject_dir("ds/s01").pcg
        before = "scipy.signal" in sys.modules
        write_wav_pcm16("ds/s01/pcg.wav", resample_rational(pcg, 4000.0))
        assert load_subject_dir("ds/s01").pcg.rate_hz == 4000.0
        assert main(["hr", "ds", "--out", "at4000"]) == 0
        print(json.dumps([before, "scipy.signal" in sys.modules]))
    """, tmp_path)
    assert json.loads(out.splitlines()[-1]) == [False, True]
    frames = [json.loads((tmp_path / d / "hr_report.json").read_text())
              ["subjects"]["s01"]["frames"] for d in ("at2000", "at4000")]
    assert len(frames[0]) == len(frames[1]) == 2
    for a, b in zip(*frames):
        assert abs(a["bpm_pcg"] - b["bpm_pcg"]) < 2.0
