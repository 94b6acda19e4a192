"""The package namespace is the union of the library modules' ``__all__``."""

import importlib
import pkgutil
import re
from pathlib import Path

import pcgkit

README = Path(__file__).resolve().parents[1] / "README.md"


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
