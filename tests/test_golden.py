"""CLI output trees on each ``CASES`` path, byte for byte against
``tests/golden/``.

The goldens are written by ``record_golden.py``. Bytes are compared only
under the numpy version that recorded them, since another version's FFT
may round differently; under any other version each case skips.
"""

import numpy as np
import pytest

from record_golden import CASES, GOLDEN, NUMPY_VERSION_FILE, run_case


@pytest.mark.parametrize("name", sorted(CASES))
def test_reports_equal_golden(name, tmp_path, monkeypatch):
    recorded = NUMPY_VERSION_FILE.read_text().strip()
    if np.__version__ != recorded:
        pytest.skip(f"goldens recorded with numpy {recorded}, "
                    f"running numpy {np.__version__}")
    monkeypatch.delenv("PCGKIT_CONFIG", raising=False)
    monkeypatch.chdir(tmp_path)
    code, out = run_case(name)
    assert code == 0
    golden = GOLDEN / name

    def tree(root):
        return sorted(p.relative_to(root) for p in root.rglob("*"))

    assert tree(out) == tree(golden)
    for rel in tree(golden):
        if (golden / rel).is_dir():
            continue
        got, want = (out / rel).read_bytes(), (golden / rel).read_bytes()
        if got != want:
            lines = zip(want.splitlines(), got.splitlines())
            first = next((i for i, (w, g) in enumerate(lines, 1) if w != g),
                         None)
            pytest.fail(f"{name}/{rel} differs from its golden "
                        f"(first differing line: {first})")
