"""Byte-for-byte comparison of CLI reports with the files in ``tests/golden``.

The golden files pin numpy 2.4.6 and scipy 1.17.1: another LAPACK or HiGHS
build may move the last bits of a Hessian, a multiplier or a cone sample,
and with them the bytes.  ``tests/golden/regen.py`` lists the cases and
rewrites the files.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).resolve().parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(regen)


def _changed_paths(old, new, path="$"):
    """``(path, numeric change or None)`` wherever ``new`` differs from ``old``."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key in old and key in new:
                yield from _changed_paths(old[key], new[key], f"{path}.{key}")
            else:
                yield f"{path}.{key}", None
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _changed_paths(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (old, new))
        yield path, abs(new - old) if numeric else None


@pytest.mark.parametrize("name", sorted(regen.CASES))
def test_report_matches_golden(name, tmp_path):
    code, text = regen.render(name, tmp_path)
    assert code == regen.CASES[name][-1]
    golden = (regen.GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8")
    if text != golden:
        changed = list(_changed_paths(json.loads(golden), json.loads(text)))
        deltas = [d for _, d in changed if d is not None]
        pytest.fail(f"{name}: report differs from the golden file at "
                    + (", ".join(p for p, _ in changed) or "no JSON path (formatting only)")
                    + (f"; largest numeric change {max(deltas):.3e}" if deltas else ""))
