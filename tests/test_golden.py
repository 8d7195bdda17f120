"""Every preset's golden trace, re-run through `runner.execute`.

Header and row count must match exactly, every value to RTOL relative
with an absolute floor ATOL (values near zero carry rounding of the
scale they were computed at).  Bytes are not compared: they can differ
across BLAS builds.  `tests/golden/regenerate.py` makes the goldens.
"""
import numpy as np
import pytest

from decolab.runner import read_trace_csv
from golden import regenerate
from golden.regenerate import CONFIGS, GOLDEN_DIR, run

RTOL, ATOL = 1e-12, 1e-13


def mismatch(golden: tuple[list[str], np.ndarray], fresh: tuple[list[str], np.ndarray]) -> str | None:
    """Why fresh (header, rows) differs from golden, or None when it matches."""
    (g_head, g), (f_head, f) = golden, fresh
    if f_head != g_head:
        return f"header {f_head} != {g_head}"
    if f.shape != g.shape:
        return f"{f.shape[0]} rows != {g.shape[0]}"
    bad = np.abs(f - g) > RTOL * np.abs(g) + ATOL
    if bad.any():
        row, col = np.argwhere(bad)[0]
        return f"row {row}, column {g_head[col]!r}: {f[row, col]!r} != {g[row, col]!r}"
    return None


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_preset_reproduces_its_golden_trace(name, tmp_path):
    golden = read_trace_csv(str(GOLDEN_DIR / f"{name}.csv"))
    assert mismatch(golden, read_trace_csv(str(run(name, tmp_path)))) is None


def test_every_preset_has_a_golden():
    from decolab.scenarios.registry import SCENARIOS
    assert {text.split("]")[0][1:] for text in CONFIGS.values()} == set(SCENARIOS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_trace_perturbed_by_1e_9_is_rejected(name):
    head, rows = read_trace_csv(str(GOLDEN_DIR / f"{name}.csv"))
    perturbed = rows.copy()
    perturbed[:, 1:] *= 1.0 + 1e-9  # the observables, not the time column
    assert mismatch((head, rows), (head, perturbed)) is not None
    assert mismatch((head, rows), (head, rows[:-1])) is not None
    assert mismatch((head, rows), (head[::-1], rows)) is not None


@pytest.mark.parametrize("name", ["born-chain", "chiral-ph3-like", "chiral-sugar"])
def test_check_finds_the_golden_byte_identical(name, capsys):
    before = {p.name: p.stat().st_mtime_ns for p in GOLDEN_DIR.glob("*.csv*")}
    assert regenerate.main(["--check", name]) == 0
    assert capsys.readouterr().out == ""
    assert {p.name: p.stat().st_mtime_ns for p in GOLDEN_DIR.glob("*.csv*")} == before  # wrote nothing


def test_check_prints_the_first_differing_line(tmp_path, monkeypatch, capsys):
    lines = (GOLDEN_DIR / "born-chain.csv").read_text().splitlines(True)
    lines[2] = lines[2].replace(",", ",9", 1)
    (tmp_path / "born-chain.csv").write_text("".join(lines))
    monkeypatch.setattr(regenerate, "GOLDEN_DIR", tmp_path)
    assert regenerate.main(["--check", "born-chain"]) == 1
    assert capsys.readouterr().out.startswith("born-chain: line 3 differs: golden '")
