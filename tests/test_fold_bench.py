"""The paired-benchmark verdicts of ``scripts/fold_bench.py``."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "fold_bench.py"
_spec = importlib.util.spec_from_file_location("fold_bench", _PATH)
fold_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold_bench)

LOWER = {"name": "trial_ms_p90", "unit": "ms", "better": "lower", "bound": 0.2}


def _pairs(count):
    """``count`` pairs where the change is 20% faster on every one."""
    parent = [10.0 + 0.01 * k for k in range(count)]
    return parent, [0.8 * v for v in parent]


def test_gain_needs_ten_pairs():
    five = fold_bench._compare(LOWER, *_pairs(5))
    assert five["wins"] == five["pairs"] == 5
    assert not five["gain"]
    ten = fold_bench._compare(LOWER, *_pairs(10))
    assert ten["wins"] == ten["pairs"] == 10
    assert ten["gain"]
    assert five["within_bound"] and ten["within_bound"]


RSS = {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2}


def test_peak_rss_gain_needs_five_percent():
    # verify-exhaustive's peak RSS once fell 37.69 -> 37.21 MB (1.3%) on all
    # ten pairs, with a parent interquartile range of about 0.08 MB, for a change
    # that did not aim at memory: that is not a gain
    parent = [37.60, 37.63, 37.65, 37.66, 37.69, 37.69, 37.72, 37.73, 37.75, 37.78]
    shift = fold_bench._compare(RSS, parent, [v - 0.48 for v in parent])
    assert shift["wins"] == shift["pairs"] == 10
    assert shift["change"]["median"] < shift["parent"]["median"] - shift["parent"]["iqr"]
    assert not shift["gain"] and shift["within_bound"]
    # the same ten wins at 6% are a gain, and other metrics keep no minimum
    assert fold_bench._compare(RSS, parent, [0.94 * v for v in parent])["gain"]
    assert fold_bench._compare(dict(RSS, name="trial_ms_p50"), parent, [v - 0.48 for v in parent])["gain"]


HIGHER = {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}


def test_grid_mcmc_gain_needs_ten_percent():
    # grid-mcmc moves by about 5% between two checkout directories of one
    # commit, and two rounds on nearly the same change read +5.5% and then
    # +1.3%, both on ten of ten pairs; so 9% on ten of ten pairs is no gain
    # there, and 11% is; the same 9% is a gain on grid-kernel
    parent = [88.0 + 0.05 * k for k in range(10)]
    plus = {f: [f * v for v in parent] for f in (1.09, 1.11)}
    nine = fold_bench._compare(HIGHER, parent, plus[1.09], "grid-mcmc")
    assert nine["wins"] == nine["pairs"] == 10
    assert nine["change"]["median"] > nine["parent"]["median"] + nine["parent"]["iqr"]
    assert not nine["gain"] and nine["within_bound"]
    assert fold_bench._compare(HIGHER, parent, plus[1.11], "grid-mcmc")["gain"]
    assert fold_bench._compare(HIGHER, parent, plus[1.09], "grid-kernel")["gain"]
