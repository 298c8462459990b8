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
