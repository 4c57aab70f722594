import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("criterion6_runs",
                                               ROOT / "scripts" / "criterion6_runs.py")
criterion6_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(criterion6_runs)

PASSED = """\
PASS  criterion 6 (one-step cost: tape and wall time): nodes 6/306 params and 5/302 \
latent (<=1/10), time 1.6ms vs 4.5ms (ratio 0.36 <= 0.5)
.
1 passed in 1.85s
"""

FAILED = """\
FAIL  criterion 6 (one-step cost: tape and wall time): nodes 6/306 params and 5/302 \
latent (<=1/10), time 3.1ms vs 5.0ms (ratio 0.62 <= 0.5)
F
=================================== FAILURES ===================================
_________________________ test_criterion_6_efficiency __________________________
>       assert ok, line
E       AssertionError: FAIL  criterion 6 (one-step cost: tape and wall time): nodes \
6/306 params and 5/302 latent (<=1/10), time 3.1ms vs 5.0ms (ratio 0.62 <= 0.5)
1 failed in 2.03s
"""

BROKEN = """\
E   ModuleNotFoundError: No module named 'shortcutdiff'
1 error in 0.31s
"""


def test_parse_reads_the_verdict_and_ratio_of_the_criterion_line():
    assert criterion6_runs.parse(PASSED) == (True, 0.36)
    assert criterion6_runs.parse(FAILED) == (False, 0.62)
    assert criterion6_runs.parse(BROKEN) is None
    # another criterion's line is not criterion 6's
    other = PASSED.replace("criterion 6 ", "criterion 7 ")
    assert criterion6_runs.parse(other) is None
