import importlib.util
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_engines.py"
_spec = importlib.util.spec_from_file_location("compare_engines", SCRIPT)
compare_engines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_engines)


def _entry(grad, j):
    return compare_engines._entry(np.asarray(grad), J=float(j).hex())


def test_diff_reports_fd_oracle_entries_in_ulps_of_j_over_2h():
    j = 0.75
    unit = np.spacing(j) / (2.0 * compare_engines.FD_H)  # one ulp of J over 2h
    g = np.array([1e-4, -2e-4])
    a = {"p/latent-pass-fd-oracle": _entry(g, j),
         "p/latent-pass-sdo": _entry(g, j),
         "p/sdo-full": _entry(g, j),
         "p/only-a": _entry(g, j)}
    b = {"p/latent-pass-fd-oracle": _entry(g + [0.0, 0.25 * unit], j),
         "p/latent-pass-sdo": _entry(g + [0.0, 0.25 * unit], j),
         "p/sdo-full": _entry(g, 0.5)}
    lines = dict(line.split(": ", 1) for line in compare_engines.diff(a, b))
    assert lines["p/latent-pass-fd-oracle"] == ("max difference 0.25 ulp(J)/2h "
                                                "(max abs 1.39e-12); J bit-identical")
    # every other entry keeps the relative report
    assert lines["p/latent-pass-sdo"] == ("max relative difference 6.94e-09 "
                                          "(max abs 1.39e-12); J bit-identical")
    assert lines["p/sdo-full"] == "array bit-identical; J differ"
    assert lines["p/only-a"] == "only in A"
    assert compare_engines.diff(a, a) == [f"{key}: bit-identical" for key in sorted(a)]
