"""Golden information values: fisher_matrix at the golden run's setup on every
topology, with and without a probe and a channel, and
compare_blocked_vs_interferometric on a 25-point phase grid, pinned at 1e-12
relative.

An information entry I_ij is pinned against sqrt(I_ii I_jj), the largest
value it can take, or its own size if that is larger.  After a deliberate
change of results, rewrite golden_information.json with

    PYTHONPATH=src python tests/test_golden_information.py

and say why in CHANGES.md.
"""
import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from lmint import NoiseParams, Topology
from lmint.fisher import compare_blocked_vs_interferometric, fisher_matrix

from test_golden import FAMILIES, SETUP

GOLDEN = Path(__file__).with_name("golden_information.json")

#: The channel of the golden run's calibrated cells.
CHANNEL = NoiseParams(t_c=0.8, v_c=1.2)

#: The comparison's grid: 25 phases over [-pi, pi].
GRID = np.linspace(-math.pi, math.pi, 25)


def golden_information() -> dict:
    """'fisher/topology/r/channel/family' -> the 5x5 fisher_matrix as rows,
    and 'compare/r' -> the interferometric and blocked information over GRID
    and the crossings."""
    out = {}
    for topology in Topology:
        for r in (SETUP.r_amp, 0.0):
            setup = dataclasses.replace(SETUP, topology=topology, r_amp=r)
            for channel, noise in (("none", ()), ("calibrated", (CHANNEL,))):
                for family, (_, process) in FAMILIES.items():
                    out[f"fisher/{topology.value}/{r:g}/{channel}/{family}"] = (
                        fisher_matrix(setup, process, *noise).tolist())
    for r in (SETUP.r_amp, 2.59, 0.0):
        report = compare_blocked_vs_interferometric(dataclasses.replace(SETUP, r_amp=r), GRID)
        out[f"compare/{r:g}"] = {"interferometric": report.info_interferometric.tolist(),
                                 "blocked": report.info_blocked.tolist(),
                                 "crossings": report.crossings}
    return out


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= 1e-12 * max(abs(want), scale)


def test_information_matches_the_pinned_values():
    want = json.loads(GOLDEN.read_text())
    got = golden_information()
    assert sorted(got) == sorted(want)
    moved = []
    for key, value in want.items():
        if key.startswith("fisher/"):
            diag = [value[i][i] for i in range(len(value))]
            moved += [(key, i, j, got[key][i][j], entry)
                      for i, row in enumerate(value) for j, entry in enumerate(row)
                      if not _close(got[key][i][j], entry, math.sqrt(abs(diag[i] * diag[j])))]
            continue
        for part in ("interferometric", "blocked", "crossings"):
            assert len(got[key][part]) == len(value[part]), (key, part)
            moved += [(key, part, k, g, w) for k, (g, w)
                      in enumerate(zip(got[key][part], value[part])) if not _close(g, w, 0.0)]
    assert not moved, moved


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(golden_information(), indent=1, sort_keys=True) + "\n")
