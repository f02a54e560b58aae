"""The benchmark's traced probe against the reflectors ``reflect`` builds.

``perfbench/child.py``'s ``probe`` times each layer of a reflector, reached
through fixed attribute paths (``b.op``, ``select.op``, ``w``, ``r``, ``a``,
the PEA block as ``w.steps[0]``, and ``n_ancilla``, ``system_qubits``). A
reflector that drops one of them breaks ``perfbench/run.py --trace 1``.
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import child  # noqa: E402
import workloads  # noqa: E402
from reflectsim.core_sim import apply_batch  # noqa: E402
from reflectsim.lcu_reflector import build_reflector  # noqa: E402
from reflectsim.pea_reflector import build_pea_reflector  # noqa: E402
from reflectsim.spectral_models import synth_unitary  # noqa: E402


def _reflector(argv):
    """The reflector that ``reflect`` builds for one workload op."""
    def opt(flag):
        return workloads.option(argv, flag)
    unitary = synth_unitary(int(opt("--dim")), float(opt("--gap")),
                            int(opt("--seed")))
    build = build_reflector if argv[1] == "lcu" else build_pea_reflector
    return build(unitary, float(opt("--eps")))


# the smallest reflect op of each workload: D = 16 LCU, D = 2 PEA
@pytest.mark.parametrize("workload,index,route", [
    ("lcu_reflect", 2, "lcu_reflector"),
    ("pea_reflect", 0, "pea_reflector"),
])
def test_probe_times_every_layer(workload, index, route):
    argv = workloads.ops_for(workload, 1)[index]
    assert argv[:2] == ["reflect", route[:3]]
    times = child.probe(apply_batch, _reflector(argv), argv)
    assert sorted(times) == sorted(
        key for key in child.PROBED if key.startswith(route + "."))
