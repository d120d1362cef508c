"""The engine's provenance name.

There is one simulation driver (``Simulation._run``).  Its name is
still recorded as ``backend`` in run records, so a simulation must
report the same name that :func:`repro.config.resolve_backend_name`
stamps into manifests and bench documents.
"""

from repro.config import resolve_backend_name
from repro.core import make_policy
from repro.engine import Simulation, Workload
from repro.experiments.common import SMOKE
from repro.workloads.mixes import mix_profiles


def small_workload(mix="mix1", records=100, seed=0):
    profiles = [p.scaled(1 / 32) for p in mix_profiles(mix)]
    return Workload(profiles, seed=seed, trace_records_per_core=records)


def test_default_backend_is_reference():
    sim = Simulation(SMOKE.system(), make_policy("bh"), small_workload())
    assert sim.backend_name == "reference"
    assert sim.backend_name == resolve_backend_name()
