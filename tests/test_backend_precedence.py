"""The engine name stamped into artefacts when nothing else is set.

:func:`repro.config.resolve_backend_name` takes no arguments and always
names the one engine loop; run records, campaign manifests and bench
documents record its answer in their ``backend`` field.
"""

from repro.config import resolve_backend_name


def test_default_when_nothing_set():
    assert resolve_backend_name() == "reference"
