"""Processes the benchmark starts (``python perfbench/child.py MODE ...``).

``cli ARGS...``    import ``repro.cli`` inside a ``cli.import`` span,
                   install the layer hooks, run ``repro.cli.main(ARGS)``
                   and write the spans (the traced form of
                   ``python -m repro ARGS``).
``setup REF@SEED...``  import ``repro.cli`` and cold-build each workload
                   at smoke scale through ``build_workload``; prints the
                   configured engine backend as JSON.
"""

from __future__ import annotations

import json
import sys

import spans


def traced_cli(argv) -> int:
    with spans.span("cli.import"):
        import repro.cli
    import hooks

    missing = hooks.install()
    if missing:
        print("perfbench: hooks without a target: " + ", ".join(missing), file=sys.stderr)
    try:
        return repro.cli.main(list(argv))
    finally:
        spans.flush()


def setup(targets) -> int:
    import repro.cli  # noqa: F401  (the import is part of set-up)
    from repro.experiments import get_scale
    from repro.workloads import build_workload

    scale = get_scale("smoke")
    for target in targets:
        ref, seed = target.rsplit("@", 1)
        build_workload(ref, scale=scale, seed=int(seed))

    from repro.config import resolve_backend_name

    print(json.dumps({"backend": resolve_backend_name()}))
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit(traced_cli(args) if mode == "cli" else setup(args))
