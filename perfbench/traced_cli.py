"""Run one vortex-localize command with a span around each layer's public functions.

Usage: python3 traced_cli.py SPANS.json ARG...

Each wrapper is installed at the name the calling module looks up, so the
library itself is untouched. A span records its name, start, end, parent and
the process's minor-fault and system-time deltas, plus work counts taken
from the call's arguments or result. Spans stay in memory and are written to
SPANS.json once, after the command returns. If a function to wrap is missing,
the script exits non-zero before the command runs, so a renamed layer fails
the traced run instead of reporting zeros.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time


class MissingHook(RuntimeError):
    """A function the tracer wraps is gone, so its per-layer metrics would silently read 0."""


def _lookup(module, attr: str):
    original = getattr(module, attr, None)
    if not callable(original):
        raise MissingHook(f"{module.__name__}.{attr} is not a function; update perfbench/traced_cli.py")
    return original


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str):
        usage = resource.getrusage(resource.RUSAGE_SELF)
        record = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "name": name,
            "counts": {},
        }
        self.spans.append(record)
        self._open.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            after = resource.getrusage(resource.RUSAGE_SELF)
            record["minflt"] = after.ru_minflt - usage.ru_minflt
            record["stime"] = after.ru_stime - usage.ru_stime
            self._open.pop()

    def wrap(self, module_name: str, attr: str, span_name: str, counts=None) -> None:
        """Replace module.attr with a spanning wrapper."""
        module = importlib.import_module(module_name)
        original = _lookup(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def spanned(*args, **kwargs):
            with self.span(span_name) as record:
                result = original(*args, **kwargs)
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["counts"].update(counts(bound.arguments, result))
            return result

        setattr(module, attr, spanned)

    def count_steps(self) -> None:
        """Add each RK4 run's step count to the innermost open span."""
        from vortexloc import bloch

        original = _lookup(bloch, "_rk4_samples")
        signature = inspect.signature(original)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if self._open:
                counts = self._open[-1]["counts"]
                n_steps = signature.bind(*args, **kwargs).arguments["n_steps"]
                counts["rk4_steps"] = counts.get("rk4_steps", 0) + n_steps
            return original(*args, **kwargs)

        bloch._rk4_samples = counted


def _kernel_counts(a, result):
    quad = a["quad"]
    cells = round(quad.extent_r / quad.spacing_r) * round(quad.extent_z / quad.spacing_z)
    return {"cells": cells, "threads": a["threads"]}


def _rows(a, result):
    columns = list(a["columns"].values())
    return {"rows": len(columns[0]) if columns else 0}


# (module, function, span name, counts(arguments, result) or None). Functions
# imported into several modules are wrapped in each, since each caller looks
# the name up in its own module.
LAYERS = [
    ("vortexloc.meanfield", "masked_kernel_sum", "meanfield.masked_kernel_sum", _kernel_counts),
    ("vortexloc.meanfield", "map_ordered", "parallel.map_ordered", lambda a, r: {"items": len(a["items"])}),
    ("vortexloc.meanfield", "shift_at", "meanfield.shift_at", None),
    ("vortexloc.localization", "shift_at", "meanfield.shift_at", None),
    ("vortexloc.meanfield", "s0_integral", "meanfield.s0_integral", None),
    ("vortexloc.meanfield", "calibrated_offset", "meanfield.calibrated_offset", None),
    ("vortexloc.localization", "calibrated_offset", "meanfield.calibrated_offset", None),
    ("vortexloc.meanfield", "shift_profile", "meanfield.shift_profile", None),
    ("vortexloc.meanfield", "blockade_boundary", "meanfield.blockade_boundary",
     lambda a, r: {"directions": len(r.angles)}),
    ("vortexloc.localization", "transverse_scan", "localization.transverse_scan",
     lambda a, r: {"partial": int(a["mode"] == "partial")}),
    ("vortexloc.localization", "longitudinal_scan", "localization.longitudinal_scan", None),
    ("vortexloc.localization", "oam_broadening_scan", "localization.oam_broadening_scan", None),
    ("vortexloc.localization", "map3d", "localization.map3d", lambda a, r: {"voxels": int(r.field.size)}),
    ("vortexloc.localization", "iso_extents", "localization.iso_extents", None),
    ("vortexloc.bloch", "steady_time", "bloch.steady_time", None),
    ("vortexloc.noise", "noisy_transverse_scan", "noise.noisy_transverse_scan",
     lambda a, r: {"trajectories": a["spec"].trajectories}),
    ("vortexloc.output", "write_table", "output.write_table", lambda a, r: {"bytes": os.path.getsize(r)}),
    ("vortexloc.output", "write_sidecar", "output.write_sidecar", lambda a, r: {"bytes": os.path.getsize(r)}),
    ("vortexloc.output", "render_csv", "output.render_csv", _rows),
    ("vortexloc.output", "render_json", "output.render_json", _rows),
]


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    for module_name, attr, span_name, counts in LAYERS:
        tracer.wrap(module_name, attr, span_name, counts)
    tracer.count_steps()
    from vortexloc import cli

    try:
        with tracer.span("cli.main"):
            return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
