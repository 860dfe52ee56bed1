"""Per-layer metrics from the spans of one traced pass.

Self time is a span's duration minus the part of its interval that child
spans cover. Counts are summed over the pass; rates divide summed work by
summed span time, and are 0 where the pass ran no such work.
"""

from __future__ import annotations

# name -> (unit, better); the order is the report's order.
PER_LAYER = {
    "meanfield.kernel_calls": ("count", "lower"),
    "meanfield.kernel_cells": ("count", "lower"),
    "meanfield.kernel_s": ("s", "lower"),
    "meanfield.kernel_cells_per_s": ("1/s", "higher"),
    "meanfield.kernel_minor_faults": ("count", "lower"),
    "meanfield.kernel_sys_s": ("s", "lower"),
    "meanfield.shift_at_self_s": ("s", "lower"),
    "meanfield.calibration_iterations": ("count", "lower"),
    "meanfield.calibration_s_per_iter": ("s", "lower"),
    "parallel.blocks": ("count", "lower"),
    "parallel.speedup_2t": ("ratio", "higher"),
    "localization.shift_per_scan": ("count", "lower"),
    "localization.transverse_scan_self_s": ("s", "lower"),
    "localization.voxels_per_s": ("1/s", "higher"),
    "localization.iso_extents_s": ("s", "lower"),
    "bloch.steady_time_s": ("s", "lower"),
    "bloch.rk4_steps_per_s": ("1/s", "higher"),
    "meanfield.blockade_s": ("s", "lower"),
    "meanfield.blockade_directions_per_s": ("1/s", "higher"),
    "noise.trajectories_per_s": ("1/s", "higher"),
    "output.render_csv_s": ("s", "lower"),
    "output.csv_rows_per_s": ("1/s", "higher"),
    "output.render_json_s": ("s", "lower"),
    "output.json_rows_per_s": ("1/s", "higher"),
    "output.write_s": ("s", "lower"),
    "output.bytes_written": ("B", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of `interval` that the union of `children` covers."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus child-span coverage, for the spans of one process."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append((span["start"], span["end"]))
    return {
        span["id"]: span["end"] - span["start"]
        - covered((span["start"], span["end"]), children.get(span["id"], []))
        for span in spans
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def pass_metrics(processes: list[list[dict]], traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one pass, from the span lists of its traced processes."""
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    kernel_s_by_threads: dict[int, float] = {}
    kernel_faults = kernel_sys = 0.0
    shifts_in_partial = 0

    def add(table, key, value):
        table[key] = table.get(key, 0) + value

    for spans in processes:
        selfs = self_times(spans)
        by_id = {span["id"]: span for span in spans}
        for span in spans:
            name, elapsed = span["name"], span["end"] - span["start"]
            add(dur, name, elapsed)
            add(own, name, selfs[span["id"]])
            add(calls, name, 1)
            for key, value in span["counts"].items():
                if key != "threads":
                    add(counts, f"{name}.{key}", value)
            if name == "meanfield.masked_kernel_sum":
                add(kernel_s_by_threads, span["counts"]["threads"], elapsed)
                kernel_faults += span["minflt"]
                kernel_sys += span["stime"]
            if name == "meanfield.shift_at":
                parent = by_id.get(span["parent"])
                while parent is not None and parent["name"] != "localization.transverse_scan":
                    parent = by_id.get(parent["parent"])
                if parent is not None and parent["counts"].get("partial"):
                    shifts_in_partial += 1

    kernel_s = dur.get("meanfield.masked_kernel_sum", 0.0)
    cells = counts.get("meanfield.masked_kernel_sum.cells", 0)
    iterations = calls.get("meanfield.s0_integral", 0)
    calibrations = calls.get("meanfield.calibrated_offset", 0)
    partial_scans = counts.get("localization.transverse_scan.partial", 0)
    steady_s = dur.get("bloch.steady_time", 0.0)
    blockade_s = dur.get("meanfield.blockade_boundary", 0.0)
    csv_s = dur.get("output.render_csv", 0.0)
    json_s = dur.get("output.render_json", 0.0)
    speedup = 0.0
    if 1 in kernel_s_by_threads and 2 in kernel_s_by_threads:
        speedup = kernel_s_by_threads[1] / kernel_s_by_threads[2]
    return {
        "meanfield.kernel_calls": calls.get("meanfield.masked_kernel_sum", 0),
        "meanfield.kernel_cells": cells,
        "meanfield.kernel_s": kernel_s,
        "meanfield.kernel_cells_per_s": _ratio(cells, kernel_s),
        "meanfield.kernel_minor_faults": kernel_faults,
        "meanfield.kernel_sys_s": kernel_sys,
        "meanfield.shift_at_self_s": own.get("meanfield.shift_at", 0.0),
        "meanfield.calibration_iterations": _ratio(iterations, calibrations),
        "meanfield.calibration_s_per_iter": _ratio(dur.get("meanfield.calibrated_offset", 0.0), iterations),
        "parallel.blocks": counts.get("parallel.map_ordered.items", 0),
        "parallel.speedup_2t": speedup,
        "localization.shift_per_scan": _ratio(shifts_in_partial, partial_scans),
        "localization.transverse_scan_self_s": own.get("localization.transverse_scan", 0.0),
        "localization.voxels_per_s": _ratio(
            counts.get("localization.map3d.voxels", 0), dur.get("localization.map3d", 0.0)
        ),
        "localization.iso_extents_s": dur.get("localization.iso_extents", 0.0),
        "bloch.steady_time_s": steady_s,
        "bloch.rk4_steps_per_s": _ratio(counts.get("bloch.steady_time.rk4_steps", 0), steady_s),
        "meanfield.blockade_s": blockade_s,
        "meanfield.blockade_directions_per_s": _ratio(
            counts.get("meanfield.blockade_boundary.directions", 0), blockade_s
        ),
        "noise.trajectories_per_s": _ratio(
            counts.get("noise.noisy_transverse_scan.trajectories", 0),
            dur.get("noise.noisy_transverse_scan", 0.0),
        ),
        "output.render_csv_s": csv_s,
        "output.csv_rows_per_s": _ratio(counts.get("output.render_csv.rows", 0), csv_s),
        "output.render_json_s": json_s,
        "output.json_rows_per_s": _ratio(counts.get("output.render_json.rows", 0), json_s),
        "output.write_s": own.get("output.write_table", 0.0) + own.get("output.write_sidecar", 0.0),
        "output.bytes_written": counts.get("output.write_table.bytes", 0)
        + counts.get("output.write_sidecar.bytes", 0),
        "cli.overhead_s": own.get("cli.main", 0.0),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }
