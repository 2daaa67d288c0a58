#!/usr/bin/env python3
"""Sanity-check the BENCH_*.json artifacts the bench bins emit.

Every report must parse as JSON and contain at least one non-empty array
of row objects (the shapes differ per bin: `runs`, `rows`, or the
`parallel` arrays inside `join`/`batch`). A bin that silently wrote an
empty or truncated report fails the job here instead of shipping a
useless artifact.

`BENCH_obs.json` is scalar-shaped instead of row-shaped and carries a
hard bound: the telemetry counter overhead ratio must stay below 1.05
(instrumentation may not induce extra engine work).

`BENCH_durability.json` carries recovery-oracle gates on every row:
WAL records must actually replay, snapshot pages must actually be
read, and the recovered service's answers must have compared identical
to the never-restarted reference.

`BENCH_engine.json` carries the join-algorithm head-to-head gates:
every algorithm must report the same pair count as the sequential
baseline, and the plane sweep must perform strictly fewer overlap
tests than INLJ (the machine-independent claim the sweep exists to
make — wall-clock is reported but never gated).

`BENCH_paper.json` gates the direction of the paper's headline result
(Table I, clipping cuts leaf I/O): in every variant x profile cell both
clip methods reduce leaf accesses (> 0) and stairline saves at least as
much as skyline; per variant and method, the small-query profile QR0
saves at least as much as the large-query profile QR2. Magnitudes are
reported, never gated.
"""

import json
import os
import sys

OBS_MAX_OVERHEAD = 1.05


def check_obs(path, doc):
    """Validate the observability report's gated fields."""
    errors = []
    ratio = doc.get("counter_overhead_ratio")
    if not isinstance(ratio, (int, float)):
        errors.append("missing counter_overhead_ratio")
    elif ratio >= OBS_MAX_OVERHEAD:
        errors.append(
            f"counter_overhead_ratio {ratio} >= {OBS_MAX_OVERHEAD}"
        )
    families = doc.get("metric_families")
    if not isinstance(families, int) or families < 15:
        errors.append(f"metric_families {families!r} < 15")
    slow = doc.get("slow_ring_entries")
    if not isinstance(slow, int) or slow < 1:
        errors.append(f"slow_ring_entries {slow!r} < 1")
    for err in errors:
        print(f"{path}: {err}", file=sys.stderr)
    if not errors:
        print(
            f"{path}: OK (overhead {ratio}, {families} families, "
            f"{slow} slow entries)"
        )
    return bool(errors)


def check_durability(path, doc):
    """Validate the durability report's recovery-oracle gates."""
    errors = []
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("missing or empty rows array")
        rows = []
    for row in rows:
        label = f"row batches={row.get('batches')!r}"
        replayed = row.get("records_replayed")
        if not isinstance(replayed, int) or replayed <= 0:
            errors.append(f"{label}: records_replayed {replayed!r} <= 0")
        pages = row.get("pages_read")
        if not isinstance(pages, int) or pages <= 0:
            errors.append(f"{label}: pages_read {pages!r} <= 0")
        if row.get("recovered_answers_identical") != 1:
            errors.append(
                f"{label}: recovered_answers_identical "
                f"{row.get('recovered_answers_identical')!r} != 1"
            )
    for err in errors:
        print(f"{path}: {err}", file=sys.stderr)
    if not errors:
        replayed = sum(row["records_replayed"] for row in rows)
        print(
            f"{path}: OK ({len(rows)} rows, {replayed} records replayed, "
            f"all recoveries identical)"
        )
    return bool(errors)


def check_engine(path, doc):
    """Validate the engine report's join-algorithm gates."""
    errors = []
    algos = doc.get("algos")
    if not isinstance(algos, list) or not algos:
        errors.append("missing or empty algos array")
        algos = []
    by_name = {row.get("algo"): row for row in algos}
    missing = {"stt", "inlj", "sweep", "auto"} - set(by_name)
    if missing:
        errors.append(f"algos array lacks rows for {sorted(missing)}")
    seq_pairs = doc.get("join", {}).get("sequential", {}).get("pairs")
    for row in algos:
        label = f"algo {row.get('algo')!r}"
        if row.get("pairs") != seq_pairs:
            errors.append(
                f"{label}: pairs {row.get('pairs')!r} != sequential {seq_pairs!r}"
            )
        tiles = sum(
            row.get(key, 0) for key in ("tiles_stt", "tiles_inlj", "tiles_sweep")
        )
        if not isinstance(tiles, int) or tiles <= 0:
            errors.append(f"{label}: no tiles were joined ({tiles!r})")
    if not missing:
        sweep = by_name["sweep"].get("overlap_tests")
        inlj = by_name["inlj"].get("overlap_tests")
        if not isinstance(sweep, int) or not isinstance(inlj, int):
            errors.append("overlap_tests missing on sweep or inlj row")
        elif sweep >= inlj:
            errors.append(f"sweep overlap_tests {sweep} >= inlj {inlj}")
    for err in errors:
        print(f"{path}: {err}", file=sys.stderr)
    if not errors:
        print(
            f"{path}: OK ({len(algos)} algos agree on {seq_pairs} pairs, "
            f"sweep {sweep} < inlj {inlj} overlap tests)"
        )
    return bool(errors)


def check_paper(path, doc):
    """Validate the Table I report's direction-only gates."""
    errors = []
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append("missing or empty rows array")
        rows = []
    cells = {}
    for row in rows:
        label = f"{row.get('variant')!r} {row.get('profile')!r}"
        sky, sta = row.get("skyline"), row.get("stairline")
        if not all(isinstance(v, (int, float)) for v in (sky, sta)):
            errors.append(f"{label}: missing skyline/stairline reduction")
            continue
        for method, value in (("skyline", sky), ("stairline", sta)):
            if value <= 0:
                errors.append(f"{label}: {method} reduction {value} <= 0")
        if sta < sky:
            errors.append(f"{label}: stairline {sta} < skyline {sky}")
        cells[(row.get("variant"), row.get("profile"))] = (sky, sta)
    variants = sorted({variant for variant, _ in cells})
    for variant in variants:
        qr0, qr2 = cells.get((variant, "QR0")), cells.get((variant, "QR2"))
        if qr0 is None or qr2 is None:
            errors.append(f"{variant!r}: missing QR0 or QR2 row")
            continue
        for i, method in enumerate(("skyline", "stairline")):
            if qr0[i] < qr2[i]:
                errors.append(
                    f"{variant!r} {method}: QR0 {qr0[i]} < QR2 {qr2[i]}"
                )
    for err in errors:
        print(f"{path}: {err}", file=sys.stderr)
    if not errors:
        total = doc.get("total", {})
        print(
            f"{path}: OK ({len(rows)} cells across {len(variants)} variants, "
            f"total {total.get('skyline')}/{total.get('stairline')})"
        )
    return bool(errors)


def row_arrays(node):
    """Yield every list-of-dicts found anywhere in the document."""
    if isinstance(node, list):
        if node and all(isinstance(item, dict) for item in node):
            yield node
        for item in node:
            yield from row_arrays(item)
    elif isinstance(node, dict):
        for value in node.values():
            yield from row_arrays(value)


def main(paths):
    if not paths:
        print("no BENCH_*.json files were produced", file=sys.stderr)
        return 1
    failed = False
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: does not parse: {err}", file=sys.stderr)
            failed = True
            continue
        if os.path.basename(path) == "BENCH_obs.json":
            failed |= check_obs(path, doc)
            continue
        if os.path.basename(path) == "BENCH_durability.json":
            failed |= check_durability(path, doc)
            continue
        if os.path.basename(path) == "BENCH_engine.json":
            failed |= check_engine(path, doc)
            continue
        if os.path.basename(path) == "BENCH_paper.json":
            failed |= check_paper(path, doc)
            continue
        arrays = list(row_arrays(doc))
        if not arrays:
            print(f"{path}: parses but holds no non-empty row arrays", file=sys.stderr)
            failed = True
            continue
        rows = sum(len(a) for a in arrays)
        print(f"{path}: OK ({len(arrays)} row arrays, {rows} rows)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
