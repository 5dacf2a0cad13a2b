#!/usr/bin/env python3
"""Strided extraction: a weekend climatology (paper §2.4.2).

"Strided access (reading data at regularly spaced intervals) can be
described by adding an additional n-dimensional array indicating the
stride lengths between extraction shape instances."

Scenario: from a year of daily temperatures, compute the mean of only
the first 2 days of every 7-day week (a "weekend climatology"), at 5x
latitude down-sampling — extraction shape {2, 5, 1} with stride
{7, 5, 1}.  Cells in the gap (days 2-6 of each week) belong to no
intermediate key; the record reader never emits them and SIDR's
dependency analysis accounts only for the cells actually consumed.

Run:  python examples/strided_climatology.py
"""

import numpy as np

from repro import (
    LocalEngine,
    StructuralQuery,
    build_sidr_job,
    get_operator,
    slice_splits,
    temperature_dataset,
)


def main() -> None:
    field = temperature_dataset(days=365, lat=30, lon=20, seed=5)
    data = field.arrays["temperature"].astype(np.float64)

    query = StructuralQuery(
        variable="temperature",
        extraction_shape=(2, 5, 1),
        operator=get_operator("mean"),
        stride=(7, 5, 1),
    )
    plan = query.compile(field.metadata)
    print("== Strided query ==")
    print(plan.describe())
    consumed = plan.num_intermediate_keys * plan.cells_per_instance
    total = plan.whole.volume
    print(f"cells consumed: {consumed:,} of {total:,} "
          f"({consumed / total:.0%}; the stride skips weekdays)")

    splits = slice_splits(plan, num_splits=12)
    job, barrier, sidr = build_sidr_job(plan, splits, 4, data)
    res = LocalEngine().run_serial(job, barrier)

    oracle = plan.reference_output(data)
    got = dict(res.all_records())
    worst = max(abs(got[k] - oracle[k]) for k in oracle)
    assert worst < 1e-9
    print(f"\nSIDR output matches the serial oracle on all "
          f"{len(oracle)} keys (max |err| = {worst:.1e})")

    # The annual cycle shows up across week indices at a fixed location.
    lat_band, lon = 2, 10
    series = [got[(w, lat_band, lon)] for w in range(plan.intermediate_space[0])]
    print(f"\nweekend-mean series at lat band {lat_band}, lon {lon}:")
    coolest = int(np.argmin(series))
    warmest = int(np.argmax(series))
    for w in sorted({0, coolest, warmest, len(series) - 1}):
        marker = (
            " <- warmest" if w == warmest
            else " <- coolest" if w == coolest
            else ""
        )
        print(f"  week {w:2d}: {series[w]:6.2f} degF{marker}")
    print(f"\nseasonality check: warmest and coolest weeks are "
          f"{abs(warmest - coolest)} weeks apart (~half a year expected)")

    print(f"\nshuffle connections: {res.shuffle_connections} "
          f"(vs {len(splits) * 4} all-to-all)")


if __name__ == "__main__":
    main()
