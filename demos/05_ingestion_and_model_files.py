"""Ingesting delimited production data and persisting fitted models.

Builds a messy long-form export on disk (duplicate clock-change rows, a
short gap, a zone offset), ingests it into a clean panel, round-trips the
wide format, and writes/reads a model file. The same operations are exposed
on the command line:

    windvecm fit --data export.csv --p 2 --rank 1 --out model.txt
    windvecm backtest --data export.csv --out results/
    windvecm combine --data export.csv --model-a 7,6 --model-b 2,1 --window 768
"""

import tempfile
from pathlib import Path

import numpy as np

from windvecm import (
    fit_vecm,
    load_panel,
    read_model,
    save_wide,
    write_model,
)

workdir = Path(tempfile.mkdtemp(prefix="windvecm_demo_"))

# ---------------------------------------------------------------------------
# A small long-form export with the usual real-world blemishes
# ---------------------------------------------------------------------------
rng = np.random.default_rng(1)
lines = ["timestamp,region,value"]
base = np.datetime64("2020-03-29T00:00", "s")
walk = {region: 50.0 + 10 * rng.standard_normal() for region in ("north", "south")}
for slot in range(300):
    stamp = base + slot * np.timedelta64(15, "m")
    for region in ("north", "south"):
        walk[region] += rng.standard_normal()
        if slot == 40 and region == "north":
            continue                      # one missing slot -> interpolated
        text = str(stamp)
        if slot == 8:                     # clock-change artifact: duplicate
            lines.append(f"{text},{region},{walk[region]:.3f}")
        if slot == 20:                    # an offset timestamp, same instant
            text = str(stamp + np.timedelta64(2, "h")) + "+02:00"
        lines.append(f"{text},{region},{walk[region]:.3f}")

export = workdir / "export.csv"
export.write_text("\n".join(lines) + "\n")

panel, report = load_panel([export], max_gap_slots=8)
print("panel:", panel.values.shape, panel.labels)
print("report:", report)

# ---------------------------------------------------------------------------
# Wide-format export round-trips bit-exactly
# ---------------------------------------------------------------------------
wide = workdir / "panel_wide.csv"
save_wide(panel, wide)
again, _ = load_panel([wide])
print("wide round-trip exact:", np.array_equal(again.values, panel.values))

# ---------------------------------------------------------------------------
# Fit, persist, reload: 17-significant-digit text survives unchanged
# ---------------------------------------------------------------------------
model = fit_vecm(panel, p=2, r=1)
model_file = workdir / "model.txt"
write_model(model, model_file)
loaded = read_model(model_file)
print("model file round-trip exact:",
      np.array_equal(model.alpha, loaded.alpha)
      and np.array_equal(model.beta, loaded.beta))
print("\nfiles under", workdir)
for path in sorted(workdir.iterdir()):
    print("  ", path.name)
