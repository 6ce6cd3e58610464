"""
Empirical bootstrap pipeline
============================

End-to-end run on a synthetic monthly-temperature fixture: seasonal
cycle and trend removal, AR(1) innovations per station, an exact 1D
two-cluster split on the innovation variances, and bootstrap winner
probabilities compared to the theoretical limits at the empirically
recovered sigma ratio.  The same pipeline runs on any file in the
`station_id,latitude,longitude,year,month,tavg_c` layout via
`gausswinner empirical --input FILE`.
"""

import tempfile
from pathlib import Path

from gausswinner import (
    RngStream,
    empirical_study,
    load_stations,
    run_pipeline,
    write_synthetic_stations,
)

with tempfile.TemporaryDirectory() as folder:
    path = Path(folder) / "stations.csv"
    truth = write_synthetic_stations(path, n_low=60, n_high=35, seed=11, missing_rate=0.02)
    print(f"fixture: {truth.n_low}+{truth.n_high} stations, phi={truth.phi}, "
          f"true sigma ratio {truth.sigma_ratio}")

    stations = load_stations(path)
result = run_pipeline(stations)
print(f"loaded {len(stations)} stations after box/completeness filters")
print(f"variance split: {len(result.pool_low.indices)} low / {len(result.pool_high.indices)} high")
print(f"recovered sigma ratio: {result.pool_high.sd / result.pool_low.sd:.4f}")
phis = [f.phi for f in result.fits]
print(f"AR(1) coefficients: mean {sum(phis)/len(phis):.3f}, "
      f"range [{min(phis):.3f}, {max(phis):.3f}]")

rows = empirical_study(
    result.pool_low,
    result.pool_high,
    c_values=[0.1, 0.6, 3.0],
    n2_grid=[10, 30, 60, 100],
    b=4_000,
    rng=RngStream(seed=99),
)

print(f"\n{'C':>5} {'n2':>5} {'n1':>8} {'p_hat':>8} {'p_limit':>8}")
for r in rows:
    print(f"{r.c:>5} {r.n2:>5.0f} {r.n1:>8.0f} {r.p_hat:>8.4f} {r.p_limit:>8.4f}")

print("\nthe bootstrap frequencies stabilize near the dashed-line limits of")
print("the theory even though the innovations are only approximately Gaussian.")
