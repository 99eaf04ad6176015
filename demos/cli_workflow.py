"""The command-line workflow: dataset in, reproducible artifacts out.

Writes a synthetic CSV and configs to a scratch directory, then drives the
``fit``, ``test`` and ``simulate`` subcommands through the same entry point
the console script uses, and shows the emitted files.
"""

import tempfile
from pathlib import Path

import numpy as np

from rkhstest.cli import main

root = Path(tempfile.mkdtemp(prefix="rkhstest_demo_"))
print(f"working in {root}\n")

rng = np.random.default_rng(5)
x = rng.uniform(-2, 2, (200, 3))
y = 0.5 * x[:, 0] - 0.3 * x[:, 1] + 0.4 * x[:, 2] ** 2 + 0.4 * rng.standard_normal(200)
csv_path = root / "data.csv"
csv_path.write_text(
    "y,x1,x2,x3\n"
    + "\n".join(f"{a},{b},{c},{d}" for a, (b, c, d) in zip(y, x))
    + "\n"
)

fit_cfg = root / "fit.yaml"
fit_cfg.write_text(
    f"""seed: 1
data: {{path: {csv_path}}}
kernels:
  r0:
    kind: sum
    terms:
      - {{kind: polynomial, degree: 8, decay: 2.2, coords: [0]}}
      - {{kind: polynomial, degree: 8, decay: 2.2, coords: [1]}}
      - {{kind: polynomial, degree: 8, decay: 2.2, coords: [2]}}
fit: {{iterations: 300}}
"""
)

test_cfg = root / "test.yaml"
test_cfg.write_text(
    f"""seed: 2
data: {{path: {csv_path}}}
kernels:
  r0: {{kind: linear, coords: [0, 1, 2]}}
fit: {{iterations: 300}}
test:
  instrument_mode: series_features
  features: [[0, 2, 8], [1, 2, 8], [2, 2, 8]]
  null_draws: 5000
"""
)

sim_cfg = root / "sim.yaml"
sim_cfg.write_text(
    """seed: 3
simulate:
  design: Lin3
  null: Lin2
  n: 80
  replicates: 30
  sizes: [0.05]
  null_draws: 2000
  iterations: 200
"""
)

for label, argv in (
    ("fit", ["fit", "--config", str(fit_cfg), "--out", str(root / "model")]),
    ("test", ["test", "--config", str(test_cfg), "--out", str(root / "check")]),
    ("simulate", ["simulate", "--config", str(sim_cfg), "--out", str(root / "study"),
                  "--threads", "2"]),
):
    print(f"$ rkhstest {' '.join(argv)}")
    code = main(argv)
    print(f"  -> exit {code}\n")

print("test result (aligned text):")
print((root / "check" / "test_result.txt").read_text())
print("study table:")
print((root / "study" / "rejections.txt").read_text())
print("every run also echoes its resolved config:")
print((root / "study" / "config.yaml").read_text().splitlines()[0], "...")
