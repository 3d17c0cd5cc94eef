#!/usr/bin/env python3
# End-to-end training demo, small enough to finish in well under a minute.
#
# Simulated 8-element array snapshots at 24 GHz (three arrival angles, complex
# noise std 0.1) are labeled with the fast transform of the noisy snapshot.
# The structured net then learns the transform from data alone.  Seeds are
# fixed; rerunning reproduces the numbers exactly.

import csv

from dvmbeam.network import NetworkConfig, build_network
from dvmbeam.signals import make_dataset, split_dataset
from dvmbeam.training import OptimizerConfig, train

ds = make_dataset(n=8, freq=24e9, angles_deg=[30.0, 40.0, 50.0],
                  samples_per_angle=600, noise_std=0.1, seed=100)
tr, va = split_dataset(ds, train_fraction=0.8, seed=100)
print(f"dataset: {ds.n_samples} samples, {tr.n_samples} train / {va.n_samples} val")
print(f"transform alpha: {ds.alpha:.6f}")

cfg = NetworkConfig(n=8, p=1, depth=4, delay_alpha=ds.alpha, seed=3)
net = build_network(cfg)
opt = OptimizerConfig(name="adam", lr=3e-2, batch_size=32, epochs=1000,
                      seed=3, target_mse=1e-3)
report = train(net, tr.x, tr.y, va.x, va.y, opt)

print(f"\nparameters: {report.param_count}")
print(f"stopped: {report.stop_reason} after {report.epochs_run} epochs "
      f"({report.steps_run} steps, {report.wall_time_s:.1f}s)")
for ep in range(0, report.epochs_run, max(1, report.epochs_run // 12)):
    print(f"  epoch {ep:4d}  train {report.train_mse[ep]:.3e}  "
          f"val {report.val_mse[ep]:.3e}")
print(f"final: train {report.final_train_mse:.3e}  val {report.final_val_mse:.3e}")

# plot-ready curve and the full report for the record
with open("training_curve.csv", "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["epoch", "train_mse", "val_mse"])
    for ep, (a, b) in enumerate(zip(report.train_mse, report.val_mse)):
        w.writerow([ep, f"{a:.10e}", f"{b:.10e}"])
report.save("training_report.json")
print("\nwrote training_curve.csv and training_report.json")
print(f"report digest: {report.digest()[:16]}")
