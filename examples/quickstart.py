"""Quickstart: simulate a small corpus, train M2AI, evaluate.

Runs the whole stack end to end in a couple of minutes:

1. renders four two-person activity classes through the multipath
   backscatter simulator (calibration bootstrap + activity inventory);
2. preprocesses the LLRP phase stream into pseudospectrum and
   periodogram frames;
3. trains the CNN+LSTM engine and prints held-out accuracy and the
   confusion matrix.

Usage::

    python examples/quickstart.py [--full]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core import M2AIConfig, M2AIPipeline
from repro.data import GenerationConfig, SyntheticDatasetGenerator
from repro.motion import SCENARIO_LABELS, SCENARIOS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="use all 12 classes and more samples"
    )
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # The default subset picks four *contrastive* scenarios; the
    # first four classes all differ only in person 1's movement
    # and need more data to separate (use --full for all 12).
    labels = SCENARIO_LABELS if args.full else ("A01", "A03", "A07", "A11")
    config = GenerationConfig(
        scenario_labels=labels,
        samples_per_class=12 if args.full else 10,
        duration_s=6.0,
        seed=args.seed,
    )
    print(f"Simulating {len(labels)} activity classes "
          f"x {config.samples_per_class} samples in the {config.environment} ...")
    for label in labels:
        print(f"  {label}: {SCENARIOS[label].description}")

    t0 = time.perf_counter()
    dataset = SyntheticDatasetGenerator(config).generate()
    print(f"Simulated + featurised {len(dataset)} samples "
          f"in {time.perf_counter() - t0:.0f} s; channels: {dataset.channel_shapes}")

    rng = np.random.default_rng(args.seed)
    train, test = dataset.split(0.2, rng)
    # The best epoch is chosen on val, carved out of train: the test
    # split stays unseen until the final score.
    train, val = train.split(0.2, rng)
    print(f"Training M2AI (CNN+LSTM) on {len(train)} samples "
          f"({len(val)} held out for epoch selection) ...")
    t0 = time.perf_counter()
    pipeline = M2AIPipeline(M2AIConfig(epochs=35, batch_size=12, seed=args.seed))
    pipeline.fit(train, val=val)
    result = pipeline.evaluate(test)
    print(f"Done in {time.perf_counter() - t0:.0f} s.")
    print(f"\nHeld-out accuracy: {result.accuracy:.1%}  "
          f"({len(test)} test samples)")
    print("\nConfusion matrix (prediction rows / actual columns):")
    print(result.confusion.render())


if __name__ == "__main__":
    main()
