"""Classifier shoot-out: a compact rerun of the paper's Fig. 9.

Trains M2AI and all ten conventional baselines on one simulated corpus
and prints the accuracy ladder as a bar chart.

Usage::

    python examples/classifier_comparison.py [--classes N]
"""

from __future__ import annotations

import argparse
import time

from repro.core import M2AIConfig
from repro.data import GenerationConfig
from repro.eval import bar_chart, eval_baselines, get_dataset, train_eval_m2ai
from repro.motion import SCENARIO_LABELS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=6, help="activity classes to use")
    parser.add_argument("--samples", type=int, default=12, help="samples per class")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # Spread the class subset across the scenario list so small
    # runs compare contrastive activities.
    step = max(1, len(SCENARIO_LABELS) // args.classes)
    subset = SCENARIO_LABELS[::step][: args.classes]
    config = GenerationConfig(
        scenario_labels=subset,
        samples_per_class=args.samples,
        duration_s=6.0,
        seed=args.seed,
    )
    if args.samples < 12:
        print("note: below ~12 samples/class the comparison is noise-"
              "dominated (tiny test split); the deep model's lead needs data.")
    print(f"Simulating {args.classes} classes x {args.samples} samples ...")
    t0 = time.perf_counter()
    dataset = get_dataset(config)
    print(f"  done in {time.perf_counter() - t0:.0f} s")

    print("Training M2AI ...")
    t0 = time.perf_counter()
    m2ai, _ = train_eval_m2ai(
        config, M2AIConfig(epochs=35, batch_size=12, seed=args.seed), split_seed=args.seed
    )
    print(f"  done in {time.perf_counter() - t0:.0f} s")

    print("Training the ten conventional baselines ...")
    t0 = time.perf_counter()
    scores = eval_baselines(dataset, split_seed=args.seed)
    print(f"  done in {time.perf_counter() - t0:.0f} s\n")

    # Test accuracies throughout; the best baseline is picked on val.
    ladder = {"M2AI (CNN+LSTM)": m2ai.accuracy}
    tests = {name: score.test for name, score in scores.items()}
    ladder.update(sorted(tests.items(), key=lambda kv: -kv[1]))
    print(bar_chart(ladder))
    best = max(scores, key=lambda name: scores[name].val)
    best_baseline = scores[best].test
    print(f"\nM2AI vs best baseline ({best}): {m2ai.accuracy:.1%} vs {best_baseline:.1%} "
          f"({(m2ai.accuracy - best_baseline) * 100:+.0f} points; "
          f"paper reports +27 points at full scale)")


if __name__ == "__main__":
    main()
