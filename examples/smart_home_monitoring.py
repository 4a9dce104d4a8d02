"""Smart-home monitoring: streaming activity identification.

The paper motivates M2AI with healthcare and smart-home deployments
that must recognise what several residents are doing in real time.
This example trains a compact model, then simulates a continuous
monitoring session in which the residents switch activities every few
seconds; the trained pipeline classifies each observation window as it
closes, streaming decisions the way a deployment would.

Usage::

    python examples/smart_home_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro.core import M2AIConfig, M2AIPipeline
from repro.core.dataset import ActivityDataset
from repro.data import GenerationConfig, SyntheticDatasetGenerator
from repro.motion import SCENARIOS

ACTIVITIES = ("A01", "A03", "A07", "A11")
WINDOW_S = 6.0


def main() -> None:
    rng = np.random.default_rng(3)
    config = GenerationConfig(
        scenario_labels=ACTIVITIES,
        samples_per_class=8,
        duration_s=WINDOW_S,
        seed=3,
    )
    generator = SyntheticDatasetGenerator(config)

    print("Training the monitor on", len(ACTIVITIES), "home activities:")
    for label in ACTIVITIES:
        print(f"  {label}: {SCENARIOS[label].description}")
    dataset = generator.generate()
    train, test = dataset.split(0.2, rng)
    # The best epoch is chosen on val, carved out of train, so the
    # held-out score below comes from recordings no choice has seen.
    train, val = train.split(0.2, rng)
    pipeline = M2AIPipeline(M2AIConfig(epochs=35, batch_size=12, seed=3))
    pipeline.fit(train, val=val)
    print(f"Monitor ready (held-out accuracy "
          f"{pipeline.evaluate(test).accuracy:.0%}).\n")

    print("Streaming session: residents change activity every window.")
    schedule = [str(rng.choice(ACTIVITIES)) for _ in range(6)]
    hits = 0
    for window_index, truth in enumerate(schedule):
        # Each window is a fresh recording of the scheduled activity —
        # the monitor never saw these executions during training.
        window_cfg = GenerationConfig(
            scenario_labels=(truth,),
            samples_per_class=1,
            duration_s=WINDOW_S,
            seed=1000 + window_index,
        )
        sample = SyntheticDatasetGenerator(window_cfg).generate()
        window = ActivityDataset(samples=sample.samples, labels=sample.labels)
        prediction = pipeline.predict(window)[0]
        ok = prediction == truth
        hits += int(ok)
        t0 = window_index * WINDOW_S
        status = "ok " if ok else "MISS"
        print(f"  [{t0:5.1f}s - {t0 + WINDOW_S:5.1f}s] truth={truth} "
              f"predicted={prediction}  {status}  "
              f"({SCENARIOS[truth].description})")
    print(f"\nStreaming accuracy: {hits}/{len(schedule)}")


if __name__ == "__main__":
    main()
