"""Train the AND task with all three gradient engines and show that the
loss trajectories coincide step for step."""

from dualgrad.trainer import ENGINES, TrainConfig, train

logs = {}
for engine in ENGINES:
    cfg = TrainConfig(dataset="and", engine=engine, learning_rate=0.5,
                      epochs=2000, batch_mode="per_sample", rng_seed=0)
    logs[engine] = train(cfg)

print(f"{'epoch':>6}  " + "".join(f"{e:>16}" for e in ENGINES))
for i in (0, 9, 99, 499, 999, 1999):
    row = "".join(f"{logs[e].records[i].mean_loss:>16.10f}" for e in ENGINES)
    print(f"{i + 1:>6}  {row}")

base = logs["ones"].loss_curve()
for engine in list(ENGINES)[1:]:
    gap = max(abs(a - b) for a, b in zip(base, logs[engine].loss_curve()))
    print(f"max |loss(ones) - loss({engine})| over 2000 epochs: {gap:.3e}")
