"""Train both objectives on the one-dimensional XOR task.

The target b is perfectly predictable from (a, c), yet the pairwise
objective scores candidates additively per query modality and so cannot
express the XOR pattern: it stays at chance (0.5).  The multilinear
objective solves the task outright.

Uses a shortened schedule for demo speed; the full benchmark recipe
(100 epochs) is exercised by tests/test_acceptance.py.
"""

import numpy as np

from symile.data import SplitSpec, gen_xor1d, split
from symile.evaluation import candidate_scores, classify_target
from symile.train import TrainConfig, train


def main():
    spec = SplitSpec(10_000, 1_000, 5_000)
    dataset = gen_xor1d(spec.total, seed=0)
    train_ds, val_ds, test_ds = split(dataset, spec)

    results = {}
    for objective in ("symile", "pairwise_clip"):
        cfg = TrainConfig(objective=objective, epochs=25, seed=0)
        out = train(cfg, train_ds, val_ds)
        retrieval = classify_target(out.checkpoint.params, objective, test_ds, target="b")
        results[objective] = (out, retrieval.accuracy)
        print(
            f"{objective:>14}: best epoch {out.checkpoint.epoch:3d}, "
            f"val loss {out.checkpoint.val_loss:.4f}, "
            f"zero-shot accuracy {retrieval.accuracy:.4f}"
        )

    print("\nScore matrix of the trained multilinear model, by query cell:")
    params = results["symile"][0].checkpoint.params
    a, c = np.array([[0.0], [0.0], [1.0], [1.0]]), np.array([[0.0], [1.0], [0.0], [1.0]])
    scores = candidate_scores(params, "symile", {"a": a, "c": c}, "b", np.array([[0.0], [1.0]]))
    print(f"{'(a, c)':>8}  {'score b=0':>10}  {'score b=1':>10}  predicted  truth")
    for (ai, ci), row in zip(zip(a[:, 0], c[:, 0]), scores):
        pred = int(row.argmax())
        truth = int(ai) ^ int(ci)
        print(
            f"  ({int(ai)}, {int(ci)})  {row[0]:10.4f}  {row[1]:10.4f}  "
            f"{pred:9d}  {truth:5d}"
        )

if __name__ == "__main__":
    main()
