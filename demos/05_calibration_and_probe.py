"""Prior-aware zero-shot prediction and the sufficient-statistic probe.

Raw scores are likelihood ratios, and ranking by them alone is not Bayes
optimal when candidates have unequal priors: a worked two-disease example
shows the raw ranking picking the rare disease while the calibrated
posterior (exp(score) * prior, normalized) picks the common one.

The second half demonstrates that the element-wise product of two
modalities' trained representations suffices to predict the third: a
single affine probe reads the target off the product features.
"""

import numpy as np

from symile.data import SplitSpec, gen_synth, split
from symile.diagnostics import calibration_example
from symile.evaluation import sufficient_statistic_probe
from symile.model import init_params
from symile.train import TrainConfig, train


def main():
    ex = calibration_example()
    print("Two diseases (a common, b rare) scored at temperature 101:")
    print(f"  priors:            a={ex.prior[0]:.2f}, b={ex.prior[1]:.2f}")
    print(f"  likelihood ratios: a={np.exp(ex.scores[0]):.4f}, b={np.exp(ex.scores[1]):.4f}")
    print(f"  raw-score ranking picks:        {'ab'[ex.raw_ranking[0]]}")
    print(f"  calibrated posterior:           a={ex.posterior[0]:.2f}, b={ex.posterior[1]:.2f}")
    print(f"  prior-aware ranking picks:      {'ab'[ex.prior_aware_ranking[0]]}")

    print("\nSufficient-statistic probe on the five-dimensional task:")
    spec = SplitSpec(10_000, 1_000, 5_000)
    dataset = gen_synth(spec.total, 1.0, seed=0)
    train_ds, val_ds, test_ds = split(dataset, spec)
    cfg = TrainConfig(objective="symile", epochs=25, seed=0)
    out = train(cfg, train_ds, val_ds)

    trained = sufficient_statistic_probe(
        out.checkpoint.params, train_ds, test_ds, target="b", seed=0
    )
    untrained = sufficient_statistic_probe(
        init_params({"a": 5, "b": 5, "c": 5}, cfg.d_out, seed=123),
        train_ds,
        test_ds,
        target="b",
        seed=0,
    )
    print(f"  probe on trained features:   {trained.accuracy:.4f} ({trained.n_classes} classes)")
    print(f"  probe on untrained features: {untrained.accuracy:.4f}")
    print("  the product of trained a- and c-representations carries all of b")


if __name__ == "__main__":
    main()
