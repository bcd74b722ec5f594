"""Walkthrough: AdaBoost vs RUSBoost on imbalanced toy data.

Fits both ensembles on a 10:1 imbalanced problem and compares minority
recall.
"""

import numpy as np

from ecgalarm.ensemble import fit_adaboost, fit_rusboost

rng = np.random.default_rng(0)
n_neg, n_pos = 300, 30
X = np.vstack([
    rng.normal(0.0, 1.0, (n_neg, 4)),
    rng.normal(1.8, 1.0, (n_pos, 4)),
])
y = np.array([-1] * n_neg + [1] * n_pos)
holdout = rng.permutation(len(y))[:80]
train = np.setdiff1d(np.arange(len(y)), holdout)
print(f"train: {len(train)} rows ({np.sum(y[train] > 0)} positive), holdout: {len(holdout)}")

ada = fit_adaboost(X[train], y[train], rounds=30, learning_rate=0.1, max_splits=20)
rus = fit_rusboost(X[train], y[train], rounds=30, learning_rate=0.1, max_splits=20, seed=7)

pos = y[holdout] > 0
for name, model in (("AdaBoost", ada), ("RUSBoost", rus)):
    pred = model.predict(X[holdout])
    recall = np.mean(pred[pos] == 1)
    acc = np.mean(pred == y[holdout])
    print(f"  {name:9s} rounds kept: {len(model.trees):2d}   "
          f"accuracy {acc:.2f}   minority recall {recall:.2f}")

