"""Pinned predictions of every model kind, bit for bit.

For each kind and task, the sha256 of ``predict`` and, for classifiers,
``predict_proba`` on a query batch, its first row and zero rows. This pins
the paths the golden CLI configs never fit: gbt, knn and linear classifiers,
one-vs-rest boosting, GOSS, row/column-subsampled and column-only subsampled
boosting. The pipeline and fusion cases pin the composite models, each
on a mixed-column table with a categorical effect.
"""

import hashlib

import numpy as np
import pytest

from incdur.dataset import PlantedEffect, SynthConfig, encode, synthesize
from incdur.models import (
    BoostParams,
    ForestParams,
    KnnParams,
    LinearParams,
    TreeParams,
    fit_model,
)
from incdur.scenarios import fit_fusion, fit_pipeline

PARAMS = {
    "tree": ("tree", TreeParams(max_depth=4)),
    "gbt": ("gbt", BoostParams(n_rounds=12, max_depth=3)),
    "gbt-reg": ("gbt-reg", BoostParams(n_rounds=12, max_depth=3, reg_lambda=2.0,
                                       gamma=0.01)),
    "random-forest": ("random-forest", ForestParams(n_trees=9, max_depth=5)),
    "knn": ("knn", KnnParams(k=5)),
    "linear": ("linear", LinearParams(ridge=0.1)),
    "gbt-goss": ("gbt", BoostParams(n_rounds=10, max_depth=3, goss=(0.2, 0.3))),
    "gbt-reg-subsample": ("gbt-reg", BoostParams(n_rounds=10, max_depth=3,
                                                 subsample=0.7, colsample=0.6)),
    "gbt-colsample": ("gbt", BoostParams(n_rounds=10, max_depth=3, colsample=0.6)),
    "gbt-reg-colsample": ("gbt-reg", BoostParams(n_rounds=10, max_depth=3,
                                                 colsample=0.5, gamma=0.01)),
}

#: task label: (task, target transform, classes; 0 means regression)
TASKS = {
    "regression": ("regression", "none", 0),
    "log1p": ("regression", "log1p", 0),
    "binary": ("classification", "none", 2),
    "3-class": ("classification", "none", 3),
}

#: sha256 of every prediction output of each (model, task) case (numpy 2.4.6)
DIGESTS = {
    ("tree", "regression"):
        "da4cf29187d4bd32eb48d02a45a86b19c1afc7b21f4e139f650bd287f3f1015e",
    ("tree", "log1p"):
        "99cdca2487a40627002c938c2e7aa2bfe85a10a823f7cd50fe2573860e987084",
    ("tree", "binary"):
        "5084c34d1d6aec32914b9111784d33a5c1a8f5b96d3826a942e00b64dd88ee59",
    ("tree", "3-class"):
        "a55ffb0ef82ee8db2f1eb871c8ab69aa787e95c6c01c2e7d3e4260a9084b9901",
    ("gbt", "regression"):
        "dbd98c11e8663b3ad95f414fe571c7c728cdb91bf8611e6bc0efee124ba3f472",
    ("gbt", "log1p"):
        "ac99c7fc6a6fef21f7f6134b999775e09ca4164228a115e9369351d408674b92",
    ("gbt", "binary"):
        "aae6fc38207bf44e98fe006ce619ab66394706cee149a38acec6c5bf36b15c9f",
    ("gbt", "3-class"):
        "2b954e6312809fa25c861c9a9f0f50e49b8fbcf6b4146ab1f971e75e7082cb1a",
    ("gbt-reg", "regression"):
        "21710f731265110a6e85666763836585499baf459c6091a4179c582ade7871c2",
    ("gbt-reg", "log1p"):
        "db07f6b005d6cbce6c125f890841a9ed8e6cd5ed88f5bfed852e9c74261baafb",
    ("gbt-reg", "binary"):
        "cb482f9eb4b9ab0e620e5a957798ef3462c9b723dd17b99fe6993fe01e7362d2",
    ("gbt-reg", "3-class"):
        "3ebb3619cc70d193a14f4476e4ad509a8d40eaade54ff207bbf76b918bd48aa5",
    ("random-forest", "regression"):
        "b5b688e2a789cd9cfed0fa9a33c68a2339d444933b2ed1dc93b77e7947f41eb9",
    ("random-forest", "log1p"):
        "da3aa332337dff8c68c553eb2268d42a1f8107bdfa1b1ba5a594e3fe02ffac67",
    ("random-forest", "binary"):
        "31d99d92e0a1748a7772f6989f5d1df64d441920f393441ee650009edde90e04",
    ("random-forest", "3-class"):
        "d2a0728ead9d89e8b5def6c552039fba0f7f983c260c1dcb59df9c8c54370112",
    ("knn", "regression"):
        "ca29822b22b24c2137e777bdf1070682dd59a0bb7b4a86ee84da58359380c562",
    ("knn", "log1p"):
        "82913aaa5550f88815767d63929d28a44fdaca54c25d89b5cf9a84be07e2c37d",
    ("knn", "binary"):
        "e9e12ee44b0bc57f53f97788d6454466469493c3d3661be90e3e0f2a20f60bff",
    ("knn", "3-class"):
        "04943afd8deb58ebef2a09cc498bae85c0471df225b7660642126553d7abaee0",
    ("linear", "regression"):
        "345ba1aa38b4314561b4aa1d6d3021452f781af8e0229cc1e23863330944cef3",
    ("linear", "log1p"):
        "abf103864cbc22566236395f7bc4f01411d97be137cc95e5f44d0688393d8e7b",
    ("linear", "binary"):
        "2bb287b47758860285f5b783119f0669cf491dce17908d159ccbfaa13a844491",
    ("linear", "3-class"):
        "8b2a52f98da2ed0887c1e3302a84a4b8ec6696659b823ba3d71f00f1f3f372f5",
    ("gbt-goss", "regression"):
        "bd87909f7e995fc31be3032978a0a65a2321138ef3f09b96443b2792f15c25f0",
    ("gbt-goss", "log1p"):
        "7078c31b6c3d49a1cfc685b16aa3dcafa000c79dff7030270a346ab3c9c4b446",
    ("gbt-goss", "binary"):
        "68616b0cff92066a688e36beb6ea41be44412c762a7cf527dd304ddcc6391bb0",
    ("gbt-goss", "3-class"):
        "1c4e27d41fb21965096357eb08c5a95ee06cf4ac803c14cbe1de1ea9f04dcb49",
    ("gbt-reg-subsample", "regression"):
        "3d864fc1faf78a0f9cdebfc1a870e1e508e83aa63d8927a6e139f73580bcacc2",
    ("gbt-reg-subsample", "log1p"):
        "444af843e68acf96ad1f4d8883df6c55668c61cc2e6ce063e2d2b8dfd6dd048e",
    ("gbt-reg-subsample", "binary"):
        "7c2415d94391076ead5fc55f854d0059eafed73443bdcc327156780389d4de45",
    ("gbt-reg-subsample", "3-class"):
        "efafec9866739c2dcab4ce1ca5ef4411864fb4922d71693df5786ab837acbe75",
    ("gbt-colsample", "regression"):
        "b06c078475d20112241a99601d18744e3c85bea91c2e47bd731d400d4931b5b0",
    ("gbt-colsample", "log1p"):
        "9e1dce5de00602e22c801e7a7d71d270c50089432ee705271642929757aea654",
    ("gbt-colsample", "binary"):
        "87b25e9f5454128e277c847201585cf4cd20e9ecacf5b12a6e26f0f387f8b30a",
    ("gbt-colsample", "3-class"):
        "dc009c497f5e29b826a5af5f9c7db6ce4632f9f04673fa826d4d390df70d67ab",
    ("gbt-reg-colsample", "regression"):
        "f1eef8303193653b6299f3e3f177a2fdd8fe9f5b7d4466d62d346803bcb5a975",
    ("gbt-reg-colsample", "log1p"):
        "0d413b6dbd716391f2d1ac94aa8e457f0ff5f6b8ff5cd63ac369a94d712ba209",
    ("gbt-reg-colsample", "binary"):
        "c795532a5b01ac91de8a2c7136fbf55c6678c3365bb8c2c5682bb351326dd338",
    ("gbt-reg-colsample", "3-class"):
        "996fbaa33a4fb1fec4be8c5b07d20e1e1ac4be3ea4ab74c717befff0451c3af6",
}


def _digest(name, task_name):
    kind, params = PARAMS[name]
    task, transform, n_classes = TASKS[task_name]
    rng = np.random.default_rng(7)
    X = rng.normal(size=(150, 5))
    y = np.exp(X[:, 0] + 0.5 * X[:, 1] ** 2 + rng.normal(scale=0.3, size=150))
    if n_classes:
        y = np.digitize(y, np.quantile(y, np.linspace(0, 1, n_classes + 1)[1:-1]))
    model = fit_model(kind, X, y, params, task=task, target_transform=transform,
                      seed=4)
    Q = rng.normal(size=(40, 5))
    h = hashlib.sha256()
    for rows in (Q, Q[:1], Q[:0]):
        outputs = [model.predict(rows)]
        if n_classes:
            outputs.append(model.predict_proba(rows))
        for out in outputs:
            out = np.ascontiguousarray(out)
            h.update(f"{out.shape} {out.dtype}".encode())
            h.update(out.tobytes())
    return h.hexdigest()


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="prediction digests are pinned for numpy 2.4.6, the version CI "
           "installs; other numpy versions may round differently",
)
@pytest.mark.parametrize("task_name", list(TASKS))
@pytest.mark.parametrize("name", list(PARAMS))
def test_predictions_match_pinned_digests(name, task_name):
    assert _digest(name, task_name) == DIGESTS[name, task_name]


#: case label: (base kinds: classifier, regressor A, B and all, target
#: transform). The categorical's indicators sum to the linear model's
#: intercept column, so its ridge-free fit is the minimum-norm least-squares
#: solution.
COMPOSITE_KINDS = {
    "tree": (("tree",) * 4, "none"),
    "mixed-log1p": (("random-forest", "gbt-reg", "linear", "gbt"), "log1p"),
}

#: sha256 of the composite model's predictions (numpy 2.4.6)
COMPOSITE_DIGESTS = {
    ("pipeline", "tree"):
        "1f86916b45a6d6dd10692c146fd33db0c311dddf0f1225c1b1afa165f4cd30f5",
    ("pipeline", "mixed-log1p"):
        "53a2afbfd94d690dfc088c0de104d607a742dd6a0d68c1fdb9f9284232553dde",
    ("fusion", "tree"):
        "f2c26e3ec1ab4843c48786f51c958d8d4bbae52673698b7b29b8b8caf28debc8",
    ("fusion", "mixed-log1p"):
        "51ee71af6735c7780f249f9cb9e0f66f09b860e0e9bcb875e7970af6dbf6dc49",
}


def _composite_digest(composite, case):
    kinds, transform = COMPOSITE_KINDS[case]
    ds = synthesize(SynthConfig(n=240, seed=22, mu=3.6, sigma=0.8, effects=(
        PlantedEffect("x", "numeric", slope=1.2),
        PlantedEffect("flag", "boolean", multiplier=1.8),
        PlantedEffect("road", "categorical", levels=("a", "b", "c", "d"),
                      multipliers=(1.0, 1.6, 0.7, 2.4)),
    )))
    train, query = np.arange(200), np.arange(200, 240)
    values = encode(ds, train)
    X, y = values[train], ds.durations[train]
    if composite == "pipeline":
        model = fit_pipeline(kinds[:3], X, y, tc=45.0, seed=3,
                             target_transform=transform)
    else:
        model = fit_fusion(kinds, X, y, tc=45.0, folds=4, seed=3,
                           target_transform=transform)
    h = hashlib.sha256()
    for rows in (query, query[:1]):
        out = np.ascontiguousarray(model.predict(values[rows]))
        h.update(f"{out.shape} {out.dtype}".encode())
        h.update(out.tobytes())
    return h.hexdigest()


@pytest.mark.skipif(
    np.__version__ != "2.4.6",
    reason="prediction digests are pinned for numpy 2.4.6, the version CI "
           "installs; other numpy versions may round differently",
)
@pytest.mark.parametrize("case", list(COMPOSITE_KINDS))
@pytest.mark.parametrize("composite", ["pipeline", "fusion"])
def test_composite_predictions_match_pinned_digests(composite, case):
    assert _composite_digest(composite, case) == COMPOSITE_DIGESTS[composite, case]
