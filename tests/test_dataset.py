"""Loading, encoding, synthesis and profiling."""

import numpy as np
import pytest

from incdur.dataset import (
    Dataset,
    DatasetError,
    Encoder,
    FeatureColumn,
    FeatureSchema,
    PlantedEffect,
    SynthConfig,
    ecdf_at,
    encode,
    load_csv,
    profile,
    synthesize,
)


def schema(*cols, target="duration"):
    return FeatureSchema(columns=tuple(cols), target_column=target)


def test_load_csv_identity(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("hour,type,duration\n1,a,10\n2,b,20\n3,a,30\n")
    ds = load_csv(
        p,
        schema(FeatureColumn("hour", "numeric"), FeatureColumn("type", "categorical")),
    )
    assert len(ds) == 3
    assert ds.durations.tolist() == [10.0, 20.0, 30.0]


def test_load_csv_drops_unparseable_target(tmp_path):
    p = tmp_path / "d.csv"
    lines = ["x,duration"] + [f"{i},{i}" for i in range(1, 10)] + ["9,abc"]
    p.write_text("\n".join(lines) + "\n")
    ds = load_csv(p, schema(FeatureColumn("x", "numeric")))
    assert len(ds) == 9
    assert ds.load_report["n_dropped"] == 1


def test_load_csv_column_map(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("H,D\n5,12\n")
    ds = load_csv(
        p,
        schema(FeatureColumn("hour", "numeric")),
        column_map={"hour": "H", "duration": "D"},
    )
    assert ds.durations.tolist() == [12.0]


def test_load_csv_errors(tmp_path):
    with pytest.raises(DatasetError):
        load_csv(tmp_path / "nope.csv", schema(FeatureColumn("x", "numeric")))
    p = tmp_path / "d.csv"
    p.write_text("y,duration\n1,2\n")
    with pytest.raises(DatasetError):
        load_csv(p, schema(FeatureColumn("x", "numeric")))
    p2 = tmp_path / "e.csv"
    p2.write_text("x,duration\n1,abc\n")
    with pytest.raises(DatasetError):
        load_csv(p2, schema(FeatureColumn("x", "numeric")))


@pytest.mark.parametrize(
    "kind, cell, line",
    [("numeric", "abc", 3), ("boolean", "maybe", 3), ("boolean", "2", 3)],
)
def test_load_csv_rejects_unparseable_cells(tmp_path, kind, cell, line):
    p = tmp_path / "d.csv"
    p.write_text(f"x,duration\n1,10\n{cell},20\n0,30\n")
    with pytest.raises(DatasetError, match=f"'x', CSV line {line}: '{cell}'"):
        load_csv(p, schema(FeatureColumn("x", kind)))


def test_load_csv_keeps_empty_cells_missing(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,b,duration\n1,yes,10\n,,20\n3,0.0,30\n")
    ds = load_csv(p, schema(FeatureColumn("x"), FeatureColumn("b", "boolean")))
    assert ds.rows == ((1.0, 1.0), (None, None), (3.0, 0.0))
    assert ds.load_report == {"n_rows": 3, "n_dropped": 0}


def test_encode_one_hot_levels_sorted():
    ds = Dataset(
        schema=schema(FeatureColumn("direction", "categorical")),
        rows=(("N",), ("S",), ("E",)),
        durations=np.array([1.0, 2.0, 3.0]),
    )
    enc = Encoder.fit(ds)
    assert enc.feature_names == ("direction=E", "direction=N", "direction=S")
    values = enc.transform(ds)
    assert values.tolist() == [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert (values.sum(axis=1) == 1).all()


def test_encode_numeric_passthrough_and_median():
    ds = Dataset(
        schema=schema(FeatureColumn("x", "numeric")),
        rows=((1.0,), (None,), (3.0,)),
        durations=np.array([1.0, 2.0, 3.0]),
    )
    assert encode(ds)[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_encode_imputes_np_median_bit_for_bit():
    # odd and even counts, ties, wide magnitudes and NaN cells
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        values = rng.normal(size=n) * 10.0 ** rng.integers(-30, 30)
        if rng.random() < 0.3:
            values = np.round(values)
        if rng.random() < 0.1:
            values[rng.integers(0, n)] = np.nan
        rows = [(v,) for v in values.tolist()] + [(None,)]
        ds = Dataset(schema=schema(FeatureColumn("x", "numeric")), rows=tuple(rows),
                     durations=np.ones(n + 1))
        (_, _, fill), = Encoder.fit(ds).plan
        want = np.median(values)
        assert fill == want or (np.isnan(fill) and np.isnan(want)), seed


def test_encode_unseen_level_maps_to_missing_indicator():
    train = Dataset(
        schema=schema(FeatureColumn("t", "categorical")),
        rows=(("a",), (None,)),
        durations=np.array([1.0, 2.0]),
    )
    enc = Encoder.fit(train)
    assert enc.feature_names == ("t=a", "t=missing")
    test = Dataset(
        schema=train.schema, rows=(("zzz",),), durations=np.array([1.0])
    )
    assert enc.transform(test).tolist() == [[0.0, 1.0]]


def test_encode_unseen_level_without_missing_column_is_all_zero():
    train = Dataset(
        schema=schema(FeatureColumn("t", "categorical")),
        rows=(("a",), ("b",)),
        durations=np.array([1.0, 2.0]),
    )
    enc = Encoder.fit(train)
    test = Dataset(
        schema=train.schema, rows=(("zzz",),), durations=np.array([1.0])
    )
    assert enc.transform(test).tolist() == [[0.0, 0.0]]


def test_encode_all_missing_numeric_rejected():
    ds = Dataset(
        schema=schema(FeatureColumn("x", "numeric")),
        rows=((None,), (None,)),
        durations=np.array([1.0, 2.0]),
    )
    with pytest.raises(DatasetError):
        encode(ds)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_encode_rejects_non_finite_csv_cells(tmp_path, cell):
    p = tmp_path / "d.csv"
    p.write_text(f"hour,lanes,duration\n1,2,10\n2,{cell},20\n")
    ds = load_csv(
        p, schema(FeatureColumn("hour", "numeric"), FeatureColumn("lanes", "numeric"))
    )
    with pytest.raises(DatasetError, match="column 'lanes' has non-finite values"):
        encode(ds)


def test_schema_rejects_duplicates_and_target_overlap():
    with pytest.raises(DatasetError):
        FeatureSchema(
            columns=(FeatureColumn("x", "numeric"), FeatureColumn("x", "numeric"))
        )
    with pytest.raises(DatasetError):
        FeatureSchema(
            columns=(FeatureColumn("duration", "numeric"),),
            target_column="duration",
        )


def test_synthesize_deterministic_and_median():
    cfg = SynthConfig(n=10_000, seed=42, mu=np.log(40), sigma=0.6)
    a = synthesize(cfg)
    b = synthesize(cfg)
    assert a.rows == b.rows
    assert np.array_equal(a.durations, b.durations)
    median = float(np.median(a.durations))
    assert abs(median - 40.0) / 40.0 < 0.05


def test_synthesize_single_row():
    ds = synthesize(SynthConfig(n=1, seed=0, mu=1.0, sigma=0.5))
    assert len(ds) == 1


def test_synthesize_planted_boolean_effect():
    eff = PlantedEffect("flag", "boolean", true_rate=0.5, multiplier=3.0)
    ds = synthesize(SynthConfig(n=4000, seed=3, mu=np.log(30), sigma=0.4,
                                effects=(eff,)))
    flags = np.array(ds.column_values("flag"), dtype=float)
    on = ds.durations[flags > 0].mean()
    off = ds.durations[flags == 0].mean()
    assert on / off > 2.0


def test_synthesize_corruption_indices_recorded():
    ds = synthesize(
        SynthConfig(n=1000, seed=5, mu=np.log(30), sigma=0.5,
                    corrupt_fraction=0.03, corrupt_multiplier=30.0)
    )
    idx = ds.meta["corrupted_indices"]
    assert len(idx) == 30
    clean = synthesize(SynthConfig(n=1000, seed=5, mu=np.log(30), sigma=0.5))
    ratio = ds.durations[idx] / clean.durations[idx]
    assert np.allclose(ratio, 30.0)


def test_profile_ecdf_endpoint_and_monotone():
    ds = Dataset(
        schema=schema(FeatureColumn("x", "numeric")),
        rows=((1.0,), (2.0,), (3.0,)),
        durations=np.array([1.0, 2.0, 3.0]),
    )
    rep = profile(ds)
    fractions = [f for _, f in rep.ecdf]
    assert fractions[-1] == 1.0
    assert all(b >= a for a, b in zip(fractions, fractions[1:]))


def test_profile_lognormal_wins_aic():
    ds = synthesize(SynthConfig(n=10_000, seed=7, mu=3.0, sigma=1.0))
    rep = profile(ds)
    assert rep.fitted[0]["distribution"] == "log-normal"
    aics = [f["aic"] for f in rep.fitted]
    assert aics == sorted(aics)


def test_profile_zero_shift_reported():
    ds = Dataset(
        schema=schema(FeatureColumn("x", "numeric")),
        rows=tuple((float(i),) for i in range(12)),
        durations=np.array([0.0, 0.0] + list(range(1, 11)), dtype=float),
    )
    rep = profile(ds)
    assert rep.zero_shifted == 2
    assert any(not f["failed"] for f in rep.fitted)


def _profile_of(durations):
    return profile(Dataset(
        schema=schema(FeatureColumn("x", "numeric")),
        rows=tuple((0.0,) for _ in range(durations.size)),
        durations=durations,
    ))


def _pinned_tables():
    yield "log-normal", np.exp(np.random.default_rng(0).normal(3.0, 0.8, 2000))
    u = np.random.default_rng(1).uniform(size=2000)
    yield "weibull", 50.0 * (-np.log1p(-u)) ** (1 / 1.5)
    # integer minutes: 42 distinct values and 38 zeros
    yield "rounded", np.floor(np.exp(np.random.default_rng(2).normal(1.5, 1.0, 500)))
    # 5 of 205 records x1000: a Newton in (mu, log s) from the moments of
    # log x overflows on the log-logistic
    rng = np.random.default_rng(3)
    yield "outliers", np.concatenate([np.exp(rng.normal(3.0, 0.5, 200)),
                                      1000 * np.exp(rng.normal(3.0, 0.5, 5))])


#: scipy 1.17.1's maximum-likelihood fits, in AIC order:
#: ``dist.fit(x, floc=0, optimizer=tight)`` and ``dist.logpdf(x, *params)``
#: for lognorm, fisk and weibull_min, where ``tight`` is ``optimize.fmin`` with
#: ``xtol=1e-12, ftol=1e-14``. With its default tolerances, fmin stops short on
#: the rounded table: fisk's shape reads 1.5234541, 1.5e-5 off, at a
#: log-likelihood 9.7e-8 lower.
SCIPY_FITS = {
    "log-normal": [
        ("log-normal", [0.8001579874365367, 0.0, 19.64022052679794],
         -8347.143956007983),
        ("log-logistic", [2.1836750815358865, 0.0, 19.668283124727587],
         -8366.400713058405),
        ("weibull", [1.2760283380836581, 0.0, 29.25689089799863],
         -8484.73977865259),
    ],
    "weibull": [
        ("weibull", [1.5155329034542708, 0.0, 50.2159032410273],
         -9391.308678816182),
        ("log-logistic", [2.194858252459193, 0.0, 36.91689013511704],
         -9506.424271624574),
        ("log-normal", [0.8349052215774685, 0.0, 34.39490651870495],
         -9552.819905275715),
    ],
    "rounded": [
        ("log-normal", [1.1222659719285104, 0.0, 3.593553345940893],
         -1406.7149333896723),
        ("log-logistic", [1.5234316775658525, 0.0, 3.584629918386014],
         -1418.1354226432072),
        ("weibull", [0.8870872393529086, 0.0, 6.328837922414327],
         -1450.5113855592479),
    ],
    "outliers": [
        ("log-logistic", [2.4621368765780245, 0.0, 21.15102770529718],
         -900.3254571078269),
        ("log-normal", [1.1832002984642436, 0.0, 24.351013117504394],
         -979.8456489654607),
        ("weibull", [0.43729772903391806, 0.0, 53.06115613890657],
         -1098.864222902383),
    ],
}


@pytest.mark.parametrize("table", sorted(SCIPY_FITS))
def test_profile_fits_match_pinned_scipy_fits(table):
    durations = dict(_pinned_tables())[table]
    rep = _profile_of(durations)
    assert [f["distribution"] for f in rep.fitted] == [
        name for name, _, _ in SCIPY_FITS[table]]
    for fit, (_, params, loglik) in zip(rep.fitted, SCIPY_FITS[table]):
        assert not fit["failed"]
        assert fit["params"] == pytest.approx(params, rel=1e-5)
        assert fit["log_likelihood"] >= loglik - 1e-9
        assert fit["aic"] == 2 * 2 - 2 * fit["log_likelihood"]


#: g'(u) of each family's standard log-density in z = log x
SCORES = {
    "log-normal": lambda u: -u,
    "log-logistic": lambda u: 1 - 2 / (1 + np.exp(-u)),
    "weibull": lambda u: 1 - np.exp(u),
}


@pytest.mark.parametrize("table", sorted(SCIPY_FITS))
def test_profile_fits_solve_the_score_equations(table):
    durations = dict(_pinned_tables())[table]
    z = np.log(np.where(durations == 0, 0.5, durations))
    for fit in _profile_of(durations).fitted:
        shape, _, scale = fit["params"]
        s = shape if fit["distribution"] == "log-normal" else 1 / shape
        u = (z - np.log(scale)) / s
        g1 = SCORES[fit["distribution"]](u)
        # d/d mu and d/d log s of sum g(u) - n log s - sum z
        grad = [-np.sum(g1) / s, -np.sum(u * g1) - z.size]
        assert np.max(np.abs(grad)) < 1e-8 * z.size, fit["distribution"]


def test_profile_durations_without_spread_fail_every_fit():
    rep = _profile_of(np.full(20, 30.0))
    assert rep.ecdf == ((30.0, 1.0),)
    assert [f["failed"] for f in rep.fitted] == [True] * 3
    assert {f["error"] for f in rep.fitted} == {
        "no spread: every (zero-shifted) duration is equal"}
    assert all(f["aic"] == np.inf for f in rep.fitted)


def test_ecdf_at():
    d = [10.0, 20.0, 30.0, 40.0]
    assert ecdf_at(d, 20.0) == 0.5
    assert ecdf_at(d, 5.0) == 0.0
    assert ecdf_at(d, 40.0) == 1.0


def test_distribution_recovery_across_seeds():
    # each generator family should win its own AIC contest in >= 95/100 seeds;
    # a 20-seed spot check per family keeps runtime low
    wins = {"log-normal": 0, "weibull": 0}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ln = np.exp(rng.normal(3.0, 0.8, size=10_000))
        # Weibull(1.5, scale 50) by its inverse CDF
        wb = 50.0 * (-np.log1p(-rng.uniform(size=10_000))) ** (1 / 1.5)
        for name, sample in (("log-normal", ln), ("weibull", wb)):
            ds = Dataset(
                schema=schema(FeatureColumn("x", "numeric")),
                rows=tuple((0.0,) for _ in range(sample.size)),
                durations=sample,
            )
            rep = profile(ds)
            if rep.fitted[0]["distribution"] == name:
                wins[name] += 1
    assert wins["log-normal"] >= 19
    assert wins["weibull"] >= 19
