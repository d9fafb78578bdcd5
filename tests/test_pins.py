"""Bit pins of the simulation and oracle paths.

The values were computed with one batch per sample size, a fresh
``Generator(Philox(key=seed))`` per row and an out-of-place oracle kernel.
Any faster route through the same streams must reproduce them bit for bit:
floats are compared by ``float.hex``, and long record lists by the sha256
of their hex form.  TAR and NLAR pins at the default burn-in hold the
contraction rule's depth (82 and 64 steps); the ``_at_burn_in_1000`` twins
pin the same streams at an explicit 1000 steps, the earlier default.
"""

import hashlib
import json
import sys

import numpy as np
import pytest

from polyfreq import diagnostics, models
from polyfreq.cli import main
from polyfreq.dependence import estimate_delta_profile
from polyfreq.diagnostics import rate_experiment
from polyfreq.estimators import (BinningScheme, SparseHistogram, build_histogram, fp_eval,
                                 stone_bandwidth)
from polyfreq.models import (ArmaModel, LinearProcess, NlarModel, TarModel, marginal_truth,
                             simulate, simulate_ragged, tar_marginal_oracle)

N_GRID = [2**k for k in range(6, 13)]


def hexes(values):
    return [float(v).hex() for v in values]


def digest(rows):
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def rate_pin(report):
    """Everything in a report but the timings."""
    records = [(r.n, r.replication, r.bandwidth.hex(), r.sup_error.hex(), r.eval_points,
                r.grid_error_bound.hex()) for r in report.records]
    return (digest(records), hexes(report.median_errors), report.fitted_slope.hex(),
            hexes(report.slope_ci))


def test_tar_oracle():
    grid, density = tar_marginal_oracle(TarModel(0.6, -0.3))
    at = [0, 400, 1000, 1337, 2000]
    assert hexes(grid[at]) == ["-0x1.5400000000000p+3", "-0x1.9800000000000p+2", "0x0.0p+0",
                               "0x1.ca51eb851eb88p+1", "0x1.5400000000000p+3"]
    assert hexes(density[at]) == ["0x1.565de263ab98dp-86", "0x1.1b3b794afe9f4p-33",
                                  "0x1.563cb052e9cc4p-2", "0x1.1707c54c8b06ap-7",
                                  "0x1.e4cc033e1828ep-54"]
    assert hashlib.sha256(density.tobytes()).hexdigest() == (
        "4d07fb3379718bb33c27cb1dccbc89c36de5bf1eafc5e368367db9fc18d23708")


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_tar_rate_experiment():
    assert rate_pin(rate_experiment(TarModel(0.6, -0.3), N_GRID, 4, seed=97)) == (
        "e444cdf02014250cc1d866e0a56319ea8c800fa91d25f409eb338b1b88790c37",
        ["0x1.4a8cea2c7308cp-3", "0x1.938dacbe40cbep-3", "0x1.e50e368e6c866p-4",
         "0x1.703bbfc00fb65p-4", "0x1.31e2ba4701854p-4", "0x1.ee406f6b36c4cp-5",
         "0x1.e3a4f2d8b9704p-5"],
        "-0x1.3467c055abe2ep-2",
        ["-0x1.93fb2f94420cfp-2", "-0x1.98842e26dd68cp-3"],
    )


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_nlar_rate_experiment(monkeypatch):
    # a general NLAR model has no marginal truth; the standard normal stands
    # in, so the errors still pin every simulated value
    stand_in = marginal_truth(ArmaModel())
    monkeypatch.setattr(diagnostics, "marginal_truth", lambda model: stand_in)
    model = NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5)
    assert rate_pin(rate_experiment(model, N_GRID, 4, seed=41)) == (
        "09a837e8a36c85defbca8455da7a654058130ff67c9438a177a88f0027fe8167",
        ["0x1.ca7ecb2815a64p-3", "0x1.e1c68515dedbbp-4", "0x1.6fe19b94c3162p-4",
         "0x1.0bb2bd29b71b5p-4", "0x1.45d87f8ce772fp-4", "0x1.746cbadeb198cp-4",
         "0x1.ad79fc71e6cecp-5"],
        "-0x1.07587eb36f384p-2",
        ["-0x1.5417ff5aa15ffp-2", "-0x1.7a81e568457ecp-3"],
    )


def test_tar_delta_profile():
    deltas = estimate_delta_profile(TarModel(0.6, -0.3), 6, 500, seed=23)
    assert deltas[6].delta_hat.hex() == "0x1.71b44c9188f61p-6"
    assert digest([(d.lag, d.delta_hat.hex(), d.std_error.hex(), d.replications)
                   for d in deltas]) == (
        "1d5dd9e49b0d854bd0385f00ae69f70642bd5124aa0b60419493467f4ac4c9da")


def test_tar_delta_profile_at_burn_in_1000():
    # the coupled stream layout depends only on the burn-in used: an explicit
    # 1000 steps reproduce the profile of the rule that defaulted to them
    deltas = estimate_delta_profile(TarModel(0.6, -0.3), 6, 500, seed=23, burn_in=1000)
    assert deltas[6].delta_hat.hex() == "0x1.a832fdf233bdbp-6"
    assert digest([(d.lag, d.delta_hat.hex(), d.std_error.hex(), d.replications)
                   for d in deltas]) == (
        "dcba19fff89068ec901074761dd977997ae9e3a3e8f49daf6a84d697350c46c3")


def test_ma2_delta_profile():
    # recorded on lfilter's compiled recursion, which carries the filter
    # state exactly; its len(a) == 1 route added the state after the
    # convolution and changed the last bits of some coupled values
    deltas = estimate_delta_profile(ArmaModel(ma=(0.4, 0.3)), 10, 10**4, seed=4)
    assert deltas[2].delta_hat.hex() == "0x1.b1a4808dd2e8dp-2"
    assert digest([(d.lag, d.delta_hat.hex(), d.std_error.hex(), d.replications)
                   for d in deltas]) == (
        "01caeb79ea45b36a5366f34031d2847f643c227d52e161168ed8e75586b7d9f8")


SIM_MODELS = {
    "TAR": TarModel(0.6, -0.3),
    "NLAR": NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5),
    "AR1": ArmaModel(ar=(0.5,)),
    "MA2": ArmaModel(ma=(0.4, 0.3)),
    "linear": LinearProcess((1, 0.5, 0.25), 1),
}


def rows_digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(row.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name,paths,ragged", [
    ("TAR", "4c8796968c1e9ce510cf0a8bd196e69bfc16bfd3e417bcfb027ea5da795c0490",
     "06a88a6ae5fb21082a3939426c1d48e9dc7628e6ff29e8d17558908539b1cd5f"),
    ("NLAR", "4c3605ad7697c36a5431f94d097d9df608aa6f007f6045321cc42d1ea089e0d9",
     "e2ed572e7fec8b3cb2d61c63b0b09645d730b06ddb122ae1332a1eedc43b5ae5"),
    ("AR1", "fd6dcf161645aa27bed7ed9be1d454a6d40d900523a56a894dbd63771884ace1",
     "a0df4303208ee10cb3f14ab6a516340c794f03e41c573866d4d0ba7a3d738fa7"),
    ("MA2", "9da3c086ea62b88ef7634617900e90f0245be92c37eedad7f63509b8ca0fc8b8",
     "2b1152c2a5613da8d55abf50e8e10263ab0ba99641264ce9be48a4b0d9a9fd0c"),
    ("linear", "7b0dbabcf1c080d26b14a0bc09f2ff82b0bbddc139d84f6c68f2b8ab6fdede42",
     "74bc5fca619f81e731971a5bb71ef5133d9a8f35f1ebf74206f4a33aaa29c3c3"),
], ids=["TAR", "NLAR", "AR1", "MA2", "linear"])
def test_simulate_rows(name, paths, ragged):
    model, seeds = SIM_MODELS[name], [0, 3, 2**64 + 1]
    assert rows_digest([simulate(model, 5000, seed=s) for s in seeds]) == paths
    assert rows_digest(simulate_ragged(model, [5, 700, 5, 2000], [*seeds, 5])) == ragged


@pytest.mark.parametrize("name,paths,ragged", [
    ("TAR", "11fdb3957245987920fa8d59f8906f62878dbeb3140340118014db3aca0a93dc",
     "90ffa7837666e760fd21bf3eccca73aba67b70f597ecd102f2d4faa06d81260a"),
    ("NLAR", "a4e3fe06c458fd2041c0ecb74e1088265b8ddb44cee0daf9ee74eb15d5ed150f",
     "fe2dea129445530cc50768df7068d3864ee5dd0da0f65fb531be671f46aae41d"),
], ids=["TAR", "NLAR"])
def test_simulate_rows_at_burn_in_1000(name, paths, ragged):
    # the stream layout depends only on the burn-in used: an explicit 1000
    # steps reproduce the rows of the rule that defaulted to them
    model, seeds = SIM_MODELS[name], [0, 3, 2**64 + 1]
    assert rows_digest([simulate(model, 5000, 1000, seed=s) for s in seeds]) == paths
    assert rows_digest(simulate_ragged(model, [5, 700, 5, 2000], [*seeds, 5], 1000)) == ragged


# the TAR oracle's kernel and a packed batch's draws are built on a pool of
# one thread per usable CPU: every worker count must give the same bits


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(count)`` sets the usable CPU count; returns the sizes of the pools built.

    Threads switch every microsecond meanwhile, so a worker that wrote
    outside its own rows would show in the bits.
    """
    pools = []

    class Pool(models.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(models, "ThreadPoolExecutor", Pool)

    def use(count):
        monkeypatch.setattr(models, "_usable_cpus", lambda: count)
        pools.clear()
        return pools

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield use
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_tar_oracle_on_any_worker_count(cpus, count):
    pools = cpus(count)
    _, density = tar_marginal_oracle(TarModel(0.6, -0.3))
    assert hashlib.sha256(density.tobytes()).hexdigest() == (
        "4d07fb3379718bb33c27cb1dccbc89c36de5bf1eafc5e368367db9fc18d23708")
    assert pools == ([] if count == 1 else [count])


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("name", ["TAR", "NLAR"])
def test_packed_rows_on_any_worker_count(cpus, name, count):
    model = SIM_MODELS[name]
    ns = np.random.default_rng(8).integers(1, 3000, 40).tolist()
    seeds = range(2**64 - 20, 2**64 + 20)
    cpus(1)
    serial = simulate_ragged(model, ns, seeds)
    pools = cpus(count)
    assert rows_digest(simulate_ragged(model, ns, seeds)) == rows_digest(serial)
    assert pools == [count]


# fp_eval: a faster array route must give the same bits on random queries, on
# every bin edge and midpoint and one ulp to either side of them, and beyond
# the occupied bins


@pytest.fixture(scope="module")
def ar1_hist():
    n = 2**19
    return build_histogram(simulate(ArmaModel(ar=(0.5,)), n, seed=5),
                           BinningScheme(stone_bandwidth(n)))


def test_fp_eval_on_an_ar1_histogram(ar1_hist):
    b = ar1_hist.scheme.bin_width
    z = np.arange(ar1_hist.keys[0] - 2, ar1_hist.keys[-1] + 3, dtype=float)
    marks = np.concatenate([z * b, (z + 0.5) * b])
    x = np.concatenate([np.random.default_rng(11).uniform((z[0] - 3) * b, (z[-1] + 3) * b, 10**5),
                        marks, np.nextafter(marks, -np.inf), np.nextafter(marks, np.inf)])
    assert (ar1_hist.occupied, x.size) == (335, 102184)
    assert hashlib.sha256(fp_eval(ar1_hist, x).tobytes()).hexdigest() == (
        "65d2f439892f9391f3798370ac0622ff30f86ae1d98e337f22c416510b0f890b")


def test_fp_eval_between_two_far_bins():
    h = SparseHistogram(BinningScheme(1.0), [0, 2**40], [1, 2], 3)
    assert hexes(fp_eval(h, np.array([0.5, 2.0**40 + 0.75, -1.25]))) == [
        "0x1.5555555555555p-2", "0x1.0000000000000p-1", "0x0.0p+0"]


def test_fp_eval_array_shapes(ar1_hist):
    b = ar1_hist.scheme.bin_width
    value = fp_eval(ar1_hist, np.array(0.3))
    assert type(value) is float and value.hex() == "0x1.53ea5468c553ap-2"
    grid = fp_eval(ar1_hist, np.array([[0.3, -1.7], [b, 2.5 * b]]))
    assert grid.shape == (2, 2)
    assert hexes(grid.ravel()) == ["0x1.53ea5468c553ap-2", "0x1.e61f9cdf181e9p-4",
                                   "0x1.6274ffdbcbf53p-2", "0x1.5b745fb5fabe4p-2"]
    assert fp_eval(ar1_hist, np.empty((0, 3))).shape == (0, 3)


# CLI artifacts: the text each command writes is pinned by its sha256, so a
# faster parser or writer must reproduce every byte

ARMA_SPEC = {"schema": 1, "family": "arma", "a0": 0.0, "ar": [0.5], "ma": [],
             "noise": {"distribution": "gaussian", "sigma": 1.0}}
TAR_SPEC = {"schema": 1, "family": "nlar_tar", "a": 0.6, "b": -0.3,
            "noise": {"distribution": "gaussian", "sigma": 1.0}}


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    # relative paths keep the headers, and so the digests, independent of tmp_path
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("spec,expected", [
    (ARMA_SPEC, "cddac9ebb60e663149bf40889fd471b8cc92bbcc12418fc5ffc63f7e7230001b"),
    (TAR_SPEC, "05d6d1055c07133c5a8925bf7caaa04040bcbb8d8610f3cd1141f439c5b48064"),
], ids=["AR1", "TAR"])
def test_simulate_csv_across_a_chunk_boundary(in_tmp, spec, expected):
    (in_tmp / "model.json").write_text(json.dumps(spec))
    assert main(["simulate", "--model", "model.json", "--n", "65537", "--seed", "3",
                 "--output", "sample.csv"]) == 0
    assert file_digest(in_tmp / "sample.csv") == expected


def test_tar_simulate_csv_at_burn_in_1000(in_tmp):
    # the header records the burn-in used, so an explicit 1000 steps give
    # the bytes of the rule that defaulted to them
    (in_tmp / "model.json").write_text(json.dumps(TAR_SPEC))
    assert main(["simulate", "--model", "model.json", "--n", "65537", "--seed", "3",
                 "--burn-in", "1000", "--output", "sample.csv"]) == 0
    assert file_digest(in_tmp / "sample.csv") == (
        "684003e8d395801c50a305d13faeea85235c369ba19d7411578aabcbd2c0abf6")


def test_estimate_on_a_messy_input(in_tmp):
    # a header, comments, blank lines, padded rows and a digit separator,
    # spread over two chunks
    rows = [format(0.001 * k * (-1) ** k, ".17g") for k in range(70_000)]
    rows[0] = "value"
    for k in range(3, 70_000, 997):
        rows[k] = "# note"
    for k in range(5, 70_000, 1009):
        rows[k] = ""
    for k in range(7, 70_000, 13):
        rows[k] = f" \t{rows[k]}  "
    rows[65_540] = "1_5"
    (in_tmp / "messy.csv").write_text("\n".join(rows) + "\n")
    digests = {}
    for fmt in ("csv", "json"):
        assert main(["estimate", "--input", "messy.csv", "--bandwidth", "0.5",
                     "--format", fmt, "--output", f"estimate.{fmt}"]) == 0
        digests[fmt] = file_digest(in_tmp / f"estimate.{fmt}")
    assert digests == {
        "csv": "3a80dcbc0060df49b44a947cbb3ba223a3df3bd555e83ef24902c80e4bf62b2c",
        "json": "b944c89dba3f486c9eaf94231277220f0bd63da039f1a17d2940100ced25edf2",
    }


def test_rate_records_csv(in_tmp):
    (in_tmp / "model.json").write_text(json.dumps(ARMA_SPEC))
    assert main(["rate", "--model", "model.json", "--n-min", "256", "--n-max", "16384",
                 "--reps", "3", "--seed", "13", "--output", "rate.csv"]) == 0
    lines = (in_tmp / "rate.csv").read_text().splitlines()
    without_wall_time = "\n".join(line if line.startswith("#") else line.rsplit(",", 1)[0]
                                  for line in lines)
    assert hashlib.sha256(without_wall_time.encode()).hexdigest() == (
        "2e637467b4dfa772e5539cf24a7c977cc60df570db0c331897fd3e3419c5a81f")


def test_estimate_on_two_far_rows(in_tmp):
    # 10**12 bins apart: the query route must not size its work by the span
    (in_tmp / "rows.csv").write_text("0\n1e12\n")
    assert main(["estimate", "--input", "rows.csv", "--bandwidth", "1", "--grid-min", "0",
                 "--grid-max", "1e12", "--grid-step", "5e11", "--output", "estimate.csv"]) == 0
    assert file_digest(in_tmp / "estimate.csv") == (
        "ac16d14c92e53a5eb59c0e564bd9260dc42c38069350e8cbcbdb3ad41738b163")


LINEAR_SPEC = {"schema": 1, "family": "linear", "mean": 0.5, "coeffs": [1.0, 0.6, 0.3, 0.1],
               "noise": {"distribution": "gaussian", "sigma": 1.0}}


#: the sha256 of no bytes: the JSON format writes nothing to stderr
NOTHING = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


@pytest.mark.parametrize("spec,expected", [
    (ARMA_SPEC, {
        "csv": ("ae3badfa1cf010b52a00bcb726d994ac237fe8524e223ca2bee4bb9a22c2922e",
                "d76a26508cd41f9fe3a688c666af352afa78263dff7d8821ef42839876db7cd1"),
        "json": ("0a786ff8e38c9f52f24bed412b4003e1dd0a08a177beb3d3d87e4cf62e374664", NOTHING)}),
    (TAR_SPEC, {
        "csv": ("7fb1b52630f5abcec2873eb3cbc7e76a56affdce4eb2681363cb3260c886bb00",
                "d8be4c4b93286adc9e1964044aca012cff246543c0fa97a1d31ce5a5159da13f"),
        "json": ("b0d7a53e4564df8926211c50985591d52f941d38880dbdda4d3d26fd54aaed87", NOTHING)}),
    (LINEAR_SPEC, {
        "csv": ("9628580887d75b4a88f35b0e7a6abfaa1800f79c5b77c686a07e4ebc2ce01c47",
                "3597e566deaa83a3cc3f4d348a424d4f782c5174460457e5031b4fff8169f01c"),
        "json": ("52c31c69142cdaf08ddaf37b6186815c142cfae27e4143f5228efb1ad87dff18", NOTHING)}),
], ids=["AR1", "TAR", "linear"])
def test_delta_stdout_and_stderr(in_tmp, capsys, spec, expected):
    # the delta CSV goes to stdout and its decay report to stderr; the JSON
    # format carries both on stdout
    (in_tmp / "model.json").write_text(json.dumps(spec))
    digests = {}
    for fmt in ("csv", "json"):
        assert main(["delta", "--model", "model.json", "--kmax", "6", "--reps", "300",
                     "--seed", "9", "--format", fmt]) == 0
        out, err = capsys.readouterr()
        digests[fmt] = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (out, err))
    assert digests == expected
