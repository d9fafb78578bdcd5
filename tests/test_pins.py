"""Bit pins of the simulation and oracle paths.

The values were computed with one batch per sample size, a fresh
``Generator(Philox(key=seed))`` per row and an out-of-place oracle kernel.
Any faster route through the same streams must reproduce them bit for bit:
floats are compared by ``float.hex``, and long record lists by the sha256
of their hex form.
"""

import hashlib
import json

import numpy as np
import pytest

from polyfreq import diagnostics
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
        "9ec45e49d3764c5de3c5caddbf4b0fc83e5718f12bcdf7cdb65dc5a42695c242",
        ["0x1.5e7748ced1298p-3", "0x1.561d532a809c6p-3", "0x1.c68f6c9cf05dap-4",
         "0x1.14a7287112bbep-4", "0x1.3d627ffeab56bp-4", "0x1.eb61705c64ae0p-5",
         "0x1.619c19fba5ac0p-5"],
        "-0x1.590be4ce7ca21p-2",
        ["-0x1.b00aa3023c6a3p-2", "-0x1.78c8938cd6945p-3"],
    )


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_nlar_rate_experiment(monkeypatch):
    # a general NLAR model has no marginal truth; the standard normal stands
    # in, so the errors still pin every simulated value
    stand_in = marginal_truth(ArmaModel())
    monkeypatch.setattr(diagnostics, "marginal_truth", lambda model: stand_in)
    model = NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5)
    assert rate_pin(rate_experiment(model, N_GRID, 4, seed=41)) == (
        "6cd4012ae8f4edb6a8e8e74a83ac198256f8f5c1b21fe8e05e8359d5605fa182",
        ["0x1.2112e133b7540p-3", "0x1.536762961c962p-3", "0x1.ce0dcf3c97cedp-4",
         "0x1.ea1c7f407d1dcp-4", "0x1.4f114f4fa20acp-4", "0x1.45db57669b542p-4",
         "0x1.15a118573b15ap-4"],
        "-0x1.a5021d55916ffp-3",
        ["-0x1.128d59048eb42p-2", "-0x1.21c945ce638eap-3"],
    )


def test_tar_delta_profile():
    deltas = estimate_delta_profile(TarModel(0.6, -0.3), 6, 500, seed=23)
    assert deltas[6].delta_hat.hex() == "0x1.a832fdf233bdbp-6"
    assert digest([(d.lag, d.delta_hat.hex(), d.std_error.hex(), d.replications)
                   for d in deltas]) == (
        "dcba19fff89068ec901074761dd977997ae9e3a3e8f49daf6a84d697350c46c3")


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
    ("TAR", "11fdb3957245987920fa8d59f8906f62878dbeb3140340118014db3aca0a93dc",
     "90ffa7837666e760fd21bf3eccca73aba67b70f597ecd102f2d4faa06d81260a"),
    ("NLAR", "a4e3fe06c458fd2041c0ecb74e1088265b8ddb44cee0daf9ee74eb15d5ed150f",
     "fe2dea129445530cc50768df7068d3864ee5dd0da0f65fb531be671f46aae41d"),
    ("AR1", "fd6dcf161645aa27bed7ed9be1d454a6d40d900523a56a894dbd63771884ace1",
     "a0df4303208ee10cb3f14ab6a516340c794f03e41c573866d4d0ba7a3d738fa7"),
    ("MA2", "9da3c086ea62b88ef7634617900e90f0245be92c37eedad7f63509b8ca0fc8b8",
     "2b1152c2a5613da8d55abf50e8e10263ab0ba99641264ce9be48a4b0d9a9fd0c"),
    ("linear", "7b0dbabcf1c080d26b14a0bc09f2ff82b0bbddc139d84f6c68f2b8ab6fdede42",
     "74bc5fca619f81e731971a5bb71ef5133d9a8f35f1ebf74206f4a33aaa29c3c3"),
])
def test_simulate_rows(name, paths, ragged):
    model, seeds = SIM_MODELS[name], [0, 3, 2**64 + 1]
    assert rows_digest([simulate(model, 5000, seed=s) for s in seeds]) == paths
    assert rows_digest(simulate_ragged(model, [5, 700, 5, 2000], [*seeds, 5])) == ragged


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
    (TAR_SPEC, "684003e8d395801c50a305d13faeea85235c369ba19d7411578aabcbd2c0abf6"),
], ids=["AR1", "TAR"])
def test_simulate_csv_across_a_chunk_boundary(in_tmp, spec, expected):
    (in_tmp / "model.json").write_text(json.dumps(spec))
    assert main(["simulate", "--model", "model.json", "--n", "65537", "--seed", "3",
                 "--output", "sample.csv"]) == 0
    assert file_digest(in_tmp / "sample.csv") == expected


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
        "csv": ("b3160e316c4deda53cdf245f0e1b7d7604defd10239eeb194ca1060cec6dadc1",
                "75dfe9c395c2d0402ee54550d723d70a4b8c529e59c5af94ca979b67c59f4b44"),
        "json": ("7c8a968e390e922684791637a1fc11b6e9254bd4aaf2c670edd07fb929444379", NOTHING)}),
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
