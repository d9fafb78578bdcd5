"""Bit pins of the simulation and oracle paths.

The values were computed with one batch per sample size and a fresh
``Generator(Philox(key=seed))`` per row.  The TAR oracle and TAR rate pins
were recorded from the oracle's push-forward and FFT route, which moved
every TAR truth by about 1e-6 from the dense kernel's.  Any faster route through the same streams must reproduce them bit for bit:
floats are compared by ``float.hex``, and long record lists by the sha256
of their hex form.  TAR and NLAR pins at the default burn-in hold the
contraction rule's depth (82 and 64 steps); the ``_at_burn_in_1000`` twins
pin the same streams at an explicit 1000 steps, the earlier default.
"""

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from polyfreq import diagnostics
from polyfreq.cli import main
from polyfreq.dependence import estimate_delta_profile
from polyfreq.diagnostics import rate_experiment
from polyfreq.estimators import (BinningScheme, SparseHistogram, build_histogram, fp_eval,
                                 stone_bandwidth)
from polyfreq.models import (ArmaModel, LinearProcess, NlarModel, TarModel, marginal_truth,
                             simulate, simulate_rows, tar_marginal_oracle)

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
    # the grid ends hold the FFT's roundoff, about 1e-17 of the peak
    grid, density = tar_marginal_oracle(TarModel(0.6, -0.3))
    at = [0, 1600, 4000, 5348, 8000]
    assert hexes(grid[at]) == ["-0x1.5400000000000p+3", "-0x1.9800000000000p+2", "0x0.0p+0",
                               "0x1.ca51eb851eb88p+1", "0x1.5400000000000p+3"]
    assert hexes(density[at]) == ["0x1.9000000000000p-58", "0x1.1b35ba7200000p-33",
                                  "0x1.563ca80def70fp-2", "0x1.1707fadfd0287p-7",
                                  "0x1.4000000000000p-54"]
    assert hashlib.sha256(density.tobytes()).hexdigest() == (
        "3a3af42fb365ebc1a237b3ac587687db33362df82b988afd02b8716900e67564")


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_tar_rate_experiment():
    assert rate_pin(rate_experiment(TarModel(0.6, -0.3), N_GRID, 4, seed=97)) == (
        "b110f6915610b6fb45e1c1ae6e529e64227c18ba2c0b6913ea795113c11c6dcd",
        ["0x1.4a9206ef06485p-3", "0x1.372d2c669824ep-3", "0x1.7ca6755fb04d0p-4",
         "0x1.e341048686072p-4", "0x1.69c767c8c8aaep-4", "0x1.fbdef2a3f5ce0p-5",
         "0x1.ba338fefbf4c2p-5"],
        "-0x1.0ea71c3926e62p-2",
        ["-0x1.7e3d8de251f05p-2", "-0x1.45996da219a70p-3"],
    )


@pytest.mark.filterwarnings("ignore:reps=:UserWarning")
def test_nlar_rate_experiment(monkeypatch):
    # a general NLAR model has no marginal truth; the standard normal stands
    # in, so the errors still pin every simulated value
    stand_in = marginal_truth(ArmaModel())
    monkeypatch.setattr(diagnostics, "marginal_truth", lambda model: stand_in)
    model = NlarModel(transition=lambda x: 0.5 * np.tanh(x), lipschitz_bound=0.5)
    assert rate_pin(rate_experiment(model, N_GRID, 4, seed=41)) == (
        "455c14ee593dac66b4ffff96ddf4649dd3b016f462cbe52f7b05b05276e0cae7",
        ["0x1.ca7ecb2815a64p-3", "0x1.dc0195140ad86p-4", "0x1.b6ec9382414d1p-4",
         "0x1.8b240bb02f7a9p-4", "0x1.06e83308b7b3ep-4", "0x1.f192b82785a35p-5",
         "0x1.8b104f580d498p-5"],
        "-0x1.528191f38b9cap-2",
        ["-0x1.915c6c742e23ep-2", "-0x1.f15331f83a61cp-3"],
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


@pytest.mark.parametrize("name,paths,rows", [
    ("TAR", "4c8796968c1e9ce510cf0a8bd196e69bfc16bfd3e417bcfb027ea5da795c0490",
     "d599882bdc7dddb1962e069f8b174a96b46b00affa74000177b9ac5260fff487"),
    ("NLAR", "4c3605ad7697c36a5431f94d097d9df608aa6f007f6045321cc42d1ea089e0d9",
     "93c9960c0716c8a27de84328d6b0b5363ec1f6a3dd65f4a2527aa6910b361bf3"),
    ("AR1", "fd6dcf161645aa27bed7ed9be1d454a6d40d900523a56a894dbd63771884ace1",
     "c0acd63bd9491bc47b5bf7859f83a1c33b2d490c0fb80131503be912b9335c38"),
    ("MA2", "9da3c086ea62b88ef7634617900e90f0245be92c37eedad7f63509b8ca0fc8b8",
     "ad7b4b4991eabeb8d3cfca21b1bb2176d5f6622306bf052ce0e93461106f37b8"),
    ("linear", "7b0dbabcf1c080d26b14a0bc09f2ff82b0bbddc139d84f6c68f2b8ab6fdede42",
     "5998545dc8b983dde1267883755c6678593ffd5d86532283356ee3fe5c58d22d"),
], ids=["TAR", "NLAR", "AR1", "MA2", "linear"])
def test_simulate_rows(name, paths, rows):
    model, seeds = SIM_MODELS[name], [0, 3, 2**64 + 1]
    assert rows_digest([simulate(model, 5000, seed=s) for s in seeds]) == paths
    assert rows_digest(simulate_rows(model, 2000, [*seeds, 5])) == rows


@pytest.mark.parametrize("name,paths,rows", [
    ("TAR", "11fdb3957245987920fa8d59f8906f62878dbeb3140340118014db3aca0a93dc",
     "02f48cba188ef35984f9a498bb3883660f8eacf7d0ff0fdf9bc76a56a5d806fb"),
    ("NLAR", "a4e3fe06c458fd2041c0ecb74e1088265b8ddb44cee0daf9ee74eb15d5ed150f",
     "7b1407a701dd8036e99b31e3d901a5558cf13665cb95436058939f85203e1add"),
], ids=["TAR", "NLAR"])
def test_simulate_rows_at_burn_in_1000(name, paths, rows):
    # the stream layout depends only on the burn-in used: an explicit 1000
    # steps reproduce the rows of the rule that defaulted to them
    model, seeds = SIM_MODELS[name], [0, 3, 2**64 + 1]
    assert rows_digest([simulate(model, 5000, 1000, seed=s) for s in seeds]) == paths
    assert rows_digest(simulate_rows(model, 2000, [*seeds, 5], 1000)) == rows


# packed Markov rows, drawn and stepped on the calling thread: forty rows of
# seeds on both sides of 2**64, each cut across five or more segments
PACKED_ROWS = {
    "TAR": "afed1af89778c08d76b9621d1989962decdae113a42424050f21c55ef533ac58",
    "NLAR": "941d70d1a06124dd967cc34f485564ebd813313b39485d3506fb22923f30d534",
}


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("name", ["TAR", "NLAR"])
def test_packed_rows_on_any_worker_count(name, count):
    # a caller's own threads each draw the same rows at once; threads switch
    # every microsecond meanwhile, so a draw that wrote outside its own
    # buffer would show in the bits
    seeds = range(2**64 - 20, 2**64 + 20)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(count) as pool:
            digests = list(pool.map(
                lambda _: rows_digest(simulate_rows(SIM_MODELS[name], 1500, seeds)),
                range(count)))
    finally:
        sys.setswitchinterval(interval)
    assert digests == [PACKED_ROWS[name]] * count


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
        "473bd8230a91e819be4be45d7ef933c73602d728dd26a0659b5fa5c034c53db4")


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
