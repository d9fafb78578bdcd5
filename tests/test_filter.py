"""ARMA filtering on scipy's compiled recursion, without importing ``scipy.signal``.

``models._arma_filter`` calls the private ``_linear_filter`` of scipy's
extension ``scipy/signal/_sigtools`` directly.  These tests compare it bit for
bit with ``scipy.signal.lfilter`` and with a numpy lockstep of the same
direct-form-II-transposed step, so that a scipy version that changes the
private call fails here by name.  CI runs this file beside the pins.
"""

import subprocess
import sys
import textwrap
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal

from polyfreq import models
from polyfreq.models import ArmaModel, initial_state, simulate


def lockstep(b, a, x, zi):
    """lfilter's direct-form-II-transposed step, one column of ``x`` at a time across rows."""
    z, y = zi.copy(), np.empty_like(x)
    for t in range(x.shape[1]):
        xt = x[:, t]
        y[:, t] = yt = z[:, 0] + b[0] * xt
        for i in range(z.shape[1] - 1):
            z[:, i] = z[:, i + 1] + xt * b[i + 1] - yt * a[i + 1]
        z[:, -1] = xt * b[-1] - yt * a[-1]
    return y, z


@st.composite
def polynomial(draw, max_modulus):
    """Coefficients after the leading 1 of a monic polynomial of degree 0-5.

    Its roots, real or in complex-conjugate pairs, have moduli of at most
    ``max_modulus``.
    """
    order, roots = draw(st.integers(0, 5)), []
    while len(roots) < order:
        modulus = draw(st.floats(0.0, max_modulus))
        if order - len(roots) >= 2 and draw(st.booleans()):
            angle = draw(st.floats(0.05, 3.1))
            roots += [modulus * np.exp(1j * angle), modulus * np.exp(-1j * angle)]
        else:
            roots.append(modulus * draw(st.sampled_from([1.0, -1.0])))
    return tuple(np.poly(roots).real[1:].tolist()) if roots else ()


@st.composite
def filter_cases(draw):
    """A stationary ARMA model's padded ``(b, a)``, innovations, a start state and a split."""
    ar, ma = draw(polynomial(0.97)), draw(polynomial(2.0))
    if 1.0 + sum(ma) == 0.0:  # refused by ArmaModel
        ma = ()
    model = ArmaModel(ar=tuple(-c for c in ar), ma=ma)
    b, a = models._arma_polys(model)
    rows, columns = draw(st.sampled_from([0, 1, 2, 9])), draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    x = rng.standard_normal((rows, columns))
    x[rng.random(x.shape) < 0.1] = draw(st.sampled_from([0.0, -0.0]))
    start = draw(st.sampled_from(["rest", "random", "initial_state"]))
    zi = np.zeros((rows, len(a) - 1))
    if start == "random":
        zi = 3.0 * rng.standard_normal(zi.shape)
    elif start == "initial_state":
        zi = initial_state(model, 3.0 * rng.standard_normal(rows))
    return b, a, x, zi, start, draw(st.integers(1, columns))


class TestArmaFilter:
    @given(case=filter_cases())
    @settings(max_examples=300, deadline=None)
    @example(case=(np.array([1.0, 0.0]), np.array([1.0, -0.5]), np.ones((3, 5)),
                   np.full((3, 1), 2.0), "random", 2))
    @example(case=(np.array([1.0, 0.4, 0.3]), np.array([1.0, 0.0, 0.0]), np.ones((0, 4)),
                   np.zeros((0, 2)), "rest", 1))
    def test_matches_lfilter_and_the_lockstep_reference(self, case):
        b, a, x, zi, start, split = case
        y, z = models._arma_filter(b, a, x, zi)
        for ref_y, ref_z in (signal.lfilter(b, a, x, axis=1, zi=zi), lockstep(b, a, x, zi)):
            assert y.tobytes() == ref_y.tobytes()
            assert z.tobytes() == ref_z.tobytes()
        if start == "rest":  # the filter without a state starts from zeros
            assert y.tobytes() == signal.lfilter(b, a, x, axis=1).tobytes()
        if split < x.shape[1]:  # a block split carries the state exactly
            head, middle = models._arma_filter(b, a, x[:, :split], zi)
            tail, end = models._arma_filter(b, a, x[:, split:], middle)
            assert np.hstack([head, tail]).tobytes() == y.tobytes()
            assert end.tobytes() == z.tobytes()

    @given(ar=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-0.19, 0.19), max_size=5),
           ma=st.lists(st.sampled_from([0.0, -0.0]) | st.floats(-0.19, 0.19), max_size=5))
    @example(ar=[], ma=[])
    @example(ar=[0.0, -0.0], ma=[-0.5, 0.0, 0.2])
    def test_closed_form_state_matches_lfiltic(self, ar, ma):
        # with intercept 0 the mean is a zero, so a start at 1 gives the
        # closed form itself and a start at -2 its product; signed zeros count
        model = ArmaModel(ar=tuple(ar), ma=tuple(ma))
        expected = signal.lfiltic(*models._arma_polys(model), [1.0])
        state = initial_state(model, np.array([1.0, -2.0]))
        assert state[0].tobytes() == expected.tobytes()
        assert state[1].tobytes() == (-2.0 * expected).tobytes()

    @pytest.mark.parametrize("failure", ["missing file", "changed call", "renamed call"])
    def test_loader_failure_falls_back_to_lfilter(self, monkeypatch, failure):
        model = ArmaModel(ar=(0.5, -0.2), ma=(0.3,))
        expected = simulate(model, 3000, seed=4)
        monkeypatch.delitem(sys.modules, models._SIGTOOLS)
        if failure == "missing file":
            path = types.SimpleNamespace(join=models.os.path.join, isfile=lambda path: False)
            monkeypatch.setattr(models, "os", types.SimpleNamespace(path=path))
        elif failure == "changed call":
            def changed(*args):
                raise TypeError("function takes at most 4 arguments")
            monkeypatch.setitem(sys.modules, models._SIGTOOLS,
                                types.SimpleNamespace(_linear_filter=changed))
        else:
            monkeypatch.setitem(sys.modules, models._SIGTOOLS, types.SimpleNamespace())
        calls, lfilter = [], signal.lfilter

        def record(*args, **kwargs):
            calls.append(args[2].shape)
            return lfilter(*args, **kwargs)

        monkeypatch.setattr(signal, "lfilter", record)
        assert simulate(model, 3000, seed=4).tobytes() == expected.tobytes()
        assert calls
        if failure == "missing file":
            assert models._SIGTOOLS not in sys.modules

    def test_threads_of_a_first_parallel_use_load_the_extension_once(self):
        # eight threads of a library caller released together, with a short
        # switch interval; without the lock each loads
        code = textwrap.dedent("""
            import sys, threading
            import numpy as np
            from polyfreq import models
            loads, load = [], models._load_sigtools
            def counted():
                loads.append(threading.get_ident())
                return load()
            models._load_sigtools = counted
            sys.setswitchinterval(1e-6)
            b, a = np.array([1.0, 0.3]), np.array([1.0, -0.5])
            x, zi = np.ones((2, 99)), np.zeros((2, 1))
            out, start = [None] * 8, threading.Barrier(8)
            def work(i):
                start.wait(timeout=60)
                out[i] = models._arma_filter(b, a, x, zi)[0].tobytes()
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            print(len(loads), len(set(out)), None in out)
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120)
        assert out.stdout.split() == ["1", "1", "False"]

    def test_scipy_signal_imports_after_the_filter_loaded(self):
        # the extension is registered as scipy.signal._sigtools, and the
        # package's own import then uses that module
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from polyfreq import models
            model = models.ArmaModel(ar=(0.5, -0.2), ma=(0.3,))
            first = models.simulate(model, 2000, seed=3)
            assert "scipy.signal" not in sys.modules
            loaded = sys.modules["scipy.signal._sigtools"]
            from scipy import signal
            from scipy.signal import _signaltools
            assert _signaltools._sigtools is loaded
            b, a = models._arma_polys(model)
            x, zi = np.linspace(-1.0, 1.0, 50)[None, :], np.full((1, len(a) - 1), 0.5)
            for ours, theirs in zip(models._arma_filter(b, a, x, zi),
                                    signal.lfilter(b, a, x, axis=1, zi=zi)):
                assert ours.tobytes() == theirs.tobytes()
            assert signal.lfilter([1.0, 0.5], [1.0], [1.0, 2.0]).tolist() == [1.0, 2.5]
            assert models.simulate(model, 2000, seed=3).tobytes() == first.tobytes()
            print("ok")
        """)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert out.stdout.strip() == "ok"
