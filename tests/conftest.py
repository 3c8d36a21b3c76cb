import json
import struct

import numpy as np
import pytest

from swinseg import autodiff as ad


def rel_err(a, b, floor=1e-4):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    den = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / den).max())


def fd_grad(f, param: ad.Tensor, h=1e-4, indices=None):
    """Central finite differences of scalar-valued f() w.r.t. param entries."""
    if indices is None:
        indices = list(np.ndindex(param.shape))
    out = {}
    for i in indices:
        orig = param.data[i]
        param.data[i] = orig + h
        lp = f().item()
        param.data[i] = orig - h
        lm = f().item()
        param.data[i] = orig
        out[i] = (lp - lm) / (2 * h)
    return out


def grad_check(f, params, h=1e-4, tol=1e-5, rng=None, samples=None):
    """Analytic vs FD gradients for every tensor in `params` (f64 inputs).

    samples=None checks every entry; an int spot-checks that many per tensor."""
    loss = f()
    ad.backward(loss)
    analytic = {id(p): p.grad.copy() if p.grad is not None else np.zeros(p.shape)
                for p in params}
    worst = 0.0
    for p in params:
        if samples is None or p.size <= samples:
            idxs = list(np.ndindex(p.shape))
        else:
            flat = rng.choice(p.size, size=samples, replace=False)
            idxs = [np.unravel_index(k, p.shape) for k in flat]
        num = fd_grad(f, p, h=h, indices=idxs)
        for i, v in num.items():
            worst = max(worst, rel_err(analytic[id(p)][i], v))
    assert worst <= tol, f"gradient mismatch: worst relative error {worst}"
    return worst


def edit_header(path, edit):
    """Apply ``edit`` to the JSON header of the container file at ``path`` (an
    ``.mvol`` or ``.mckp``) and write the file back re-framed, payload unchanged."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    edit(header)
    hj = json.dumps(header).encode()
    path.write_bytes(blob[:8] + struct.pack("<I", len(hj)) + hj + blob[12 + hlen:])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(name): acceptance criterion; prints PASS/FAIL")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        marker = item.get_closest_marker("criterion")
        if marker:
            tr = item.config.pluginmanager.get_plugin("terminalreporter")
            verdict = "PASS" if rep.passed else "FAIL"
            line = f"{verdict}: {marker.args[0]}"
            if tr is not None:
                tr.ensure_newline()
                tr.write_line(line)
            else:
                print(line)
