import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from swinseg import autodiff as ad
from swinseg.autodiff import Tensor
from swinseg.lossmetrics import (
    DICE_EPS, OneHotTarget, dsc, evaluate_pair, extract_surface, nsd,
    soft_dice_loss,
)
from swinseg.volio import LabelMap, ValidationError
from conftest import rel_err


def labelmap(arr, num_classes, available=None, spacing=(1.0, 1.0, 1.0)):
    arr = np.asarray(arr, dtype=np.uint8)
    if available is None:
        available = frozenset(range(1, num_classes + 1))
    return LabelMap(arr, spacing, num_classes, frozenset(available))


def probs_from_labels(lab: LabelMap) -> Tensor:
    return Tensor(OneHotTarget.from_labelmap(lab).onehot, dtype=np.float64)


class TestSoftDiceLoss:
    def test_perfect_prediction_near_zero(self, rng):
        arr = rng.choice([0, 1, 2], size=(6, 6, 6)).astype(np.uint8)
        lab = labelmap(arr, 2)
        loss = soft_dice_loss(probs_from_labels(lab), OneHotTarget.from_labelmap(lab))
        assert loss.item() <= 1e-4

    def test_disjoint_prediction_near_one(self):
        g = np.zeros((4, 4, 4), np.uint8)
        g[:2] = 1
        p = np.zeros((4, 4, 4), np.uint8)
        p[2:] = 1
        lab = labelmap(g, 1)
        loss = soft_dice_loss(probs_from_labels(labelmap(p, 1)),
                              OneHotTarget.from_labelmap(lab))
        assert loss.item() >= 1.0 - 1e-4

    def test_hand_value_one_third(self):
        # single class, G has 2 voxels, Y = 1.0 on both of them plus 2 false
        # positives: term = 2/(2+4) = 1/3, loss = 1 - 2/3 = 1/3
        g = np.zeros((1, 1, 4), np.uint8)
        g[0, 0, :2] = 1
        y = np.zeros((2, 1, 1, 4), np.float64)
        y[1, 0, 0, :] = 1.0
        loss = soft_dice_loss(Tensor(y, dtype=np.float64),
                              OneHotTarget.from_labelmap(labelmap(g, 1)))
        assert abs(loss.item() - (1.0 / 3.0)) <= 1e-6 + DICE_EPS

    def test_masked_class_grads_exactly_zero(self, rng):
        # class 2 unavailable: its probability channel must receive a gradient
        # of exactly zero, bit-for-bit
        g = rng.choice([0, 1, 2, 3], size=(4, 4, 4)).astype(np.uint8)
        g[g == 2] = 0
        lab = labelmap(g, 3, available={1, 3})
        y = Tensor(rng.uniform(0.01, 0.99, size=(4, 4, 4, 4)), requires_grad=True,
                   dtype=np.float64)
        loss = soft_dice_loss(y, OneHotTarget.from_labelmap(lab))
        ad.backward(loss)
        assert np.all(y.grad[2] == 0.0)
        assert np.all(y.grad[0] == 0.0)  # background excluded by default
        assert np.any(y.grad[1] != 0.0) and np.any(y.grad[3] != 0.0)

    def test_masking_equals_exclusion(self, rng):
        # loss with classes {1,3} available == loss computed over only those
        # channels by hand
        g = rng.choice([0, 1, 3], size=(5, 5, 5)).astype(np.uint8)
        lab = labelmap(g, 3, available={1, 3})
        y = rng.uniform(0, 1, size=(4, 5, 5, 5))
        loss = soft_dice_loss(Tensor(y, dtype=np.float64),
                              OneHotTarget.from_labelmap(lab)).item()
        total = 0.0
        for c in (1, 3):
            gm = (g == c).astype(np.float64)
            yc = y[c]
            total += (gm * yc).sum() / ((gm ** 2).sum() + (yc ** 2).sum() + DICE_EPS)
        assert abs(loss - (1.0 - total)) <= 1e-12

    def test_include_background(self, rng):
        g = rng.choice([0, 1], size=(4, 4, 4)).astype(np.uint8)
        lab = labelmap(g, 1)
        y = Tensor(rng.uniform(0, 1, size=(2, 4, 4, 4)), dtype=np.float64)
        tgt = OneHotTarget.from_labelmap(lab)
        l_bg = soft_dice_loss(y, tgt, include_background=True).item()
        l_fg = soft_dice_loss(y, tgt, include_background=False).item()
        assert l_bg != pytest.approx(l_fg)

    def test_probs_out_of_range_rejected(self):
        lab = labelmap(np.ones((2, 2, 2), np.uint8), 1)
        bad = Tensor(np.full((2, 2, 2, 2), 1.5), dtype=np.float64)
        with pytest.raises(ValueError, match="probs"):
            soft_dice_loss(bad, OneHotTarget.from_labelmap(lab))

    def test_fd_gradient(self, rng):
        g = rng.choice([0, 1, 2], size=(3, 3, 3)).astype(np.uint8)
        tgt = OneHotTarget.from_labelmap(labelmap(g, 2))
        y0 = rng.uniform(0.05, 0.95, size=(3, 3, 3, 3))
        y = Tensor(y0.copy(), requires_grad=True, dtype=np.float64)
        ad.backward(soft_dice_loss(y, tgt))

        def f(arr):
            return soft_dice_loss(Tensor(arr, dtype=np.float64), tgt).item()

        flat = y0.reshape(-1)
        worst = 0.0
        for j in rng.choice(flat.size, size=15, replace=False):
            h = 1e-6
            up = flat.copy(); up[j] += h
            dn = flat.copy(); dn[j] -= h
            fd = (f(up.reshape(y0.shape)) - f(dn.reshape(y0.shape))) / (2 * h)
            worst = max(worst, rel_err(y.grad.reshape(-1)[j], fd))
        assert worst <= 1e-5

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_loss_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.choice([0, 1, 2], size=(4, 4, 4)).astype(np.uint8)
        lab = labelmap(g, 2)
        y = Tensor(rng.uniform(0, 1, size=(3, 4, 4, 4)), dtype=np.float64)
        val = soft_dice_loss(y, OneHotTarget.from_labelmap(lab)).item()
        assert -1e-9 <= val <= 1.0 + 1e-9


class TestDsc:
    def test_hand_value(self):
        # |P| = 4 subset of |R| = 8 -> 2*4/12 = 0.6667
        r = np.zeros((2, 2, 4), np.uint8)
        r[0] = 1                 # |R| = 8
        p = np.zeros((2, 2, 4), np.uint8)
        p[0, 0] = 1              # |P| = 4, subset of R
        assert dsc(labelmap(p, 1), labelmap(r, 1), 1) == pytest.approx(2 * 4 / 12)

    def test_empty_conventions(self):
        z = labelmap(np.zeros((2, 2, 2), np.uint8), 1)
        o = labelmap(np.ones((2, 2, 2), np.uint8), 1)
        assert dsc(z, z, 1) == 1.0
        assert dsc(z, o, 1) == 0.0
        assert dsc(o, z, 1) == 0.0
        assert dsc(o, o, 1) == 1.0

    def test_symmetry(self, rng):
        a = labelmap(rng.choice([0, 1], size=(5, 5, 5)).astype(np.uint8), 1)
        b = labelmap(rng.choice([0, 1], size=(5, 5, 5)).astype(np.uint8), 1)
        assert dsc(a, b, 1) == dsc(b, a, 1)

    def test_dims_mismatch(self):
        a = labelmap(np.zeros((2, 2, 2), np.uint8), 1)
        b = labelmap(np.zeros((3, 2, 2), np.uint8), 1)
        with pytest.raises(ValueError, match="dims"):
            dsc(a, b, 1)


def surface_brute_force(mask):
    """Independent surface extraction: loop voxels, check 6-neighbors."""
    mask = np.asarray(mask, dtype=bool)
    out = []
    d, h, w = mask.shape
    for z in range(d):
        for y in range(h):
            for x in range(w):
                if not mask[z, y, x]:
                    continue
                on_border = z in (0, d - 1) or y in (0, h - 1) or x in (0, w - 1)
                exposed = on_border
                if not exposed:
                    for dz, dy, dx in [(1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                       (0, -1, 0), (0, 0, 1), (0, 0, -1)]:
                        if not mask[z + dz, y + dy, x + dx]:
                            exposed = True
                            break
                if exposed:
                    out.append((z, y, x))
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def nsd_brute_force(pred_mask, ref_mask, spacing, tau):
    """NSD with pairwise distance matrices instead of a spatial tree."""
    sp = np.asarray(spacing, np.float64)
    a = surface_brute_force(pred_mask) * sp
    b = surface_brute_force(ref_mask) * sp
    if len(a) == 0 and len(b) == 0:
        return 1.0
    if len(a) == 0 or len(b) == 0:
        return 0.0
    dist = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
    hits = (dist.min(axis=1) <= tau).sum() + (dist.min(axis=0) <= tau).sum()
    return float(hits) / (len(a) + len(b))


class TestSurface:
    def test_cube_surface_count(self):
        # 3^3 solid cube: all 27 voxels except the single interior one
        mask = np.zeros((5, 5, 5), bool)
        mask[1:4, 1:4, 1:4] = True
        assert len(extract_surface(mask)) == 26

    def test_border_voxels_are_surface(self):
        mask = np.ones((3, 3, 3), bool)
        assert len(extract_surface(mask)) == 26  # all but the center

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((6, 6, 6)) < 0.4
        got = set(map(tuple, extract_surface(mask)))
        want = set(map(tuple, surface_brute_force(mask)))
        assert got == want


class TestNsd:
    def test_identity_is_one(self, rng):
        arr = np.zeros((8, 8, 8), np.uint8)
        arr[2:6, 2:6, 2:6] = 1
        lab = labelmap(arr, 1)
        assert nsd(lab, lab, 1, 1.0) == 1.0

    def test_shifted_cube_vs_brute_force(self):
        """Cube shifted by one voxel: every surface point lies within 1 mm of
        the other surface, so NSD(tau=1) = 1; checked against the pairwise-
        distance oracle, and NSD at tau=0.5 drops below 1."""
        a = np.zeros((10, 10, 10), np.uint8)
        b = np.zeros((10, 10, 10), np.uint8)
        a[2:6, 2:6, 2:6] = 1
        b[3:7, 2:6, 2:6] = 1
        la, lb = labelmap(a, 1), labelmap(b, 1)
        got = nsd(la, lb, 1, 1.0)
        want = nsd_brute_force(a == 1, b == 1, (1, 1, 1), 1.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == 1.0
        assert nsd(la, lb, 1, 0.5) < 1.0

    def test_spacing_scales_distances(self):
        a = np.zeros((10, 4, 4), np.uint8)
        b = np.zeros((10, 4, 4), np.uint8)
        a[2:4] = 1
        b[4:6] = 1
        # gap of 2 voxels along the first axis
        fine = nsd(labelmap(a, 1, spacing=(0.5, 0.5, 0.5)),
                   labelmap(b, 1, spacing=(0.5, 0.5, 0.5)), 1, 1.0)
        coarse = nsd(labelmap(a, 1, spacing=(2.0, 2.0, 2.0)),
                     labelmap(b, 1, spacing=(2.0, 2.0, 2.0)), 1, 1.0)
        assert fine > coarse

    def test_empty_conventions(self):
        z = labelmap(np.zeros((3, 3, 3), np.uint8), 1)
        o = labelmap(np.ones((3, 3, 3), np.uint8), 1)
        assert nsd(z, z, 1) == 1.0
        assert nsd(z, o, 1) == 0.0

    def test_validation(self):
        a = labelmap(np.zeros((3, 3, 3), np.uint8), 1)
        b = labelmap(np.zeros((3, 3, 3), np.uint8), 1, spacing=(2, 1, 1))
        with pytest.raises(ValueError, match="spacing"):
            nsd(a, b, 1)
        with pytest.raises(ValueError, match="tau"):
            nsd(a, a, 1, 0.0)

    def test_mismatched_pair_is_data_error(self):
        # a pred/ref mismatch is bad data; a non-positive tau is a bad setting
        a = labelmap(np.zeros((3, 3, 3), np.uint8), 1)
        b = labelmap(np.zeros((3, 3, 4), np.uint8), 1)
        c = labelmap(np.zeros((3, 3, 3), np.uint8), 1, spacing=(2, 1, 1))
        for call, match in [(lambda: dsc(a, b, 1), "dims"), (lambda: nsd(a, b, 1), "dims"),
                            (lambda: nsd(a, c, 1), "spacing")]:
            with pytest.raises(ValidationError, match=match):
                call()
        with pytest.raises(ValueError) as err:
            nsd(a, a, 1, 0.0)
        assert not isinstance(err.value, ValidationError)

    def test_monotone_in_tau_100_pairs(self):
        """NSD is non-decreasing in the tolerance over 100 random mask pairs."""
        rng = np.random.default_rng(42)
        taus = [0.5, 1.0, 1.5, 2.0, 3.0]
        for _ in range(100):
            a = (rng.random((7, 7, 7)) < 0.3).astype(np.uint8)
            b = (rng.random((7, 7, 7)) < 0.3).astype(np.uint8)
            la, lb = labelmap(a, 1), labelmap(b, 1)
            vals = [nsd(la, lb, 1, t) for t in taus]
            assert all(x <= y + 1e-12 for x, y in zip(vals, vals[1:])), vals

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_matches_brute_force_random(self, seed):
        rng = np.random.default_rng(seed)
        a = (rng.random((6, 6, 6)) < 0.3).astype(np.uint8)
        b = (rng.random((6, 6, 6)) < 0.3).astype(np.uint8)
        tau = float(rng.uniform(0.5, 2.5))
        got = nsd(labelmap(a, 1), labelmap(b, 1), 1, tau)
        want = nsd_brute_force(a == 1, b == 1, (1, 1, 1), tau)
        assert got == pytest.approx(want, abs=1e-12)


class TestReport:
    def test_evaluate_pair_and_serialization(self, rng):
        g = rng.choice([0, 1, 2], size=(6, 6, 6)).astype(np.uint8)
        lab = labelmap(g, 2)
        rep = evaluate_pair(lab, lab, case_id="caseX", tau_mm=1.5)
        assert rep.mean_dsc == 1.0 and rep.mean_nsd == 1.0
        d = rep.to_dict()
        assert d["case"] == "caseX"
        assert d["tau_mm"] == 1.5
        assert [e["class"] for e in d["per_class"]] == [1, 2]

    def test_respects_availability(self):
        g = np.zeros((4, 4, 4), np.uint8)
        g[0] = 1
        lab = labelmap(g, 3, available={1})
        rep = evaluate_pair(lab, lab)
        assert sorted(rep.per_class) == [1]
