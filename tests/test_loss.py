import numpy as np
import pytest

from conftest import central_diff_grad, fd_step, fd_tolerance, rel_err
from oceseg import (
    LossConfig,
    PairSet,
    ShapeError,
    Tape,
    Tensor,
    oce_loss,
    sample_pairs,
)
from oceseg.loss import _loss_pieces


def run_loss(field_arr, pairs, config, dtype=np.float64):
    t = Tensor(field_arr, dtype)
    with Tape() as tape:
        loss = oce_loss(t, pairs, config)
        tape.backward(loss)
    return loss.item(), t.grad


def loss_value(field_arr, pairs, config, dtype=np.float64):
    """``oce_loss`` evaluated outside a tape."""
    return oce_loss(Tensor(field_arr, dtype), pairs, config).item()


def loss_sigmoid(deltas, temperature=10.0):
    """The loss's sigmoid of |delta|^2 / temperature for each (2,) residual
    delta: a zero anchor value paired with itself at value delta."""
    deltas = np.asarray(deltas, np.float64).reshape(-1, 2)
    same = np.zeros((len(deltas), 2), np.int64)
    _, sig, _ = _loss_pieces(np.zeros_like(deltas), deltas, PairSet(same, same),
                             LossConfig(temperature=temperature))
    return sig


# ---------------------------------------------------------------------------
# sampling

def test_sample_pairs_count_236():
    rng = np.random.default_rng(0)
    pairs = sample_pairs((236, 236), LossConfig(), rng)
    assert len(pairs) == 5569  # floor(0.1 * 236^2)


def test_sample_pairs_radius_and_bounds():
    rng = np.random.default_rng(1)
    cfg = LossConfig()
    pairs = sample_pairs((40, 50), cfg, rng)
    d = pairs.anchors - pairs.partners
    dist = np.hypot(d[:, 0], d[:, 1])
    assert dist.max() <= cfg.pair_radius
    assert dist.min() > 0  # anchor itself excluded
    for arr, (H, W) in ((pairs.anchors, (40, 50)), (pairs.partners, (40, 50))):
        assert arr[:, 0].min() >= 0 and arr[:, 0].max() < H
        assert arr[:, 1].min() >= 0 and arr[:, 1].max() < W
    # anchors distinct
    flat = pairs.anchors[:, 0] * 50 + pairs.anchors[:, 1]
    assert len(np.unique(flat)) == len(pairs)


def test_sample_pairs_admissible_example():
    # ((20,20),(25,25)): distance ~7.07 within radius 10
    assert np.hypot(5, 5) <= 10


def test_sample_pairs_rejects_small_field():
    with pytest.raises(ShapeError):
        sample_pairs((20, 40), LossConfig(), np.random.default_rng(0))


def test_sample_pairs_corner_anchor_in_bounds():
    # force anchors near the corner by sampling many times on a small field
    cfg = LossConfig(anchor_density=1.0)
    pairs = sample_pairs((21, 21), cfg, np.random.default_rng(3))
    corner = np.flatnonzero((pairs.anchors[:, 0] == 0) & (pairs.anchors[:, 1] == 0))
    assert len(corner) == 1  # density 1 includes the corner anchor
    p = pairs.partners[corner[0]]
    assert p[0] >= 0 and p[1] >= 0


# ---------------------------------------------------------------------------
# sigmoid distance

def test_sigma_zero_is_half():
    assert loss_sigmoid([(0.0, 0.0)])[0] == 0.5


def test_sigma_closed_form_value():
    # |delta|^2 = 10, tau = 10 -> 1/(1+e^-1)
    val = loss_sigmoid([(np.sqrt(10.0), 0.0)], 10.0)[0]
    assert abs(val - 0.7310585786300049) < 1e-12


def test_sigma_monotone_bounded():
    # strictly increasing wherever float64 can resolve the tail, never 1
    vals = loss_sigmoid([(r, 0.0) for r in np.linspace(0, 15, 100)], 10.0)
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.5 and vals[-1] < 1.0
    far = loss_sigmoid([(r, 0.0) for r in (15.0, 20.0, 40.0)], 10.0)
    assert all(b >= a for a, b in zip(far, far[1:]))


def test_sigma_rejects_bad_temperature():
    with pytest.raises(ValueError, match="temperature"):
        loss_sigmoid([(1.0, 1.0)], 0.0)


# ---------------------------------------------------------------------------
# loss values

def test_loss_single_pair_zero_field():
    field = np.zeros((2, 30, 30))
    pairs = PairSet(np.array([[10, 20]]), np.array([[10, 10]]))  # i - j = (0, 10)
    cfg = LossConfig(reg_weight=0.0)
    val, _ = run_loss(field, pairs, cfg)
    assert abs(val - 0.9999546021312976) < 1e-12


def test_loss_fixed_point_same_object_pairs():
    # field r_i = i - c on two rectangular objects; same-object pairs give 0.5 each
    H = W = 40
    labels = np.zeros((H, W), int)
    labels[5:15, 5:15] = 1
    labels[22:36, 20:34] = 2
    field = np.zeros((2, H, W))
    for ident in (1, 2):
        ys, xs = np.where(labels == ident)
        field[0, ys, xs] = ys - ys.mean()
        field[1, ys, xs] = xs - xs.mean()
    rng = np.random.default_rng(7)
    anchors, partners = [], []
    for ident in (1, 2):
        coords = np.argwhere(labels == ident)
        for _ in range(40):
            a, p = coords[rng.integers(len(coords))], coords[rng.integers(len(coords))]
            if np.hypot(*(a - p)) <= 10 and not np.array_equal(a, p):
                anchors.append(a)
                partners.append(p)
    pairs = PairSet(np.array(anchors), np.array(partners))
    cfg = LossConfig(reg_weight=0.0)
    val, _ = run_loss(field, pairs, cfg)
    assert abs(val - 0.5 * len(pairs)) < 1e-9 * len(pairs)
    assert loss_value(field, pairs, cfg) == val  # the same value outside a tape


def test_loss_lower_bound():
    rng = np.random.default_rng(5)
    cfg = LossConfig(reg_weight=0.0)
    for _ in range(10):
        field = rng.normal(scale=3.0, size=(2, 30, 30))
        pairs = sample_pairs((30, 30), LossConfig(pair_radius=5.0), rng)
        val, _ = run_loss(field, pairs, cfg)
        assert val >= 0.5 * len(pairs)


def test_regularizer_zero_iff_anchor_field_zero():
    cfg = LossConfig()
    field = np.zeros((2, 30, 30))
    pairs = PairSet(np.array([[3, 3], [10, 10]]), np.array([[3, 5], [12, 10]]))

    def reg():
        # the unweighted regulariser: the sum of the loss's anchor norms
        a = field[:, pairs.anchors[:, 0], pairs.anchors[:, 1]].T
        p = field[:, pairs.partners[:, 0], pairs.partners[:, 1]].T
        return _loss_pieces(a, p, pairs, cfg)[2].sum()

    assert reg() == 0.0
    field[0, 3, 3] = 2.0
    assert reg() == 2.0


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_loss_gradient_matches_finite_differences(dtype):
    rng = np.random.default_rng(17)
    tol = fd_tolerance(dtype)
    h = fd_step(dtype)
    cfg = LossConfig()
    worst = 0.0
    for trial in range(20):
        field = rng.normal(scale=2.0, size=(2, 30, 30))
        pairs = sample_pairs((30, 30), LossConfig(pair_radius=8.0, anchor_density=0.022), rng)
        pairs = PairSet(pairs.anchors[:20], pairs.partners[:20])
        _, grad = run_loss(field, pairs, cfg, dtype)

        # float64 oracle: the loss of the same perturbed inputs, evaluated exactly
        fd = central_diff_grad(lambda a: loss_value(a, pairs, cfg), field.astype(dtype), h)
        worst = max(worst, rel_err(grad, fd))
    assert worst < tol, worst


def test_fixed_point_perturbations_strictly_increase():
    H = W = 30
    field = np.zeros((2, H, W))
    c = np.array([15.0, 15.0])
    ys, xs = np.mgrid[0:H, 0:W]
    field[0] = ys - c[0]
    field[1] = xs - c[1]
    rng = np.random.default_rng(23)
    pairs = sample_pairs((H, W), LossConfig(pair_radius=6.0), rng)
    cfg = LossConfig(reg_weight=0.0)
    base = loss_value(field, pairs, cfg)
    assert abs(base - 0.5 * len(pairs)) < 1e-9 * len(pairs)
    for _ in range(50):
        k = rng.integers(len(pairs))
        target = pairs.anchors[k] if rng.integers(2) else pairs.partners[k]
        bumped = field.copy()
        bumped[:, target[0], target[1]] += rng.normal(scale=1.0, size=2)
        val = loss_value(bumped, pairs, cfg)
        assert val > base


def test_cross_object_saturation_damps_gradients():
    # per-pair gradient magnitude at residual norms >= 3*sqrt(tau) is
    # at most 10% of the maximum over residual space
    cfg = LossConfig(reg_weight=0.0)
    tau = cfg.temperature

    def grad_mag(rho):
        field = np.zeros((2, 30, 30))
        pairs = PairSet(np.array([[5, 5]]), np.array([[5, 6]]))
        # residual = d - (r_a - r_p); d = (0,-1); set r_a to give |resid| = rho
        field[:, 5, 5] = np.array([0.0, -1.0]) - np.array([rho, 0.0])
        _, grad = run_loss(field, pairs, cfg)
        return np.linalg.norm(grad[:, 5, 5])

    rhos = np.linspace(0.01, 6 * np.sqrt(tau), 200)
    mags = np.array([grad_mag(r) for r in rhos])
    peak = mags.max()
    far = mags[rhos >= 3 * np.sqrt(tau)]
    assert far.max() <= 0.10 * peak
