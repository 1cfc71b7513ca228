import math

import numpy as np
import pytest

from bayesglasso.metrics import (
    adjacency_from_estimate,
    frobenius_loss,
    scores_from_counts,
    stein_loss,
    structure_scores,
    unit_diag_scale,
)

from test_matrixcore import random_spd, symmetrize


def test_stein_loss_zero_at_truth():
    rng = np.random.default_rng(1)
    M = random_spd(5, rng)
    assert abs(stein_loss(M, M)) < 1e-12


def test_stein_loss_hand_oracle():
    # tr(2I * I) - log det(2I * I) - 2 = 4 - ln 4 - 2
    got = stein_loss(2 * np.eye(2), np.eye(2))
    assert got == pytest.approx(4 - math.log(4.0) - 2, abs=1e-12)


def test_stein_loss_positive_off_truth():
    rng = np.random.default_rng(2)
    for _ in range(100):
        truth = random_spd(4, rng)
        perturbed = symmetrize(truth + 0.1 * random_spd(4, rng))
        assert stein_loss(perturbed, truth) > 0.0


def test_stein_loss_permutation_invariant():
    rng = np.random.default_rng(3)
    A = random_spd(5, rng)
    B = random_spd(5, rng)
    base = stein_loss(A, B)
    for i in range(5):
        order = np.arange(5)
        order[i], order[-1] = 4, i
        P = np.ix_(order, order)
        assert stein_loss(A[P], B[P]) == pytest.approx(base, rel=1e-10)


def test_stein_loss_errors():
    with pytest.raises(ValueError, match="not positive definite"):
        stein_loss(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="dimension mismatch"):
        stein_loss(np.eye(2), np.eye(3))


def test_frobenius_loss():
    assert frobenius_loss(np.eye(3), np.eye(3)) == 0.0
    got = frobenius_loss(np.diag([1.0, 1.0]), np.diag([2.0, 3.0]))
    assert got == pytest.approx(math.sqrt(5.0), abs=1e-14)
    with pytest.raises(ValueError):
        frobenius_loss(np.eye(2), np.eye(3))


def test_frobenius_permutation_invariant():
    rng = np.random.default_rng(4)
    A = random_spd(4, rng)
    B = random_spd(4, rng)
    base = frobenius_loss(A, B)
    P = np.ix_([0, 3, 2, 1], [0, 3, 2, 1])
    assert frobenius_loss(A[P], B[P]) == pytest.approx(base, rel=1e-12)


def test_adjacency_threshold_boundary():
    om = np.array([[5.0, 1e-3], [1e-3, 5.0]])
    assert adjacency_from_estimate(om, 1e-3)[0, 1]  # exactly at threshold counts
    om2 = np.array([[5.0, 0.0], [0.0, 5.0]])
    assert not adjacency_from_estimate(om2, 1e-3)[0, 1]


def test_adjacency_absolute_value_and_signed_variant():
    om = np.array([[5.0, -0.5], [-0.5, 5.0]])
    assert adjacency_from_estimate(om, 1e-3)[0, 1]
    # the sign of an entry never matters, only its magnitude
    assert np.array_equal(adjacency_from_estimate(om, 1e-3), adjacency_from_estimate(-om, 1e-3))


def test_adjacency_diagonal_never_marked():
    adj = adjacency_from_estimate(np.eye(3) * 10, 1e-3)
    assert not np.diagonal(adj).any()


def test_adjacency_monotone_in_threshold():
    rng = np.random.default_rng(5)
    om = symmetrize(rng.standard_normal((6, 6)))
    low = adjacency_from_estimate(om, threshold=1e-4)
    high = adjacency_from_estimate(om, threshold=1e-1)
    assert not np.any(high & ~low)  # raising the threshold never adds edges


def test_adjacency_rejects_bad_threshold():
    # 0 < True < inf, so a bool threshold once scored edges at 1.0.
    for bad in (0.0, math.nan, math.inf, True, np.True_):
        with pytest.raises(ValueError):
            adjacency_from_estimate(np.eye(2), threshold=bad)


def test_structure_scores_perfect():
    adj = np.zeros((4, 4), dtype=bool)
    adj[0, 1] = adj[1, 0] = True
    sc = structure_scores(adj, adj)
    assert (sc.fp, sc.fn) == (0, 0)
    assert sc.specificity == 100.0
    assert sc.sensitivity == 100.0
    assert sc.mcc == 100.0


def test_structure_scores_balanced_case_mcc_zero():
    # TP=TN=FP=FN=1 gives MCC numerator 1*1 - 1*1 = 0
    sc = scores_from_counts(1, 1, 1, 1)
    assert sc.mcc == 0.0
    assert sc.specificity == 50.0
    assert sc.sensitivity == 50.0


def test_structure_scores_all_connected_prediction():
    true = np.zeros((4, 4), dtype=bool)
    true[0, 1] = true[1, 0] = True
    pred = np.ones((4, 4), dtype=bool)
    np.fill_diagonal(pred, False)
    sc = structure_scores(pred, true)
    assert sc.tn == 0
    assert sc.specificity == 0.0
    assert sc.mcc == 0.0  # a zero factor in the denominator


def test_structure_scores_counts_unordered_pairs():
    p = 5
    adj = np.zeros((p, p), dtype=bool)
    sc = structure_scores(adj, adj)
    assert sc.tp + sc.tn + sc.fp + sc.fn == p * (p - 1) // 2


def test_structure_scores_nan_when_undefined():
    # a fully connected truth has no absent edges: specificity undefined
    true = np.ones((3, 3), dtype=bool)
    np.fill_diagonal(true, False)
    sc = structure_scores(true, true)
    assert math.isnan(sc.specificity)
    assert sc.sensitivity == 100.0


def test_mcc_as_printed_variant():
    sc_std = scores_from_counts(10, 20, 5, 3)
    sc_printed = scores_from_counts(10, 20, 5, 3, mcc_as_printed=True)
    num = 10 * 20 - 5 * 3
    assert sc_std.mcc == pytest.approx(
        100.0 * num / math.sqrt(15 * 13 * 25 * 23))
    assert sc_printed.mcc == pytest.approx(
        100.0 * num / math.sqrt(15 * 13 * 23 * 23))
    assert sc_std.mcc != sc_printed.mcc


def test_structure_scores_dim_mismatch():
    with pytest.raises(ValueError):
        structure_scores(np.zeros((3, 3), bool), np.zeros((4, 4), bool))


@pytest.mark.parametrize("omega,expect", [(np.eye(4), np.eye(4)),
                                          ([[4.0, 2.0], [2.0, 1.0]], np.ones((2, 2)))],
                         ids=["identity", "rank-one"])
def test_unit_diag_scale_hand_oracle(omega, expect):
    assert np.array_equal(unit_diag_scale(np.array(omega)), expect)


def test_unit_diag_scale_random_pd():
    rng = np.random.default_rng(6)
    for _ in range(100):
        om = random_spd(5, rng)
        out = unit_diag_scale(om)
        assert np.max(np.abs(np.diagonal(out) - 1.0)) == 0.0
        # off-diagonals are correlations of the implied scaling
        assert np.max(np.abs(out)) <= 1.0 + 1e-12


def test_unit_diag_scale_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        unit_diag_scale(np.array([[1.0, 0.0], [0.0, -2.0]]))
    # NaN fails every comparison, so a "<= 0" test lets it through; an
    # infinite entry would scale its row and column to 0.
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            unit_diag_scale(np.array([[bad, 0.1], [0.1, 1.0]]))
