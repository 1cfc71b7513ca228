import numpy as np
import pytest

from bayesglasso.designs import (
    DESIGN_KINDS,
    GraphDesign,
    TrueModel,
    build_design,
    scatter_matrix,
    simulate_data,
    true_model,
)
from bayesglasso.distributions import RngStream
from bayesglasso.matrixcore import pd_check


def test_ar1_p2_covariance():
    model = true_model("ar1", 2)
    assert np.allclose(model.sigma_true, [[1.0, 0.7], [0.7, 1.0]])


def test_ar1_adjacency_tridiagonal():
    model = true_model("ar1", 6)
    expect = np.abs(np.subtract.outer(np.arange(6), np.arange(6))) == 1
    assert np.array_equal(model.adjacency_true, expect)
    # numerical inverse really is tridiagonal
    off = model.omega_true[~expect & ~np.eye(6, dtype=bool)]
    assert np.max(np.abs(off)) < 1e-12


@pytest.mark.parametrize("kind,expect", [
    ("ar2", [[1.0, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 1.0]]),
    ("circle", [[2.0, 1.0, 0.9], [1.0, 2.0, 1.0], [0.9, 1.0, 2.0]])], ids=["ar2", "circle"])
def test_p3_precision_matches_oracle(kind, expect):
    model = true_model(kind, 3)
    assert np.array_equal(model.omega_true, expect)
    assert pd_check(model.omega_true) is not None


def test_block_structure():
    model = true_model("block", 6)
    sig = model.sigma_true
    assert np.all(np.diagonal(sig) == 1.0)
    assert np.all(sig[:3, :3][~np.eye(3, dtype=bool)] == 0.5)
    assert np.all(sig[:3, 3:] == 0.0)
    # adjacency is the within-block pattern
    expect = np.zeros((6, 6), dtype=bool)
    expect[:3, :3] = True
    expect[3:, 3:] = True
    np.fill_diagonal(expect, False)
    assert np.array_equal(model.adjacency_true, expect)


def test_star_structure():
    model = true_model("star", 5)
    om = model.omega_true
    assert np.all(np.diagonal(om) == 1.0)
    assert np.all(om[0, 1:] == 0.1)
    assert np.all(om[1:, 1:][~np.eye(4, dtype=bool)] == 0.0)
    assert model.adjacency_true[0, 1:].all()
    assert not model.adjacency_true[1:, 1:].any()


def test_full_structure():
    model = true_model("full", 4)
    om = model.omega_true
    assert np.all(np.diagonal(om) == 2.0)
    assert np.all(om[~np.eye(4, dtype=bool)] == 1.0)
    assert model.adjacency_true.sum() == 12


def test_all_designs_pd_and_consistent():
    for kind in DESIGN_KINDS:
        for p in (4, 10, 30):
            model = true_model(kind, p)
            assert pd_check(model.omega_true) is not None, (kind, p)
            err = np.max(np.abs(model.omega_true @ model.sigma_true - np.eye(p)))
            assert err < 1e-8, (kind, p)
            adj = model.adjacency_true
            assert np.array_equal(adj, adj.T)
            assert not np.diagonal(adj).any()


def test_adjacency_matches_nonzero_pattern():
    # exact zero comparison against the specified matrices
    for kind in ("ar2", "star", "circle", "full"):
        model = true_model(kind, 8)
        pattern = model.omega_true != 0.0
        np.fill_diagonal(pattern, False)
        assert np.array_equal(model.adjacency_true, pattern), kind


def test_design_validation():
    with pytest.raises(ValueError):
        GraphDesign("ring", 10)
    with pytest.raises(ValueError):
        GraphDesign("circle", 2)
    with pytest.raises(ValueError):
        GraphDesign("ar2", 2)
    with pytest.raises(ValueError):
        GraphDesign("block", 7)
    with pytest.raises(ValueError):
        GraphDesign("ar1", 1)


def test_star_size_rule():
    # star's precision matrix has eigenvalues 1 +- 0.1 sqrt(p - 1), so it is
    # singular from p = 101; the design rejects that size when it is made.
    with pytest.raises(ValueError, match="star needs p <= 100, got 101"):
        GraphDesign("star", 101)
    model = true_model("star", 100)
    assert pd_check(model.omega_true) is not None
    assert pd_check(model.sigma_true) is not None
    assert np.isclose(np.linalg.eigvalsh(model.omega_true)[0], 1 - 0.1 * np.sqrt(99))


# np.arange(5.5) has six entries, so a float p would build a 6 x 6 model.
# bool subclasses int; True was once rejected only as "need p >= 2".
@pytest.mark.parametrize("kind,p", [("ar1", 5.5), ("circle", 6.0), ("ar1", True),
                                    ("ar1", False), ("ar1", np.True_)],
                         ids=["5.5", "6.0", "True", "False", "np.True_"])
def test_design_size_must_be_an_integer(kind, p):
    with pytest.raises(ValueError, match=f"p must be an integer >= 2, got {p!r}"):
        GraphDesign(kind, p)


def test_simulate_data_shape_and_determinism():
    model = true_model("ar1", 4)
    a = simulate_data(model, 11, RngStream(5))
    b = simulate_data(model, 11, RngStream(5))
    assert a.shape == (11, 4)
    assert np.array_equal(a, b)
    c = simulate_data(model, 11, RngStream(6))
    assert not np.array_equal(a, c)


def test_simulate_data_rejects_a_covariance_not_positive_definite():
    sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    model = TrueModel(omega_true=np.eye(2), sigma_true=sigma,
                      adjacency_true=np.zeros((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="true covariance not positive definite"):
        simulate_data(model, 5, RngStream(1))


def test_simulate_data_correlation():
    model = true_model("ar1", 2)
    Y = simulate_data(model, 100_000, RngStream(7))
    corr = np.corrcoef(Y.T)[0, 1]
    assert abs(corr - 0.7) < 0.01


@pytest.mark.parametrize("Y,expect", [(np.eye(2), np.eye(2)),
                                      ([[1.0, 2.0]], [[1.0, 2.0], [2.0, 4.0]])],
                         ids=["orthonormal-rows", "single-row"])
def test_scatter_matrix_hand_oracle(Y, expect):
    assert np.array_equal(scatter_matrix(np.array(Y)), expect)


def test_scatter_matrix_rejects_a_vector():
    with pytest.raises(ValueError, match="need an n x p data matrix"):
        scatter_matrix(np.ones(3))


def test_scatter_matrix_exactly_symmetric():
    rng = np.random.default_rng(8)
    S = scatter_matrix(rng.standard_normal((40, 7)))
    assert np.max(np.abs(S - S.T)) == 0.0


def test_scatter_converges_to_sigma():
    for kind in DESIGN_KINDS:
        model = true_model(kind, 4)
        Y = simulate_data(model, 100_000, RngStream(9))
        err = np.max(np.abs(scatter_matrix(Y) / 100_000 - model.sigma_true))
        assert err < 0.05, kind


def test_build_design_from_dataclass():
    model = build_design(GraphDesign("circle", 5))
    assert model.omega_true.shape == (5, 5)
    assert true_model("circle", np.int64(6)).omega_true.shape == (6, 6)
