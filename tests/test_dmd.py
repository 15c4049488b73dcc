import numpy as np
import pytest

from dataclasses import replace

from dramn.dmd import (
    DmdConfig,
    TimeSeriesWindow,
    WindowStack,
    build_snapshots,
    dmd,
    dmd_modes,
    eig_small,
    reduced_operator,
    truncated_svd,
)
from dramn.errors import ConfigError, DegenerateWindowError, ZeroMatrixError


def window_from(data, dt=0.001, **kw):
    return TimeSeriesWindow(data=np.asarray(data, dtype=float), dt=dt, **kw)


# The helpers take and give stacks; these look at one matrix or window.

def lone_svd(x1, rank, rel_tol):
    """(U_r, S_r, V_r) of one matrix: its stack of one's only group."""
    [(_, u, s, v)] = truncated_svd(np.asarray(x1, dtype=float)[None], rank, rel_tol)
    return u[0], s[0], v[0]


def lone_eig(a):
    w, lam = eig_small(np.asarray(a)[None])
    return w[0], lam[0]


def lone_dmd(window, cfg):
    """One window's result, without the stack axis."""
    [res] = dmd(WindowStack.of(window), cfg)
    return replace(res, modes=res.modes[0], eigenvalues=res.eigenvalues[0])


def random_stable_system(rng, n, radius=1.1):
    """Random real diagonalizable matrix with distinct eigenvalue moduli."""
    n_pairs = n // 2
    moduli = np.linspace(0.5, radius, n_pairs + n % 2 + n_pairs)
    rng.shuffle(moduli)
    blocks = []
    k = 0
    for _ in range(n_pairs):
        r = moduli[k]
        theta = rng.uniform(0.2, np.pi - 0.2)
        blocks.append(r * np.array([[np.cos(theta), np.sin(theta)],
                                    [-np.sin(theta), np.cos(theta)]]))
        k += 1
    if n % 2:
        blocks.append(np.array([[moduli[k]]]))
    a = np.zeros((n, n))
    pos = 0
    for b in blocks:
        a[pos:pos + b.shape[0], pos:pos + b.shape[0]] = b
        pos += b.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ a @ q.T


def trajectory(a, x0, steps):
    out = np.empty((steps, a.shape[0]))
    out[0] = x0
    for k in range(1, steps):
        out[k] = a @ out[k - 1]
    return out


class TestWindow:
    def test_too_short(self):
        with pytest.raises(DegenerateWindowError):
            window_from([[1.0, 2.0]])

    def test_non_finite(self):
        with pytest.raises(DegenerateWindowError):
            window_from([[1.0], [np.nan]])

    def test_bad_dt(self):
        with pytest.raises(DegenerateWindowError):
            window_from([[1.0], [2.0]], dt=0.0)

    def test_default_channel_names(self):
        w = window_from(np.zeros((3, 2)) + 1.0)
        assert w.channel_names == ("ch0", "ch1")


class TestBuildSnapshots:
    def test_shift_definition(self):
        w = window_from([[1.0], [2.0], [3.0]])
        x1, x2 = build_snapshots(w)
        np.testing.assert_array_equal(x1, [[1.0, 2.0]])
        np.testing.assert_array_equal(x2, [[2.0, 3.0]])

    def test_constant_window(self):
        w = window_from(np.full((4, 2), 7.0))
        x1, x2 = build_snapshots(w)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(x1, np.full((2, 3), 7.0))

    def test_geometric_recurrence(self):
        # x_{k+1} = 0.5 x_k from x_1 = 1, four samples
        vals = [0.5 ** k for k in range(4)]
        x1, x2 = build_snapshots(window_from([[v] for v in vals]))
        np.testing.assert_allclose(x1, [[1.0, 0.5, 0.25]])
        np.testing.assert_allclose(x2, [[0.5, 0.25, 0.125]])


class TestTruncatedSvd:
    def test_identity(self):
        u, s, v = lone_svd(np.eye(3), rank=2, rel_tol=1e-10)
        np.testing.assert_allclose(s, [1.0, 1.0])
        np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(2), atol=1e-12)

    def test_relative_cutoff(self):
        u, s, v = lone_svd(np.diag([3.0, 1e-20]), rank=5, rel_tol=1e-12)
        assert s.shape == (1,)
        np.testing.assert_allclose(s, [3.0])

    def test_against_full_svd(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6))
        u, s, v = lone_svd(x, rank=3, rel_tol=1e-12)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
        # independent reference: eigendecomposition of the Gram matrix
        gram_evals = np.sort(np.linalg.eigvalsh(x @ x.T))[::-1]
        np.testing.assert_allclose(s ** 2, gram_evals[:3], rtol=1e-10)
        recon = u @ np.diag(s) @ v.T
        spectral_err = np.linalg.norm(x - recon, 2)
        assert spectral_err <= np.sqrt(gram_evals[3]) + 1e-10

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrixError):
            lone_svd(np.zeros((3, 5)), rank=2, rel_tol=1e-10)

    def test_bad_rank(self):
        with pytest.raises(ConfigError):
            lone_svd(np.eye(2), rank=0, rel_tol=1e-10)


class TestStackedForms:
    def test_helpers_take_stacks(self):
        with pytest.raises(ValueError):
            truncated_svd(np.eye(3), rank=2, rel_tol=1e-10)
        with pytest.raises(ValueError):
            eig_small(np.eye(3))

    def test_svd_groups_by_retained_count(self):
        rng = np.random.default_rng(8)
        full = rng.standard_normal((4, 9))
        low = np.outer(rng.standard_normal(4), rng.standard_normal(9))
        x = np.stack([full, low, 2.0 * full, low + 0.0])
        groups = truncated_svd(x, rank=3, rel_tol=1e-10)
        assert [g[0].tolist() for g in groups] == [[1, 3], [0, 2]]
        for index, u, s, v in groups:
            for j, k in enumerate(index):
                want = lone_svd(x[k], rank=3, rel_tol=1e-10)
                for got, ref in zip((u[j], s[j], v[j]), want):
                    assert got.tobytes() == ref.tobytes()
        [(index, u, s, v)] = truncated_svd(x[[0, 2]], rank=3, rel_tol=1e-10)
        assert index == slice(None) and u.shape == (2, 4, 3) and v.shape == (2, 9, 3)


class TestReducedOperator:
    def test_static_data_gives_identity(self):
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal((3, 8))
        u, s, v = lone_svd(x1, rank=3, rel_tol=1e-12)
        a_tilde = reduced_operator(u, s, v, x1)
        np.testing.assert_allclose(a_tilde, np.eye(3), atol=1e-10)

    def test_scalar_dynamics(self):
        rng = np.random.default_rng(1)
        x1 = rng.standard_normal((3, 8))
        u, s, v = lone_svd(x1, rank=3, rel_tol=1e-12)
        a_tilde = reduced_operator(u, s, v, 2.0 * x1)
        np.testing.assert_allclose(a_tilde, 2.0 * np.eye(3), atol=1e-10)

    def test_similar_to_generator(self):
        rng = np.random.default_rng(2)
        a = np.array([[0.9, 0.2], [-0.1, 0.7]])
        data = trajectory(a, rng.standard_normal(2), 40)
        x1, x2 = data[:-1].T, data[1:].T
        u, s, v = lone_svd(x1, rank=2, rel_tol=1e-12)
        a_tilde = reduced_operator(u, s, v, x2)
        got = np.sort_complex(np.linalg.eigvals(a_tilde))
        want = np.sort_complex(np.linalg.eigvals(a))
        np.testing.assert_allclose(got, want, atol=1e-8)


class TestEigSmall:
    def test_diagonal(self):
        w, lam = lone_eig(np.diag([0.5, 0.9]))
        np.testing.assert_allclose(lam, [0.9, 0.5])

    def test_rotation_spectrum(self):
        omega = 0.7
        rot = np.array([[np.cos(omega), -np.sin(omega)],
                        [np.sin(omega), np.cos(omega)]])
        _, lam = lone_eig(rot)
        want = {complex(np.cos(omega), np.sin(omega)),
                complex(np.cos(omega), -np.sin(omega))}
        for z in lam:
            assert min(abs(z - t) for t in want) < 1e-12

    def test_double_root_companion(self):
        # companion matrix of z^2 - z + 0.25, double root at 0.5
        comp = np.array([[1.0, -0.25], [1.0, 0.0]])
        _, lam = lone_eig(comp)
        np.testing.assert_allclose(lam, [0.5, 0.5], atol=1e-6)

    def test_ordering_deterministic(self):
        _, lam = lone_eig(np.diag([0.3, -0.9, 0.9]))
        # equal moduli: descending real part breaks the tie
        np.testing.assert_allclose(lam, [0.9, -0.9, 0.3])

    def test_residual_contract(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 6))
        w, lam = lone_eig(a)
        res = np.linalg.norm(a @ w - w * lam, axis=0)
        assert res.max() <= 1e-8 * np.linalg.norm(a)

    def test_rejects_large(self):
        with pytest.raises(ValueError):
            lone_eig(np.eye(33))

    @staticmethod
    def reference_order(lam):
        """Reference for `eig_small`'s order: a stable Python sort."""
        return sorted(range(lam.size),
                      key=lambda k: (-np.abs(lam[k]), -lam[k].real, -lam[k].imag))

    def _operators(self):
        rng = np.random.default_rng(23)
        rot = lambda r, th: r * np.array([[np.cos(th), -np.sin(th)],  # noqa: E731
                                          [np.sin(th), np.cos(th)]])
        ops = [
            # ties in modulus (0.9, -0.9, 0.9j pair) and a full tie (0.3 twice)
            np.diag([0.3, -0.9, 0.9, 0.3, 0.0, -0.0]),
            # a conjugate pair: tied in modulus and real part
            np.block([[rot(0.8, 0.6), np.zeros((2, 2))],
                      [np.zeros((2, 2)), np.diag([0.8, -0.8])]]),
            # two conjugate pairs of one modulus and the real eigenvalues on it
            np.block([[rot(1.0, 0.5), np.zeros((2, 3))],
                      [np.zeros((3, 2)), np.diag([1.0, -1.0, 0.0])]]),
            np.array([[0.0, -1.0], [1.0, 0.0]]),
        ]
        ops += [rng.standard_normal((r, r)) for r in (1, 2, 3, 5, 8) for _ in range(20)]
        return ops

    def test_order_matches_reference_sort(self):
        for a in self._operators():
            w, lam = lone_eig(a)
            lam0, w0 = np.linalg.eig(a)
            order = self.reference_order(lam0)
            assert lam.tobytes() == lam0[order].tobytes()
            assert w.tobytes() == w0[:, order].tobytes()


class TestDmdModes:
    def test_scalar_system(self):
        vals = np.array([[0.5 ** k] for k in range(10)])
        res = lone_dmd(window_from(vals), DmdConfig(rank=1))
        assert res.r_eff == 1
        np.testing.assert_allclose(res.eigenvalues, [0.5], atol=1e-10)

    def test_decoupled_modes_align_with_axes(self):
        a = np.diag([0.9, 0.4])
        data = trajectory(a, np.array([1.0, 1.0]), 30)
        res = lone_dmd(window_from(data), DmdConfig(rank=2))
        np.testing.assert_allclose(sorted(np.abs(res.eigenvalues)), [0.4, 0.9],
                                   atol=1e-9)
        for col, lam in zip(res.modes.T, res.eigenvalues):
            mag = np.abs(col)
            axis = 0 if abs(lam - 0.9) < 1e-6 else 1
            assert mag[axis] > 1e3 * mag[1 - axis]

    def test_identity_dynamics(self):
        rng = np.random.default_rng(9)
        col = rng.standard_normal(3)
        data = np.tile(col, (12, 1))
        res = lone_dmd(window_from(data), DmdConfig(rank=3))
        np.testing.assert_allclose(res.eigenvalues, [1.0], atol=1e-10)
        x2 = data[1:].T
        # single mode spans the (rank-1) column space of the data
        proj = res.modes @ np.linalg.lstsq(res.modes, x2, rcond=None)[0]
        np.testing.assert_allclose(proj.real, x2, atol=1e-9)

    def test_mode_lift_formula(self):
        rng = np.random.default_rng(10)
        x2 = rng.standard_normal((4, 6))
        v = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        s = np.array([3.0, 2.0, 1.0])
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        want = x2 @ v @ np.diag(1.0 / s) @ w
        np.testing.assert_allclose(dmd_modes(x2, v, s, w), want, atol=1e-12)


class TestDmdPipeline:
    def test_lti_recovery(self):
        rng = np.random.default_rng(12)
        a = random_stable_system(rng, 3, radius=0.95)
        data = trajectory(a, rng.standard_normal(3), 200)
        res = lone_dmd(window_from(data), DmdConfig(rank=3))
        want = sorted(np.abs(np.linalg.eigvals(a)))
        got = sorted(np.abs(res.eigenvalues))
        np.testing.assert_allclose(got, want, atol=1e-6)
        assert res.window_len == 200

    def test_constant_window_single_unit_mode(self):
        w = window_from(np.full((50, 3), 2.5))
        res = lone_dmd(w, DmdConfig(rank=5))
        assert res.r_eff == 1
        np.testing.assert_allclose(res.eigenvalues, [1.0], atol=1e-12)

    def test_rank_clamped_by_channels(self):
        rng = np.random.default_rng(13)
        a = random_stable_system(rng, 2, radius=0.9)
        data = trajectory(a, rng.standard_normal(2), 50)
        res = lone_dmd(window_from(data), DmdConfig(rank=5))
        assert res.r_eff <= 2

    def test_eigenvalue_recovery_property(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            a = random_stable_system(rng, n, radius=1.2)
            data = trajectory(a, rng.standard_normal(n), max(10 * n, 40))
            res = lone_dmd(window_from(data), DmdConfig(rank=n))
            got = sorted(np.abs(res.eigenvalues))
            want = sorted(np.abs(np.linalg.eigvals(a)))[-len(got):]
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-6

    def test_shift_invariance(self):
        # a constant channel offset is a fixed point of the augmented system:
        # it adds one unit-eigenvalue mode and leaves the others alone
        rng = np.random.default_rng(21)
        a = random_stable_system(rng, 3, radius=0.9)
        c = np.linalg.qr(rng.standard_normal((5, 5)))[0][:, :3]
        states = trajectory(a, rng.standard_normal(3), 300)
        clean = states @ c.T
        res_clean = lone_dmd(window_from(clean), DmdConfig(rank=3))
        offset = rng.uniform(1.0, 2.0, size=5)
        res_off = lone_dmd(window_from(clean + offset), DmdConfig(rank=4))
        non_unit = sorted(z for z in res_off.eigenvalues if abs(z - 1.0) > 1e-3)
        base = sorted(res_clean.eigenvalues)
        assert len(non_unit) == 3
        assert max(abs(abs(g) - abs(w)) for g, w in zip(non_unit, base)) <= 1e-6
        assert any(abs(z - 1.0) <= 1e-6 for z in res_off.eigenvalues)

    def test_one_step_prediction(self):
        rng = np.random.default_rng(33)
        a = random_stable_system(rng, 4, radius=1.0)
        data = trajectory(a, rng.standard_normal(4), 80)
        res = lone_dmd(window_from(data), DmdConfig(rank=4))
        x1, x2 = data[:-1].T, data[1:].T
        phi = res.modes
        pred = phi @ np.diag(res.eigenvalues) @ np.linalg.pinv(phi) @ x1
        rel = np.linalg.norm(x2 - pred.real) / np.linalg.norm(x2)
        assert rel <= 1e-6

    def test_r_eff_bound(self):
        rng = np.random.default_rng(40)
        data = rng.standard_normal((30, 2))
        res = lone_dmd(window_from(data), DmdConfig(rank=10))
        assert res.r_eff <= min(10, 2, 30 - 1)
        assert res.modes.shape[0] == 2
