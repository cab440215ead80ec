import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from oracles import (
    boundary_diagonal,
    brute_config_energy,
    brute_sector_rows,
    kron_kink_hamiltonian,
    sector_kron_indices,
)
from rank_order import hopping_lower, reference_kink
from xxzkink.basis import SectorBasis, rank_terms, reachable_sectors, sector_counts
from xxzkink.halfint import HalfInt
import xxzkink.hamiltonian
from xxzkink.hamiltonian import (
    HalfChains,
    SectorOperator,
    build_sector_operator,
    half_chain_bytes,
    hopping_bytes,
    hopping_structure,
    ising_diagonal,
)

H = HalfInt


def _hop_radicand(two_j, raised, lowered):
    """Exact integer under the root of a hop's S+ S- product: the raised
    site's digit goes from raised to raised - 1, giving (J - m)(J + m + 1),
    and the lowered site's from lowered to lowered + 1, giving
    (J + m)(J - m + 1), with m = J - d."""
    return raised * (two_j - raised + 1) * (two_j - lowered) * (lowered + 1)


def _bond_energies(two_j, row):
    """E(c) = sum_a (J + m_a)(J - m_{a+1}) in Fractions, from m = J - d."""
    J = Fraction(two_j, 2)
    m = [J - d for d in row]
    return sum((J + a) * (J - b) for a, b in zip(m, m[1:]))


def _diagonal_at(two_j, L, row):
    """ising_diagonal's entry for one digit row, located by its rank."""
    two_m = (2 * L + 1) * two_j - 2 * sum(row)
    basis = SectorBasis(H(two_j), L, H(two_m))
    index = int(rank_terms(basis.prefix_counts, [row])[0])
    assert basis.down[index].tolist() == row
    return ising_diagonal(basis)[index]


def test_config_energy_examples():
    # m = (1, 0, 1) at J = 1
    assert _diagonal_at(2, 1, [0, 1, 0]) == _bond_energies(2, [0, 1, 0]) == 2
    # ground configurations have energy zero: m = (-3/2, -3/2, 1/2, 3/2, 3/2)
    assert _diagonal_at(3, 2, [3, 3, 1, 0, 0]) == _bond_energies(3, [3, 3, 1, 0, 0]) == 0
    # against the brute-force oracle on a whole small space
    rows = brute_sector_rows(3, 1, -1)
    diag = ising_diagonal(SectorBasis(H(3), 1, H(-1)))
    assert diag.tolist() == [brute_config_energy(3, row) for row in rows]


def test_ising_diagonal_matches_scalar_energy():
    basis = SectorBasis(H(3), 2, H(1))
    diag = ising_diagonal(basis)
    for i, row in enumerate(basis.down.tolist()):
        assert diag[i] == brute_config_energy(3, row) == _bond_energies(3, row)
    assert diag.dtype == np.int64
    assert (diag >= 0).all()


def test_ising_limit_diagonal_spectrum():
    op = build_sector_operator(H(1), 2, H(3), "kink", 0.0)
    assert op.diagonal_only
    assert sorted(op.diag) == [0, 1, 1, 1, 1]


@pytest.mark.parametrize(
    "two_j,L,delta_inv",
    [(1, 1, 0.0), (1, 1, 0.3), (1, 2, 0.7), (2, 1, 0.4), (1, 1, 1.0), (3, 1, 0.25)],
)
def test_operators_match_tensor_oracle(two_j, L, delta_inv):
    oracle = {v: kron_kink_hamiltonian(two_j, L, delta_inv, v)
              for v in ("kink", "antikink", "ising_kink", "ising_free", "h1", "h2")}
    for two_m in reachable_sectors(H(two_j), L):
        basis = SectorBasis(H(two_j), L, H(two_m))
        idx = sector_kron_indices(basis)
        energy, edge = ising_diagonal(basis), boundary_diagonal(basis)
        lower = hopping_lower(hopping_structure(basis), basis.dim)
        halves = HalfChains(H(two_j), L, H(two_m))
        at = idx[halves.order]  # the tensor index of each operator index
        # the two chains and the blocks they are summed from, in the operators'
        # order; then the rank-order blocks
        got = [(v, at, build_sector_operator(H(two_j), L, H(two_m), v, delta_inv).to_dense())
               for v in ("kink", "antikink")]
        got += [("ising_kink", at, np.diag(halves.diagonal(0.0))),
                ("ising_free", at, np.diag(halves.diagonal(1.0))), ("h1", at, halves.csr.toarray())]
        got += [("ising_kink", idx, np.diag(energy)), ("ising_free", idx, np.diag(energy + edge)),
                ("h2", idx, np.diag(edge)), ("h1", idx, (lower + lower.T).toarray())]
        for variant, where, matrix in got:
            assert np.abs(oracle[variant][np.ix_(where, where)] - matrix).max() <= 1e-12, variant


def test_exact_transpose_symmetry():
    for two_j, L, variant, dv in [
        (3, 2, "kink", 0.37),
        (3, 2, "h1", None),
        (4, 2, "antikink", 0.9),
        (1, 3, "kink", 1.0),
    ]:
        for two_m in reachable_sectors(H(two_j), L)[:: max(1, two_j)]:
            if variant == "h1":  # the unscaled hopping as an operator of its own
                halves = HalfChains(H(two_j), L, H(two_m))
                op = SectorOperator(np.zeros(halves.dim), halves, 1.0)
            else:
                op = build_sector_operator(H(two_j), L, H(two_m), variant, dv)
            assert (op.matrix - op.matrix.T).nnz == 0


def test_hopping_entries_are_ladder_products():
    op = build_sector_operator(H(3), 2, H(-1), "kink", 0.5)
    down = op.halves.digit_rows(np.arange(op.dim))
    coo = op.matrix.tocoo()
    checked = 0
    for r, c, v in zip(coo.row, coo.col, coo.data):
        if r == c:
            continue
        a = down[r]
        b = down[c]
        sites = np.nonzero(a != b)[0]
        assert sites.size == 2 and sites[1] == sites[0] + 1  # single nearest-neighbor hop
        da, db = (int(d) for d in a[sites])
        if b[sites[0]] == da - 1:  # raised on the left, lowered on the right
            radicand = _hop_radicand(3, da, db)
        else:
            radicand = _hop_radicand(3, db, da)
        assert v == 0.5 * (-0.5 * math.sqrt(radicand))  # delta_inv times the h1 entry
        checked += 1
    assert checked == coo.nnz - op.dim


# 2J = 127 is the largest spin the int8 digits hold.  At L = 1 the sector
# 2M = -127 (digit sum 254) holds (127, 127, 0) and (0, 127, 127), where the
# bond terms reach 127 * 127 and a digit pair sums to 254.
@pytest.mark.parametrize("two_m", [-379, -127, 127, 379])
def test_diagonals_exact_at_the_int8_spin_limit(two_m):
    basis = SectorBasis(H(127), 1, H(two_m))
    assert basis.down.dtype == np.int8
    J = Fraction(127, 2)
    configs = [[J - d for d in row] for row in basis.down.tolist()]  # m = J - d
    energy = [_bond_energies(127, row) for row in basis.down.tolist()]
    free = [float(sum(J * J - a * b for a, b in zip(m, m[1:]))) for m in configs]
    edge = [float(J * (m[-1] - m[0])) for m in configs]
    diag = ising_diagonal(basis)
    assert diag.dtype == np.int64
    assert diag.tolist() == energy
    assert (diag + boundary_diagonal(basis)).tolist() == free
    assert boundary_diagonal(basis).tolist() == edge
    # the operators' diagonals, in their own order
    halves = HalfChains(H(127), 1, H(two_m))
    assert halves.diagonal(0.0).tolist() == [energy[r] for r in halves.order]
    assert halves.diagonal(1.0).tolist() == [free[r] for r in halves.order]
    if two_m == -127:
        assert max(energy) == 127 * 127


@pytest.mark.parametrize("two_m", [-127, 379])
def test_hopping_exact_at_the_int8_spin_limit(two_m):
    J = H(127)
    basis = SectorBasis(J, 1, H(two_m))
    s = hopping_structure(basis)
    down = basis.down.astype(np.int64)
    raise_lower = (down[:, :-1] >= 1) & (down[:, 1:] <= 126)
    lower_raise = (down[:, :-1] <= 126) & (down[:, 1:] >= 1)
    # one direction is stored: every raise-at-a move, and nothing else
    assert s.rows.size == raise_lower.sum()
    for r, c, v in zip(s.rows, s.cols, s.values):
        assert c < r
        step = down[c] - down[r]
        a = int(np.nonzero(step)[0][0])
        assert step.tolist() == [0] * a + [-1, 1] + [0] * (basis.n_sites - a - 2)
        radicand = _hop_radicand(127, int(down[r, a]), int(down[r, a + 1]))
        assert v == -0.5 * math.sqrt(radicand)
    # adding the transpose gives both directions, exactly symmetric
    lower = hopping_lower(s, basis.dim)
    h1 = (lower + lower.T).tocsr()
    assert h1.nnz == raise_lower.sum() + lower_raise.sum()
    assert (h1 != h1.T).nnz == 0
    # and the operators' CSR holds the very same entries, in their own order
    halves = HalfChains(J, 1, H(two_m))
    assert (halves.csr != h1[halves.order][:, halves.order]).nnz == 0


@pytest.mark.parametrize("two_j, L, two_m", [
    (1, 4, -1), (2, 3, 0), (3, 3, -3), (4, 2, 2), (5, 2, -5), (127, 1, -127), (127, 2, 621),
    (1, 4, 7), (3, 4, -3),
])
def test_hopping_structure_one_triangle_int32(two_j, L, two_m):
    basis = SectorBasis(H(two_j), L, H(two_m))
    s = hopping_structure(basis)
    assert s.rows.size > 0
    assert s.rows.dtype == s.cols.dtype == np.int32
    assert s.values.dtype == np.float64
    assert (s.cols < s.rows).all()
    assert s.rows.nbytes + s.cols.nbytes + s.values.nbytes == 16 * s.rows.size
    # one counting table gives both sizes, and the preflight prices the CSR's build
    assert sector_counts(H(two_j), L, H(two_m)) == (basis.dim, s.rows.size)
    assert basis.hops == s.rows.size
    # triplets come bond by bond; each neighbour moves one unit from site a to a + 1
    bond = np.arange(s.rows.size) // (s.rows.size // (basis.n_sites - 1))
    moved = basis.down[s.rows].astype(np.int64)
    moved[np.arange(s.rows.size), bond] -= 1
    moved[np.arange(s.rows.size), bond + 1] += 1
    assert np.array_equal(basis.down[s.cols], moved)
    # the operators' symmetric CSR holds both directions with int32 indices
    halves = HalfChains(H(two_j), L, H(two_m))
    tracemalloc.start()
    try:
        csr = halves.csr
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= hopping_bytes(basis.dim, basis.hops)
    assert csr.nnz == 2 * s.rows.size
    assert csr.indices.dtype == csr.indptr.dtype == np.int32
    assert csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes == (
        2 * 12 * basis.hops + 4 * (basis.dim + 1))


@pytest.mark.parametrize("two_j, L, two_m", [
    (1, 4, -1), (2, 3, 0), (3, 3, -3), (4, 2, 2), (5, 2, -5), (127, 1, -127), (127, 2, 621),
])
def test_hopping_matrix_equals_both_direction_coo(two_j, L, two_m):
    basis = SectorBasis(H(two_j), L, H(two_m))
    s = hopping_structure(basis)
    lower = hopping_lower(s, basis.dim)
    shape = (basis.dim, basis.dim)
    # the stored CSR is the COO of the triplets, rows sorted, int32 indices
    order = np.lexsort((s.cols, s.rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(s.rows, minlength=basis.dim))])
    for name, want in (("indptr", indptr), ("indices", s.cols[order]), ("data", s.values[order])):
        assert np.array_equal(getattr(lower, name), want), name
    assert lower.indices.dtype == lower.indptr.dtype == np.int32
    assert lower.data.dtype == np.float64
    # L + L^T is h1: the both-direction COO, entry for entry
    both = sparse.csr_matrix(
        (np.concatenate([s.values, s.values]),
         (np.concatenate([s.rows, s.cols]), np.concatenate([s.cols, s.rows]))),
        shape=shape,
    )
    full = (lower + lower.T).tocsr()
    full.sort_indices()
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(full, name), getattr(both, name)), name
    # the operators' CSR is the same h1, entry for entry, in their own order
    halves = HalfChains(H(two_j), L, H(two_m))
    assert (halves.csr != both[halves.order][:, halves.order]).nnz == 0


@pytest.mark.parametrize("two_j, L, two_m, dv", [(3, 2, -1, 0.4), (3, 4, -3, 0.7), (127, 1, -127, 0.3)])
def test_matvec_matches_assembled_matrix(two_j, L, two_m, dv):
    # (3, 4, -3) has 27 876 states, so matvec works through several blocks
    halves = HalfChains(H(two_j), L, H(two_m))
    v = np.random.default_rng(5).standard_normal(halves.dim)
    rows = np.arange(0, halves.dim, 7)
    energy = halves.diagonal(0.0)
    edge = halves.diagonal(1.0) - energy
    # the two chains, then E, E + B, h1 and B as operators over the same tables
    ops = [build_sector_operator(H(two_j), L, H(two_m), v, dv, halves=halves)
           for v in ("kink", "antikink")]
    ops += [SectorOperator(energy, halves, 0.0), SectorOperator(energy + edge, halves, 0.0),
            SectorOperator(np.zeros(halves.dim), halves, 1.0), SectorOperator(edge, halves, 0.0)]
    csr = halves.csr
    for op in ops:
        # every operator of the sector applies the one CSR of h1 its tables hold
        assert op.halves.csr is csr
        matrix = op.matrix
        norm = float(abs(matrix).sum(axis=1).max())
        assert op.inf_norm() == pytest.approx(norm, rel=1e-14)
        assert np.abs(op.matvec(v) - matrix @ v).max() <= 1e-13 * (1.0 + norm)
        assert np.array_equal(op.to_dense(rows), matrix[rows][:, rows].toarray())


def test_kink_antikink_unitary_equivalence():
    from scipy.linalg import eigvalsh

    for two_j in (1, 3):
        for two_m in (two_j, -3 * two_j):
            kink = build_sector_operator(H(two_j), 2, H(two_m), "kink", 0.4)
            anti = build_sector_operator(H(two_j), 2, H(-two_m), "antikink", 0.4)
            assert kink.dim == anti.dim
            gap = np.abs(eigvalsh(kink.to_dense()) - eigvalsh(anti.to_dense())).max()
            assert gap <= 1e-10


def test_build_errors():
    with pytest.raises(ValueError):
        build_sector_operator(H(1), 2, H(3), "kink", 1.5)
    with pytest.raises(TypeError):
        build_sector_operator(H(1), 2, H(3), "kink")  # missing delta_inv
    with pytest.raises(ValueError):
        build_sector_operator(H(1), 2, H(99), "kink", 0.5)  # unreachable sector
    # only the two chains are built; their blocks have functions of their own
    for variant in ("ising_kink", "heisenberg"):
        with pytest.raises(ValueError, match="unknown variant"):
            build_sector_operator(H(1), 2, H(3), variant, 0.5)
    # half-chain tables of another sector
    with pytest.raises(ValueError, match="half-chain tables do not match"):
        build_sector_operator(H(1), 2, H(3), "kink", 0.5, halves=HalfChains(H(1), 2, H(1)))
    # a stale keyword (a basis, an h1 triangle or a full h1) fails instead of being ignored
    for stale in ("basis", "lower", "h1"):
        with pytest.raises(TypeError):
            build_sector_operator(H(1), 2, H(3), "kink", 0.5, **{stale: None})


# every chain 2J = 1..5, L <= 4; the sectors M <= 0 of at most 3000 states,
# and the largest of at most 30 000
@pytest.mark.parametrize("two_j, L", [(j, L) for j in range(1, 6) for L in range(1, 5)])
def test_half_chain_route_matches_the_triangle(two_j, L):
    # the operators, indexed and built from half-chain tables, against the
    # rank-order reference summed from the strict lower triangle of h1
    dims = {tm: sector_counts(H(two_j), L, H(tm))[0]
            for tm in reachable_sectors(H(two_j), L) if tm <= 0}
    sectors = [tm for tm, dim in dims.items() if dim <= 3000]
    sectors += [max((tm for tm in dims if dims[tm] <= 30000), key=dims.get)]
    rng = np.random.default_rng(two_j * 10 + L)
    for two_m in sectors:
        basis, reference = reference_kink(two_j, L, two_m, 0.7)
        lower = hopping_lower(hopping_structure(basis), basis.dim)
        op = build_sector_operator(H(two_j), L, H(two_m), "kink", 0.7)
        order = op.order
        assert order.dtype == np.int32
        assert np.array_equal(np.sort(order), np.arange(basis.dim))
        assert np.array_equal(op.halves.digit_rows(np.arange(basis.dim)), basis.down[order])
        assert op.halves.hops == basis.hops
        # the diagonal entry for entry; h1 x from either kernel, through the order map
        assert np.array_equal(op.diag, reference.diagonal()[order])
        x = rng.standard_normal(basis.dim)
        want = (lower @ x + lower.T @ x)[order]
        for got in (op.halves.csr @ x[order], op.halves.apply(x[order])):
            assert np.abs(got - want).max() <= 1e-13 * max(np.abs(want).max(), 1.0)
        norm = float(abs(reference).sum(axis=1).max())
        assert np.abs(op.matvec(x[order]) - (reference @ x)[order]).max() <= 1e-13 * (1.0 + norm)
        assert op.inf_norm() == pytest.approx(norm, rel=1e-13)
        # submatrices and the assembled matrix hold the very same entries
        rows = np.sort(rng.choice(basis.dim, min(basis.dim, 60), replace=False))
        ranks = np.argsort(order[rows])
        chosen = np.sort(order[rows])
        assert np.array_equal(op.to_dense(rows)[np.ix_(ranks, ranks)],
                              reference[chosen][:, chosen].toarray())
        matrix = op.matrix
        assert matrix.nnz == reference.nnz
        assert (matrix != reference[order][:, order]).nnz == 0


def test_csr_and_blockwise_products_agree(monkeypatch):
    # h1 x on one sector, from the CSR and from the half-chain blocks
    halves = HalfChains(H(3), 4, H(-3))
    h1 = SectorOperator(np.zeros(halves.dim), halves, 1.0)
    x = np.random.default_rng(3).standard_normal(halves.dim)
    products = []
    for min_dim in (math.inf, 0):
        monkeypatch.setattr(xxzkink.hamiltonian, "HALF_CHAIN_MIN_DIM", min_dim)
        products.append(h1.matvec(x))
    assert "csr" in vars(halves)  # the first product built the CSR
    assert np.linalg.norm(products[0] - products[1]) <= 1e-15 * np.linalg.norm(x)


@pytest.mark.parametrize(
    "two_j,L,delta_inv",
    [(1, 1, 0.3), (1, 2, 0.7), (2, 1, 0.4), (1, 1, 1.0), (3, 1, 0.25), (2, 2, 0.6)],
)
def test_half_chain_operators_match_tensor_oracle(two_j, L, delta_inv):
    oracle = {v: kron_kink_hamiltonian(two_j, L, delta_inv, v) for v in ("kink", "antikink")}
    for two_m in reachable_sectors(H(two_j), L):
        halves = HalfChains(H(two_j), L, H(two_m))
        idx = sector_kron_indices(SectorBasis(H(two_j), L, H(two_m)))[halves.order]
        for variant, full in oracle.items():
            op = build_sector_operator(H(two_j), L, H(two_m), variant, delta_inv, halves=halves)
            assert np.abs(full[np.ix_(idx, idx)] - op.to_dense()).max() <= 1e-12, variant


@pytest.mark.parametrize("two_j, L, two_m", [(3, 4, -3), (1, 3, -1), (127, 1, -127), (2, 1, 6)])
def test_half_chain_bytes_price_the_tables(two_j, L, two_m):
    halves = HalfChains(H(two_j), L, H(two_m))
    tables = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
                 for m in halves.left_hop + halves.right_hop)
    tables += sum(rows.nbytes for rows in halves.left + halves.right)
    rows = sum(len(r) for r in halves.left + halves.right)
    # two float64 factors per row bound the middle bond's; then the product's
    # two scratch blocks and the order map
    factors = sum(len(a) + len(b) for _, _, a, b in halves.middle[1:])
    assert 8 * factors <= 16 * rows
    assert half_chain_bytes(H(two_j), L, H(two_m)) == (
        tables + 16 * rows + 2 * 8 * halves.largest + halves.order.nbytes)
    assert all(m.indices.dtype == m.indptr.dtype == np.int32
               for m in halves.left_hop + halves.right_hop)


def test_half_chain_tables_refuse_what_the_basis_refuses():
    with pytest.raises(ValueError, match="unreachable"):
        HalfChains(H(1), 2, H(99))
    halves = HalfChains(H(1), 2, H(1))
    with pytest.raises(ValueError, match="half-chain tables do not match"):
        build_sector_operator(H(1), 2, H(3), "kink", 0.5, halves=halves)
