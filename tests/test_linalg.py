import warnings

import numpy as np
import pytest

from entbound import (DensityMatrix, DimensionError, coupled_system, criteria, evaluate_criteria,
                      family_state, functionals, linalg, states, verdicts)
from entbound.criteria import _partial_transposes, _sectors
from entbound.linalg import (_hermitian_test, _Sectors, as_complex_matrix, as_complex_stack,
                             trace_norms)
from entbound.states import _check_densities, _density_sectors, _States
from helpers import (EDGES, edge_base, exactly_hermitian, hermitian_part, hermitian_part_path,
                     huge_pair, nan_entry, one_block, signed_zero_real, skew_1e13, smallest_pair)


def norm(m):
    """The trace norm of one matrix, a stack of one member of one block."""
    return trace_norms(one_block(m[None]))[0]


def rand_complex(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def rand_hermitian(rng, n):
    a = rand_complex(rng, n, n)
    return (a + a.conj().T) / 2


def rand_unitary(rng, n):
    q, r = np.linalg.qr(rand_complex(rng, n, n))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


class TestTraceNorm:
    def test_identity(self):
        for n in (2, 5, 16):
            assert norm(np.eye(n)) == pytest.approx(n, abs=1e-12)

    def test_hermitian_diagonal(self):
        assert norm(np.diag([1.0, -2.0, 0.0])) == pytest.approx(3.0, abs=1e-12)

    def test_matches_dilation_spectrum_oracle(self):
        # eigenvalues of [[0, M], [M^dag, 0]] come in +/- sigma pairs,
        # so half the absolute eigenvalue sum is the trace norm
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rand_complex(rng, 6, 6)
            dilation = np.zeros((12, 12), dtype=complex)
            dilation[:6, 6:] = m
            dilation[6:, :6] = m.conj().T
            oracle = np.abs(np.linalg.eigvalsh(dilation)).sum() / 2
            assert norm(m) == pytest.approx(oracle, abs=1e-10)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norms(one_block(np.ones((2, 3))[None]))

    def test_stack_gives_each_matrix_its_own_bits(self, monkeypatch):
        # each member takes its own route, so a mixed stack gives every member
        # the bits it gets alone
        rng = np.random.default_rng(14)
        mats = [rand_hermitian(rng, 6), rand_complex(rng, 6, 6), rand_complex(rng, 6, 6),
                rand_hermitian(rng, 6), rand_complex(rng, 6, 6)]
        got = trace_norms(one_block(np.stack(mats)))
        alone = np.array([norm(m) for m in mats])
        assert got.tobytes() == alone.tobytes()
        pair = one_block(np.stack(mats[:1] + mats[3:4]))
        assert trace_norms(pair).tolist() == alone[[0, 3]].tolist()
        # members of two blocks of size 3 and one of size 4: of error 0, of error
        # 1e-14, and not Hermitian; the kernel has two routes, and only error 0
        # takes the eigensolve
        kinds = ["exact", "tolerance", "skew", "exact", "skew", "tolerance"]
        small, large = [], []
        for kind in kinds:
            small.append(np.stack([rand_hermitian(rng, 3), rand_hermitian(rng, 3)]))
            large.append(rand_hermitian(rng, 4)[None])
            if kind == "tolerance":
                large[-1][0, 0, 1] += 1e-14
            elif kind == "skew":
                small[-1] = small[-1] + 0.5 * rand_complex(rng, 3, 3)
        blocks = [np.stack(small), np.stack(large)]
        assert exactly_hermitian(blocks).tolist() == [kind == "exact" for kind in kinds]
        alone = np.concatenate([trace_norms([b[k:k + 1] for b in blocks])
                                for k in range(len(kinds))])
        calls = []
        for name in ("eigvalsh", "svd"):
            def spy(m, *args, name=name, kernel=getattr(np.linalg, name), **kwargs):
                calls.append((name, m))
                return kernel(m, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        # the mixed stack is split by route: one eigensolve of the members of
        # error 0 and one SVD of the others per block size, each with its bits alone
        got = trace_norms(blocks)
        assert sorted(name for name, _ in calls) == ["eigvalsh", "eigvalsh", "svd", "svd"]
        assert got.tobytes() == alone.tobytes()
        # the members of error 0 alone: one eigensolve per block size, and their own bits
        herm = [k for k, kind in enumerate(kinds) if kind == "exact"]
        calls.clear()
        assert trace_norms([b[herm] for b in blocks]).tobytes() == alone[herm].tobytes()
        assert sorted(name for name, _ in calls) == ["eigvalsh", "eigvalsh"]
        # a block array of one kind goes to LAPACK as it is, without a masked copy;
        # members Hermitian within 1e-14 only take the SVD, as no record holds them
        for kind, name in (("exact", "eigvalsh"), ("tolerance", "svd"), ("skew", "svd")):
            same = [b[[k for k, other in enumerate(kinds) if other == kind]] for b in blocks]
            calls.clear()
            trace_norms(same)
            assert [(called, m is b) for (called, m), b in zip(calls, same)] == [(name, True)] * 2

    def test_real_members_of_both_routes_keep_their_bits(self):
        # an exactly symmetric and a non-symmetric real member in one block array:
        # each takes its own route and gets its value alone
        rng = np.random.default_rng(16)
        a = rng.normal(size=(6, 6))
        mats = np.stack([a + a.T, a])
        alone = np.array([norm(m) for m in mats])
        assert trace_norms(one_block(mats)).tobytes() == alone.tobytes()
        assert trace_norms(one_block(mats[::-1])).tobytes() == alone[::-1].tobytes()

    def test_block_list_is_checked_whole(self):
        # the route mask indexes every block array, so they must agree on their members
        with pytest.raises(DimensionError, match="^trace norm needs block arrays of one member count"):
            trace_norms([])
        with pytest.raises(DimensionError, match="^trace norm needs block arrays of one member count"):
            trace_norms([np.zeros((2, 1, 3, 3)), np.zeros((3, 1, 4, 4))])

    def test_stack_rejects_non_square(self):
        with pytest.raises(DimensionError):
            trace_norms(one_block(np.ones((2, 3, 4))))
        with pytest.raises(DimensionError):
            trace_norms(one_block(np.eye(3)))

    def test_convexity(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = rand_hermitian(rng, 5)
            b = rand_hermitian(rng, 5)
            p = rng.uniform()
            assert norm(p * a + (1 - p) * b) <= p * norm(a) + (1 - p) * norm(b) + 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = rand_complex(rng, 6, 6)
            u = rand_unitary(rng, 6)
            v = rand_unitary(rng, 6)
            assert norm(u @ a @ v) == pytest.approx(norm(a), abs=1e-9)


class TestHermitianPart:
    """A record holds each member of nonzero error as its Hermitian part, whatever the error or scale."""

    @staticmethod
    def stack(skews, scale=1.0):
        """Copies of a dense Hermitian 16 x 16 matrix of largest entry ``scale``, one per skew at (0, 1)."""
        h = rand_hermitian(np.random.default_rng(15), 16)
        h *= scale / np.abs(h).max()
        out = np.stack([h] * len(skews))
        out[:, 0, 1] += skews
        return out

    @pytest.mark.parametrize("scale", [1.0, 1e4])
    def test_every_nonzero_error_is_held_as_its_hermitian_part(self, scale):
        # no tolerance decides it: members of error 0 are held as given, every other
        # member as its Hermitian part, and the record keeps the error of the input
        for skews in ([0.0, 5e-12], [5e-11, 0.0], [0.0, 0.0], [5e-11, 2e-10], [2e-10, 0.0, 0.5]):
            stack = self.stack(skews, scale)
            record = _States(4, len(stack), array=stack)
            assert_same(record.err, _hermitian_test(one_block(stack)))
            exact = record.err == 0
            if exact.all():
                assert record.array is stack
            assert exactly_hermitian(one_block(record.array)).all()
            for k in range(len(stack)):
                assert_same(record.array[k], stack[k] if exact[k] else hermitian_part(stack[k]))
                # a member's held matrix depends on that member alone
                assert_same(record.array[k], _States(4, 1, array=stack[k:k + 1]).array[0])

    def test_caller_array_is_left_as_it_is(self):
        stack = self.stack([5e-11, 0.0])
        before = stack.copy()
        for a in (stack, before.copy()):
            a.setflags(write=a is stack)
            record = _States(4, len(a), array=a)
            assert record.array is not a and record.array.flags.writeable
            assert_same(a, before)
        functionals(stack, coupled_system(4))
        assert_same(stack, before)


def outcome(f, *args):
    """f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


def assert_same(got, want):
    """Equal outcomes: arrays (or tuples of them) bit for bit, anything else by ==."""
    if isinstance(want, np.ndarray):
        assert np.array_equal(np.ascontiguousarray(got).view(np.uint8),
                              np.ascontiguousarray(want).view(np.uint8))
    elif isinstance(want, tuple) and want and isinstance(want[0], np.ndarray):
        for g, w in zip(got, want):
            assert_same(g, w)
    else:
        assert got == want


class TestExactHermiticityCertificate:
    """Each edge of ||rho - rho^dag||_max = 0 gets the bits of its Hermitian part."""

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_edge_takes_the_bits_of_its_hermitian_part(self, n, edge):
        edit, exact = EDGES[edge]
        base = edge_base(n)
        m = base.copy()
        edit(m, *smallest_pair(m))
        # the error is taken member by member, in a stack with exact members
        stack = np.stack([base, m, base.T])
        assert exactly_hermitian(one_block(stack)).tolist() == [True, exact, True]
        sys_ = coupled_system(n)
        # a record holds each member as it is where its error is 0, else as its Hermitian part
        assert_same(_check_densities(stack.copy(), n).array, stack if exact else hermitian_part(stack))
        assert_same(DensityMatrix(n, m).matrix, m if exact else hermitian_part(m))
        # and every functional has the bits of the Hermitian part, held whatever its error
        for a in (stack, m[None]):
            got = functionals(a, sys_)
            assert_same(got, functionals(hermitian_part(a), sys_))
            with hermitian_part_path():
                assert_same(got, functionals(a, sys_))

    @pytest.mark.parametrize("n", [4, 6])
    def test_nan_is_rejected_first(self, n):
        base = edge_base(n)
        m = base.copy()
        nan_entry(m, *smallest_pair(m))
        near = base.copy()  # a member the record would hold as its Hermitian part
        skew_1e13(near, *smallest_pair(near))
        message = "matrix contains NaN or Inf entries"
        for stack in (np.stack([base, m]), np.stack([near, m])):
            for f, args in ((_check_densities, (stack, n)),
                            (functionals, (stack, coupled_system(n)))):
                with pytest.raises(ValueError, match=f"^{message}$"):
                    f(*args)
        with pytest.raises(ValueError, match=f"^{message}$"):
            DensityMatrix(n, m)

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("edge", sorted(EDGES) + ["2^1023 pair"])
    @pytest.mark.parametrize("kind", ["dense", "sector"])
    def test_partial_transpose_of_the_held_state_is_exactly_hermitian(self, n, edge, kind):
        # T_2 rho - (T_2 rho)^dag = T_2 (rho - rho^dag) entry for entry, so the
        # blocks of T_2 rho get the error of the blocks of rho, bit for bit; the
        # record holds rho, or its Hermitian part where that error is nonzero, so
        # the T_2 blocks the criteria eigensolve untested have error 0
        if kind == "dense":
            m = edge_base(n)
            i, j = smallest_pair(m)
        else:  # the family state, edited inside one J_z sector
            m = family_state(coupled_system(n), 0.3).matrix.copy()
            i, j = 1, n  # (a, b) = (0, 1) and (1, 0), both of label 1
        edit = EDGES[edge][0] if edge in EDGES else huge_pair
        edit(m, i, j)

        def blocks(a):
            if kind == "dense":
                return one_block(a), one_block(_partial_transposes(a, n))
            return (sectors.split(a.reshape(1, -1)[:, sectors.positions])
                    for sectors in (_density_sectors(n), _sectors(n)[0]))
        test, t2_test = (_hermitian_test(b) for b in blocks(m[None]))
        assert_same(t2_test, test)
        assert (test == 0).tolist() == [EDGES.get(edge, (None, True))[1]]
        # the record tests rho whole, and a sector state vanishes off its blocks
        states = _States(n, 1, array=m[None])
        assert states.sector is (kind == "sector")
        assert_same(states.err, test)
        assert_same(states.array, m[None] if test[0] == 0 else hermitian_part(m[None]))
        assert [_hermitian_test(b).tolist() for b in blocks(states.array)] == [[0.0], [0.0]]
        if edge in EDGES:  # the functionals read the held state: the bits of the Hermitian
            got = functionals(m[None], coupled_system(n))  # part, and the eigensolve of T_2
            t2 = list(blocks(states.array))[1]
            assert_same(got[0], np.abs(np.concatenate(
                [np.linalg.eigvalsh(b).reshape(1, -1) for b in t2], axis=1)).sum(axis=-1))
            assert_same(got[0], trace_norms(t2))
            assert_same(got, functionals(hermitian_part(m[None]), coupled_system(n)))

    @pytest.mark.parametrize("n", [4, 6])
    def test_row_of_signed_zeros_takes_the_exact_routes(self, monkeypatch, n):
        # a whole row of real parts +0.0 against -0.0 in its column: rho equals
        # rho^dag in value, not in bits, so it has error 0 and takes the exact
        # routes, within 4 ulp of the functionals of its Hermitian part
        m = edge_base(n)
        for j in range(1, n * n):
            signed_zero_real(m, 0, j)
        assert exactly_hermitian(one_block(m[None])).tolist() == [True]
        assert not np.array_equal(m.view(np.uint64), hermitian_part(m).view(np.uint64))
        sys_ = coupled_system(n)
        parts, real_forms = [], []
        part, real_form = linalg._hermitian_part, criteria._realignment_pair_forms
        for module in (linalg, states):
            monkeypatch.setattr(module, "_hermitian_part", lambda a: parts.append(1) or part(a))
        monkeypatch.setattr(criteria, "_realignment_pair_forms",
                            lambda a, n_: real_forms.append(1) or real_form(a, n_))
        assert DensityMatrix(n, m).matrix.tobytes() == m.tobytes()
        got = functionals(m[None], sys_)
        # the record and the density check hand rho on as it is, and R rho takes C
        assert parts == []
        assert real_forms == [1]
        monkeypatch.undo()
        want = functionals(hermitian_part(m[None]), sys_)
        for g, w in zip(got, want):
            assert np.all(np.abs(g - w) <= 4 * np.spacing(np.abs(w)))

    def test_real_and_strided_members(self):
        rng = np.random.default_rng(3)
        h = rand_hermitian(rng, 5)
        skew = 2 * np.abs(h.imag).max()  # ||A - A^dag||_max of an antisymmetric A = Im h or 1j h
        # real members: a symmetric and an antisymmetric one
        assert _hermitian_test(one_block(np.stack([h.real, h.imag]))).tolist() == [0.0, skew]
        both = np.stack([h, 1j * h])  # 1j h is anti-Hermitian
        assert _hermitian_test(one_block(both)).tolist() == [0.0, 2 * np.abs(h).max()]
        # the real parts of a complex stack, a strided view
        assert _hermitian_test(one_block(both.real)).tolist() == [0.0, skew]
        # transposed views, whose rows are not contiguous: h^T = conj(h) is Hermitian too
        assert _hermitian_test(one_block(both.swapaxes(1, 2))).tolist() == [0.0, 2 * np.abs(h).max()]


RANGE = "matrix has a real or imaginary part of magnitude 2^990 or more"
BELOW = float(np.nextafter(2.0 ** 990, 0))  # the largest part the gate passes


def two_pairs(m: np.ndarray, value) -> np.ndarray:
    """m with ``value`` at (0, 1) and (0, 2) and its conjugate at (1, 0) and (2, 0)."""
    for j in (1, 2):
        m[0, j], m[j, 0] = value, np.conj(value)
    return m


def raised(f, *args) -> str:
    """The message of the ValueError that f(*args) raises, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as exc:
            f(*args)
    return str(exc.value)


class TestEntryRange:
    """The gate rejects a real or imaginary part from 2^990 up; below that every kernel is finite."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_gate_bound(self, dtype):
        for x in (BELOW, 2.0 ** 990, 2.0 ** 1021, 2.0 ** 1023):
            for value in (x, -x) + ((1j * x, -1j * x) if dtype is complex else ()):
                m = np.diag([value, 1.0]).astype(dtype)
                if x == BELOW:
                    assert as_complex_stack(m[None]).tolist() == [m.tolist()]
                else:
                    assert raised(as_complex_stack, m[None]) == RANGE
                    assert raised(as_complex_matrix, m) == RANGE

    def test_overflowing_pair_gets_the_gate_line(self):
        # the maximally mixed 16 x 16 state with a real 2^1023 off-diagonal
        # pair, whose (rho + rho^dag) / 2 once reached the eigensolve as inf
        m = np.eye(16) / 16
        m[0, 1] = m[1, 0] = 2.0 ** 1023
        sys_ = coupled_system(4)
        for f, arg in ((functionals, m[None]), (verdicts, m[None]), (evaluate_criteria, m)):
            assert raised(f, arg, sys_) == RANGE

    @pytest.mark.parametrize("n", [4, 6])
    def test_largest_entries_give_finite_norms(self, n):
        # every sum of two entries that the kernels form stays finite: no
        # warning, and the bits of the path that holds every stack as its
        # Hermitian part
        base = edge_base(n)
        stack = np.stack([base] + [two_pairs(base.copy(), value) for value in
                                   (BELOW, -BELOW, 1j * BELOW, complex(BELOW, BELOW))])
        sys_ = coupled_system(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = functionals(stack, sys_)
            assert np.isfinite(got[0]).all() and np.isfinite(got[1]).all()
            assert (got[0][1:] > 2.0 ** 990).all() and (got[1][1:] > 2.0 ** 990).all()
            with hermitian_part_path():
                assert_same(got, functionals(stack, sys_))
            for k in range(len(stack)):
                assert_same(tuple(f[k:k + 1] for f in got), functionals(stack[k:k + 1], sys_))

    @pytest.mark.parametrize("n", [4, 6])
    def test_largest_fills_give_finite_functionals(self, n):
        # a trace norm or a witness row sum adds up to d^2 entries: below the
        # bound every one is finite, for x I (a sector state), an all-x fill
        # and an all-x(1 + i) fill, with no warning
        d, sys_ = n * n, coupled_system(n)
        for m in (BELOW * np.eye(d), np.full((d, d), BELOW), np.full((d, d), BELOW * (1 + 1j))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = functionals(m[None], sys_)
            assert all(np.isfinite(f).all() for f in got)
            assert got[0][0] >= BELOW and got[1][0] >= BELOW

    @pytest.mark.parametrize("n", [4, 6])
    def test_largest_entries_fail_the_eigenvalue_test(self, n):
        # the Cholesky factorization overflows and fails, and the eigensolve
        # decides, with m factored as it is, alone and ahead of a member beyond
        # the Hermiticity tolerance, which is held as its Hermitian part; a complex pair
        # overflows |l|^2 in the factor from about 2^510 up
        message = "density matrix has an eigenvalue below -1e-10"
        skewed = edge_base(n)
        skewed[0, 1] += 1e-6
        for value in (BELOW, -BELOW, 1j * BELOW, complex(BELOW, BELOW),
                      complex(2.0 ** 511, 2.0 ** 511)):
            m = two_pairs(edge_base(n), value)
            assert raised(DensityMatrix, n, m) == message
            assert raised(_check_densities, np.stack([m, skewed]), n) == message

    @pytest.mark.parametrize("n", [4, 6])
    @pytest.mark.parametrize("value", [2.0 ** 990, -(2.0 ** 990), 2.0 ** 990 * 1j, 2.0 ** 1023])
    def test_over_range_member_rejects_the_stack(self, n, value):
        base = edge_base(n)
        over = base.copy()
        i, j = smallest_pair(over)
        over[i, j], over[j, i] = value, np.conj(value)
        stack = np.stack([base, over, base])
        sys_ = coupled_system(n)
        for f, args in ((_check_densities, (stack, n)), (functionals, (stack, sys_)),
                        (verdicts, (stack, sys_)), (DensityMatrix, (n, over))):
            assert raised(f, *args) == RANGE
        nan = base.copy()
        nan_entry(nan, i, j)  # NaN/Inf is reported first
        assert raised(_check_densities, np.stack([over, nan]), n) == "matrix contains NaN or Inf entries"


class TestSectorPositions:
    """The cached J_z position maps are uint32 while the largest position fits."""

    @pytest.mark.parametrize("n", [4, 6, 16])
    def test_state_maps_are_uint32(self, n):
        for sectors in (_density_sectors(n), *_sectors(n)):
            assert sectors.positions.dtype == np.uint32
            assert int(sectors.positions.max()) <= n ** 4 - 1

    def test_largest_uint32_position_stays_uint32(self):
        sectors = _Sectors(np.array([0, 0]), lambda i, j: (2 * i + j) * (2 ** 32 - 1) // 3)
        assert sectors.positions.dtype == np.uint32
        assert sectors.positions.tolist() == [0, 1431655765, 2863311530, 2 ** 32 - 1]

    def test_position_beyond_uint32_stays_int64(self):
        sectors = _Sectors(np.array([0, 1, 1]), lambda i, j: i * 2 ** 32 + j)
        assert sectors.positions.dtype == np.int64
        big = 2 ** 32
        assert sectors.positions.tolist() == [0, big + 1, big + 2, 2 * big + 1, 2 * big + 2]
