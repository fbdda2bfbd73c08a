"""Group models: tables, characters, cosets, quadrature and Haar weights."""

import itertools
import math

import numpy as np
import pytest

from qha.actions import WaveletAction
from qha.cli import main
from qha.groups import (
    FiniteGroup,
    GroupError,
    HaarModel,
    QuadratureGroup,
    SubgroupError,
    affine_group,
    coset_lookup,
    counting_haar,
    cyclic,
    dual,
    probability_haar,
    product,
    symmetric,
)
from qha.scenarios import _WAVELET_PRESETS, _cyclic_subgroup_indices

from helpers import (
    CharacterTable,
    cyclic_subgroups,
    divisor_tuples,
    dual_group,
    is_abelian,
    loop_character_table,
    loop_cosets,
    loop_product_table,
    loop_symmetric_table,
    loop_tuple_of_index,
    tuple_of_index,
)

# order-5 Latin square with identity and inverses but (1*1)*2 != 1*(1*2)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestFiniteGroup:
    def test_cyclic_trivial(self):
        G = cyclic(1)
        assert G.order == 1 and G.identity == 0 and G.inverse(0) == 0

    def test_cyclic_generator_row(self):
        G = cyclic(4)
        assert list(G.table[1]) == [1, 2, 3, 0]

    def test_cyclic_rejects_nonpositive(self):
        with pytest.raises(GroupError):
            cyclic(0)

    def test_klein_four_orders(self):
        G = product(cyclic(2), cyclic(2))
        orders = [next(k for k in range(1, 5) if _power(G, g, k) == G.identity)
                  for g in G.elements()]
        assert sorted(orders) == [1, 2, 2, 2]

    def test_rejects_non_latin(self):
        with pytest.raises(GroupError):
            FiniteGroup([[0, 0], [1, 1]])

    def test_rejects_non_associative_loop(self):
        with pytest.raises(GroupError):
            FiniteGroup(NONASSOC_LOOP)

    def test_symmetric_3(self):
        G = symmetric(3)
        assert G.order == 6
        assert not is_abelian(G)

    def test_product_structure_coordinates(self):
        G = product(cyclic(2), cyclic(4))
        for g in G.elements():
            assert G.index_of_tuple(tuple_of_index(G, g)) == g

    def test_subgroup_extraction(self):
        G = cyclic(6)
        H, embed = G.subgroup([0, 2, 4])
        assert H.order == 3 and embed == (0, 2, 4)
        with pytest.raises(SubgroupError):
            G.subgroup([0, 1])


def _power(G, g, k):
    acc = G.identity
    for _ in range(k):
        acc = G.compose(acc, g)
    return acc


class TestDualGroup:
    def test_dual_of_c2(self):
        chars = dual_group(cyclic(2))
        table = np.real(chars.table)
        rows = {tuple(np.round(r).astype(int)) for r in table}
        assert rows == {(1, 1), (1, -1)}

    def test_dual_of_c4_has_imaginary_character(self):
        chars = dual_group(cyclic(4))
        assert any(abs(chars.table[s, 1] - 1j) < 1e-12 for s in range(4))

    def test_orthogonality_direct_summation(self):
        # oracle: gram computed entrywise by direct loops equals N * I
        G = product(cyclic(2), cyclic(4))
        chars = dual_group(G)
        n = G.order
        gram = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                gram[i, j] = sum(chars.table[i, g] * np.conj(chars.table[j, g])
                                 for g in G.elements())
        assert np.abs(gram - n * np.eye(n)).max() < 1e-12 * n

    def test_rejects_nonabelian(self):
        for build in (dual_group, dual):
            with pytest.raises(GroupError):
                build(symmetric(3))

    def test_dual_composes_like_group(self):
        G = cyclic(4)
        chars = dual_group(G)
        D = dual(G)
        for s in G.elements():
            for t in G.elements():
                st = D.compose(s, t)
                for g in G.elements():
                    prod = chars.table[s, g] * chars.table[t, g]
                    assert abs(prod - chars.table[st, g]) < 1e-12


class TestCosets:
    def test_c4_mod_c2(self):
        assert coset_lookup(cyclic(4), [0, 2])[0].tolist() == [0, 1]

    def test_whole_group(self):
        G = cyclic(5)
        assert coset_lookup(G, list(G.elements()))[0].tolist() == [0]

    def test_rejects_non_subgroup(self):
        with pytest.raises(SubgroupError):
            coset_lookup(cyclic(4), [0, 1])

    def test_quotient_integral_formula(self):
        # oracle: sum over G equals double sum over coset reps and subgroup
        G = cyclic(6)
        H = [0, 2, 4]
        reps = coset_lookup(G, H)[0].tolist()
        rng = np.random.default_rng(3)
        f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        total = sum(f[g] for g in G.elements())
        double = sum(f[G.compose(r, h)] for r in reps for h in H)
        assert abs(total - double) < 1e-12


class TestCoordinateGroups:
    """Groups built from cyclic factors compose by coordinates: against the
    table they form, validated as a group table."""

    @pytest.mark.parametrize("G", [
        *(cyclic(n) for n in (1, 2, 5, 12)),
        product(cyclic(2), cyclic(4)),
        product(cyclic(3), cyclic(3)),
        product(product(cyclic(3), cyclic(3)), cyclic(2)),
        product(cyclic(1), cyclic(6)),
    ], ids=lambda G: G.name)
    def test_coordinates_match_the_validated_table(self, G):
        assert "table" not in vars(G)
        ref = FiniteGroup(G.table)
        g = np.arange(G.order)
        assert G.identity == ref.identity == 0
        assert np.array_equal(G.inverse(g), ref.inverse_table)
        assert np.array_equal(G.compose(g[:, None], g), ref.table)
        assert is_abelian(G) and is_abelian(ref)
        for a, b in ((0, G.order - 1), (G.order - 1, G.order - 1)):
            assert G.compose(a, b) == int(ref.table[a, b]) and G.inverse(a) == ref.inverse(a)

    def test_cyclic_table_is_addition_mod_n(self):
        for n in range(1, 13):
            i = np.arange(n)
            assert np.array_equal(cyclic(n).table, (i[:, None] + i) % n)

    def test_needs_a_table_or_factor_sizes(self):
        for args in ({}, {"table": cyclic(2).table, "structure": (2,)}):
            with pytest.raises(GroupError):
                FiniteGroup(**args)
        with pytest.raises(GroupError):
            FiniteGroup(structure=(2, 0))


class TestHaar:
    def test_mass_is_the_sum_of_the_weights(self):
        w = np.random.default_rng(4).uniform(0.5, 2.0, 37)
        assert HaarModel(w, "counting").mass == float(np.sum(w))
        assert probability_haar(cyclic(8)).mass == float(np.sum(np.full(8, 1.0 / 8)))

    def test_quadrature_mass_comes_from_the_axes(self):
        G = affine_group(0.5, 2.0, 5, -1.0, 1.0, 8)
        haar = G.haar()
        assert haar.mass == pytest.approx(float(np.sum(np.repeat(G.a_weights, 8))), rel=1e-15)
        assert haar.normalization == "quadrature" and "haar_weights" not in vars(G)

    def test_probability_weights_sum(self):
        haar = probability_haar(cyclic(8))
        assert float(haar.weights.sum()) == pytest.approx(1.0)

    def test_probability_validation(self):
        with pytest.raises(GroupError):
            HaarModel(np.array([0.3, 0.3]), "probability")

    def test_rejects_nonpositive(self):
        with pytest.raises(GroupError):
            HaarModel(np.array([1.0, 0.0]), "counting")

    def test_constant_probability(self):
        G = cyclic(5)
        assert probability_haar(G).weights @ np.ones(G.order) == pytest.approx(1.0)

    def test_constant_counting(self):
        G = cyclic(4)
        assert counting_haar(G).weights @ np.ones(G.order) == pytest.approx(4.0)


def _haar_integral(G, f):
    """Haar weights against the values of f at the quadrature nodes."""
    return G.haar().weights @ np.array([f(p) for p in G.nodes])


class TestAffineGroup:
    @pytest.mark.parametrize("preset", ["coarse", "default", "fine"])
    def test_group_law_on_fixed_seed_node_triples(self, preset):
        # the modular function is 1 at the identity and multiplicative, and
        # the product is associative with its inverse, on 32 fixed-seed
        # triples of nodes
        G = affine_group(*_design_params(_WAVELET_PRESETS[preset]))
        p, q, r = G.nodes_at(np.random.default_rng(0).integers(0, G.node_count, size=(32, 3)).T)
        pq = G.compose(p, q)
        assert abs(G.modular(G.identity) - 1.0) <= 1e-12
        assert (np.abs(G.modular(pq) - G.modular(p) * G.modular(q)) <= 1e-9 * G.modular(pq)).all()
        assert np.abs(G.compose(pq, r) - G.compose(p, G.compose(q, r))).max() <= 1e-9
        assert np.abs(G.compose(p, G.inverse(p)) - G.identity).max() <= 1e-9

    def test_one_group_interface(self):
        # both kinds of group answer their kind and name, the node count, their
        # own Haar model and whether they are unimodular
        F, G = cyclic(6), affine_group(0.5, 2.0, 5, -1.0, 1.0, 8)
        assert (F.kind, F.name, repr(F)) == ("finite", "cyclic(6)", "FiniteGroup(cyclic(6), order=6)")
        assert (F.node_count, F.unimodular, F.haar().normalization) == (6, True, "counting")
        assert np.array_equal(F.haar().weights, np.ones(6))
        assert (G.kind, G.name) == ("quadrature", "affine[0.5,2]x[-1,1]")
        assert repr(G) == "QuadratureGroup(affine[0.5,2]x[-1,1], nodes=40)"
        assert (G.node_count, G.unimodular, G.haar().normalization) == (40, False, "quadrature")

    def test_compose(self):
        G = affine_group(0.5, 2.0, 5, -1.0, 1.0, 8)
        assert np.allclose(G.compose((2.0, 0.0), (1.0, 3.0)), (2.0, 6.0))

    def test_inverse(self):
        G = affine_group(0.5, 2.0, 5, -1.0, 1.0, 8)
        assert np.allclose(G.inverse((2.0, 6.0)), (0.5, -3.0))

    def test_modular_multiplicative_exact(self):
        G = affine_group(0.5, 2.0, 5, -1.0, 1.0, 8)
        p, q = np.array([2.0, 0.3]), np.array([0.7, -1.1])
        assert G.modular(G.compose(p, q)) == pytest.approx(G.modular(p) * G.modular(q))
        assert G.modular(G.identity) == pytest.approx(1.0)

    def test_rejects_bad_ranges(self):
        with pytest.raises(GroupError):
            affine_group(-1.0, 2.0, 5, -1.0, 1.0, 8)
        with pytest.raises(GroupError):
            affine_group(2.0, 0.5, 5, -1.0, 1.0, 8)
        with pytest.raises(GroupError):
            affine_group(0.5, 2.0, 1, -1.0, 1.0, 8)

    def test_gaussian_bump_refinement(self):
        # oracle: a refined grid changes the integral within the quoted tolerance
        def f(p):
            a, b = p
            return math.exp(-(math.log(a) ** 2) * 8.0 - b * b * 8.0)

        coarse = affine_group(0.25, 4.0, 41, -2.0, 2.0, 41)
        fine = affine_group(0.25, 4.0, 161, -2.0, 2.0, 161)
        i1 = _haar_integral(coarse, f)
        i2 = _haar_integral(fine, f)
        assert abs(i1 - i2) <= 1e-3 * abs(i2)

    def test_left_invariance_proxy(self):
        # translate the integrand by a fixed h near the identity: the Haar sum
        # of a smooth, well-contained bump moves within the quadrature tolerance
        G = affine_group(0.125, 8.0, 129, -4.0, 4.0, 129)

        def f(p):
            a, b = p
            return math.exp(-(math.log(a) ** 2) * 6.0 - b * b * 6.0)

        h = np.array([1.1, 0.2])
        lhs = _haar_integral(G, lambda p: f(G.compose(h, p)))
        rhs = _haar_integral(G, f)
        assert abs(lhs - rhs) <= 1e-2 * abs(rhs)

    def test_haar_weights_match_density(self):
        G = affine_group(0.5, 2.0, 3, 0.0, 1.0, 4)
        # w = dloga * db / a on the log-uniform a-grid, constant in b
        dloga = math.log(4.0) / 2
        db = 0.25
        assert np.allclose(G.a_weights, dloga * db / G.a_nodes)
        assert np.array_equal(G.haar_weights, np.repeat(G.a_weights, G.b_nodes.size))


def _design_params(design):
    """The affine_group arguments WaveletAction passes for a design."""
    h, den = design.max_shift, design.steps_per_octave
    return 2.0 ** (-h / den), 2.0 ** (h / den), 2 * h + 1, -design.b_extent, design.b_extent, design.n_b


def _node_grid_oracle(a_min, a_max, n_a, b_min, b_max, n_b):
    """The per-node arrays as affine_group once built them, eagerly: nodes,
    Haar weights and modular values."""
    a_nodes = np.exp(np.linspace(math.log(a_min), math.log(a_max), n_a))
    d_log_a = (math.log(a_max) - math.log(a_min)) / (n_a - 1)
    db = (b_max - b_min) / n_b
    b_nodes = (b_min + b_max) / 2 + (2 * np.arange(n_b) + 1 - n_b) * (db / 2)
    nodes = np.column_stack([np.repeat(a_nodes, n_b), np.tile(b_nodes, n_a)])
    return nodes, np.repeat(d_log_a * db / a_nodes, n_b), 1.0 / nodes[:, 0]


PRODUCT_DESIGNS = {name: _WAVELET_PRESETS[name] for name in ("default", "fine")}
PRODUCT_DESIGNS["scaled(8)"] = _WAVELET_PRESETS["default"].scaled(8)


class TestProductRule:
    """The quadrature group as two axes: the per-node arrays are built on
    first read, bit for bit as the eager node grid was."""

    @pytest.mark.parametrize("name", PRODUCT_DESIGNS)
    def test_node_arrays_match_the_eager_grid_bit_for_bit(self, name):
        params = _design_params(PRODUCT_DESIGNS[name])
        nodes, weights, modular = _node_grid_oracle(*params)
        G = affine_group(*params)
        assert G.node_count == len(nodes)
        assert "nodes" not in vars(G) and "haar_weights" not in vars(G)
        for lazy, eager in ((G.nodes, nodes), (G.haar_weights, weights)):
            assert lazy.dtype == eager.dtype and np.array_equal(lazy, eager)
            assert not lazy.flags.writeable
        assert np.array_equal(G.modular(G.nodes), modular)

    def test_designs_build_the_same_group_as_the_action(self):
        G = WaveletAction(_WAVELET_PRESETS["default"]).group
        H = affine_group(*_design_params(_WAVELET_PRESETS["default"]))
        for axis in ("a_nodes", "b_nodes", "a_weights"):
            assert np.array_equal(getattr(G, axis), getattr(H, axis))

    @pytest.mark.parametrize("name", PRODUCT_DESIGNS)
    def test_nodes_at_matches_nodes(self, name):
        G = affine_group(*_design_params(PRODUCT_DESIGNS[name]))
        idx = np.random.default_rng(5).integers(0, G.node_count, size=64)
        assert np.array_equal(G.nodes_at(idx), G.nodes[idx])
        for i in idx[:8].tolist():
            assert np.array_equal(G.nodes_at(i), G.nodes[i])
        assert np.array_equal(G.nodes_at(idx.reshape(8, 8)), G.nodes[idx.reshape(8, 8)])

    def test_haar_model_keeps_the_group_weights_without_a_copy(self):
        G = affine_group(0.5, 2.0, 5, -1.0, 1.0, 8)
        assert G.haar().weights is G.haar_weights
        w = np.ones(3)
        model = HaarModel(w, "counting")
        assert model.weights is not w and not model.weights.flags.writeable
        w[0] = 5.0
        assert model.weights[0] == 1.0

    def test_refine_never_forms_the_node_grid(self, monkeypatch, capsys):
        def unread(self):
            raise AssertionError("refine read a per-node array")

        monkeypatch.setattr(QuadratureGroup, "nodes", property(unread))
        monkeypatch.setattr(QuadratureGroup, "haar_weights", property(unread))
        assert main(["refine", "--scenario", "affine-wavelet:default", "--grids", "3"]) == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[1] for row in rows] == ["12544", "49664", "197632"]


class TestCharacterTableValidation:
    def test_rejects_non_unit_values(self):
        G = cyclic(2)
        with pytest.raises(GroupError):
            CharacterTable(G, np.array([[1.0, 1.0], [1.0, -2.0]]))

    def test_rejects_non_orthogonal(self):
        G = cyclic(2)
        with pytest.raises(GroupError):
            CharacterTable(G, np.ones((2, 2)))


# Groups with cyclic structure whose array-built tables, coordinates,
# characters and cosets are compared with the per-element loops.
STRUCTURED = (
    *(cyclic(n) for n in range(1, 13)),
    product(cyclic(2), cyclic(4)),
    product(product(cyclic(3), cyclic(3)), cyclic(2)),
)


class TestArrayConstructorsMatchLoops:
    """The array programs against their per-element loop definitions
    (tests/helpers.py), bit for bit."""

    @pytest.mark.parametrize("G", STRUCTURED, ids=lambda G: G.name)
    def test_coordinates(self, G):
        for g in G.elements():
            assert tuple_of_index(G, g) == loop_tuple_of_index(G, g)
        assert np.array_equal(G.index_of_tuple(G.coords), np.arange(G.order))

    @pytest.mark.parametrize("G", STRUCTURED, ids=lambda G: G.name)
    def test_character_table(self, G):
        assert np.array_equal(dual_group(G).table, loop_character_table(G))

    @pytest.mark.parametrize("factors", [
        *((cyclic(n), cyclic(m)) for n in range(1, 13) for m in (1, 2, 3)),
        (product(cyclic(3), cyclic(3)), cyclic(2)),
        (symmetric(3), cyclic(2)),
        (cyclic(2), symmetric(3)),
    ], ids=lambda f: f"{f[0].name}x{f[1].name}")
    def test_product_table(self, factors):
        G, H = factors
        assert np.array_equal(product(G, H).table, loop_product_table(G, H))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_symmetric_table(self, n):
        assert np.array_equal(symmetric(n).table, loop_symmetric_table(n))

    @pytest.mark.parametrize("G", STRUCTURED, ids=lambda G: G.name)
    def test_cyclic_subgroup_indices(self, G):
        for sub in divisor_tuples(G):
            steps = [range(0, n, n // m) for m, n in zip(sub, G.structure)]
            expect = [G.index_of_tuple(c) for c in itertools.product(*steps)]
            assert _cyclic_subgroup_indices(G, sub) == expect

    @pytest.mark.parametrize("G", STRUCTURED, ids=lambda G: G.name)
    def test_cosets_and_subgroup_tables(self, G):
        for h in cyclic_subgroups(G):
            reps, coset_of = coset_lookup(G, h)
            loop_reps, loop_coset_of = loop_cosets(G, h)
            assert reps.tolist() == loop_reps and np.array_equal(coset_of, loop_coset_of)
            sub, embed = G.subgroup(h)
            pos = {g: i for i, g in enumerate(embed)}
            assert np.array_equal(sub.table, [[pos[G.compose(a, b)] for b in embed] for a in embed])

    @pytest.mark.parametrize("h", [[0, 1], [1, 0], [0, 3, 4]])
    def test_cosets_of_s3(self, h):
        # a non-normal subgroup, listed with the identity first or not, and A3
        G = symmetric(3)
        assert G.is_subgroup(h)
        reps, coset_of = coset_lookup(G, h)
        loop_reps, loop_coset_of = loop_cosets(G, h)
        assert reps.tolist() == loop_reps and np.array_equal(coset_of, loop_coset_of)

    def test_cosets_when_the_identity_is_not_element_0(self):
        # cyclic(4) relabelled by i -> perm[i]: the identity is element 2, so
        # the representatives start with it and continue in index order
        perm = np.array([2, 0, 3, 1])
        C = cyclic(4)
        table = np.empty((4, 4), dtype=int)
        table[perm[:, None], perm] = perm[C.table]
        G = FiniteGroup(table)
        assert G.identity == 2
        reps, coset_of = coset_lookup(G, [3, 2])
        loop_reps, loop_coset_of = loop_cosets(G, [3, 2])
        assert reps.tolist() == loop_reps == [2, 0] and np.array_equal(coset_of, loop_coset_of)

    def test_is_subgroup_rejects(self):
        G = cyclic(6)
        assert not G.is_subgroup([])
        assert not G.is_subgroup([2, 4])        # no identity
        assert not G.is_subgroup([0, 1])        # not closed
        assert not G.is_subgroup([0, 6])        # out of range
        assert G.is_subgroup([0, 3, 3, 0])      # repeats are dropped
