import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucvrp import tsp
from ucvrp.instance import METRIC_TOL, Instance, gen_instance, validate_instance
from ucvrp.lp_round import feasible_masks
from ucvrp.tsp import (
    KeepNotVisited,
    NotACustomer,
    SubsetTooLarge,
    Tour,
    approx_tsp,
    empty_tour,
    exact_tsp,
    optimal_tours,
    shortcut,
    tour_costs_all_subsets,
)

from conftest import instance_mix
from reference import (held_karp_paths, held_karp_tour, held_karp_tours, mst_doubling_tour,
                       walk_tolerance)


def brute_force_tour_cost(inst, subset):
    """Reference optimum by permutation enumeration."""
    subset = sorted(subset)
    best = float("inf")
    for perm in itertools.permutations(subset):
        seq = (0, *perm, 0)
        best = min(best, inst.route_cost(seq))
    return best


class TestExactTsp:
    def test_line3_full(self, inst_line3):
        t = exact_tsp(inst_line3, [1, 2, 3])
        assert t.cost == pytest.approx(6.0, abs=1e-12)
        assert t.vertices == (0, 1, 2, 3, 0)
        assert t.quality_tag == "exact"

    def test_line3_pair(self, inst_line3):
        t = exact_tsp(inst_line3, [2, 3])
        assert t.cost == pytest.approx(6.0, abs=1e-12)
        assert t.vertices == (0, 2, 3, 0)

    def test_empty_and_singleton(self, inst_line3):
        assert exact_tsp(inst_line3, []).vertices == (0, 0)
        t = exact_tsp(inst_line3, [2])
        assert t.vertices == (0, 2, 0)
        assert t.cost == pytest.approx(4.0)

    def test_matches_brute_force(self):
        for inst in instance_mix(12, max_n=7, max_k=4, seed_base=100):
            t = exact_tsp(inst, inst.customers)
            assert t.cost == pytest.approx(
                brute_force_tour_cost(inst, inst.customers), abs=1e-9
            )
            assert t.vertices[0] == t.vertices[-1] == 0
            assert set(t.vertices[1:-1]) == set(inst.customers)
            assert t.cost == pytest.approx(t.recompute_cost(inst), abs=1e-9)

    def test_relabel_invariant(self):
        inst = gen_instance("euclidean", 7, 3, seed=42)
        perm = [0, 3, 1, 7, 5, 2, 6, 4]  # depot fixed
        m = inst.metric[np.ix_(perm, perm)]
        demands = tuple(inst.demands[perm[i] - 1] for i in range(1, 8))
        relabeled = Instance("perm", inst.capacity, demands, m)
        a = exact_tsp(inst, inst.customers)
        b = exact_tsp(relabeled, relabeled.customers)
        assert a.cost == pytest.approx(b.cost, abs=1e-9)

    def test_cap_enforced(self, inst_line3, monkeypatch):
        monkeypatch.setattr(tsp, "HELDKARP_CAP", 2)
        with pytest.raises(SubsetTooLarge):
            exact_tsp(inst_line3, [1, 2, 3])

    def test_cap_refused_before_the_tolerance(self, monkeypatch):
        # A tour past the cap costs no pass over its metric.
        def unreached(metric):
            raise AssertionError("tolerance computed for a refused tour")

        monkeypatch.setattr(tsp, "_walk_tol", unreached)
        inst = gen_instance("euclidean", tsp.HELDKARP_CAP + 1, 10, seed=1)
        with pytest.raises(SubsetTooLarge, match=f"^{tsp.HELDKARP_CAP + 1} customers exceeds cap"):
            exact_tsp(inst, inst.customers)
        with pytest.raises(SubsetTooLarge):
            tsp.exact_tsp_and_tours(inst, [1], [1])

    # A metric asymmetric within METRIC_TOL validates, and the walk reads
    # each finish path reversed, so its tolerance takes in the skew once
    # per edge.  A tour's cost is still the DP's, summed in the reversed
    # orientation, while route_cost sums the forward one: the two differ
    # by up to (n + 1) skew, past this test's 1e-9 on the second case.
    @pytest.mark.parametrize("kind, n, k, seed", [
        ("random_metric", 7, 10, 7),
        pytest.param("euclidean", 9, 4, 9, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="Tour.cost sums the reversed orientation, route_cost the forward one")),
    ])
    def test_metric_skewed_within_tolerance(self, kind, n, k, seed):
        inst = gen_instance(kind, n, k, seed=seed)
        m = inst.metric + np.triu(np.full(inst.metric.shape, 0.5 * METRIC_TOL), 1)
        skewed = validate_instance(Instance("skewed", k, inst.demands, m))
        tour = exact_tsp(skewed, skewed.customers)
        assert tour.cost == pytest.approx(skewed.route_cost(tour.vertices), abs=1e-9)


@st.composite
def tour_instances(draw, max_n=10):
    """Random float metrics, and tie-heavy ones (all distances equal, or
    each 1 or 2) where the lexicographic tie-break decides the tour.  In
    "one_two_jitter" each distance of 1 or 2 carries a symmetric jitter
    of up to 1e-10, below ``COST_TOL``: the reconstruction may then take
    a member whose float sum is not the least, and must take the same
    one as the scalar kernel."""
    n = draw(st.integers(2, max_n), label="n")
    capacity = draw(st.integers(1, 6), label="capacity")
    demands = draw(st.lists(st.integers(1, capacity), min_size=n, max_size=n))
    kind = draw(st.sampled_from(["euclidean", "random_metric", "equal", "one_two",
                                 "one_two_jitter"]))
    if kind in ("euclidean", "random_metric"):
        m = gen_instance(kind, n, 3, seed=draw(st.integers(0, 10_000))).metric
    else:
        lengths = st.just(1.0) if kind == "equal" else st.sampled_from([1.0, 2.0])
        if kind == "one_two_jitter":
            jitter = st.integers(0, 100).map(lambda i: i * 1e-12)
            lengths = st.tuples(lengths, jitter).map(sum)
        upper = draw(st.lists(lengths, min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2))
        m = np.zeros((n + 1, n + 1))
        m[np.triu_indices(n + 1, 1)] = upper
        m = m + m.T
    return Instance(kind, capacity, tuple(demands), m)


def layer_instance(kind, n):
    """An n-customer instance of a ``tour_instances`` kind, seeded by n."""
    if kind == "random_metric":
        return gen_instance(kind, n, 3, seed=n)
    rng = np.random.default_rng(n)
    upper = np.ones(n * (n + 1) // 2)
    if kind == "one_two_jitter":
        upper = rng.integers(1, 3, upper.size) + rng.integers(0, 101, upper.size) * 1e-12
    m = np.zeros((n + 1, n + 1))
    m[np.triu_indices(n + 1, 1)] = upper
    return Instance(kind, 3, (1,) * n, m + m.T)


def assert_same_table(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_same_tours(got, want):
    assert [t.vertices for t in got] == [t.vertices for t in want]
    assert [t.cost.hex() for t in got] == [t.cost.hex() for t in want]
    assert {t.quality_tag for t in got} <= {"exact"}


class TestHeldKarpKernel:
    @given(inst=tour_instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_exact_tsp_matches_scalar_kernel(self, inst, data):
        subset = sorted(data.draw(st.sets(st.sampled_from(list(inst.customers)), min_size=2)))
        full = (1 << len(subset)) - 1
        want = held_karp_tours(inst, subset, range(1, full + 1))[full]
        assert_same_tours([exact_tsp(inst, subset)], [want])

    @given(inst=tour_instances(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_optimal_tours_match_scalar_kernel(self, inst, data):
        ground = sorted(data.draw(st.sets(st.sampled_from(list(inst.customers)), min_size=1)))
        masks = feasible_masks([inst.demand(v) for v in ground], inst.capacity)
        got = optimal_tours(inst, ground, masks)
        want = held_karp_tours(inst, ground, masks)
        assert list(got) == list(want) == masks
        assert_same_tours(got.values(), want.values())

    # A prefix family 1..M is a caller's family, in mask order: at
    # M = 2^s - 1 it holds every subset, and an M short of that leaves the
    # top layers partial.
    @given(inst=tour_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_prefix_family_matches_scalar_kernel(self, inst, data):
        ground = sorted(data.draw(st.sets(st.sampled_from(list(inst.customers)), min_size=2)))
        full = (1 << len(ground)) - 1
        top = data.draw(st.one_of(st.just(full), st.integers(1, full - 1)), label="M")
        masks = range(1, top + 1)
        got = optimal_tours(inst, ground, masks)
        want = held_karp_tours(inst, ground, masks)
        assert list(got) == list(want) == list(masks)
        assert_same_tours(got.values(), want.values())

    @pytest.mark.parametrize("masks", [[2, 1, 3], [1, 2, 3, 3]])
    def test_rejects_unordered_family(self, inst_line3, masks):
        with pytest.raises(ValueError, match="increasing"):
            optimal_tours(inst_line3, [1, 2, 3], masks)

    # [0, 1, 2, 3, 5] ends at its length, like a prefix family, but lacks
    # 4; [1, 2, 4, 7] has no mask of popcount 2 to build 7 from.  The last
    # four name no non-empty set of the 3-member ground: the empty set, or
    # a set holding a fourth member.
    @pytest.mark.parametrize(
        "masks", [[1, 3], [2, 3], [1, 2, 4, 7], [1, 2, 3, 4, 5, 7], [0, 1, 2, 3, 5],
                  [0], [8], [1, 8], [1, 2, 3, 9]]
    )
    def test_rejects_family_not_downward_closed(self, inst_line3, masks):
        with pytest.raises(ValueError, match="downward closed"):
            optimal_tours(inst_line3, [1, 2, 3], masks)

    # Unchecked, 1 << 70 raises an untyped OverflowError where the masks
    # become the int64 family array, and 1.5 tours mask 1.
    @pytest.mark.parametrize("masks", [[1, 1 << 70], [1 << 63], [1.5], [1, 2.0], ["1"], [None]])
    def test_rejects_masks_the_family_cannot_hold(self, inst_line3, masks):
        for tours in (tsp.set_tours, optimal_tours, tsp.exact_tsp_and_tours):
            with pytest.raises(ValueError, match="must be integers"):
                tours(inst_line3, [1, 2, 3], masks)

    def test_accepts_python_and_numpy_integer_masks(self, inst_line3):
        want = optimal_tours(inst_line3, [1, 2, 3], [1, 2, 3])
        for masks in ([np.int64(1), np.uint8(2), 3], np.arange(1, 4, dtype=np.uint64)):
            assert optimal_tours(inst_line3, [1, 2, 3], masks) == want
            assert list(tsp.exact_tsp_and_tours(inst_line3, [1, 2, 3], masks)[1]) == \
                list(want.values())

    # Unchecked, at n = 5, [0, 1] is toured as (0, 0, 0) at cost 0.0,
    # [-1] as (0, -1, 0) and [1, 1] as (0, 1, 1, 0), and [6] raises an
    # untyped IndexError.  "not a customer" is ``NotACustomer``'s message.
    @pytest.mark.parametrize("ground, match", [
        ([0, 1], "not a customer"), ([-1], "not a customer"), ([6], "not a customer"),
        ([1, 1], "increasing customers"),
    ])
    def test_rejects_a_ground_that_is_not_increasing_customers(self, ground, match):
        inst = gen_instance("euclidean", 5, 3, seed=1)
        for tours in (optimal_tours, tsp.exact_tsp_and_tours):
            with pytest.raises(ValueError, match=match):
                tours(inst, ground, [1])

    # The draws above (n <= 10) rarely reach a family of a thousand sets.
    # Unit demands at k = 4 over a 14-member ground give every set of up
    # to 4 of them, 1,470 sets; the ground skips customer 7 of 15, so
    # ``exact_tsp_and_tours`` moves each mask's bits.  The 1-or-2 metric
    # is full of ties, which the tie rule decides.
    @pytest.mark.parametrize("kind", ["euclidean", "one_two"])
    def test_large_family_matches_scalar_kernel(self, kind):
        m = gen_instance("euclidean", 15, 4, seed=3).metric
        if kind == "one_two":
            upper = np.triu(np.random.default_rng(3).integers(1, 3, size=m.shape), 1)
            m = (upper + upper.T).astype(float)
        inst = Instance(kind, 4, (1,) * 15, m)
        ground = [v for v in inst.customers if v != 7]
        masks = feasible_masks([1] * len(ground), inst.capacity)
        assert len(masks) == 1470
        want = held_karp_tours(inst, ground, masks).values()
        assert_same_tours(optimal_tours(inst, ground, masks).values(), want)
        assert_same_tours(tsp.exact_tsp_and_tours(inst, ground, masks)[1], want)

    def test_full_schedule_is_built_once_per_size(self):
        inst = gen_instance("euclidean", 7, 3, seed=4)
        exact_tsp(inst, inst.customers)
        family = tsp._full_family(7)
        built = tsp._full_family.cache_info().misses
        exact_tsp(inst, inst.customers)
        optimal_tours(inst, list(inst.customers), range(1, 1 << 7))
        assert tsp._full_family.cache_info().misses == built
        assert tsp._full_family(7) is family
        schedule = family.steps
        assert all(not a.flags.writeable for _, prev, dest in schedule for a in (prev, dest))
        for j in (1, 2):
            with pytest.raises(ValueError, match="read-only"):
                schedule[-1][j][0] = 0
        # s 2^(s-1) - s predecessor columns and as many flat destinations,
        # one of each per member of each set above the singletons, as int64.
        assert sum(prev.nbytes + dest.nbytes for _, prev, dest in schedule) == \
            2 * 8 * (7 * 2 ** 6 - 7)

    # A caller's family of every subset, the one whose size the kept
    # family shares, is priced without building or keeping it.
    def test_caller_family_keeps_no_full_family(self):
        inst = gen_instance("euclidean", 10, 4, seed=1)
        tsp._full_family.cache_clear()
        tour_costs_all_subsets(inst, list(range(1, 11)))
        optimal_tours(inst, list(range(1, 9)), range(1, 1 << 8))
        assert tsp._full_family.cache_info().currsize == 0

    @pytest.mark.parametrize("s", [0, 1, 2, 7, 13])
    def test_full_family_constants_are_kept(self, s):
        # The full family's masks, column map and singleton seeds are built
        # once per size and read-only.  Its masks run in popcount layers,
        # increasing inside each; the map sends each mask to its column.
        family = tsp._full_family(s)
        assert tsp._full_family(s) is family
        assert all(not array.flags.writeable
                   for array in (family.masks, family.column, family.ones, family.first))
        masks, n = np.arange(1, 1 << s), (1 << s) - 1
        sizes = tsp.mask_bits(masks, s).sum(axis=1)
        assert np.array_equal(family.masks, masks[np.lexsort((masks, sizes))])
        assert family.masks.dtype == family.column.dtype == np.int64
        assert len(family.column) == 1 << s and family.column[0] == -1
        assert np.array_equal(family.column[family.masks], np.arange(n))
        assert np.array_equal(family.masks[family.ones], 1 << np.arange(s))
        assert np.array_equal(family.first, np.arange(1, s + 1))

    @pytest.mark.parametrize("s", [7, 11, 13])
    def test_kept_full_family_fills_the_same_table(self, s):
        inst = layer_instance("random_metric", s)
        sub = tsp._submetric(inst, list(inst.customers))
        family = tsp._full_family(s)
        kept = tsp._held_karp(sub, family)
        masks = np.arange(1, 1 << s)
        generic = tsp._held_karp(sub, tsp._family(masks, s))
        assert_same_table(kept[:, family.column[masks]], generic)

    # From s = 14 the table outgrows an L2 cache and the middle layers
    # run one bit a chunk; the tie-heavy metrics leave many mins equal.
    @pytest.mark.parametrize("kind", ["equal", "one_two_jitter"])
    @pytest.mark.parametrize("s", [14, 15])
    def test_kept_family_matches_generic_steps_on_ties(self, s, kind):
        inst = layer_instance(kind, s)
        sub = tsp._submetric(inst, list(inst.customers))
        family = tsp._full_family(s)
        masks = np.arange(1, 1 << s)  # in mask order: one-bit steps by binary search
        generic = tsp._held_karp(sub, tsp._family(masks, s))
        assert_same_table(tsp._held_karp(sub, family)[:, family.column[masks]], generic)

    # ``tour_instances`` draws n <= 10, where every popcount layer of the
    # full family is one chunk.  At s = 12 and 13 the middle layers split
    # into chunks of 5 and 2 bits, and from s = 14 into single bits.
    @pytest.mark.parametrize("s", [0, 1, 2, 7, 11, 12, 13, 14])
    def test_full_schedule_runs_each_layer_in_chunks(self, s):
        family = tsp._full_family(s)
        schedule = family.steps
        n = len(family.masks)
        pairs, layers = [], []
        for b0, prev, dest in schedule:
            for a in prev, dest:
                assert a.ndim == 2 and a.dtype == np.int64 and not a.flags.writeable
            assert prev.shape == dest.shape
            assert len(prev) == 1 or 8 * s * prev.size <= tsp.CHUNK_BYTES
            bits = np.arange(b0, b0 + len(prev))[:, None]
            assert bits[-1, 0] < s
            columns = dest - (bits + 1) * n  # flat index (b + 1) n + column
            assert ((columns >= 0) & (columns < n)).all()
            assert (np.diff(columns, axis=1) > 0).all()  # each row's sets increase
            sets = family.masks[columns]
            assert np.array_equal(family.masks[prev], sets ^ (1 << bits))
            sizes = set(tsp.mask_bits(sets.ravel(), s).sum(axis=1).tolist())
            assert len(sizes) == 1
            layers += sizes
            pairs.append((sets * 32 + bits).ravel())
        assert layers == sorted(layers)
        masks = np.arange(1, 1 << s)
        members = tsp.mask_bits(masks, s)
        rows, bits = np.nonzero((members.sum(axis=1) >= 2)[:, None] & members)
        got = np.concatenate([np.zeros(0, np.int64), *pairs])
        assert np.array_equal(np.sort(got), masks[rows] * 32 + bits)  # each (set, bit) once
        split = len(schedule) > len(set(layers))
        assert split == (s >= 12)

    @pytest.mark.parametrize("kind", ["random_metric", "equal", "one_two_jitter"])
    @pytest.mark.parametrize("s", [11, 12])
    def test_split_layers_match_scalar_kernel(self, s, kind):
        inst = layer_instance(kind, s)
        ground = list(inst.customers)
        full = (1 << s) - 1
        into, paths = held_karp_paths(inst, ground, range(1, full + 1))
        family = tsp._full_family(s)
        sub = tsp._submetric(inst, ground)
        table = tsp._held_karp(sub, family)
        assert_same_table(table[:, family.column[1:]], np.array(list(paths.values())).T)
        wanted = [full, *range(1, full + 1, 29)]
        tours = tsp.SetTours(sub, table, ground, family.masks, walk_tolerance(inst))
        want = [held_karp_tour(into, paths, ground, m, walk_tolerance(inst)) for m in wanted]
        assert_same_tours([tours[family.column[m]] for m in wanted], want)

    @pytest.mark.parametrize("kind", ["random_metric", "one_two_jitter"])
    @pytest.mark.parametrize("s", [13, 14])
    def test_split_layers_match_one_bit_steps(self, s, kind):
        inst = layer_instance(kind, s)
        sub = tsp._submetric(inst, list(inst.customers))
        family = tsp._full_family(s)
        one_bit = tuple((b0 + j, prev[j:j + 1], dest[j:j + 1])
                        for b0, prev, dest in family.steps for j in range(len(prev)))
        assert_same_table(tsp._held_karp(sub, family),
                          tsp._held_karp(sub, family._replace(steps=one_bit)))


def cap_instance(kind, n):
    """An n-customer instance at k = 4 with ``gen_instance``'s demands:
    euclidean, random_metric, or a 1-or-2 metric full of ties."""
    inst = gen_instance("euclidean" if kind == "one_two" else kind, n, 4, seed=n)
    if kind != "one_two":
        return inst
    upper = np.triu(np.random.default_rng(n).integers(1, 3, size=inst.metric.shape), 1)
    return Instance(kind, 4, inst.demands, (upper + upper.T).astype(float))


# sha256 of the rows built below: the exact depot tour and the costs of
# the demand-feasible catalog priced off its table, at n = 15..18, where
# the DP's table outgrows an L2 cache.  Change this only with the tours.
CAP_PINNED_DIGEST = "5d1bcdd7e5e667a7178be9c8f8ff500539af9beec4a18bf0197831315f72b26b"


def test_exact_tours_to_the_cap_pinned():
    rows = []
    for kind in ("euclidean", "random_metric", "one_two"):
        for n in range(15, tsp.HELDKARP_CAP + 1):
            inst = cap_instance(kind, n)
            ground = list(inst.customers)
            tour = exact_tsp(inst, ground)
            masks = feasible_masks(inst.demands, inst.capacity)
            got, tours = tsp.exact_tsp_and_tours(inst, ground, masks)
            assert got == tour
            rows.append([kind, n, tour.vertices, tour.cost.hex(),
                         [cost.hex() for cost in tours.costs.tolist()]])
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == CAP_PINNED_DIGEST, digest


class TestExactTspAndTours:
    @given(inst=tour_instances(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_exact_tsp_and_optimal_tours(self, inst, data):
        ground = sorted(data.draw(st.sets(st.sampled_from(list(inst.customers)))))
        masks = feasible_masks([inst.demand(v) for v in ground], inst.capacity)
        tour, tours = tsp.exact_tsp_and_tours(inst, ground, masks)
        assert_same_tours([tour], [exact_tsp(inst, inst.customers)])
        assert_same_tours(tours, optimal_tours(inst, ground, masks).values())

    @pytest.mark.parametrize("masks", [[0], [8], [1, 8], [1, 2, 3, 9]])
    def test_rejects_masks_outside_the_ground(self, masks):
        inst = gen_instance("euclidean", 5, 3, seed=1)
        with pytest.raises(ValueError, match="non-empty sets of the 3-member ground"):
            tsp.exact_tsp_and_tours(inst, [1, 2, 3], masks)

    def test_needs_an_exact_tour_and_a_sorted_ground(self, inst_line3, monkeypatch):
        with pytest.raises(ValueError, match="increasing customers"):
            tsp.exact_tsp_and_tours(inst_line3, [2, 1], [1])
        with pytest.raises(NotACustomer):
            tsp.exact_tsp_and_tours(inst_line3, [0, 1], [1])
        one = gen_instance("euclidean", 1, 3, seed=1)
        tour = exact_tsp(one, [1])
        got, tours = tsp.exact_tsp_and_tours(one, [1], [1])
        assert (got, list(tours)) == (tour, [tour])
        monkeypatch.setattr(tsp, "HELDKARP_CAP", 2)
        with pytest.raises(SubsetTooLarge):
            tsp.exact_tsp_and_tours(inst_line3, [1], [1])


class TestApproxTsp:
    def test_within_twice_optimal(self):
        for inst in instance_mix(15, max_n=9, max_k=4, seed_base=200):
            opt = exact_tsp(inst, inst.customers).cost
            t = approx_tsp(inst, inst.customers)
            assert t.quality_tag == "two_approx"
            assert set(t.vertices[1:-1]) == set(inst.customers)
            assert opt - 1e-9 <= t.cost <= 2.0 * opt + 1e-9

    def test_empty(self, inst_line3):
        assert approx_tsp(inst_line3, []).vertices == (0, 0)

    def test_deterministic(self):
        inst = gen_instance("euclidean", 12, 3, seed=9)
        a = approx_tsp(inst, inst.customers)
        b = approx_tsp(inst, inst.customers)
        assert a.vertices == b.vertices

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_reference(self, data):
        n = data.draw(st.integers(1, 60), label="n")
        kind = data.draw(st.sampled_from(["euclidean", "random_metric", "grid"]))
        if kind == "grid":
            inst = grid_instance(
                data.draw(st.lists(grid_points, min_size=n + 1, max_size=n + 1)),
                data.draw(st.sampled_from([1, 2]), label="norm"),
            )
        else:
            inst = gen_instance(kind, n, 3, seed=data.draw(st.integers(0, 10_000)))
        subset = data.draw(st.one_of(
            st.just(inst.customers), st.sets(st.integers(1, n))
        ), label="subset")
        assert approx_tsp(inst, subset) == mst_doubling_tour(inst, subset)

    def test_full_grid_matches_reference(self):
        # 64 lattice points: every distance recurs, so Prim meets ties at
        # almost every step and must break them by vertex index.
        inst = grid_instance([(x, y) for x in range(8) for y in range(8)], 2)
        assert approx_tsp(inst, inst.customers) == mst_doubling_tour(
            inst, inst.customers
        )

    def test_infinite_edges_match_reference(self):
        # Not a valid instance, but approx_tsp takes any: when every edge
        # left is infinite, Prim still adds the lowest remaining vertex.
        m = gen_instance("euclidean", 6, 3, seed=1).metric.copy()
        m[4:, :4] = m[:4, 4:] = np.inf
        inst = Instance("split", 3, (1,) * 6, m)
        assert approx_tsp(inst, inst.customers) == mst_doubling_tour(
            inst, inst.customers
        )


grid_points = st.tuples(st.integers(0, 7), st.integers(0, 7))


def grid_instance(points, norm):
    """Lattice points under the L1 or L2 norm, the first one the depot."""
    pts = np.array(points, dtype=float)
    m = np.linalg.norm(pts[:, None, :] - pts[None, :, :], ord=norm, axis=2)
    return Instance("grid", 1, (1,) * (len(pts) - 1), m)


@pytest.mark.parametrize("solve", [exact_tsp, approx_tsp])
@pytest.mark.parametrize("subset, vertex", [
    ([0, 1, 2], 0), ([2, 1, 7], 7), ([-1, 3], -1),
])
def test_rejects_non_customers(inst_line3, solve, subset, vertex):
    with pytest.raises(NotACustomer, match=f"vertex {vertex} ") as exc:
        solve(inst_line3, subset)
    assert exc.value.vertex == vertex
    assert isinstance(exc.value, ValueError)


class TestShortcut:
    def test_line3_keep_ends(self, inst_line3):
        t = shortcut(inst_line3, (0, 1, 2, 3, 0), [1, 3])
        assert t.vertices == (0, 1, 3, 0)
        assert t.cost == pytest.approx(6.0)

    def test_first_appearance_order(self, inst_line3):
        t = shortcut(inst_line3, (0, 2, 1, 2, 3, 0), [1, 2])
        assert t.vertices == (0, 2, 1, 0)

    def test_empty_keep(self, inst_line3):
        t = shortcut(inst_line3, (0, 1, 2, 3, 0), [])
        assert t.vertices == (0, 0)
        assert t.cost == 0.0

    def test_keep_not_visited(self, inst_line3):
        with pytest.raises(KeepNotVisited):
            shortcut(inst_line3, (0, 1, 0), [2])

    def test_requires_closed_walk(self, inst_line3):
        with pytest.raises(ValueError):
            shortcut(inst_line3, (0, 1, 2), [1])

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_cost_never_increases(self, data):
        seed = data.draw(st.integers(0, 10_000))
        inst = gen_instance("euclidean", 8, 3, seed=seed)
        walk_mid = data.draw(
            st.lists(st.integers(0, 8), min_size=1, max_size=15)
        )
        walk = (0, *walk_mid, 0)
        visited = [v for v in set(walk) if v != 0]
        keep = data.draw(st.sets(st.sampled_from(visited)) if visited else st.just(set()))
        t = shortcut(inst, walk, keep)
        assert t.cost <= inst.route_cost(walk) + 1e-9
        assert t.customers == frozenset(keep)


class TestAllSubsets:
    def test_matches_per_subset_exact(self):
        inst = gen_instance("random_metric", 6, 3, seed=77)
        ground = list(inst.customers)
        costs = tour_costs_all_subsets(inst, ground)
        for mask in range(1, 1 << 6):
            members = [ground[i] for i in range(6) if (mask >> i) & 1]
            assert costs[mask] == pytest.approx(
                exact_tsp(inst, members).cost, abs=1e-9
            )

    def test_cap(self, inst_line3, monkeypatch):
        monkeypatch.setattr(tsp, "HELDKARP_CAP", 2)
        with pytest.raises(SubsetTooLarge):
            tour_costs_all_subsets(inst_line3, [1, 2, 3])


def test_tour_customers_property():
    t = Tour((0, 4, 2, 0), 5.0, "external")
    assert t.customers == frozenset({2, 4})
    assert empty_tour().customers == frozenset()
