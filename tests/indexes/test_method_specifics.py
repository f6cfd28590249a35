"""Method-specific behaviour: the design properties the paper attributes
to each index must be visible in our reproductions."""

import numpy as np
import pytest

from repro.core.seeds import find_medoid
from repro.indexes import (
    DPGIndex,
    ELPISIndex,
    HCNNGIndex,
    HNSWIndex,
    LSHAPGIndex,
    NSGIndex,
    NSWIndex,
    SPTAGIndex,
    VamanaIndex,
    create_index,
)


def test_hnsw_has_layer_stack(built_indexes):
    hnsw = built_indexes["HNSW"]
    assert hnsw._stack is not None
    assert hnsw._stack.entry is not None


def test_hnsw_degrees_capped(built_indexes):
    stats = built_indexes["HNSW"].degree_stats()
    assert stats["max"] <= 24


def test_nsw_degrees_uncapped(built_indexes):
    """NSW keeps all reverse edges; hubs exceed the connection count."""
    stats = built_indexes["NSW"].degree_stats()
    assert stats["max"] > 16


def test_nsg_connected_from_medoid(built_indexes):
    nsg = built_indexes["NSG"]
    assert nsg.graph.is_connected_from(nsg.medoid)


def test_nsg_medoid_is_centroid_nearest(built_indexes, index_data):
    nsg = built_indexes["NSG"]
    centroid = index_data.mean(axis=0)
    dists = np.linalg.norm(index_data - centroid, axis=1)
    assert nsg.medoid == int(np.argmin(dists))


@pytest.mark.parametrize("method", ["NSG", "SSG"])
def test_connectivity_repair_respects_degree_cap(method):
    """Repair used to append to the nearest node whether or not it had a
    free slot: 61 (NSG) / 123 (SSG) nodes over the cap on this input."""
    from repro.datasets.synthetic import generate

    index = create_index(method, max_degree=8, seed=0).build(
        generate("seismic", 1000, seed=3)
    )
    assert index.graph.degrees().max() <= 8
    roots = [index.medoid] if method == "NSG" else index.repair_roots
    reachable = np.zeros(index.graph.n, dtype=bool)
    for root in roots:
        reachable |= index.graph.reachable_from(int(root))
    assert reachable.all()


def test_vamana_alpha_validation():
    with pytest.raises(ValueError):
        VamanaIndex(alpha=0.9)


def test_vamana_degree_cap(built_indexes):
    assert built_indexes["Vamana"].degree_stats()["max"] <= 24


def test_dpg_graph_is_undirected(built_indexes):
    dpg = built_indexes["DPG"]
    for node in range(0, dpg.graph.n, 37):
        for nbr in dpg.graph.neighbors(node).tolist():
            assert node in dpg.graph.neighbors(nbr), (node, nbr)


def test_dpg_supports_rnd_variant(index_data):
    """The public DPG code uses RND; we expose both (paper footnote)."""
    dpg = DPGIndex(diversify="rnd", k_neighbors=8, seed=0).build(index_data)
    assert dpg.graph.num_edges() > 0


def test_sptag_tree_type_validation():
    with pytest.raises(ValueError):
        SPTAGIndex(tree_type="xyz")


def test_sptag_variants_share_graph_recipe(built_indexes):
    kdt = built_indexes["SPTAG-KDT"]
    bkt = built_indexes["SPTAG-BKT"]
    assert kdt.name == "SPTAG-KDT"
    assert bkt.name == "SPTAG-BKT"
    # same partition/merge recipe, same seed: identical graph edges
    assert kdt.graph.num_edges() == bkt.graph.num_edges()


def test_hcnng_mst_union_degrees_bounded(built_indexes):
    """Union of T degree<=3 MSTs has max degree <= 3T."""
    hcnng = built_indexes["HCNNG"]
    assert hcnng.degree_stats()["max"] <= 3 * hcnng.n_clusterings


def test_hcnng_peak_exceeds_final(built_indexes):
    """Figure 8/9: HCNNG's build structures exceed nothing here because the
    final graph equals the union; but peak bytes are recorded."""
    assert built_indexes["HCNNG"].peak_build_bytes > 0


def test_elpis_leaf_partitions(built_indexes, index_data):
    elpis = built_indexes["ELPIS"]
    leaf_ids = np.concatenate([leaf.point_ids for leaf in elpis._leaves])
    assert sorted(leaf_ids.tolist()) == list(range(index_data.shape[0]))


def test_elpis_leaves_are_disconnected_subgraphs(built_indexes):
    """No edges cross leaf boundaries — graphs are built per leaf."""
    elpis = built_indexes["ELPIS"]
    leaf_of = {}
    for leaf_idx, leaf in enumerate(elpis._leaves):
        for point in leaf.point_ids.tolist():
            leaf_of[point] = leaf_idx
    for node in range(0, elpis.graph.n, 23):
        for nbr in elpis.graph.neighbors(node).tolist():
            assert leaf_of[nbr] == leaf_of[node]


def test_elpis_nprobe_bounds_work(index_data, index_queries):
    """More probed leaves can only improve (or match) the answer quality."""
    one = ELPISIndex(leaf_size=128, nprobe=1, seed=0).build(index_data)
    many = ELPISIndex(leaf_size=128, nprobe=8, seed=0).build(index_data)
    q = index_queries[0]
    d_one = one.search(q, k=5, beam_width=40).dists[0]
    d_many = many.search(q, k=5, beam_width=40).dists[0]
    assert d_many <= d_one + 1e-9


def test_lshapg_routing_flag(index_data, index_queries):
    """Disabling probabilistic routing recovers plain beam search."""
    routed = LSHAPGIndex(seed=0, probabilistic_routing=True).build(index_data)
    plain = LSHAPGIndex(seed=0, probabilistic_routing=False).build(index_data)
    q = index_queries[0]
    r_routed = routed.search(q, k=5, beam_width=40)
    r_plain = plain.search(q, k=5, beam_width=40)
    # routing skips raw-vector evaluations, so it cannot cost more calls
    assert r_routed.distance_calls <= r_plain.distance_calls


def test_lshapg_slack_validation():
    with pytest.raises(ValueError):
        LSHAPGIndex(routing_slack=0.5)


def test_ngt_seeds_charged_to_query(built_indexes, index_queries):
    ngt = built_indexes["NGT"]
    result = ngt.search(index_queries[0], k=5, beam_width=40)
    # VP-tree probes are included in the query's accounting
    assert result.distance_calls > 0


def test_efanna_exposes_knn_lists(built_indexes):
    ids, dists = built_indexes["EFANNA"].knn_lists()
    assert ids.shape == dists.shape
    assert np.all(np.diff(dists, axis=1) >= 0)


def test_kgraph_query_seeds_random(built_indexes, index_queries):
    kgraph = built_indexes["KGraph"]
    a = kgraph._query_seeds(index_queries[0])
    b = kgraph._query_seeds(index_queries[0])
    assert a.tolist() != b.tolist()
