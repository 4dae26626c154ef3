import inspect

import pmfg
import pmfg.embedding
import pmfg.generator
import pmfg.planarity
import pmfg.verify
from pmfg import PlanarEmbedding


def test_every_exported_name_resolves():
    assert [name for name in pmfg.__all__ if not hasattr(pmfg, name)] == []


def test_export_list_is_sorted_and_unique():
    assert pmfg.__all__ == sorted(set(pmfg.__all__))


def test_removed_names_stay_removed():
    # Filters and caches that duplicated a fact owned elsewhere: the ops of
    # ``eberhard_ops``, the masks ``count_cliques`` builds, and the
    # brute-force ceiling of ``pmfg.cliques``, the walk start ``trace_faces``
    # already fixes, and two accessors that only restated ``rotation``.
    assert "find_pure_chord_cycles" not in pmfg.__all__
    assert not hasattr(pmfg, "find_pure_chord_cycles")
    assert not hasattr(pmfg.generator, "find_pure_chord_cycles")
    assert not hasattr(PlanarEmbedding, "neighbor_masks")
    assert not hasattr(pmfg.verify, "BRUTE_CENSUS_LIMIT")
    assert not hasattr(pmfg.embedding, "_canonical_walk")
    assert not hasattr(PlanarEmbedding, "neighbors")
    assert not hasattr(PlanarEmbedding, "darts")
    # The oracle's two searches are one loop over branch placements, and a
    # normalization move carries the replacement its finder computed.
    assert not hasattr(pmfg.planarity, "_has_k5_subdivision")
    assert not hasattr(pmfg.planarity, "_has_k33_subdivision")
    # The oracle checks certificates; its exhaustive search is gone.
    for name in ("_min_interior", "_pack_paths", "_branch_placements"):
        assert not hasattr(pmfg.planarity, name)
    assert not hasattr(pmfg.generator, "_recorded")


def test_generate_all_audits_only_through_its_callback():
    # Clique deltas are audited exactly when ``on_application`` is given, so
    # there is no separate switch; the apex step lives in pmfg.embedding.
    assert "check_deltas" not in inspect.signature(pmfg.generate_all).parameters
    assert not hasattr(pmfg.generator, "_RotationApex")


def test_codes_are_bytes_and_faces_are_tuples():
    assert pmfg.CanonicalCode is bytes
    assert pmfg.Face == tuple[int, ...]
    assert isinstance(pmfg.canonical_code(pmfg.k4()), bytes)
    assert all(type(face) is tuple for face in pmfg.k4().faces)


def test_knobs_no_caller_sets_stay_constants():
    # The ceilings of the verifiers are module constants (ORACLE_CEILING,
    # BRUTE_FORCE_CEILING, the campaign's GENERATION_CEILING), a DOT file is
    # always the graph G, and a clique census is always stated against n.
    for func in (pmfg.verify_level, pmfg.kuratowski_oracle, pmfg.brute_force_cliques):
        assert "ceiling" not in inspect.signature(func).parameters, func.__name__
    assert "name" not in inspect.signature(PlanarEmbedding.to_dot).parameters
    n = inspect.signature(pmfg.CliqueCensus.to_json_dict).parameters["n"]
    assert n.default is inspect.Parameter.empty
