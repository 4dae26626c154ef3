import inspect

import pmfg
import pmfg.generator
import pmfg.verify
from pmfg import PlanarEmbedding


def test_every_exported_name_resolves():
    assert [name for name in pmfg.__all__ if not hasattr(pmfg, name)] == []


def test_export_list_is_sorted_and_unique():
    assert pmfg.__all__ == sorted(set(pmfg.__all__))


def test_removed_names_stay_removed():
    # Filters and caches that duplicated a fact owned elsewhere: the ops of
    # ``eberhard_ops``, the masks ``count_cliques`` builds, and the
    # brute-force ceiling of ``pmfg.cliques``.
    assert "find_pure_chord_cycles" not in pmfg.__all__
    assert not hasattr(pmfg, "find_pure_chord_cycles")
    assert not hasattr(pmfg.generator, "find_pure_chord_cycles")
    assert not hasattr(PlanarEmbedding, "neighbor_masks")
    assert not hasattr(pmfg.verify, "BRUTE_CENSUS_LIMIT")


def test_generate_all_audits_only_through_its_callback():
    # Clique deltas are audited exactly when ``on_application`` is given, so
    # there is no separate switch; the apex step lives in pmfg.embedding.
    assert "check_deltas" not in inspect.signature(pmfg.generate_all).parameters
    assert not hasattr(pmfg.generator, "_RotationApex")
