"""Scenario catalog, seeded family instances, and config-file round trips."""

import inspect
import re

import numpy as np
import pytest

import qha.duflo
from qha.actions import conjugation_action
from qha.duflo import SUITE, estimate_duflo, run_suite, suite_entry
from qha.reports import all_passed
from qha.scenarios import (
    _FAMILIES,
    _WAVELET_PRESETS,
    BUILTIN_IDS,
    FINITE_TOLERANCES,
    TOL_REL_ROWS,
    WAVELET_TOLERANCES,
    ConfigError,
    Scenario,
    ScenarioSpec,
    build_scenario,
    builtin,
    list_builtins,
    load_scenario,
    parse_group_token,
    refined_wavelet,
    save_scenario,
)

from helpers import ScaledWavelet, weyl_heisenberg

EXPECTED_SCALARS = {
    "irrep:s3:trivial": 1.0,
    "irrep:s3:sign": 1.0,
    "irrep:s3:std": 2.0,
    "irrep:cyclic(8):chi5": 1.0,
    "wh:2": 0.5,
    "wh:4": 0.25,
    "translation:cyclic(6)": 1.0,
    "cosets:cyclic(6):cyclic(3)": 1.0 / 3.0,
    "twisted-dual:8:0": 1.0 / 64.0,
    "twisted-dual:4:1": 1.0 / 16.0,
    "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2": 0.5,
}
INDUCED_ID = "induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2"
WAVELET_DEFAULT_FILE = """\
[scenario]
id = affine-wavelet:default
seed = 1729

[group]
kind = quadrature
spec = affine[0.353553,2.82843]x[-8,8]

[haar]
normalization = quadrature

[algebra]
block_dims = 97
trace_weights = 1

[action]
kind = wavelet

[expect]
kernel = inverse-frequency

"""
# the [algebra] line a saved file carries: the block size once per block
SAVED_BLOCK_DIMS = {
    "affine-wavelet:coarse": "block_dims = 49",
    "twisted-dual:4:1": "block_dims = 4",
    INDUCED_ID: "block_dims = 2,2",
    "translation:cyclic(6)": "block_dims = 1,1,1,1,1,1",
    "irrep:s3:std": "block_dims = 2",
}
# Every builtin, the negative control and the larger 1x1 instances, with the
# [action] kind a saved file mirrors.  Permutations are conjugations of 1x1
# blocks, but keep the kinds their files were written with, so that those
# files still load.
ROUND_TRIP_KINDS = {
    **{sid: "conjugation" for sid in BUILTIN_IDS if sid.startswith(("irrep:", "wh:"))},
    "translation:cyclic(6)": "permutation",
    "cosets:cyclic(6):cyclic(3)": "permutation",
    "twisted-dual:8:0": "dual-translation",
    "twisted-dual:4:1": "twisted-dual",
    INDUCED_ID: "induced",
    "affine-wavelet:default": "wavelet",
    "broken-measure": "permutation",
    "translation:cyclic(64)": "permutation",
    "twisted-dual:24:0": "dual-translation",
    "induced:cyclic(4)xcyclic(4):cyclic(2)xcyclic(2):translation": "induced",
}


class TestBuiltins:
    def test_catalog_builds(self):
        for sid in list_builtins():
            scn = build_scenario(ScenarioSpec(sid))
            assert scn.scenario_id == sid

    def test_declared_scalar_expectations(self):
        for sid, expect in EXPECTED_SCALARS.items():
            scn = build_scenario(builtin(sid))
            assert scn.expected_scalar == pytest.approx(expect), sid

    def test_estimates_match_expectations(self):
        for sid, expect in EXPECTED_SCALARS.items():
            scn = build_scenario(builtin(sid))
            x1, x2 = scn.duflo_pair()
            est = estimate_duflo(scn.action, x1, x2, cross_tol=scn.tolerances["duflo-estimate"])
            assert est.scalar_value == pytest.approx(expect, rel=1e-10), sid

    def test_unknown_id_lists_kinds(self):
        with pytest.raises(ConfigError) as exc:
            build_scenario(ScenarioSpec("nonsense:1"))
        assert str(exc.value) == ("unknown scenario 'nonsense:1'; known kinds: irrep, wh, translation, "
                                  "cosets, twisted-dual, induced, affine-wavelet, broken-measure")
        assert str(exc.value).endswith(", ".join(_FAMILIES))

    def test_bad_group_name_lists_valid_forms(self):
        with pytest.raises(ConfigError, match="valid forms"):
            build_scenario(ScenarioSpec("translation:dihedral(8)"))

    @pytest.mark.parametrize("j", [8, 99])
    def test_character_index_must_be_below_the_order(self, j):
        # chi<j> names the character g -> exp(2 pi i j g / 8) for j < 8 only;
        # a larger j once ran chi<j mod 8> under the wrong name
        with pytest.raises(ConfigError) as exc:
            build_scenario(ScenarioSpec(f"irrep:cyclic(8):chi{j}"))
        assert str(exc.value) == f"character chi{j} of cyclic(8) needs 0 <= j < 8"

    @pytest.mark.parametrize("tok", ["s3xcyclic(2)", "cyclic(2)xs3"])
    def test_s3_products_parse_in_either_order(self, tok):
        assert parse_group_token(tok).order == 12

    def test_wavelet_presets(self):
        for preset in ("coarse", "default"):
            scn = build_scenario(ScenarioSpec(f"affine-wavelet:{preset}"))
            assert scn.action.group.kind == "quadrature"
            assert scn.action.expected_kernel == "inverse-frequency"

    def test_broken_measure_fixture(self):
        reports = run_suite(build_scenario(ScenarioSpec("broken-measure")))
        assert not all_passed(reports)

    def test_twisted_dual_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            build_scenario(ScenarioSpec("twisted-dual:4:2"))

    def test_cosets_requires_divisor(self):
        with pytest.raises(ConfigError):
            build_scenario(ScenarioSpec("cosets:cyclic(6):cyclic(4)"))


def _wrong_token_counts():
    """(kind, form, id) with one token too many, and one too few where the form has one to drop."""
    for kind, (form, _) in _FAMILIES.items():
        yield kind, form, form + ":x"
        if ":" in form:
            yield kind, form, form.rsplit(":", 1)[0]


class TestFamilyTable:
    @pytest.mark.parametrize("kind,form,sid", list(_wrong_token_counts()))
    def test_every_family_rejects_a_wrong_token_count(self, kind, form, sid):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'{kind} scenario needs the form {form}')}$"):
            build_scenario(ScenarioSpec(sid))

    def test_defaults_follow_the_group_kind(self):
        spec = ScenarioSpec("bare")
        wavelet = Scenario(spec, ScaledWavelet(_WAVELET_PRESETS["coarse"]))
        assert (wavelet.tolerances, wavelet.default_trials) == (WAVELET_TOLERANCES, 4)
        finite = Scenario(spec, conjugation_action(*weyl_heisenberg(2)))
        assert (finite.tolerances, finite.default_trials) == (FINITE_TOLERANCES, 12)
        assert finite.tolerances is not FINITE_TOLERANCES

    @pytest.mark.parametrize("sid,pin", [("translation:cyclic(6)", 1e-12), ("cosets:cyclic(6):cyclic(3)", 1e-10)])
    def test_pins_replace_only_their_entries_and_tol_rel_comes_last(self, sid, pin):
        pinned = {**FINITE_TOLERANCES, "duflo-expected-scalar": pin}
        assert build_scenario(ScenarioSpec(sid)).tolerances == pinned
        scn = build_scenario(ScenarioSpec(sid, tol_rel=1e-7))
        assert scn.tolerances == {**pinned, **dict.fromkeys(TOL_REL_ROWS, 1e-7)}
        assert FINITE_TOLERANCES["duflo-expected-scalar"] == 1e-9  # the table is not touched

    def test_tol_rel_overrides_a_pin_on_its_rows(self):
        act = conjugation_action(*weyl_heisenberg(2))
        scn = Scenario(ScenarioSpec("bare", tol_rel=1e-7), act, {"l1-equality": 1e-3, "bracket-symmetry": 1e-3})
        assert (scn.tolerances["l1-equality"], scn.tolerances["bracket-symmetry"]) == (1e-7, 1e-3)


# Fifty (scenario id, seed) pairs over every finite family, with parameters
# beyond the builtins (cosets of cyclic(10) and cyclic(15), translation on
# cyclic(13), twisted duals of order 4 to 16).
SEEDED_SPECS = (
    ("induced:cyclic(4):cyclic(2):translation", 0), ("cosets:cyclic(10):cyclic(5)", 1),
    ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 2), ("twisted-dual:2:0", 3),
    ("twisted-dual:4:1", 4), ("twisted-dual:4:0", 5), ("cosets:cyclic(10):cyclic(5)", 6),
    ("induced:cyclic(4):cyclic(2):translation", 7), ("twisted-dual:2:0", 8),
    ("cosets:cyclic(15):cyclic(5)", 9), ("twisted-dual:4:0", 10), ("wh:2", 11),
    ("irrep:s3:std", 12), ("induced:cyclic(4):cyclic(2):translation", 13), ("wh:4", 14),
    ("induced:cyclic(4):cyclic(2):translation", 15), ("irrep:cyclic(8):chi3", 16),
    ("twisted-dual:4:0", 17), ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 18),
    ("irrep:cyclic(8):chi1", 19), ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 20),
    ("translation:cyclic(13)", 21), ("twisted-dual:3:1", 22), ("wh:4", 23),
    ("cosets:cyclic(8):cyclic(4)", 24), ("irrep:s3:sign", 25),
    ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 26), ("wh:4", 27),
    ("irrep:cyclic(8):chi6", 28), ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 29),
    ("wh:2", 30), ("irrep:cyclic(8):chi6", 31),
    ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 32),
    ("induced:cyclic(2)xcyclic(4):cyclic(2)xcyclic(2):wh2", 33), ("wh:2", 34), ("wh:3", 35),
    ("cosets:cyclic(6):cyclic(2)", 36), ("wh:4", 37), ("translation:cyclic(9)", 38),
    ("induced:cyclic(4):cyclic(2):translation", 39), ("irrep:cyclic(8):chi5", 40),
    ("irrep:cyclic(8):chi7", 41), ("wh:4", 42), ("irrep:cyclic(8):chi4", 43),
    ("twisted-dual:2:1", 44), ("induced:cyclic(4):cyclic(2):translation", 45),
    ("irrep:cyclic(8):chi6", 46), ("wh:4", 47), ("wh:3", 48), ("wh:3", 49),
)


class TestSeededSpecs:
    def test_many_seeds_pass_suites(self):
        for sid, seed in SEEDED_SPECS:
            reports = run_suite(build_scenario(ScenarioSpec(sid, seed=seed)), trials=4)
            assert all_passed(reports), (seed, sid, [r.name for r in reports if not r.passed])


class TestScenarioFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.ini"
        spec = builtin("wh:4", seed=99)
        save_scenario(spec, path)
        loaded = load_scenario(path)
        assert loaded.scenario_id == "wh:4"
        assert loaded.seed == 99

    def test_round_trip_covers_every_builtin(self):
        assert set(BUILTIN_IDS) <= set(ROUND_TRIP_KINDS)

    @pytest.mark.parametrize("sid", ROUND_TRIP_KINDS)
    def test_every_family_round_trips_with_its_kind(self, tmp_path, sid):
        import configparser

        path = tmp_path / "scenario.ini"
        spec = ScenarioSpec(sid, seed=3)
        save_scenario(spec, path)
        saved = configparser.ConfigParser()
        saved.read(path)
        assert saved["action"]["kind"] == ROUND_TRIP_KINDS[sid]
        assert load_scenario(path) == spec

    def test_wavelet_file_of_an_earlier_release_loads(self, tmp_path):
        # the bytes save_scenario wrote for affine-wavelet:default before the
        # quadrature group lost its pluggable maps: the group label, the Haar
        # tag and every mirrored key must still match, and be written again
        path = tmp_path / "scenario.ini"
        path.write_text(WAVELET_DEFAULT_FILE)
        assert load_scenario(path) == ScenarioSpec("affine-wavelet:default")
        again = tmp_path / "again.ini"
        save_scenario(ScenarioSpec("affine-wavelet:default"), again)
        assert again.read_text() == WAVELET_DEFAULT_FILE

    def test_missing_tolerance_defaults_injected(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:3\n")
        spec = load_scenario(path)
        scn = build_scenario(spec)
        assert scn.tolerances == FINITE_TOLERANCES  # the family table

    def test_tolerance_override(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:3\n\n[tolerances]\nrel = 1e-7\n")
        scn = build_scenario(load_scenario(path))
        assert {row: scn.tolerances[row] for row in TOL_REL_ROWS} == dict.fromkeys(TOL_REL_ROWS, 1e-7)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:3\nfrobnicate = 1\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:3\n\n[extras]\nfoo = 1\n")
        with pytest.raises(ConfigError, match="unknown section"):
            load_scenario(path)

    def test_bad_id_in_file(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:zero\n")
        with pytest.raises(ConfigError):
            load_scenario(path)

    def test_mismatched_algebra_section(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:3\n\n[algebra]\nblock_dims = 4\n")
        with pytest.raises(ConfigError, match="block_dims"):
            load_scenario(path)

    @pytest.mark.parametrize("section, key, value", [
        ("group", "spec", "cyclic(5)"),
        ("action", "kind", "permutation"),
        ("expect", "scalar", "99"),
        ("expect", "kernel", "inverse-frequency"),
        ("haar", "normalization", "probability"),
        ("algebra", "trace_weights", "2"),
    ])
    def test_mismatched_mirror_rejected(self, tmp_path, section, key, value):
        path = tmp_path / "scenario.ini"
        path.write_text(f"[scenario]\nid = wh:4\n\n[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] {key}"):
            load_scenario(path)

    def test_mirrors_compare_numbers_numerically(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:4\n\n[algebra]\nblock_dims = 4\n"
                        "trace_weights = 1.0\n\n[expect]\nscalar = 2.5e-1  # D = (1/4) 1\n")
        assert load_scenario(path) == ScenarioSpec("wh:4")

    def test_unequal_block_dims_rejected(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text(f"[scenario]\nid = {INDUCED_ID}\n\n[algebra]\nblock_dims = 2,1\n")
        with pytest.raises(ConfigError, match=r"\[algebra\] block_dims"):
            load_scenario(path)

    @pytest.mark.parametrize("spec", [
        ScenarioSpec("affine-wavelet:coarse", seed=5),
        ScenarioSpec("twisted-dual:4:1", seed=7, tol_rel=1e-7),
        ScenarioSpec(INDUCED_ID),
        ScenarioSpec("translation:cyclic(6)"),
        ScenarioSpec("irrep:s3:std", seed=11),
    ])
    def test_saved_file_loads_to_the_same_spec(self, tmp_path, spec):
        path = tmp_path / "scenario.ini"
        save_scenario(spec, path)
        lines = path.read_text().splitlines()
        assert SAVED_BLOCK_DIMS[spec.scenario_id] in lines
        # [haar] mirrors the Haar model the action carries: probability on s3
        normalization = build_scenario(spec).action.haar.normalization
        assert f"normalization = {normalization}" in lines
        assert (normalization == "probability") == spec.scenario_id.startswith("irrep")
        assert load_scenario(path) == spec

    def test_bad_tolerance_is_config_error(self, tmp_path):
        path = tmp_path / "scenario.ini"
        path.write_text("[scenario]\nid = wh:3\n\n[tolerances]\nrel = tight\n")
        with pytest.raises(ConfigError, match=r"\[tolerances\] rel"):
            load_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_scenario("/nonexistent/scenario.ini")

    def test_only_the_relative_tolerance_is_a_key(self, tmp_path):
        path = tmp_path / "scenario.ini"
        save_scenario(builtin("wh:3"), path)
        assert "abs" not in path.read_text()
        path.write_text("[scenario]\nid = wh:3\n\n[tolerances]\nrel = 1e-7\nabs = 1\n")
        with pytest.raises(ConfigError, match="unknown keys"):
            load_scenario(path)


class TestScenarioRuntime:
    def test_rng_streams_are_stable(self):
        scn = build_scenario(builtin("wh:3"))
        a = scn.rng("tag").standard_normal(4)
        b = scn.rng("tag").standard_normal(4)
        c = scn.rng("other").standard_normal(4)
        assert np.allclose(a, b)
        assert not np.allclose(a, c)

    def test_seed_changes_elements(self):
        s1 = build_scenario(builtin("wh:3", seed=1))
        s2 = build_scenario(builtin("wh:3", seed=2))
        x1 = s1.action.random_element(s1.rng("x"))
        x2 = s2.action.random_element(s2.rng("x"))
        assert (x1 - x2).max_abs_entry() > 1e-6

    def test_wavelet_young_row_is_skipped_with_its_reason(self):
        # the wavelet's D is not scalar, so no trace-class element commutes with it
        scn = build_scenario(ScenarioSpec("affine-wavelet:default"))
        assert not estimate_duflo(scn.action, *scn.duflo_pair()).scalar_flag
        young, = (r for r in run_suite(scn) if r.name == "young-inequality")
        assert young.skipped and young.notes == suite_entry("young-inequality").skip

    def test_refined_wavelet_level_zero_is_the_preset(self):
        spec = ScenarioSpec("affine-wavelet:coarse")
        preset = build_scenario(spec)
        level0 = refined_wavelet(build_scenario(spec), 0)
        assert level0.action.design == preset.action.design
        assert np.array_equal(level0.action.haar.weights, preset.action.haar.weights)
        assert refined_wavelet(build_scenario(spec), 1).action.design == preset.action.design.scaled(2)

    def test_refined_wavelet_keeps_the_spec(self):
        scn = build_scenario(ScenarioSpec("affine-wavelet:coarse", seed=5, tol_rel=1e-3))
        refined = refined_wavelet(scn, 1)
        assert refined.spec == scn.spec and refined.tolerances == scn.tolerances

    def test_unknown_wavelet_preset_is_rejected(self):
        with pytest.raises(ConfigError, match="unknown wavelet preset 'huge'"):
            build_scenario(ScenarioSpec("affine-wavelet:huge"))


# the two rows that take no entry: the one derives its tolerance from the
# estimate, the other compares integers exactly
UNTABLED = ("admissibility-identities", "ergodicity")


class TestToleranceTables:
    @pytest.mark.parametrize("sid,table", [("wh:4", FINITE_TOLERANCES),
                                           ("affine-wavelet:default", WAVELET_TOLERANCES)])
    def test_each_entry_is_the_one_source_of_its_row(self, sid, table, monkeypatch):
        base = run_suite(build_scenario(ScenarioSpec(sid)))
        live = {r.name for r in base if not r.skipped}
        for name, value in list(table.items()):
            # integrability-witness reports a flag, so its entry (the bound on
            # the imaginary part) shows only as a verdict: a negative one fails
            new = -1.0 if name == "integrability-witness" else 2.0 * value
            with monkeypatch.context() as m:
                m.setitem(table, name, new)
                reports = run_suite(build_scenario(ScenarioSpec(sid)))
            assert [r.name for r in reports] == [r.name for r in base]
            changed = [a.name for a, b in zip(base, reports)
                       if (a.tol_abs, a.tol_rel, a.passed) != (b.tol_abs, b.tol_rel, b.passed)]
            assert changed == ([name] if name in live else []), name
            if name != "integrability-witness" and name in live:
                row, = (r for r in reports if r.name == name)
                assert new in (row.tol_abs, row.tol_rel), name

    @pytest.mark.parametrize("sid", BUILTIN_IDS + ("affine-wavelet:coarse", "broken-measure"))
    def test_every_applicable_row_has_one_entry(self, sid):
        scn = build_scenario(ScenarioSpec(sid))
        applicable = {name for row in SUITE if row.applies(scn) for name in row.rows}
        assert set(scn.tolerances) <= {name for row in SUITE for name in row.rows}
        assert applicable - set(UNTABLED) <= set(scn.tolerances)
        assert not set(UNTABLED) & set(scn.tolerances)

    def test_every_check_takes_a_required_tol(self):
        for row in SUITE:
            params = inspect.signature(getattr(qha.duflo, row.check)).parameters
            assert "scenario" not in params
            if row.rows[0] in UNTABLED:
                assert "tol" not in params, row.check
            else:
                assert params["tol"].kind is inspect.Parameter.KEYWORD_ONLY, row.check
                assert params["tol"].default is inspect.Parameter.empty, row.check

    @pytest.mark.parametrize("sid,tol", [("translation:cyclic(6)", 1e-12),
                                         ("cosets:cyclic(6):cyclic(3)", 1e-10), ("wh:4", 1e-9)])
    def test_expected_scalar_keeps_its_builder_tolerance(self, sid, tol):
        row, = (r for r in run_suite(build_scenario(ScenarioSpec(sid)))
                if r.name == "duflo-expected-scalar")
        assert row.tol_rel == tol

    def test_tol_rel_replaces_the_tol_rel_rows_only(self):
        scn = build_scenario(ScenarioSpec("affine-wavelet:default", tol_rel=1e-7))
        assert scn.tolerances == {**WAVELET_TOLERANCES, **dict.fromkeys(TOL_REL_ROWS, 1e-7)}
        assert WAVELET_TOLERANCES["orthogonality-positive"] == 1e-2  # the table is not touched
