"""Command-line surface: exit codes, output formats, determinism, refinement."""

import argparse
import re
from pathlib import Path

import numpy as np
import pytest

from qha.actions import WaveletAction
from qha.cli import _parser, main, resolve_config
from qha.duflo import DufloEstimate, run_suite
from qha.scenarios import (
    _FAMILIES,
    _SECTION_KEYS,
    _WAVELET_PRESETS,
    BUILTIN_IDS,
    ScenarioSpec,
    build_scenario,
    builtin,
    list_builtins,
    load_scenario,
    save_scenario,
)

from helpers import FINITE_ROWS, WAVELET_ROWS

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_scenario_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:4")
        assert code == 0
        assert "failed: 0" in out

    def test_all_builtins_pass(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--all", "--trials", "4")
        assert code == 0
        assert "failed: 0" in out

    def test_translation_of_s3_product_passes(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "translation:s3xcyclic(2)")
        assert code == 0

    def test_broken_fixture_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "broken-measure")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("sid,rows", [
        ("broken-measure", tuple(r for r in FINITE_ROWS if r != "duflo-expected-scalar")),
        ("affine-wavelet:coarse", WAVELET_ROWS),
    ])
    def test_failed_estimate_reports_every_row(self, capsys, sid, rows):
        # the negative control and the coarse preset fail, and still list the
        # rows of a passing scenario, skipped after the failed estimate
        code, out, err = run_cli(capsys, "verify", "--scenario", sid, "--format", "structured")
        assert code == 1
        found = re.findall(r"^check=(\S+) .* pass=(\S+) skipped=(\S+)", out, re.M)
        assert tuple(name for name, _, _ in found) == rows
        failed = [name for name, ok, _ in found if ok == "false"]
        assert failed == (["action-validity", "trace-preservation", "duflo-estimate"]
                          if sid == "broken-measure" else ["duflo-estimate"])
        after = found[rows.index("duflo-estimate") + 1:]
        assert all(skipped == "true" for _, _, skipped in after)
        assert f"summary checks={len(rows)} failed={len(failed)}" in out

    def test_tol_rel_changes_exactly_the_rows_readme_names(self):
        # every other row keeps a tolerance of its own: a structural bound,
        # the cross-check tolerance, cond(D) n eps, or a fixed 1e-9
        text = re.search(r"`--tol-rel` overrides (.*?);", README.read_text(), re.S).group(1)
        named = re.findall(r"`([a-z0-9-]+)`", text)
        base = run_suite(build_scenario(ScenarioSpec("wh:4")))
        loose = run_suite(build_scenario(ScenarioSpec("wh:4", tol_rel=1e-3)))
        assert [r.name for r in base] == [r.name for r in loose]
        changed = [a.name for a, b in zip(base, loose) if (a.tol_abs, a.tol_rel) != (b.tol_abs, b.tol_rel)]
        assert changed == named

    def test_fine_wavelet_passes_every_row(self, capsys):
        # the wavelet kernels at K = 193, through the whole suite
        code, out, err = run_cli(capsys, "verify", "--scenario", "affine-wavelet:fine",
                                 "--format", "structured")
        assert code == 0
        found = re.findall(r"^check=(\S+) .* pass=(\S+) skipped=(\S+)", out, re.M)
        assert tuple(name for name, _, _ in found) == WAVELET_ROWS
        assert all(ok == "true" for _, ok, _ in found)
        assert [name for name, _, skipped in found if skipped == "true"] == ["young-inequality"]

    def test_missing_file_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "/no/such/file.ini")
        assert code == 2
        assert "error" in err

    def test_unknown_id_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "bogus:thing")
        assert code == 2

    @pytest.mark.parametrize("rep", ["chi8", "chi99"])
    def test_character_beyond_the_order_exits_two(self, capsys, rep):
        code, out, err = run_cli(capsys, "verify", "--scenario", f"irrep:cyclic(8):{rep}")
        assert (code, out, err) == (2, "", f"error: character {rep} of cyclic(8) needs 0 <= j < 8\n")

    @pytest.mark.parametrize("kind", list(_FAMILIES))
    def test_wrong_token_count_exits_two(self, capsys, kind):
        form = _FAMILIES[kind][0]
        code, out, err = run_cli(capsys, "verify", "--scenario", form + ":x")
        assert (code, out, err) == (2, "", f"error: {kind} scenario needs the form {form}\n")

    def test_tol_abs_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--scenario", "wh:2", "--tol-abs", "1"])
        assert exc.value.code == 2

    def test_no_scenario_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "verify")
        assert code == 2

    def test_scenario_file_source(self, capsys, tmp_path):
        path = tmp_path / "wh4.ini"
        save_scenario(builtin("wh:4"), path)
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 0

    def test_readme_ini_example(self, capsys, tmp_path):
        block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(block)
        spec = load_scenario(path)
        assert (spec.scenario_id, spec.seed) == ("wh:4", 1729)
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 0, err

    @pytest.mark.parametrize("text", ["id = wh:2\n", "[scenario]\nid = wh:2\nid = wh:3\n"],
                             ids=["no-section-header", "duplicate-key"])
    def test_unparsable_file_exits_two(self, capsys, tmp_path, text):
        path = tmp_path / "broken.ini"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: cannot parse scenario file")

    def test_bad_seed_in_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[scenario]\nid = wh:3\nseed = abc\n")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2
        assert "seed" in err

    def test_negative_seed_in_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "negative.ini"
        path.write_text("[scenario]\nid = wh:3\nseed = -3\n")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("value", ["inf", "0", "-1", "nan"])
    def test_out_of_range_tol_rel_in_file_exits_two(self, capsys, tmp_path, value):
        path = tmp_path / "tol.ini"
        path.write_text(f"[scenario]\nid = wh:2\n\n[tolerances]\nrel = {value}\n")
        code, out, err = run_cli(capsys, "verify", "--scenario", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "[tolerances] rel" in err

    def test_tol_rel_lowers_every_law_row(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:3", "--tol-rel", "1e-12",
                                 "--format", "structured")
        tol = {m[0]: m[1] for m in re.findall(r"^check=(\S+) .* tol_rel=(\S+) ", out, re.M)}
        for name in ("l1-inequality", "l1-equality", "young-inequality", "interpolation-bound",
                     "orthogonality-positive"):
            assert float(tol[name]) == 1e-12, name
        for name in ("holder-inequality", "alt-inequality"):
            assert float(tol[name]) == 1e-9, name

    def test_structured_format_fields(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:2",
                                 "--format", "structured")
        assert code == 0
        assert out.startswith("qha-report v1")
        assert "scenario wh:2" in out and "seed 1729" in out
        row = next(line for line in out.splitlines() if line.startswith("check="))
        for field in ("check=", "claim=", "lhs=", "rhs=", "abs_err=", "rel_err=",
                      "tol_abs=", "tol_rel=", "pass=", "skipped="):
            assert field in row
        assert re.search(r"summary checks=\d+ failed=0", out)

    def test_structured_output_deterministic(self, capsys):
        for sid in ("wh:3", "affine-wavelet:coarse"):
            _, out1, _ = run_cli(capsys, "verify", "--scenario", sid,
                                 "--format", "structured")
            _, out2, _ = run_cli(capsys, "verify", "--scenario", sid,
                                 "--format", "structured")
            assert out1 == out2, sid

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.txt"
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:2",
                                 "--format", "structured", "--out", str(path))
        assert code == 0 and out == ""
        assert path.read_text().startswith("qha-report v1")

    def test_seed_flag_changes_report_header(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--scenario", "wh:2",
                            "--format", "structured", "--seed", "5")
        assert "seed 5" in out

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("QHA_SEED", "123")
        _, out, _ = run_cli(capsys, "verify", "--scenario", "wh:2",
                            "--format", "structured")
        assert "seed 123" in out

    def test_bad_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("QHA_SEED", "xyz")
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:2")
        assert code == 2

    def test_negative_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("QHA_SEED", "-1")
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:2")
        assert code == 2 and err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("flag", [("--seed", "-1"), ("--trials", "0"), ("--trials", "-3"),
                                      *(("--tol-rel", v) for v in ("inf", "0", "-1", "nan"))])
    def test_out_of_range_flag_exits_two(self, capsys, flag):
        code, out, err = run_cli(capsys, "verify", "--scenario", "wh:2", *flag)
        assert code == 2 and out == ""
        assert err.startswith("error:") and flag[0].lstrip("-") in err


class TestDuflo:
    def test_wh4_scalar(self, capsys):
        code, out, err = run_cli(capsys, "duflo", "--scenario", "wh:4")
        assert code == 0
        assert "D = 0.25 * 1" in out

    def test_translation_scalar_one(self, capsys):
        code, out, err = run_cli(capsys, "duflo", "--scenario", "translation:cyclic(6)")
        assert code == 0
        assert "D = 1 * 1" in out

    def test_s3_std_scalar_two(self, capsys):
        code, out, err = run_cli(capsys, "duflo", "--scenario", "irrep:s3:std")
        assert code == 0
        assert "D = 2 * 1" in out

    def test_spectrum_per_block(self, capsys):
        code, out, err = run_cli(capsys, "duflo", "--scenario", "wh:2")
        assert "block 0: spectrum of D" in out
        assert "cross-check residual" in out
        assert "semi-invariance defect" in out

    def test_broken_estimate_exits_one(self, capsys):
        code, out, err = run_cli(capsys, "duflo", "--scenario", "broken-measure")
        assert code == 1
        assert "estimate failed" in out

    @pytest.mark.parametrize("flag", [("--format", "structured"), ("--trials", "4"),
                                      ("--tol-rel", "1e-3")])
    def test_unread_flags_are_argparse_errors(self, flag):
        # the diagnostics take neither an output format nor check settings
        with pytest.raises(SystemExit) as exc:
            main(["duflo", "--scenario", "wh:2", *flag])
        assert exc.value.code == 2


class TestRefine:
    def test_finite_scenario_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "refine", "--scenario", "wh:4")
        assert code == 2
        assert "refinement is meaningless" in err

    @pytest.mark.parametrize("flags", [("--all",), ("--format", "structured"), ("--trials", "4"),
                                       ("--tol-rel", "1e-3")])
    def test_unread_flags_are_argparse_errors(self, flags):
        # every builtin but the wavelet is finite, so --all could only fail
        with pytest.raises(SystemExit) as exc:
            main(["refine", "--scenario", "affine-wavelet:coarse", *flags])
        assert exc.value.code == 2

    def test_single_grid_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "refine", "--scenario",
                                 "affine-wavelet:coarse", "--grids", "1")
        assert code == 2

    def test_each_level_is_built_once(self, capsys, monkeypatch):
        built = []
        original = WaveletAction.__init__
        monkeypatch.setattr(WaveletAction, "__init__",
                            lambda self, design: built.append(design) or original(self, design))
        code, out, err = run_cli(capsys, "refine", "--scenario",
                                 "affine-wavelet:coarse", "--grids", "2")
        assert code == 0
        assert [d.steps_per_octave for d in built] == [8, 16]

    def test_monotone_table_on_coarse_preset(self, capsys):
        code, out, err = run_cli(capsys, "refine", "--scenario",
                                 "affine-wavelet:coarse", "--grids", "3")
        assert code == 0
        rows = [line.split() for line in out.splitlines() if re.match(r"\s*\d+\s", line)]
        assert len(rows) == 3
        orth = [float(r[2]) for r in rows]
        semi = [float(r[3]) for r in rows]
        assert orth[0] > orth[1] > orth[2]
        assert semi[0] > semi[1] > semi[2]

    def test_takes_no_eigenbasis_and_never_forms_d(self, capsys, monkeypatch):
        # orthogonality pairs with D^{-1}, semi-invariance solves against it
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
        monkeypatch.setattr(DufloEstimate, "d", property(lambda self: pytest.fail("D formed")))
        code, out, err = run_cli(capsys, "refine", "--scenario", "affine-wavelet:default", "--grids", "3")
        assert code == 0 and len(out.splitlines()) == 5
        assert calls == []

    @pytest.mark.parametrize("preset", ["default", "coarse"])
    def test_level_zero_reads_the_verify_rows(self, capsys, preset):
        # D comes from Scenario.duflo_pair() at every level, as in the suite
        sid = f"affine-wavelet:{preset}"
        code, out, err = run_cli(capsys, "refine", "--scenario", sid, "--grids", "2")
        assert code == 0
        level0 = next(line.split() for line in out.splitlines() if re.match(r"\s*0\s", line))
        rows = {r.name: r for r in run_suite(build_scenario(builtin(sid)))}
        if preset == "default":
            assert level0[3] == f"{rows['semi-invariance'].lhs:.6e}"
            assert level0[4] == f"{rows['duflo-estimate'].lhs:.6e}"
        else:
            # the estimate fails its cross-check under verify; refine has no tolerance
            assert not rows["duflo-estimate"].passed
            assert f"disagree by {float(level0[4]):.3e}" in rows["duflo-estimate"].notes


class TestList:
    def test_list_prints_catalog(self, capsys):
        code, out, err = run_cli(capsys, "list")
        assert code == 0
        assert "wh:4" in out
        assert "affine-wavelet:default" in out
        assert "broken-measure" in out

    def test_coarse_is_listed_as_a_refinement_level_and_stays_out_of_all(self, capsys):
        # coarse fails duflo-estimate (3.16e-2 > 1e-2) under verify: it is a
        # level of the refine table, not a verify preset
        code, out, err = run_cli(capsys, "list")
        (line,) = [ln for ln in out.splitlines() if ln.startswith("affine-wavelet:coarse")]
        assert "refinement level for refine" in line and "excluded from --all" in line
        assert "affine-wavelet:coarse" not in list_builtins()
        cfg = resolve_config(_parser().parse_args(["verify", "--all"]))
        assert "affine-wavelet:coarse" not in [spec.scenario_id for spec in cfg.specs]


def _readme_section(title):
    """The text of README's section ``## title``, up to the next section."""
    return re.search(rf"^## {re.escape(title)}\n(.*?)(?=^## )", README.read_text(), re.S | re.M).group(1)


def _readme_table(text, header):
    """The rows of the markdown table under the header line ``header``, as
    lists of cells, ``\\|`` read as a literal bar."""
    lines = text[text.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
    return rows


def _id_pattern(cell):
    """A README id pattern as a regex: <a|b> alternatives, <name>
    placeholders for one token without colons, and cyclic(N) for any order."""
    pattern = re.escape(cell.strip("`"))
    pattern = re.sub(r"<([^<>]*\\\|[^<>]*)>", lambda m: "(?:" + m.group(1).replace("\\|", "|") + ")", pattern)
    pattern = re.sub(r"<\w+>", "[^:]+", pattern)
    return re.sub(r"\\\([A-Z]\\\)", r"\\(\\d+\\)", pattern)


class TestReadmeContract:
    """README's tables against the code they document, in both directions."""

    def test_flag_table_is_the_parser(self):
        rows = _readme_table(_readme_section("Command line"), "| subcommand | flags |")
        documented = {cmd.strip("`"): flags for cmd, flags in rows}
        (subparsers,) = [a for a in _parser()._actions if a.dest == "command"]
        assert set(documented) == set(subparsers.choices)
        for cmd, sub in subparsers.choices.items():
            actions = {a.option_strings[0]: a for a in sub._actions if a.option_strings[0] != "-h"}
            named = re.findall(r"`(--[a-z-]+)[^`]*`", documented[cmd])
            assert sorted(named) == sorted(actions), cmd
            repeatable = {flag for flag in named if f"`{flag}` (repeatable)" in documented[cmd]}
            assert repeatable == {flag for flag, a in actions.items() if isinstance(a, argparse._AppendAction)}, cmd
            for flag, choices in re.findall(r"`(--[a-z-]+) ([a-z|]+)`", documented[cmd]):
                assert tuple(choices.split("|")) == tuple(actions[flag].choices), (cmd, flag)

    def test_builtin_table_is_the_catalog(self, capsys):
        rows = _readme_table(_readme_section("Builtin scenarios"), "| id |")
        patterns = [re.compile(_id_pattern(row[0])) for row in rows]
        code, out, err = run_cli(capsys, "list")
        listed = [line.split()[0] for line in out.splitlines()]
        assert code == 0 and listed[:len(BUILTIN_IDS)] == list(BUILTIN_IDS)
        # each listed id has one row, and each row a listed id
        for sid in listed:
            assert sum(bool(p.fullmatch(sid)) for p in patterns) == 1, sid
        for row, p in zip(rows, patterns):
            assert any(p.fullmatch(sid) for sid in listed), row[0]
        # the ids kept out of --all are the rows that say so
        excluded = [row[0].strip("`") for row in rows if any("excluded from `--all`" in c for c in row)]
        assert excluded == [sid for sid in listed if sid not in BUILTIN_IDS]
        assert all("excluded from --all" in line for line in out.splitlines()[len(BUILTIN_IDS):])
        # each family of the table has a row, each row a family, with the family's token count
        families = {row[0].strip("`").split(":")[0] for row in rows}
        assert families == set(_FAMILIES)
        for row in rows:
            sid = row[0].strip("`")
            assert sid.count(":") == _FAMILIES[sid.split(":")[0]][0].count(":"), row[0]
        presets = set()
        for row in rows:
            m = re.fullmatch(r"`affine-wavelet:<?([a-z|]+)>?`", row[0])
            presets |= set(m.group(1).split("|")) if m else set()
        assert presets == set(_WAVELET_PRESETS)

    def test_scenario_file_keys_are_the_loader(self):
        text = _readme_section("Scenario files")
        block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        keys, section = {}, None
        for line in block.splitlines():
            header = re.match(r"\[(\w+)\]", line)
            if header:
                section = keys.setdefault(header.group(1), set())
            # a key, or the alternative a comment names ("# or: kernel = ...")
            section.update(re.findall(r"(?:^|or: )(\w+) =", line))
        assert keys == _SECTION_KEYS
        assert set(re.findall(r"`\[(\w+)\]", text.replace(block, ""))) <= set(_SECTION_KEYS)
