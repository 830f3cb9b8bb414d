import shutil
import struct
import zlib

import numpy as np
import pytest

from enexmatch import (
    DatasetManifest,
    DuplicateLabelError,
    EnexError,
    Gallery,
    SilhouetteMask,
    SyntheticConfig,
    parse_match_report,
    parse_report,
    save_mask,
)
from enexmatch import cli
from enexmatch import discriminant as discriminant_module
from enexmatch.cli import SNAPSHOT_ENV, main
from helpers import forged_body, with_body


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-data")
    code = main(
        [
            "generate",
            "--subjects", "3",
            "--samples", "3",
            "--metric-samples", "2",
            "--probes", "1",
            "--seed", "9",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def snapshot(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-snap") / "gallery.bin"
    code = main(
        [
            "enroll",
            "--manifest", str(dataset / "manifest.csv"),
            "--snapshot", str(path),
        ]
    )
    assert code == 0
    return path


class TestParsing:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "generate" in capsys.readouterr().out

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 2

    def test_subcommand_help(self, capsys):
        assert main(["generate", "--help"]) == 0
        assert "--subjects" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["enroll", "match", "evaluate"])
    def test_build_threshold_is_not_an_option(self, command, capsys):
        # The half-peak build rule is fixed: a snapshot stores no threshold,
        # so probes could not be extracted under the gallery's rule.
        assert main([command, "--manifest", "m.csv", "--threshold", "0.5"]) == 2
        assert "--threshold" in capsys.readouterr().err


class TestGenerate:
    def test_writes_dataset(self, dataset, capsys):
        assert (dataset / "manifest.csv").exists()
        assert any((dataset / "images").iterdir())

    def test_summary_line(self, tmp_path, capsys):
        code = main(
            [
                "generate",
                "--subjects", "2",
                "--samples", "1",
                "--metric-samples", "1",
                "--seed", "4",
                "--out", str(tmp_path / "d"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "wrote 2 subjects" in out
        assert "2 gallery rows" in out
        assert "2 probe rows" in out
        assert "seed 4" in out

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        code = main(["generate", "--subjects", "1", "--out", str(tmp_path / "d")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        argv = ["generate", "--subjects", "2", "--cameras", "3", "--out", str(tmp_path / "d")]
        code = main(argv)
        assert code == 2
        assert "cameras must be 1 or 2" in capsys.readouterr().err
        argv = ["generate", "--subjects", "2", "--seed", "-1", "--out", str(tmp_path / "d")]
        assert main(argv) == 2
        assert "seed cannot be negative" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_defaults_are_the_config_defaults(self, tmp_path, monkeypatch, capsys):
        built = []

        def record(config, out):
            built.append(config)
            return DatasetManifest(tmp_path, ())

        monkeypatch.setattr(cli, "generate_synthetic", record)
        assert main(["generate", "--subjects", "3", "--out", str(tmp_path)]) == 0
        assert built == [SyntheticConfig(subjects=3)]

    def test_entrance_ref_is_not_an_option(self, tmp_path, capsys):
        # Every generated doorway is 200 pixels; match --entrance-ref stays.
        argv = ["generate", "--subjects", "2", "--entrance-ref", "200"]
        assert main(argv + ["--out", str(tmp_path / "d")]) == 2
        assert "unrecognized arguments: --entrance-ref" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    def test_determinism(self, tmp_path, capsys):
        argv = [
            "generate",
            "--subjects", "2",
            "--samples", "2",
            "--metric-samples", "1",
            "--pixel-noise", "3.0",
            "--seed", "21",
        ]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        first = (tmp_path / "a" / "manifest.csv").read_bytes()
        second = (tmp_path / "b" / "manifest.csv").read_bytes()
        assert first == second


class TestEnroll:
    def test_snapshot_written(self, snapshot):
        gallery = Gallery.load(snapshot)
        assert gallery.n == 3
        assert gallery.fitted

    def test_summary(self, dataset, tmp_path, capsys):
        path = tmp_path / "g.bin"
        code = main(
            ["enroll", "--manifest", str(dataset / "manifest.csv"), "--snapshot", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "enrolled 3 classes" in out
        assert "clothing" in out

    def test_requires_snapshot_path(self, dataset, capsys, monkeypatch):
        monkeypatch.delenv(SNAPSHOT_ENV, raising=False)
        code = main(["enroll", "--manifest", str(dataset / "manifest.csv")])
        assert code == 2
        assert SNAPSHOT_ENV in capsys.readouterr().err

    def test_snapshot_from_environment(self, dataset, tmp_path, capsys, monkeypatch):
        path = tmp_path / "env.bin"
        monkeypatch.setenv(SNAPSHOT_ENV, str(path))
        code = main(["enroll", "--manifest", str(dataset / "manifest.csv")])
        assert code == 0
        assert path.exists()

    def test_reenrolling_same_labels_fails(self, dataset, tmp_path, capsys):
        path = tmp_path / "g.bin"
        argv = ["enroll", "--manifest", str(dataset / "manifest.csv"), "--snapshot", str(path)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err

    def test_enroll_onto_a_snapshot_reads_gallery_rows_only(self, dataset, tmp_path, capsys):
        # The second manifest's probe rows name s002 and s003, which only the
        # snapshot holds, and one points at an image that does not decode:
        # enroll neither extracts them nor holds them to the closed-set check.
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        header, *rows = (copy / "manifest.csv").read_text().splitlines()
        first = [row for row in rows if row.startswith(("s002,gallery,", "s003,gallery,"))]
        second = [row for row in rows if row not in first]
        assert [row.split(",")[1] for row in second].count("probe") == 3
        (copy / "images" / "s003_p000_c1.ppm").write_bytes(b"not an image")
        path = tmp_path / "g.bin"
        for name, part in (("first.csv", first), ("second.csv", second)):
            (copy / name).write_text("\n".join([header, *part]) + "\n")
            code = main(["enroll", "--manifest", str(copy / name), "--snapshot", str(path)])
            assert code == 0, capsys.readouterr().err
        assert "enrolled 1 classes (gallery now holds 3)" in capsys.readouterr().out
        assert Gallery.load(path).labels == ("s002", "s003", "s001")

    def test_bad_snapshot_fails_before_any_image_is_read(self, dataset, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        shutil.rmtree(copy / "images")
        path = tmp_path / "g.bin"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(EnexError) as expected:
            Gallery.load(path)
        code = main(["enroll", "--manifest", str(copy / "manifest.csv"), "--snapshot", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert path.read_bytes() == b"not a snapshot"

    def test_enrolled_label_fails_before_any_image_is_read(self, dataset, tmp_path, capsys):
        # The snapshot holds s002 and s003; the manifest's gallery rows start
        # with s001, so s002 is the first enrolled label in manifest order.
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        header, *rows = (copy / "manifest.csv").read_text().splitlines()
        held = [row for row in rows if row.startswith(("s002,gallery,", "s003,gallery,"))]
        (copy / "held.csv").write_text("\n".join([header, *held]) + "\n")
        path = tmp_path / "g.bin"
        assert main(["enroll", "--manifest", str(copy / "held.csv"), "--snapshot", str(path)]) == 0
        capsys.readouterr()
        saved = path.read_bytes()
        shutil.rmtree(copy / "images")
        with pytest.raises(DuplicateLabelError) as expected:
            Gallery.load(path).enroll("s002", [])
        code = main(["enroll", "--manifest", str(copy / "manifest.csv"), "--snapshot", str(path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        assert str(expected.value) == "label 's002' is already enrolled"
        assert path.read_bytes() == saved

    def test_bad_epsilon(self, dataset, tmp_path, capsys):
        # The ridge is derived from the data: no value is an option.
        for value in ("1e-3", "-1", "nan"):
            code = main(
                [
                    "enroll",
                    "--manifest", str(dataset / "manifest.csv"),
                    "--snapshot", str(tmp_path / "g.bin"),
                    "--epsilon", value,
                ]
            )
            assert code == 2, value
            assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
            assert not (tmp_path / "g.bin").exists()

    def test_ridge_too_small_is_an_error_line(self, tmp_path, capsys, monkeypatch):
        # Each clothing histogram block sums to 1, so with pixel noise the
        # within scatter is singular and a ridge of 1e-20 cannot lift it.
        monkeypatch.setattr(discriminant_module, "default_ridge", lambda within: 1e-20)
        data = tmp_path / "data"
        generate = ["generate", "--subjects", "6", "--samples", "4", "--metric-samples", "3"]
        assert main(generate + ["--pixel-noise", "3", "--out", str(data)]) == 0
        manifest = str(data / "manifest.csv")
        capsys.readouterr()
        for argv in (
            ["enroll", "--manifest", manifest, "--snapshot", str(tmp_path / "g.bin")],
            ["evaluate", "--manifest", manifest],
        ):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: clothing:") and "1e-20" in err
            assert "Traceback" not in err
        assert not (tmp_path / "g.bin").exists()

    def test_oversized_image_header_is_an_error_line(self, dataset, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        # A gallery image: enroll reads no probe rows.
        victim = next((copy / "images").glob("*_g*.ppm"))
        victim.write_bytes(b"P6\n" + b"9" * 5000 + b" 1\n255\n")
        code = main(
            [
                "enroll",
                "--manifest", str(copy / "manifest.csv"),
                "--snapshot", str(tmp_path / "g.bin"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and victim.name in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "column,value",
        [("mask", "masks/tiny.pgm"), ("bbox_width", "0"), ("bbox_height", "201")],
    )
    def test_inconsistent_row_is_an_error_line(self, dataset, tmp_path, capsys, column, value):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        save_mask(SilhouetteMask(np.ones((3, 3), dtype=bool)), copy / "masks" / "tiny.pgm")
        manifest = copy / "manifest.csv"
        lines = manifest.read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("entrance_ref_height")] == "200"
        row[header.index(column)] = value
        lines[1] = ",".join(row)
        manifest.write_text("\n".join(lines) + "\n")
        code = main(
            ["enroll", "--manifest", str(manifest), "--snapshot", str(tmp_path / "g.bin")]
        )
        err = capsys.readouterr().err
        assert code == 1
        # A metric below 1, or a box taller than its entrance, is refused as
        # the manifest is read, by its line; a mask of another size when its
        # sample is built, by image.
        where = row[header.index("image")] if column == "mask" else f"{manifest} line 2"
        assert err.startswith("error:") and where in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["enroll", "evaluate"])
    def test_label_with_a_space_is_an_error_line(self, dataset, tmp_path, capsys, command):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        manifest = copy / "manifest.csv"
        lines = manifest.read_text().splitlines()
        label = lines[1].split(",")[0]
        lines[1:] = [
            line.replace(f"{label},", '"s 001",', 1) if line.startswith(f"{label},") else line
            for line in lines[1:]
        ]
        manifest.write_text("\n".join(lines) + "\n")
        argv = [command, "--manifest", str(manifest)]
        if command == "enroll":
            argv += ["--snapshot", str(tmp_path / "g.bin")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "line 2" in err and "'s 001'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["enroll", "evaluate"])
    def test_manifest_not_utf8_is_an_error_line(self, dataset, tmp_path, capsys, command):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes((dataset / "manifest.csv").read_bytes() + b"s\xff01,probe\n")
        argv = [command, "--manifest", str(manifest)]
        if command == "enroll":
            argv += ["--snapshot", str(tmp_path / "g.bin")]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {manifest}: not UTF-8")
        assert "Traceback" not in err

    def test_missing_manifest(self, tmp_path, capsys):
        code = main(
            [
                "enroll",
                "--manifest", str(tmp_path / "nope.csv"),
                "--snapshot", str(tmp_path / "g.bin"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMatch:
    def test_manifest_probes(self, dataset, snapshot, capsys):
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--manifest", str(dataset / "manifest.csv"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        blocks = [b for b in out.split("top-") if b.strip()]
        assert len(blocks) == 3
        # Clean data: every probe's summary starts with its own label.
        for block in blocks:
            name = block.split("for probe ", 1)[1].split(":", 1)[0]
            best = block.split(": ", 1)[1].split(" ", 1)[0]
            assert best == name

    def test_report_blocks_parse(self, dataset, snapshot, capsys):
        assert (
            main(
                [
                    "match",
                    "--snapshot", str(snapshot),
                    "--manifest", str(dataset / "manifest.csv"),
                    "--top", "1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        for chunk in out.split("top-")[1:]:
            report_text = chunk.split("\n", 1)[1]
            parsed = parse_match_report(report_text)
            assert parsed["n"] == 3
            assert len(parsed["classes"]) == 3

    def test_single_image_probe(self, dataset, snapshot, capsys):
        image = next((dataset / "images").glob("*_p000_*.ppm"))
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--image", str(image),
                "--top", "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("top-2 for probe #1:")

    def test_single_image_with_metrics(self, dataset, snapshot, capsys):
        image = next((dataset / "images").glob("*_p000_*.ppm"))
        mask = next((dataset / "masks").glob("*_p000_*.pgm"))
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--image", str(image),
                "--mask", str(mask),
                "--bbox-height", "150",
                "--entrance-ref", "200",
            ]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert "features=clothing,height,build,complexion" in header

    def test_one_camera_probe_against_two_camera_gallery(self, tmp_path, capsys):
        # Clothing (96 vs 192) and complexion (2 vs 4) cannot be compared,
        # so they sit out; height and build still rank the gallery.
        data = tmp_path / "two-camera"
        snapshot = tmp_path / "g.bin"
        generate = [
            "generate",
            "--subjects", "3",
            "--samples", "2",
            "--metric-samples", "2",
            "--probes", "1",
            "--cameras", "2",
            "--seed", "9",
            "--out", str(data),
        ]
        assert main(generate) == 0
        enroll = ["enroll", "--manifest", str(data / "manifest.csv"), "--snapshot", str(snapshot)]
        assert main(enroll) == 0
        assert Gallery.load(snapshot).transforms["clothing"].input_dim == 192
        capsys.readouterr()
        image = next((data / "images").glob("*_p000_*.ppm"))
        mask = next((data / "masks").glob("*_p000_*.pgm"))
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--image", str(image),
                "--mask", str(mask),
                "--bbox-height", "150",
                "--entrance-ref", "200",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.err
        header = captured.out.splitlines()[1]
        assert header.endswith(" features=height,build")
        assert parse_match_report(captured.out.split("\n", 1)[1])["n"] == 3

    def test_needs_exactly_one_source(self, dataset, snapshot, capsys):
        assert main(["match", "--snapshot", str(snapshot)]) == 2
        image = next((dataset / "images").glob("*.ppm"))
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--manifest", str(dataset / "manifest.csv"),
                "--image", str(image),
            ]
        )
        assert code == 2

    def test_bad_top(self, dataset, snapshot, capsys):
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--manifest", str(dataset / "manifest.csv"),
                "--top", "0",
            ]
        )
        assert code == 2

    def test_missing_snapshot_file(self, dataset, tmp_path, capsys):
        code = main(
            [
                "match",
                "--snapshot", str(tmp_path / "void.bin"),
                "--manifest", str(dataset / "manifest.csv"),
            ]
        )
        assert code == 1

    def test_undecodable_snapshot_is_an_error_line(self, dataset, snapshot, tmp_path, capsys):
        # The first label starts at body byte 5; 0xff never begins UTF-8.
        blob = bytearray(snapshot.read_bytes())
        blob[16 + 5] = 0xFF
        body = bytes(blob[16:-4])
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes(bytes(blob[:-4]) + struct.pack("<I", zlib.crc32(body)))
        code = main(
            [
                "match",
                "--snapshot", str(damaged),
                "--manifest", str(dataset / "manifest.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "UTF-8" in err
        assert "Traceback" not in err

    def test_overflowing_distance_is_an_error_line(self, dataset, tmp_path, capsys):
        # A height sample of 1e200 projects finitely, so the snapshot
        # loads; its squared distance to any probe overflows.
        forged = tmp_path / "forged.bin"
        forged.write_bytes(
            with_body(
                forged_body(
                    [("far", [("height", [[1e200]])]), ("near", [("height", [[0.5]])])],
                    [("height", [[1.0]])],
                )
            )
        )
        code = main(
            [
                "match",
                "--snapshot", str(forged),
                "--manifest", str(dataset / "manifest.csv"),
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "distances overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--bbox-width", "--camera", "--view"])
    def test_single_probe_options_are_gone(self, dataset, snapshot, capsys, option):
        # Extraction reads no box width, camera or view from a single probe.
        image = next((dataset / "images").glob("*.ppm"))
        code = main(
            ["match", "--snapshot", str(snapshot), "--image", str(image), option, "1"]
        )
        assert code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestEvaluate:
    def test_table_and_diagnostics(self, dataset, capsys):
        code = main(["evaluate", "--manifest", str(dataset / "manifest.csv")])
        captured = capsys.readouterr()
        assert code == 0
        rows = parse_report(captured.out)
        assert rows[0][0] == "all-features"
        assert rows[0][1][1] == 1.0
        assert "evaluated 3 probes against 3 classes" in captured.err

    def test_feature_subset_names_row(self, dataset, capsys):
        code = main(
            [
                "evaluate",
                "--manifest", str(dataset / "manifest.csv"),
                "--features", "clothing,height",
            ]
        )
        assert code == 0
        assert parse_report(capsys.readouterr().out)[0][0] == "clothing,height"

    def test_custom_ranks(self, dataset, capsys):
        code = main(
            [
                "evaluate",
                "--manifest", str(dataset / "manifest.csv"),
                "--ranks", "1,2,3",
            ]
        )
        assert code == 0
        assert set(parse_report(capsys.readouterr().out)[0][1]) == {1, 2, 3}

    def test_non_finite_epsilon_is_usage_error(self, dataset, capsys):
        # As for enroll, any --epsilon is refused.
        for value in ("nan", "inf", "1e-3"):
            argv = ["evaluate", "--manifest", str(dataset / "manifest.csv")]
            assert main(argv + ["--epsilon", value]) == 2, value
            assert "unrecognized arguments: --epsilon" in capsys.readouterr().err

    def test_unknown_feature(self, dataset, capsys):
        code = main(
            [
                "evaluate",
                "--manifest", str(dataset / "manifest.csv"),
                "--features", "gait",
            ]
        )
        assert code == 2
        assert "gait" in capsys.readouterr().err

    @pytest.mark.parametrize("features", [",", ""])
    def test_features_naming_no_trait(self, dataset, features, capsys):
        code = main(
            ["evaluate", "--manifest", str(dataset / "manifest.csv"), "--features", features]
        )
        assert code == 2
        assert "--features names no trait" in capsys.readouterr().err

    @pytest.mark.parametrize("ranks", ["1,two", "0", ""])
    def test_bad_ranks(self, dataset, ranks, capsys):
        code = main(
            ["evaluate", "--manifest", str(dataset / "manifest.csv"), "--ranks", ranks]
        )
        assert code == 2

    def test_cmc_csv_written(self, dataset, tmp_path, capsys):
        target = tmp_path / "curve.csv"
        code = main(
            [
                "evaluate",
                "--manifest", str(dataset / "manifest.csv"),
                "--cmc-csv", str(target),
            ]
        )
        assert code == 0
        lines = target.read_text().splitlines()
        assert lines[0] == "k,accuracy"
        assert len(lines) == 4
        assert lines[-1].endswith("1.000000")

    def test_stdout_is_deterministic(self, dataset, capsys):
        argv = ["evaluate", "--manifest", str(dataset / "manifest.csv")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_manifest_without_probe_rows(self, dataset, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        manifest = copy / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if ",probe," not in line))
        assert main(["evaluate", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: manifest has no probe rows\n"
        assert captured.out == ""

    def test_no_probe_rows_fails_before_any_image_is_read(self, dataset, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        (copy / "images" / "s002_g001_c1.ppm").unlink()
        manifest = copy / "manifest.csv"
        lines = manifest.read_text().splitlines(keepends=True)
        manifest.write_text("".join(line for line in lines if ",probe," not in line))
        assert main(["evaluate", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: manifest has no probe rows\n"
        assert captured.out == ""

    def test_open_set_fails_before_any_image_is_read(self, dataset, tmp_path, capsys):
        copy = tmp_path / "data"
        shutil.copytree(dataset, copy)
        (copy / "images" / "s003_g000_c1.ppm").unlink()
        manifest = copy / "manifest.csv"
        text = manifest.read_text()
        assert text.count("\ns003,probe,") == 1
        manifest.write_text(text.replace("\ns003,probe,", "\nzz,probe,"))
        assert main(["evaluate", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: probe labels missing from the gallery: ['zz']\n"
        assert captured.out == ""

    def test_corrupt_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.csv"
        bad.write_text("label,role\nx,gallery\n")
        assert main(["evaluate", "--manifest", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err


class TestManifestMutations:
    def test_seeded_mutations_exit_zero_or_one(self, tmp_path, capsys):
        # Flip bytes of a small two-camera manifest, or swap, drop, repeat or
        # cut its lines; enroll and evaluate then either run or print one
        # error line, and no exception escapes main.
        data = tmp_path / "data"
        generate = ["generate", "--subjects", "3", "--samples", "2", "--metric-samples", "1"]
        frames = ["--cameras", "2", "--image-height", "64", "--image-width", "32"]
        assert main(generate + frames + ["--seed", "3", "--out", str(data)]) == 0
        lines = (data / "manifest.csv").read_bytes().splitlines(keepends=True)
        rng = np.random.default_rng(380)
        manifest, snapshot = data / "mutant.csv", tmp_path / "g.bin"
        codes = {0: 0, 1: 0}
        for _ in range(100):
            mutant = list(lines)
            kind = int(rng.integers(5))
            i, j = (int(k) for k in rng.integers(len(mutant), size=2))
            if kind == 0:
                mutant[i], mutant[j] = mutant[j], mutant[i]
            elif kind == 1:
                del mutant[i]
            elif kind == 2:
                mutant.insert(j, mutant[i])
            blob = bytearray(b"".join(mutant))
            if kind == 3:
                for pos in rng.integers(len(blob), size=int(rng.integers(1, 4))):
                    blob[pos] ^= int(rng.integers(1, 256))
            elif kind == 4:
                del blob[int(rng.integers(len(blob))) :]
            manifest.write_bytes(bytes(blob))
            snapshot.unlink(missing_ok=True)
            for argv in (
                ["enroll", "--manifest", str(manifest), "--snapshot", str(snapshot)],
                ["evaluate", "--manifest", str(manifest)],
            ):
                code = main(argv)
                assert code in codes, (code, argv, bytes(blob))
                codes[code] += 1
        capsys.readouterr()
        assert min(codes.values()) > 20, codes
