import struct
import zlib

import pytest

from enexmatch import Gallery, parse_match_report, parse_report
from enexmatch.cli import SNAPSHOT_ENV, main


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

    def test_bad_epsilon(self, dataset, tmp_path, capsys):
        code = main(
            [
                "enroll",
                "--manifest", str(dataset / "manifest.csv"),
                "--snapshot", str(tmp_path / "g.bin"),
                "--epsilon", "-1",
            ]
        )
        assert code == 2

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
                "--bbox-width", "30",
                "--entrance-ref", "200",
            ]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[1]
        assert "features=clothing,height,build,complexion" in header

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
        # The first label starts at body byte 9; 0xff never begins UTF-8.
        blob = bytearray(snapshot.read_bytes())
        blob[16 + 9] = 0xFF
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

    def test_bad_view_rejected(self, dataset, snapshot, capsys):
        image = next((dataset / "images").glob("*.ppm"))
        code = main(
            [
                "match",
                "--snapshot", str(snapshot),
                "--image", str(image),
                "--view", "upside-down",
            ]
        )
        assert code == 2


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

    def test_corrupt_manifest(self, tmp_path, capsys):
        bad = tmp_path / "manifest.csv"
        bad.write_text("label,role\nx,gallery\n")
        assert main(["evaluate", "--manifest", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err
