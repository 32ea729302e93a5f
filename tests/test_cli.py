import csv
import gzip
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hyperrank as hr
import hyperrank.cli as cli
import hyperrank.hypergraph as hg
import reference
from hyperrank.cli import _read_int_stream, _scan_int_stream, ingest_simplicial, main
from conftest import TABLE_ROWS, child_env


def write_dataset(tmp_path, nverts, simplices, labels=None, prefix="toy"):
    (tmp_path / f"{prefix}-nverts.txt").write_text(
        "\n".join(map(str, nverts)) + "\n", encoding="utf-8"
    )
    (tmp_path / f"{prefix}-simplices.txt").write_text(
        "\n".join(map(str, simplices)) + "\n", encoding="utf-8"
    )
    if labels:
        (tmp_path / f"{prefix}-node-labels.txt").write_text(
            "\n".join(f"{i}\t{name}" for i, name in labels) + "\n",
            encoding="utf-8",
        )
    return str(tmp_path / prefix)


def as_bytes(data):
    return data if isinstance(data, bytes) else data.encode()


def read_scores(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "node,score"
    out = {}
    for line in lines[1:]:
        node, score = line.rsplit(",", 1)
        out[node] = float(score)
    return out


FIG1_NVERTS = [3, 2, 2]
FIG1_SIMPLICES = [1, 2, 3, 2, 4, 3, 5]

EXAMPLE6_NVERTS = [2, 4, 3]
EXAMPLE6_SIMPLICES = [1, 2, 2, 3, 4, 5, 4, 5, 6]


class TestIngest:
    def test_decodes_size_stream(self, tmp_path):
        prefix = write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        h, report = ingest_simplicial(f"{prefix}-nverts.txt",
                                      f"{prefix}-simplices.txt")
        assert h.n == 5 and len(h.edges) == 3
        assert report.final_edges == 3
        assert hr.stats(h).size_histogram == {2: 2, 3: 1}

    def test_singletons_dropped(self, tmp_path):
        prefix = write_dataset(tmp_path, [1, 2], [7, 1, 2])
        h, report = ingest_simplicial(f"{prefix}-nverts.txt",
                                      f"{prefix}-simplices.txt")
        assert h.n == 2 and len(h.edges) == 1
        assert report.dropped_small == 1
        assert report.dropped_isolated == 1  # node 7 vanished with its simplex

    def test_count_mismatch_raises(self, tmp_path):
        prefix = write_dataset(tmp_path, [3, 2], [1, 2, 3, 4])
        with pytest.raises(hr.DataError, match="^count mismatch: the simplex sizes sum "
                                               "to 5 but the id stream holds 4 ids$"):
            ingest_simplicial(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")

    def test_size_stream_is_summed_once(self, tmp_path, monkeypatch):
        calls = []
        original = hg._stream_total

        def counted(sizes):
            calls.append(len(sizes))
            return original(sizes)

        for module in (hg, cli):  # wherever the sum is bound
            if getattr(module, "_stream_total", None) is original:
                monkeypatch.setattr(module, "_stream_total", counted)
        prefix = write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        ingest_simplicial(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt")
        assert calls == [3]

    def test_report_counts_match_reference(self, tmp_path):
        simplices = [[5, 1, 1], [1, 5], [7], [3, 4, 3], [9, 9], [4, 3], [2, 1, 5]]
        prefix = write_dataset(tmp_path, [len(s) for s in simplices],
                               [v for s in simplices for v in s])
        h, report = ingest_simplicial(f"{prefix}-nverts.txt",
                                      f"{prefix}-simplices.txt")
        labels, edges, want = reference.build_preprocessed(simplices)
        assert report.as_dict() == want
        assert h.labels == labels
        assert {e.support: e.weight for e in h.edges} == edges

    def test_label_file_applies(self, tmp_path):
        prefix = write_dataset(tmp_path, [2], [1, 2], labels=[(1, "ubuntu"),
                                                              (2, "grub")])
        h, _ = ingest_simplicial(f"{prefix}-nverts.txt",
                                 f"{prefix}-simplices.txt",
                                 f"{prefix}-node-labels.txt")
        assert set(h.labels) == {"ubuntu", "grub"}

    def test_relabelled_names_stay_distinct(self, tmp_path, capsys):
        # id 3 is labelled "a" like id 1, and "a (3)" is already id 2's label
        prefix = write_dataset(tmp_path, [2, 2], [1, 2, 2, 3],
                               labels=[(1, "a"), (2, "a (3)"), (3, "a")])
        h, _ = ingest_simplicial(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt",
                                 f"{prefix}-node-labels.txt")
        assert h.labels == ("a", "a (3)", "a (3) (3)")
        assert main(["centrality", "--method", "ec", "--input", prefix,
                     "--out", str(tmp_path / "ec.csv")]) == 0, capsys.readouterr().err
        # id 7 is labelled "5", which is how the CSV prints unlabelled id 5:
        # names collide by their text, so id 7's label gains " (7)"
        prefix = write_dataset(tmp_path, [2, 2, 2], [5, 7, 7, 9, 9, 5],
                               labels=[(7, "5")], prefix="ids")
        h, _ = ingest_simplicial(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt",
                                 f"{prefix}-node-labels.txt")
        assert h.labels == (5, "5 (7)", 9)
        out = tmp_path / "hec.csv"
        assert main(["centrality", "--method", "hec", "--order", "2", "--input", prefix,
                     "--out", str(out)]) == 0, capsys.readouterr().err
        assert sorted(read_scores(out)) == ["5", "5 (7)", "9"]

    def test_label_file_skips_blank_and_unnamed_lines(self, tmp_path):
        prefix = write_dataset(tmp_path, [2, 2], [1, 2, 2, 3])
        Path(f"{prefix}-node-labels.txt").write_text("1\tubuntu\n\n  \n2\n3 grub loader\n")
        h, _ = ingest_simplicial(f"{prefix}-nverts.txt", f"{prefix}-simplices.txt",
                                 f"{prefix}-node-labels.txt")
        assert h.labels == ("ubuntu", 2, "grub loader")

    def test_label_line_without_an_integer_id_is_refused(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, [2], [1, 2])
        Path(f"{prefix}-node-labels.txt").write_text("1\tubuntu\nx\tgrub\n")
        assert main(["stats", "--input", prefix, "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (f"data error: bad node-label line in "
                                           f"{prefix}-node-labels.txt: 'x\\tgrub'\n")


INT64 = np.iinfo(np.int64)
# tokens numpy's parser takes, and tokens only Python's `int` takes (`1_000`,
# non-ASCII digits) or nothing takes
PLAIN_TOKENS = ["0", "7", "42", "+3", "-3", "-0", "007", str(INT64.max), str(INT64.min)]
ODD_TOKENS = ["1_000", "\u0663", "1.0", "0x10", "#5", "x", str(INT64.max + 1),
              str(INT64.min - 1)]
GAPS = [" ", "\t", "\f", "  ", " \t "]
LINE_ENDS = ["\n", "\r\n", "\r", "\n\n", "\n \t\n"]


@st.composite
def id_files(draw):
    """The bytes of an id file: lines of tokens, all of one length or ragged,
    with mixed gaps, line ends and blank lines; half the files may hold odd
    tokens and start with a BOM."""
    odd = draw(st.booleans())
    width = draw(st.integers(0, 3))
    lengths = st.integers(0, 4) if draw(st.booleans()) else st.just(width)
    text = "\ufeff" if odd and draw(st.booleans()) else ""
    for _ in range(draw(st.integers(0, 5))):
        k = draw(lengths)
        tokens = draw(st.lists(st.sampled_from(PLAIN_TOKENS + ODD_TOKENS * odd),
                               min_size=k, max_size=k))
        gaps = draw(st.lists(st.sampled_from(GAPS), min_size=len(tokens) + 1,
                             max_size=len(tokens) + 1))
        text += gaps[0] * draw(st.booleans()) + "".join(map(str.__add__, tokens, gaps[1:]))
        text += draw(st.sampled_from(LINE_ENDS))
    return text.encode("utf-8")


def parsed(read, path):
    """What `read` makes of the file at `path`: the array or the refusal."""
    try:
        ids = read(path)
    except hr.DataError as exc:
        return str(exc)
    return ids.dtype.str, ids.shape, ids.tolist()


class TestReadIntStream:
    # the examples are the parse refusals of `test_malformed_streams_report_data_error`
    @given(id_files())
    @example(b"1 x\n")
    @example(b"1 99999999999999999999\n")
    @example(b"")
    @example(b"2\n\xff\n")
    @example(b"1 \xff2\n")
    @settings(max_examples=300, deadline=None)
    def test_parser_matches_token_scan(self, data):
        # numpy's parser and the token scan give the same ids or the same
        # refusal: the parser takes only what the scan reads the same way
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ids.txt"
            path.write_bytes(data)
            assert parsed(_read_int_stream, path) == parsed(_scan_int_stream, path)

    def test_parser_warning_sends_file_to_scan(self, tmp_path, monkeypatch):
        # numpy 1.x parses "1.0" as an integer with a DeprecationWarning; a
        # warning from the parser sends the file to the scan, which refuses it
        path = tmp_path / "ids.txt"
        path.write_text("1 1.0\n")

        def loadtxt(*args, **kwargs):
            warnings.warn("parsing an integer via a float is deprecated",
                          DeprecationWarning)
            return np.array([1, 1])

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        with pytest.raises(hr.DataError, match="non-integer token '1.0'"):
            _read_int_stream(path)

    def test_compressed_names_are_not_decompressed(self, tmp_path):
        # numpy opens `.gz` names, and a missing file's `.gz` namesake, as
        # gzip streams; the ids file is read as the text it holds
        (tmp_path / "ids.txt.gz").write_bytes(gzip.compress(b"1 2\n"))
        for name in ("ids.txt.gz", "ids.txt"):
            with pytest.raises(hr.DataError, match="cannot read"):
                _read_int_stream(tmp_path / name)


class TestExitCodes:
    def test_count_mismatch_is_data_error(self, tmp_path):
        prefix = write_dataset(tmp_path, [3, 2], [1, 2, 3, 4])
        code = main(["stats", "--input", prefix, "--out",
                     str(tmp_path / "s.csv")])
        assert code == 2

    def test_non_integer_token(self, tmp_path):
        prefix = write_dataset(tmp_path, [2], [1, 2])
        (tmp_path / "toy-simplices.txt").write_text("1 x\n")
        code = main(["stats", "--input", prefix, "--out",
                     str(tmp_path / "s.csv")])
        assert code == 2

    def test_empty_file(self, tmp_path):
        prefix = write_dataset(tmp_path, [2], [1, 2])
        (tmp_path / "toy-nverts.txt").write_text("")
        code = main(["stats", "--input", prefix, "--out",
                     str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize("nverts, simplices, message", [
        ("2\n", "1 x\n", "non-integer token 'x'"),
        ("2\n", "1 99999999999999999999\n", "outside the int64 range"),
        ("2\n0\n", "1 2\n", "simplex sizes must be positive"),
        ("3\n-1\n", "1 2\n", "simplex sizes must be positive"),
        ("3\n2\n", "1 2 3 4\n", "count mismatch"),
        ("", "1 2\n", "empty file"),
        (b"2\n\xff\n", "1 2\n", "cannot read"),
        ("2\n", b"1 \xff2\n", "cannot read"),
    ])
    def test_malformed_streams_report_data_error(self, tmp_path, capsys, nverts,
                                                 simplices, message):
        (tmp_path / "toy-nverts.txt").write_bytes(as_bytes(nverts))
        (tmp_path / "toy-simplices.txt").write_bytes(as_bytes(simplices))
        code = main(["stats", "--input", str(tmp_path / "toy"), "--out",
                     str(tmp_path / "s.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("make_labels", [
        lambda path: path.write_bytes(b"1\tubuntu\n2\tgr\xffub\n"),
        lambda path: path.mkdir(),
    ], ids=["non-utf8", "directory"])
    def test_unreadable_label_file_reports_data_error(self, tmp_path, capsys,
                                                      make_labels):
        prefix = write_dataset(tmp_path, [2], [1, 2])
        make_labels(tmp_path / "toy-node-labels.txt")
        code = main(["stats", "--input", prefix, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["compare", "--methods", "u2,u3,x4"], "unknown method tag 'x4'"),
        (["compare", "--methods", "u2"], "at least 2 method tags"),
        (["compare", "--methods", "u2,,"], "at least 2 method tags"),
        (["centrality", "--method", "hec"], "--order is required for hec"),
        (["centrality", "--method", "uhec"], "--order is required for uhec"),
        (["centrality", "--method", "alt"], "--order is required for alt"),
        (["centrality", "--method", "uphec"], "--p is required for uphec"),
        (["compare", "--methods", "u2,U2"], "method tag 'U2' is repeated"),
        (["compare", "--methods", "u2,u3,u2"], "method tag 'U2' is repeated"),
        (["compare", "--methods", "u2,u\u00b2"], "unknown method tag 'u\u00b2'"),
    ])
    def test_argument_errors_before_ingest(self, tmp_path, capsys, argv, message):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out = (["--out-dir", str(tmp_path / "out")] if argv[0] == "compare"
               else ["--out", str(tmp_path / "o.csv")])
        code = main(argv + ["--input", prefix] + out)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("usage error") and message in captured.err
        assert captured.out == ""  # nothing ingested, no "running" line
        assert not (tmp_path / "out").exists() and not (tmp_path / "o.csv").exists()

    def test_usage_error_unknown_flag(self):
        assert main(["centrality", "--definitely-not-a-flag"]) == 1

    def test_usage_error_unknown_compare_tag(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["compare", "--methods", "u2,x3", "--input", prefix,
                     "--out-dir", str(tmp_path / "out")])
        assert code == 1

    def test_usage_error_malformed_topk(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["compare", "--methods", "u2,u3", "--input", prefix,
                     "--out-dir", str(tmp_path / "out"), "--topk", "10,x"])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error" in err and "--topk" in err

    def test_disconnected_without_lcc(self, tmp_path, capsys):
        # every method refuses in its solver, with the message naming --lcc
        prefix = write_dataset(tmp_path, [2, 2], [1, 2, 3, 4])
        for method in (["ec"], ["hec", "--order", "2"], ["uhec", "--order", "2"],
                       ["uphec", "--p", "2"], ["alt", "--order", "2"], ["zec-uplift"]):
            code = main(["centrality", "--method", *method,
                         "--input", prefix, "--out", str(tmp_path / "o.csv")])
            assert code == 2, method
            assert "--lcc" in capsys.readouterr().err, method

    @pytest.mark.parametrize("argv", [
        ["centrality", "--method", "uphec", "--p", "2"],
        ["centrality", "--method", "uhec", "--order", "2"],
        ["centrality", "--method", "alt", "--order", "2"],
        ["compare", "--methods", "u2,a3"],
    ])
    def test_input_left_edgeless_has_no_edges(self, tmp_path, capsys, argv):
        # every simplex is a singleton: preprocessing leaves no edge, and
        # --lcc cannot help
        prefix = write_dataset(tmp_path, [1, 1], [1, 2])
        out = (["--out-dir", str(tmp_path / "out")] if argv[0] == "compare"
               else ["--out", str(tmp_path / "o.csv")])
        code = main(argv + ["--lcc", "--input", prefix] + out)
        err = capsys.readouterr().err
        assert code == 2
        assert err == "data error: hypergraph has no edges\n"

    def test_zec_uplift_above_order_cap(self, tmp_path, capsys):
        # two pairs padded by 200 common nodes: order 202
        common = list(range(100, 300))
        prefix = write_dataset(tmp_path, [202, 202], [1, 2, *common, 2, 3, *common])
        code = main(["centrality", "--method", "zec-uplift", "--input", prefix,
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "data error: tensor order 202 exceeds supported 20\n"

    def test_zec_uplift_graph_too_large_for_the_dense_solver(self, tmp_path, capsys):
        # a path on 4,473 nodes, each pair padded by node 0
        simplices = [v for i in range(1, 4473) for v in (0, i, i + 1)]
        prefix = write_dataset(tmp_path, [3] * 4472, simplices)
        code = main(["centrality", "--method", "zec-uplift", "--input", prefix,
                     "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("data error: the dense eigensolver would hold 20007729 cells "
                       "for 4473 graph nodes, above the limit of 20000000\n")

    @pytest.mark.parametrize("command", ["centrality", "compare"])
    @pytest.mark.parametrize("setting, message", [
        (["--max-iter", "0"], "max_iter"),
        (["--max-iter", "-3"], "max_iter"),
        (["--tol", "-1"], "tol"),
        (["--tol", "nan"], "tol"),
        (["--tol", "inf"], "tol"),
        (["--seed", "-1"], "seed"),
        (["--tol", "0"], "tol"),
        (["--tol", "1e-16"], "tol"),
    ])
    def test_bad_solver_settings_before_ingest(self, tmp_path, capsys, command,
                                               setting, message):
        # the input does not exist: a refusal naming the setting shows that
        # the settings are checked before any dataset file is read
        argv = (["centrality", "--method", "ec", "--out", str(tmp_path / "o.csv")]
                if command == "centrality" else
                ["compare", "--methods", "u2,u3", "--out-dir", str(tmp_path / "out")])
        code = main(argv + setting + ["--input", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err and captured.out == ""

    def test_bad_setting_in_stored_manifest(self, tmp_path, capsys):
        # a bad value, then values of the wrong JSON type
        for stored, key in [({"method": "ec", "max_iter": 0}, "max_iter"),
                            ({"method": "ec", "max_iter": "x"}, "'max_iter' must be int"),
                            ({"method": "hec", "order": "2"}, "'order' must be int or null"),
                            ({"method": "ec", "seed": "x"}, "'seed' must be int or null"),
                            ({"method": "ec", "input": 5}, "'input' must be str"),
                            ({"method": "ec", "max_iter": True}, "'max_iter' must be int"),
                            ({"method": "ec", "tol": None}, "'tol' must be int or float"),
                            ({"method": "ec", "lcc": 1}, "'lcc' must be bool"),
                            ({"method": "pagerank"}, "unknown method 'pagerank'")]:
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps(stored))
            code = main(["centrality", "--method", "ec", "--from-manifest", str(manifest),
                         "--input", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o.csv")])
            assert code == 2, stored
            assert key in capsys.readouterr().err, stored

    @pytest.mark.parametrize("command, out, named", [
        (["centrality", "--method", "ec", "--lcc", "--out"], ".", "."),
        (["stats", "--out"], "taken/x.csv", "taken"),
        (["compare", "--methods", "u2,h2", "--out-dir"], "taken", "taken"),
    ])
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, command, out, named):
        prefix = write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        (tmp_path / "taken").write_text("")
        assert main([command[0], "--input", prefix, *command[1:], str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("data error: [Errno ")
        assert captured.err.endswith(f": '{tmp_path / named}'\n")
        assert captured.err.count("\n") == 1
        assert "running" not in captured.out  # compare checks its directory first

    @pytest.mark.parametrize("option", ["--out", "--manifest"])
    def test_centrality_refuses_unwritable_output_before_ingest(self, tmp_path, capsys,
                                                                option):
        prefix = write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        out = tmp_path / "o.csv"
        paths = {"--out": str(out), option: str(tmp_path)}  # a directory
        argv = ["centrality", "--method", "ec", "--input", prefix]
        assert main([*argv, *(a for kv in paths.items() for a in kv)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert "ingested" not in captured.out
        assert not out.exists()

    def test_stats_refuses_unwritable_output_before_ingest(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        assert main(["stats", "--input", prefix, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"data error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert "ingested" not in captured.out

    def test_output_check_keeps_a_dangling_symlink(self, tmp_path, capsys):
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        code = main(["centrality", "--method", "ec", "--input", str(tmp_path / "nope"),
                     "--out", str(link)])
        assert code == 2
        assert "dataset files not found" in capsys.readouterr().err
        assert link.is_symlink() and not target.exists()

    def test_missing_dataset(self, tmp_path):
        code = main(["stats", "--input", str(tmp_path / "nope"),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ('{"method": ', "cannot parse manifest"),
        ('"method"', "does not hold a JSON object"),
    ])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, text, message):
        manifest = tmp_path / "m.json"
        manifest.write_text(text)
        code = main(["centrality", "--method", "ec", "--from-manifest", str(manifest),
                     "--input", "ignored", "--out", str(tmp_path / "o.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_convergence_failure(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["centrality", "--method", "uphec", "--p", "3",
                     "--max-iter", "2", "--input", prefix,
                     "--out", str(tmp_path / "o.csv")])
        assert code == 3

    def test_compare_convergence_failure(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["compare", "--methods", "u2,u3", "--max-iter", "1", "--input", prefix,
                     "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "convergence failure: method U2 did not converge\n"
        assert "running U3" not in captured.out


class TestCentrality:
    @pytest.mark.parametrize("gauge", [[], ["--aux-gauge"]], ids=["direct", "gauged"])
    def test_ec_is_hec_at_order_two(self, tmp_path, gauge):
        # pairs of unequal degree and a triple the order-2 slice drops
        simplices = [[1, 2], [2, 3], [3, 4], [2, 4], [4, 5], [5, 6], [1, 3, 5]]
        prefix = write_dataset(tmp_path, [len(x) for x in simplices],
                               [v for x in simplices for v in x])
        runs = []
        for name, method in (("ec", ["ec"]), ("hec", ["hec", "--order", "2"])):
            out = tmp_path / f"{name}.csv"
            assert main(["centrality", "--method", *method, *gauge, "--input", prefix,
                         "--out", str(out)]) == 0
            manifest = json.loads(Path(f"{out}.manifest.json").read_text())
            runs.append((out.read_bytes(), manifest["result"]))
        assert runs[0] == runs[1]

    def test_uphec_gauge_reproduces_reference_row(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out = tmp_path / "scores.csv"
        code = main([
            "centrality", "--method", "uphec", "--p", "2", "--aux-gauge",
            "--tol", "1e-13", "--input", prefix, "--out", str(out),
        ])
        assert code == 0
        scores = read_scores(out)
        for node, want in zip("123456", TABLE_ROWS[2]):
            assert scores[node] == pytest.approx(want, abs=5e-4)

    def test_manifest_contents_and_determinism(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["centrality", "--method", "uhec", "--order", "4",
                "--input", prefix]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["method"] == "uhec" and manifest["order"] == 4
        assert manifest["result"]["converged"] is True
        assert manifest["result"]["residual"] <= 1e-10
        assert manifest["preprocessing"]["final_nodes"] == 6
        assert "*" in manifest["result"]["aux_scores"]

    def test_from_manifest_roundtrip(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out1 = tmp_path / "run1.csv"
        assert main(["centrality", "--method", "uphec", "--p", "3",
                     "--input", prefix, "--out", str(out1)]) == 0
        out2 = tmp_path / "run2.csv"
        assert main(["centrality", "--method", "uphec", "--p", "2",  # overridden
                     "--from-manifest", str(tmp_path / "run1.csv.manifest.json"),
                     "--input", "ignored", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_shift_is_adaptive_by_default_and_relative_on_replay(self, tmp_path):
        # K_{2,3}: bipartite, so the unshifted iteration oscillates
        prefix = write_dataset(tmp_path, [2] * 6, [1, 3, 1, 4, 1, 5, 2, 3, 2, 4, 2, 5])
        out1 = tmp_path / "adaptive.csv"
        assert main(["centrality", "--method", "ec", "--input", prefix,
                     "--out", str(out1)]) == 0
        manifest = json.loads((tmp_path / "adaptive.csv.manifest.json").read_text())
        assert "shift" not in manifest
        assert manifest["result"]["converged"] is True
        # a "shift" stored by an older run is ignored: the replay takes the
        # same adaptive path to the same scores
        manifest["shift"] = 1.0
        stored = tmp_path / "stored.json"
        stored.write_text(json.dumps(manifest))
        out2 = tmp_path / "replay.csv"
        assert main(["centrality", "--method", "ec", "--from-manifest", str(stored),
                     "--input", "ignored", "--out", str(out2)]) == 0
        replay = json.loads((tmp_path / "replay.csv.manifest.json").read_text())
        assert "shift" not in replay and replay["result"] == manifest["result"]
        assert out1.read_bytes() == out2.read_bytes()
        a = read_scores(out1)
        assert a["1"] == pytest.approx(math.sqrt(3) / (2 * math.sqrt(3) + 3 * math.sqrt(2)))

    def test_shift_option_is_unknown(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, [2, 2], [1, 2, 2, 3])
        assert main(["centrality", "--method", "ec", "--shift", "0.5", "--input", prefix,
                     "--out", str(tmp_path / "o.csv")]) == 1
        assert "--shift" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_hec_requires_lcc_on_disconnected_slice(self, tmp_path):
        # order-2 slice {4,5},{6,7} is disconnected; triple keeps it one graph
        prefix = write_dataset(
            tmp_path, [3, 2, 2], [4, 6, 8, 4, 5, 6, 7]
        )
        argv = ["centrality", "--method", "hec", "--order", "2",
                "--input", prefix, "--out", str(tmp_path / "h.csv")]
        assert main(argv) == 2
        assert main(argv + ["--lcc"]) == 0
        scores = read_scores(tmp_path / "h.csv")
        assert set(scores) == {"4", "5"}  # smallest-label component wins ties

    def test_ec_matches_closed_form(self, tmp_path):
        prefix = write_dataset(tmp_path, [2, 2], [1, 2, 2, 3])
        out = tmp_path / "ec.csv"
        assert main(["centrality", "--method", "ec", "--input", prefix,
                     "--out", str(out)]) == 0
        scores = read_scores(out)
        assert scores["2"] == pytest.approx(math.sqrt(2) / (2 + math.sqrt(2)),
                                            abs=1e-8)

    def test_scores_csv_quotes_labels(self, tmp_path):
        prefix = write_dataset(tmp_path, [2, 2], [1, 2, 2, 3],
                               labels=[(1, "foo,bar"), (2, '"q"'), (3, "plain")])
        out = tmp_path / "ec.csv"
        assert main(["centrality", "--method", "ec", "--input", prefix,
                     "--out", str(out)]) == 0
        with out.open(newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["node", "score"]
        assert sorted(r[0] for r in rows[1:]) == ['"q"', "foo,bar", "plain"]
        assert all(len(r) == 2 for r in rows)
        assert "\nplain,0." in out.read_text()  # an ordinary label is written as is

    def test_zec_uplift_keeps_multiplicities(self, tmp_path):
        # two 5-edges padding the path 1-2-3 with node 4 once and node 5 twice
        prefix = write_dataset(tmp_path, [5, 5], [1, 2, 4, 5, 5, 2, 3, 4, 5, 5])
        out = tmp_path / "z.csv"
        code = main(["centrality", "--method", "zec-uplift", "--norm", "z1",
                     "--input", prefix, "--out", str(out)])
        assert code == 0
        scores = read_scores(out)
        scale = 1 / (4 + 2 * math.sqrt(2))
        assert scores["1"] == pytest.approx(scale, abs=1e-10)
        assert scores["2"] == pytest.approx(math.sqrt(2) * scale, abs=1e-10)
        assert scores["5"] == pytest.approx(2 * scale, abs=1e-10)
        manifest = json.loads((tmp_path / "z.csv.manifest.json").read_text())
        assert manifest["result"]["omega"] == 12

    def test_invalid_order_for_dataset(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["centrality", "--method", "uhec", "--order", "3",
                     "--input", prefix, "--out", str(tmp_path / "x.csv")])
        assert code == 2  # below the max edge size

    def test_hec_order_without_edges_of_that_size(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["centrality", "--method", "hec", "--order", "7",
                     "--input", prefix, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == "data error: no hyperedges of size 7 in the input\n"

    def test_custom_manifest_path(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out = tmp_path / "s.csv"
        manifest = tmp_path / "custom.json"
        assert main(["centrality", "--method", "uphec", "--p", "2",
                     "--input", prefix, "--out", str(out),
                     "--manifest", str(manifest)]) == 0
        assert json.loads(manifest.read_text())["p"] == 2


class TestCompare:
    def test_small_compare_outputs(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out_dir = tmp_path / "cmp"
        code = main(["compare", "--methods", "u2,u3,h3", "--input", prefix,
                     "--out-dir", str(out_dir), "--topk", "3,6"])
        assert code == 0
        heat_lines = (out_dir / "heatmap.csv").read_text().splitlines()
        assert heat_lines[0] == "method,U2,U3,H3"
        diag = [heat_lines[i + 1].split(",")[i + 1] for i in range(3)]
        assert all(v == "1" for v in diag)
        curves = (out_dir / "topk_curves.csv").read_text().splitlines()
        assert curves[0] == "method_a,method_b,K,tau"
        assert len(curves) > 1
        manifest = json.loads((out_dir / "compare_manifest.json").read_text())
        assert manifest["methods"] == ["U2", "U3", "H3"]

    def test_byte_identical_reruns(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        outs = []
        for name in ("c1", "c2"):
            out_dir = tmp_path / name
            assert main(["compare", "--methods", "u2,a2,h3", "--input", prefix,
                         "--out-dir", str(out_dir)]) == 0
            outs.append((out_dir / "heatmap.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_h_slice_always_reduced_to_its_lcc(self, tmp_path):
        # the order-2 slice {4,5},{6,7} is disconnected; the triple keeps the
        # whole input one component, so only h2 needs the LCC
        prefix = write_dataset(tmp_path, [3, 2, 2], [4, 6, 8, 4, 5, 6, 7])
        assert main(["centrality", "--method", "hec", "--order", "2",
                     "--input", prefix, "--out", str(tmp_path / "h.csv")]) == 2
        out_dir = tmp_path / "cmp"
        assert main(["compare", "--methods", "h2,u2", "--input", prefix,
                     "--out-dir", str(out_dir)]) == 0
        heat = (out_dir / "heatmap.csv").read_text().splitlines()
        assert heat[0] == "method,H2,U2"
        manifest = json.loads((out_dir / "compare_manifest.json").read_text())
        assert manifest["lcc"] is False

    def test_one_component_pass_per_hypergraph(self, tmp_path, monkeypatch):
        # the input's components are found once, for --lcc; every pipeline's
        # construction inherits that verdict, so the tensors' checks add none
        import hyperrank.hypergraph as hg
        import hyperrank.spectral as sp
        original, calls = hg.component_roots, []

        def counted(n, rows):
            calls.append(n)
            return original(n, rows)

        monkeypatch.setattr(hg, "component_roots", counted)
        monkeypatch.setattr(sp, "component_roots", counted)
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        assert main(["compare", "--methods", "u2,u3,a3", "--lcc", "--input", prefix,
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == 1
        # disconnected: the largest component is extracted once, connected by
        # construction, and hands that on to the three pipelines
        calls.clear()
        prefix = write_dataset(tmp_path, [3, 2, 2, 3], [1, 2, 3, 2, 4, 5, 6, 5, 6, 7],
                               prefix="split")
        assert main(["compare", "--methods", "u2,u3,a3", "--lcc", "--input", prefix,
                     "--out-dir", str(tmp_path / "toy_out")]) == 0
        assert calls == [7]
        # a slice solved as it is (hec, ec) has one pass, shared by --lcc
        # and the tensor's check
        calls.clear()
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        assert main(["compare", "--methods", "h2,h3,h4", "--lcc", "--input", prefix,
                     "--out-dir", str(tmp_path / "h_out")]) == 0
        assert len(calls) == 3
        calls.clear()
        assert main(["centrality", "--method", "ec", "--lcc", "--input", prefix,
                     "--out", str(tmp_path / "ec.csv")]) == 0
        assert len(calls) == 1
        # an uplifted projection, gauged or not, solves on the input's pass
        for gauge in ([], ["--aux-gauge"]):
            calls.clear()
            assert main(["centrality", "--method", "uphec", "--p", "3", "--lcc",
                         "--input", prefix, "--out", str(tmp_path / "up.csv"),
                         *gauge]) == 0
            assert calls == [6]

    def test_k_above_input_nodes_refused_before_solving(self, tmp_path, capsys):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        code = main(["compare", "--methods", "u2,u3,h2", "--lcc", "--input", prefix,
                     "--out-dir", str(tmp_path / "out"), "--topk", "3,7"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "data error: K=7 exceeds the 6 nodes of the input\n"
        assert "running" not in captured.out
        assert not (tmp_path / "out").exists()
        # a K that fits the input but not the table is still refused, once
        # the methods have run: the h2 and h3 slices hold 5 of the 6 nodes
        code = main(["compare", "--methods", "h2,h3", "--input", prefix,
                     "--out-dir", str(tmp_path / "out"), "--topk", "3,6"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "data error: K=6 exceeds table size 5\n"
        assert "running H3" in captured.out

    def test_a2_column_identical_to_u2(self, tmp_path):
        prefix = write_dataset(tmp_path, EXAMPLE6_NVERTS, EXAMPLE6_SIMPLICES)
        out_dir = tmp_path / "a2u2"
        assert main(["compare", "--methods", "u2,a2", "--input", prefix,
                     "--out-dir", str(out_dir)]) == 0
        lines = (out_dir / "heatmap.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "1"


class TestStats:
    def test_fig1_rows(self, tmp_path):
        prefix = write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        out = tmp_path / "stats.csv"
        assert main(["stats", "--input", prefix, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "order,nodes,hyperedges,lcc_pct"
        assert lines[1].startswith("2,4,2,")
        assert lines[2].startswith("3,3,1,")
        assert lines[3] == "complete,5,3,100"

    def test_empty_hypergraph_succeeds(self, tmp_path):
        prefix = write_dataset(tmp_path, [1, 1], [3, 9])
        out = tmp_path / "stats.csv"
        assert main(["stats", "--input", prefix, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines == ["order,nodes,hyperedges,lcc_pct", "complete,0,0,0"]

    def test_directory_input_resolution(self, tmp_path):
        write_dataset(tmp_path, FIG1_NVERTS, FIG1_SIMPLICES)
        out = tmp_path / "stats.csv"
        assert main(["stats", "--input", str(tmp_path), "--out", str(out)]) == 0

    @pytest.mark.parametrize("prefixes", [[], ["one", "two"]])
    def test_directory_without_exactly_one_dataset(self, tmp_path, capsys, prefixes):
        data = tmp_path / "data"
        data.mkdir()
        for prefix in prefixes:
            write_dataset(data, FIG1_NVERTS, FIG1_SIMPLICES, prefix=prefix)
        assert main(["stats", "--input", str(data), "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == (f"data error: {data}: expected exactly one "
                                           f"*-nverts.txt in directory, found {len(prefixes)}\n")


# Runs every subcommand in one fresh interpreter and prints, as its last line,
# the exit codes and the modules the runs loaded after `import hyperrank.cli`.
_MODULE_PROBE = """
import json, sys
import hyperrank.cli as cli
before = set(sys.modules)
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_cli_runs_load_no_numpy_ma(tmp_path):
    # numpy 2.x imports numpy.ma on the first plain np.unique; numpy 1.x
    # imports it with numpy, so only what the runs add is checked. The input
    # has 12 nodes, so that `compare` builds a default K grid, and a
    # simplex with a repeated id.
    simplices = [[1, 2], [2, 3, 4], [4, 5], [5, 6, 7], [7, 8], [8, 9, 10, 11],
                 [11, 12], [3, 12], [1, 6, 9], [9, 9, 10]]
    prefix = write_dataset(tmp_path, [len(x) for x in simplices],
                           [v for x in simplices for v in x])
    common = ["--lcc", "--input", prefix]
    runs = [["stats", "--input", prefix, "--out", str(tmp_path / "stats.csv")]]
    for k, method in enumerate([["ec"], ["uphec", "--p", "3"], ["hec", "--order", "3"],
                                ["alt", "--order", "3"], ["uphec", "--p", "2", "--aux-gauge"]]):
        runs.append(["centrality", "--method", *method, *common,
                     "--out", str(tmp_path / f"c{k}.csv")])
    runs.append(["compare", "--methods", "u2,h3,a3", *common,
                 "--out-dir", str(tmp_path / "cmp")])
    proc = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(runs)],
                          env=child_env(), capture_output=True, text=True, check=True)
    probe = json.loads(proc.stdout.splitlines()[-1])
    assert probe["codes"] == [0] * len(runs), proc.stderr
    assert not [m for m in probe["loaded"] if m == "numpy.ma" or m.startswith("numpy.ma.")]
