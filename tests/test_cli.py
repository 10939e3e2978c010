import json
from pathlib import Path

import pytest

from gradedhecke.cli import main, run
from gradedhecke.config import (ConfigError, apply_k_override, load_config,
                                parse_blocks)

A1_CFG = 'datum { type="A1", ambient=1, k={alpha1=1} }\n'

SWAP_CFG = """
datum { type="A1xA1", ambient=2, k={alpha1=1, alpha2=1} }
gamma { name="swap", matrix=[[0,1],[1,0]] }
"""

INDUCE_CFG = """
datum { type="A2", ambient=2, k={alpha1=1, alpha2=1} }
induce { p=["alpha1"], delta="steinberg", extended=true }
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_parse_blocks_documented_form():
    blocks = parse_blocks('datum { type="A2", ambient=2, '
                          'k={alpha1=1, alpha2=1} }')
    assert blocks[0][0] == "datum"
    assert blocks[0][1]["type"] == "A2"
    assert blocks[0][1]["k"]["alpha2"] == 1


def test_parse_error_has_position():
    with pytest.raises(ConfigError) as err:
        parse_blocks('datum { type=@ }')
    assert "line 1" in str(err.value)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        load_config('datum { type="A1", ambient=1, bogus=1 }')
    with pytest.raises(ConfigError):
        load_config('datum { type="A1", ambient=1 }\nweird { a=1 }')


def test_k_override():
    from fractions import Fraction
    cfg = load_config(A1_CFG)
    apply_k_override(cfg, "alpha1=2")
    datum = cfg.build_datum()
    assert cfg.build_k(datum) == [Fraction(2)]
    apply_k_override(cfg, "3/2")
    assert cfg.build_k(datum) == [Fraction(3, 2)]
    # a repeated root is refused, as the parser refuses a duplicate key
    with pytest.raises(ConfigError, match="k override names 'alpha1' twice"):
        apply_k_override(cfg, "alpha1=1, alpha1=3")


def test_cli_datum_and_group(tmp_path):
    cfg = write(tmp_path, "a.cfg", SWAP_CFG)
    out = str(tmp_path / "out")
    assert main(["datum", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "datum.json").read_text())
    assert payload["schema"].startswith("gradedhecke-report/")
    assert payload["root_count"] == 4
    assert main(["group", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "group.json").read_text())
    assert payload["order"] == 8
    assert len(payload["classes"]) == 5
    for c in payload["classes"]:
        assert {"representative", "size", "fixed_dim",
                "centralizer_order"} <= set(c)


def test_cli_hp_and_census(tmp_path):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    out = str(tmp_path / "out")
    assert main(["crossed-census", "--config", cfg, "--out", out,
                 "--truncation", "8"]) == 0
    payload = json.loads((tmp_path / "out" / "crossed-census.json").read_text())
    assert (payload["hp0"], payload["hp1"]) == (2, 0)
    assert payload["totals"][0]["coeffs"] == [2, 0, 1, 0, 1, 0, 1, 0, 1]


def test_cli_findim(tmp_path):
    cfg = write(tmp_path, "a.cfg",
                A1_CFG + 'findim { kind="matrix", size=2 }\n'
                         'options { n_max=2 }\n')
    out = str(tmp_path / "out")
    assert main(["hh-findim", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "hh-findim.json").read_text())
    assert payload["hh"] == [1, 0, 0]
    cfg2 = write(tmp_path, "b.cfg",
                 A1_CFG + 'findim { kind="ground" }\noptions { n_max=2 }\n')
    assert main(["hc-findim", "--config", cfg2, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "hc-findim.json").read_text())
    assert payload["hc"] == [1, 0, 1]


def test_cli_size_bound_error_names_bound(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg",
                A1_CFG + 'findim { kind="matrix", size=3 }\n'
                         'options { n_max=3, max_dim=50 }\n')
    rc = main(["hh-findim", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "50" in capsys.readouterr().err


def test_cli_size_bound_counts_matrix_entries(tmp_path, capsys):
    # n_max=2 on M_2(Q) builds b_3 with 4^7 entries; its chain space is 4^4
    cfg = write(tmp_path, "a.cfg",
                A1_CFG + 'findim { kind="matrix", size=2 }\n'
                         'options { n_max=2, max_dim=1000 }\n')
    rc = main(["hh-findim", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and "1000" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["hh-findim", "hc-findim"])
def test_cli_findim_bound_is_checked_before_the_algebra_is_built(
        tmp_path, capsys, monkeypatch, command):
    # the bound reads only dim and n_max: Q[W(A3)] (dim 24) is refused
    # without building it and running its 24^3 associativity checks
    from gradedhecke.homology import FinDimAlgebra

    def built(self, *args, **kwargs):
        raise AssertionError("FinDimAlgebra constructed")

    monkeypatch.setattr(FinDimAlgebra, "__init__", built)
    cfg = write(tmp_path, "a3.cfg", 'datum { type="A3", ambient=3, k=1 }\n')
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: boundary matrix of 24**3 x 24**4 entries exceeds bound 1000000"]


def test_cli_induce(tmp_path):
    cfg = write(tmp_path, "a.cfg", INDUCE_CFG)
    out = str(tmp_path / "out")
    assert main(["induce", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "induce.json").read_text())
    assert payload["dim"] == 3
    assert payload["tempered"] is True
    assert payload["decomposition"] == [{"dim": 3, "multiplicity": 1}]


A2 = 'datum { type="A2", ambient=2, k=1 }\n'


@pytest.mark.parametrize("cfg_text, message", [
    (A2 + 'induce { p=[], delta="trivial", lambda_re=[1] }',
     "lambda_re has 1 coordinates, not the ambient dimension 2"),
    (A2 + 'induce { p=["alpha1"], delta="steinberg", lambda_re=[1] }',
     "lambda_re has 1 coordinates, not the ambient dimension 2"),
    (A2 + 'induce { p=["alpha1"], delta="steinberg", lambda_im=[1] }',
     "lambda_im has 1 coordinates, not the ambient dimension 2"),
    (A2 + 'induce { p=[], delta="trivial", lambda_re=[1,2,3] }',
     "lambda_re has 3 coordinates, not the ambient dimension 2"),
    (SWAP_CFG + 'induce { p=[], delta="trivial", extended="false" }',
     "induce extended must be a bool"),
    (A2 + 'induce { p="alpha1", delta="steinberg" }',
     "induce p must be a list"),
    (A2 + 'induce { p=["alpha1", "alpha1"], delta="steinberg" }',
     "simple root 'alpha1' is named twice"),
    (A2 + 'induce { p=["alpha3"], delta="steinberg" }',
     "unknown simple root 'alpha3'; expected ['alpha1', 'alpha2']"),
    (A2 + 'induce { p=["alpha1"], delta="steinberg", lambda_re=[1,0] }',
     "lambda does not lie in t^P"),
], ids=["re-short", "re-short-face", "im-short-face", "re-long",
        "extended-string", "p-string", "p-repeated", "p-unknown",
        "re-off-face"])
def test_cli_induce_rejects_malformed_block(tmp_path, capsys, cfg_text,
                                            message):
    cfg = write(tmp_path, "bad.cfg", cfg_text)
    assert main(["induce", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o" / "induce.json").exists()


def test_cli_irr0_and_verify(tmp_path):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    out = str(tmp_path / "out")
    assert main(["irr0", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "irr0.json").read_text())
    assert payload["count"] == 2
    assert main(["verify-basis", "--config", cfg, "--out", out]) == 0
    payload = json.loads((tmp_path / "out" / "verify-basis.json").read_text())
    assert payload["passed"] is True
    assert payload["trace_matrix"] == [["1", "-1"], ["2", "0"]]
    csv_text = (tmp_path / "out" / "verify-basis.csv").read_text()
    assert csv_text.splitlines()[0].endswith("1,-1")


def test_cli_determinism_and_cache(tmp_path):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["verify-basis", "--config", cfg, "--out", out1]) == 0
    assert main(["verify-basis", "--config", cfg, "--out", out2]) == 0
    b1 = (tmp_path / "o1" / "verify-basis.json").read_bytes()
    b2 = (tmp_path / "o2" / "verify-basis.json").read_bytes()
    assert b1 == b2
    # cache hit: rerun into the same directory reuses the stored report
    cache = list((tmp_path / "o1" / ".cache").iterdir())
    assert len(cache) == 1
    before = cache[0].read_bytes()
    assert main(["verify-basis", "--config", cfg, "--out", out1]) == 0
    assert cache[0].read_bytes() == before
    assert (tmp_path / "o1" / "verify-basis.json").read_bytes() == b1


def test_cli_malformed_config(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", 'datum { type="A1" ambient=1')
    rc = main(["datum", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_catalog_flag(tmp_path):
    cfg = write(tmp_path, "a.cfg",
                'datum { type="A2", ambient=2, k={alpha1=1, alpha2=1} }')
    cat = write(tmp_path, "c.cat", """
entry { p = ["alpha1"], note = "steinberg", s1 = [[-1]], x1 = [[-1/2]] }
""")
    out = str(tmp_path / "out")
    assert main(["verify-basis", "--config", cfg, "--out", out,
                 "--catalog", cat]) == 0
    payload = json.loads((tmp_path / "out" / "verify-basis.json").read_text())
    assert payload["passed"] is True


def test_run_rejects_unknown_command(tmp_path):
    cfg = load_config(A1_CFG)
    with pytest.raises(ConfigError):
        run("bogus", cfg, out_dir=str(tmp_path / "o"))


def test_cli_molien(tmp_path):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    out = str(tmp_path / "out")
    assert main(["molien", "--config", cfg, "--out", out,
                 "--truncation", "6"]) == 0
    payload = json.loads((tmp_path / "out" / "molien.json").read_text())
    assert payload["classes"][0]["series"][0]["coeffs"] == [1, 0, 1, 0, 1, 0, 1]


def test_cli_falsification_exit_code(tmp_path, monkeypatch):
    # a failing basis-theorem report must surface as exit status 2
    import gradedhecke.homology as homology_mod

    class FailingReport:
        datum_label = "A1"
        k_values = ()
        class_count = 2
        hp0 = 2
        irr0_count = 1
        module_names = ("only",)
        module_dims = (1,)
        trace_matrix = ((1, 1),)
        matrix_rank = 1
        counts_match = False
        full_rank = False
        passed = False

    monkeypatch.setattr(homology_mod, "verify_basis_theorem",
                        lambda *a, **k: FailingReport())
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    rc = main(["verify-basis", "--config", cfg,
               "--out", str(tmp_path / "out")])
    assert rc == 2


A1_CATALOG = 'entry { p = ["alpha1"], note = "st", s1 = [[-1]], x1 = [[-1/2]] }\n'


def test_cli_bad_catalog_is_one_error_line(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    cat = write(tmp_path, "bad.cat", "entry { q = 1 }\n")
    rc = main(["irr0", "--config", cfg, "--out", str(tmp_path / "o"),
               "--catalog", cat])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == ["error: catalog entry needs p"]
    assert "Traceback" not in err


@pytest.mark.parametrize("entry, message", [
    ('p = ["alpha1", "alpha1"], s1 = [[-1]], s2 = [[-1]], x1 = [[-1/2]], '
     'x2 = [[-1/2]]', "simple root 'alpha1' is named twice"),
    ('p = ["alpha2"], s1 = [[-1]], x1 = [[-1/2]]',
     "unknown simple root 'alpha2'; expected ['alpha1']"),
    ('p = "alpha1", s1 = [[-1]], x1 = [[-1/2]]',
     "p must be a list of simple root names, got 'alpha1'"),
    # every matrix is square, of one size >= 1, before any relation is
    # checked; a mismatch once ended in a linalg traceback
    ('p = ["alpha1"], s1 = [[-1,0],[0,-1]], x1 = [[-1]]',
     "catalog x1 is 1x1, but s1 is 2x2"),
    ('p = ["alpha1"], s1 = [[-1]], x1 = [[-1,0],[0,1]]',
     "catalog x1 is 2x2, but s1 is 1x1"),
    ('p = ["alpha1"], s1 = [[-1,0]], x1 = [[-1/2]]',
     "catalog s1 must be a nonempty square matrix"),
    ('p = ["alpha1"], s1 = [], x1 = []',
     "catalog s1 must be a nonempty square matrix"),
], ids=["repeated", "unknown", "string", "x-smaller", "x-larger",
        "s-not-square", "empty"])
def test_cli_catalog_root_names_are_one_error_line(tmp_path, capsys, entry,
                                                   message):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    cat = write(tmp_path, "bad.cat", f"entry {{ {entry} }}\n")
    rc = main(["irr0", "--config", cfg, "--out", str(tmp_path / "o"),
               "--catalog", cat])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o" / "irr0.json").exists()


@pytest.mark.parametrize("name", [
    "config.ConfigError", "rootdata.RootDatumError", "weyl.WeylError",
    "hecke.HeckeError", "hecke.HeckeParseError", "poly.PolyParseError",
    "modules.ModuleError", "catalog.CatalogError", "homology.HomologyError",
    "homology.SizeBoundExceeded", "weyl.AssociationError"])
def test_library_errors_share_one_base(name):
    import importlib
    from gradedhecke.linalg import GradedHeckeError
    module, cls = name.split(".")
    err = getattr(importlib.import_module(f"gradedhecke.{module}"), cls)
    assert issubclass(err, GradedHeckeError)
    assert issubclass(err, ValueError)


def test_cli_cache_tracks_catalog_contents_and_version(tmp_path, capsys,
                                                       monkeypatch):
    import gradedhecke.cli as cli_mod
    import gradedhecke.modules as modules_mod
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    cat = write(tmp_path, "c.cat", A1_CATALOG)
    out = str(tmp_path / "out")
    argv = ["irr0", "--config", cfg, "--out", out, "--catalog", cat]
    assert main(argv) == 0
    report = (tmp_path / "out" / "irr0.json").read_bytes()

    def no_recompute(*args, **kwargs):
        raise AssertionError("cache miss on unchanged inputs")

    # warm re-run with unchanged inputs is served from the cache
    with monkeypatch.context() as m:
        m.setattr(modules_mod, "irr0_census", no_recompute)
        assert main(argv) == 0
    assert (tmp_path / "out" / "irr0.json").read_bytes() == report
    # a new library version does not reuse the old report
    with monkeypatch.context() as m:
        m.setattr(cli_mod, "__version__", "0.0.0-test")
        assert main(argv) == 0
    assert len(list((tmp_path / "out" / ".cache").iterdir())) == 2
    # same path, new contents: the invalid catalog is read, not the cache
    capsys.readouterr()
    (tmp_path / "c.cat").write_text("entry { q = 1 }\n", encoding="utf-8")
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


KEY_CASES = {"run": 1, "source": 2, "config": 2, "catalog": 2,
             "truncation": 2, "max-dim": 2, "k-override": 2}


@pytest.mark.parametrize("case, entries", KEY_CASES.items(), ids=KEY_CASES)
def test_cli_cache_key_is_the_inputs_as_given(tmp_path, monkeypatch, case,
                                              entries):
    # the key reads the code and each input as given, so each change below
    # recomputes, though none changes the report: verify-basis ignores
    # truncation and max_dim, k is already 1, and the edits are comments
    import gradedhecke.cli as cli_mod
    import gradedhecke.homology as homology_mod
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    cat = write(tmp_path, "c.cat", A1_CATALOG)
    out = tmp_path / "out"
    argv = ["verify-basis", "--config", cfg, "--out", str(out),
            "--catalog", cat]
    calls = []
    theorem = homology_mod.verify_basis_theorem

    def counting(*args, **kwargs):
        calls.append(1)
        return theorem(*args, **kwargs)

    monkeypatch.setattr(homology_mod, "verify_basis_theorem", counting)
    assert main(argv) == 0 and len(calls) == 1
    report = (out / "verify-basis.json").read_bytes()
    if case == "run":  # a library call on the same text: main's entry
        assert run("verify-basis", load_config(A1_CFG), str(out), cat) == 0
    elif case == "source":  # changed code, same version and inputs
        monkeypatch.setattr(cli_mod, "_source_digest", lambda: "0" * 16)
    elif case in ("config", "catalog"):
        path = Path(cfg if case == "config" else cat)
        path.write_text(path.read_text("utf-8") + "# edited\n", "utf-8")
    else:
        argv += [f"--{case}", "1"]
    for _ in range(2):  # a miss that recomputes once, then unchanged: a hit
        assert main(argv) == 0 and len(calls) == entries
    assert (out / "verify-basis.json").read_bytes() == report
    assert len(list((out / ".cache").iterdir())) == entries


def test_source_digest_follows_the_package_bytes(tmp_path, monkeypatch):
    import shutil

    import gradedhecke.cli as cli_mod
    digest = cli_mod._source_digest()
    package = Path(cli_mod.__file__).parent
    for path in package.glob("*.py"):
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.setattr(cli_mod, "__file__", str(tmp_path / "cli.py"))
    assert cli_mod._source_digest() == digest
    with open(tmp_path / "linalg.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert cli_mod._source_digest() != digest


def test_cli_cache_write_is_atomic(tmp_path, monkeypatch):
    import gradedhecke.cli as cli_mod
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    out = tmp_path / "out"
    argv = ["crossed-census", "--config", cfg, "--out", str(out)]

    def interrupted(src, dst):
        raise OSError("interrupted before rename")

    # a run stopped between writing and renaming leaves no file under the
    # cache name, so the next run recomputes instead of loading a fragment
    with monkeypatch.context() as m:
        m.setattr(cli_mod.os, "replace", interrupted)
        assert main(argv) == 1
    assert not list((out / ".cache").iterdir())
    assert main(argv) == 0
    assert len(list((out / ".cache").glob("*.json"))) == 1


def test_cli_corrupt_cache_file_is_a_miss(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    cold, out = tmp_path / "cold", tmp_path / "out"
    argv = ["crossed-census", "--config", cfg, "--out", str(out)]
    assert main(["crossed-census", "--config", cfg, "--out", str(cold)]) == 0
    assert main(argv) == 0
    report = (cold / "crossed-census.json").read_bytes()
    (cache_file,) = (out / ".cache").glob("*.json")
    # truncated JSON, JSON that is not a report, reports without warnings
    for corrupt in ('{"trunc', '[]', '{"passed": true}',
                    '{"warnings": "none"}'):
        cache_file.write_text(corrupt, encoding="utf-8")
        capsys.readouterr()
        assert main(argv) == 0
        assert "Traceback" not in capsys.readouterr().err
        assert (out / "crossed-census.json").read_bytes() == report
        # the corrupt file was replaced by the recomputed report
        assert cache_file.read_bytes() == report
        assert [p.name for p in (out / ".cache").iterdir()] == \
            [cache_file.name]


@pytest.mark.parametrize("command, options, flags", [
    ("molien", "", ["--truncation", "-1"]),
    ("molien", "options { truncation=-1 }\n", []),
    ("hh-findim", "options { n_max=-1 }\n", []),
    ("hc-findim", "options { n_max=-1 }\n", []),
    ("hh-findim", "options { max_dim=-1 }\n", []),
    ("hh-findim", "", ["--max-dim", "-1"]),
    ("molien", "options { truncation=1/2 }\n", []),
    ("molien", 'options { truncation="x" }\n', []),
], ids=["truncation-flag", "truncation", "n_max-hh", "n_max-hc", "max_dim",
        "max_dim-flag", "truncation-fraction", "truncation-string"])
def test_cli_rejects_bad_option_values(tmp_path, capsys, command, options,
                                       flags):
    cfg = write(tmp_path, "a.cfg", A1_CFG + options)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")]
              + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: option ")
    assert not (tmp_path / "o" / f"{command}.json").exists()


def test_load_config_rejects_negative_options():
    for key in ("truncation", "max_dim", "n_max"):
        with pytest.raises(ConfigError, match=key):
            load_config(A1_CFG + f"options {{ {key}=-1 }}\n")
    cfg = load_config(A1_CFG + "options { truncation=0, max_dim=0, "
                               "n_max=0 }\n")
    assert (cfg.truncation, cfg.max_dim, cfg.n_max) == (0, 0, 0)


@pytest.mark.parametrize("command, text, flags", [
    ("hh-findim", A1_CFG + 'findim { kind="matrix", size=-1 }\n', []),
    ("hh-findim", A1_CFG + 'findim { kind="matrix", size=0 }\n', []),
    ("hh-findim", A1_CFG + 'findim { kind="matrix", size=3/2 }\n', []),
    ("group", 'datum { type="A1", ambient="x", k=1 }\n', []),
    ("group", 'datum { type="A1", ambient=3/2, k=1 }\n', []),
    ("group", 'datum { type="A1", ambient=1, k={alpha1="x"} }\n', []),
    ("group", 'datum { type="A1", ambient=1, k=1, gram=[["x"]] }\n', []),
    ("group", 'datum { type="A1", ambient=1, k=1, gram=2 }\n', []),
    ("group", SWAP_CFG.replace("[[0,1],[1,0]]", '[["x",1],[1,0]]'), []),
    ("group", A1_CFG, ["--k-override", "abc"]),
    ("group", A1_CFG, ["--k-override", "alpha1=1/0"]),
    ("datum", 'datum { type="B2", ambient=2, k=1 }\n',
     ["--k-override", "alpha1=1,alpha2=2,alpha1=3"]),
    ("induce", A1_CFG + 'induce { p=[], delta="trivial", '
                        'lambda_re=["x"] }\n', []),
], ids=["size-negative", "size-zero", "size-fraction", "ambient-string",
        "ambient-fraction", "k-value", "gram-entry", "gram-shape",
        "gamma-entry", "k-override", "k-override-named",
        "k-override-repeated", "lambda_re"])
def test_cli_rejects_bad_numbers(tmp_path, capsys, command, text, flags):
    cfg = write(tmp_path, "a.cfg", text)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")]
              + flags)
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert not (tmp_path / "o" / f"{command}.json").exists()


def test_cli_rejects_bad_catalog_entry(tmp_path, capsys):
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    cat = write(tmp_path, "c.cat",
                A1_CATALOG.replace("[[-1/2]]", '[["half"]]'))
    rc = main(["irr0", "--config", cfg, "--out", str(tmp_path / "o"),
               "--catalog", cat])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: catalog x1 entry must be a number, got 'half'"]


def test_config_numbers_are_exact_or_rejected():
    from fractions import Fraction
    from gradedhecke.config import integer, number
    assert number("v", "3/2") == Fraction(3, 2)
    assert integer("v", Fraction(4)) == 4
    for bad in (True, "x", "1/0", [1], {"a": 1}, None):
        with pytest.raises(ConfigError, match="^v must be a number"):
            number("v", bad)
    with pytest.raises(ConfigError, match="^v must be an integer >= 1"):
        integer("v", 0, 1)
    cfg = load_config(A1_CFG + 'findim { kind="matrix", size=1 }\n')
    assert cfg.findim_size == 1


B2_CFG = 'datum { type="B2", ambient=2, k=1 }\n'


def test_cli_warnings_are_reported_and_replayed_on_a_hit(tmp_path, capsys):
    # the rank-2 catalog warning is part of the report, so a cache hit
    # prints the same `warning:` lines as the run that computed it
    cfg = write(tmp_path, "b2.cfg", B2_CFG)
    out = tmp_path / "out"
    argv = ["verify-basis", "--config", cfg, "--out", str(out)]
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        runs.append((err, [(out / f"verify-basis.{ext}").read_bytes()
                           for ext in ("json", "csv")]))
    (cold_err, cold_files), (warm_err, warm_files) = runs
    assert cold_err == warm_err == [
        "warning: parabolic P=[0, 1] has rank >= 2 and no user catalog "
        "entries; higher discrete series may be missing"]
    assert warm_files == cold_files
    assert json.loads(cold_files[0])["warnings"] == [
        line[len("warning: "):] for line in cold_err]


def test_cli_failed_run_still_prints_its_warnings(tmp_path, capsys,
                                                   monkeypatch):
    import gradedhecke.homology as homology_mod

    def fails(*args, **kwargs):
        raise homology_mod.HomologyError("stopped after the catalog")

    monkeypatch.setattr(homology_mod, "verify_basis_theorem", fails)
    cfg = write(tmp_path, "b2.cfg", B2_CFG)
    rc = main(["verify-basis", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: parabolic P=[0, 1] has rank >= 2 and no user catalog "
        "entries; higher discrete series may be missing",
        "error: stopped after the catalog"]


def _modules_loaded_by(argv):
    """Every module, standard library included, that a fresh interpreter
    holds after main(argv)."""
    import ast
    import os
    import subprocess
    import sys

    import gradedhecke
    src = str(Path(gradedhecke.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = ("import sys, gradedhecke.cli\n"
             f"assert gradedhecke.cli.main({argv!r}) == 0\n"
             "print(sorted(sys.modules))\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    return ast.literal_eval(run.stdout.splitlines()[-1])


def _ours(loaded):
    return [m for m in loaded if m.split(".")[0] == "gradedhecke"]


# `dataclasses` imports `inspect`, `ast`, `dis` and `tokenize`, and
# `hashlib` loads OpenSSL; no run pays for them
UNUSED_STDLIB = {"dataclasses", "inspect", "hashlib"}


def test_cli_cache_hit_loads_no_engine(tmp_path):
    # the key is a SipHash of the inputs as given, so a hit parses nothing:
    # no config module and no `fractions`
    cfg = write(tmp_path, "a.cfg", A1_CFG)
    out = tmp_path / "out"
    argv = ["verify-basis", "--config", cfg, "--out", str(out)]
    assert "hashlib" not in _modules_loaded_by(argv)
    cold = (out / "verify-basis.json").read_bytes()
    (out / "verify-basis.json").unlink()
    loaded = _modules_loaded_by(argv)
    assert _ours(loaded) == ["gradedhecke", "gradedhecke.cli"]
    assert not (UNUSED_STDLIB | {"fractions"}) & set(loaded)
    assert (out / "verify-basis.json").read_bytes() == cold


FINDIM_CFG = 'findim { kind="matrix", size=2 }\noptions { n_max=2 }\n'


def test_cli_cold_findim_loads_no_modules_engine(tmp_path):
    # only verify_basis_theorem needs gradedhecke.modules; homology imports
    # it there, so a bar-complex run never compiles it
    cfg = write(tmp_path, "a.cfg", A1_CFG + FINDIM_CFG)
    loaded = _modules_loaded_by(["hh-findim", "--config", cfg,
                                 "--out", str(tmp_path / "out")])
    assert "gradedhecke.homology" in loaded
    assert "gradedhecke.modules" not in loaded


COLD_IMPORTS = [  # command, loads poly, loads hecke
    ("datum", False, False), ("group", False, False),
    ("molien", True, False), ("hh-findim", False, False),
    ("hc-findim", False, False), ("crossed-census", True, False),
    ("induce", False, False), ("irr0", False, False),
    ("verify-basis", False, False)]


@pytest.mark.parametrize("command, loads_poly, loads_hecke", COLD_IMPORTS,
                         ids=[f"{c}-{p}" for c, p, _ in COLD_IMPORTS])
def test_cli_cold_run_loads_neither_dataclasses_nor_unused_poly(
        tmp_path, command, loads_poly, loads_hecke):
    # only the Molien census reads a polynomial, and no command multiplies
    # in H': each reads the presentation (datum, k and W') alone
    cfg = write(tmp_path, "a.cfg", SWAP_CFG + FINDIM_CFG +
                'induce { p=["alpha1"], delta="steinberg" }\n')
    loaded = _modules_loaded_by([command, "--config", cfg,
                                 "--out", str(tmp_path / "out")])
    assert not UNUSED_STDLIB & set(loaded)
    assert ("gradedhecke.poly" in loaded) == loads_poly
    assert ("gradedhecke.hecke" in loaded) == loads_hecke


def test_cli_unequal_k_on_conjugate_roots_is_one_error_line(tmp_path, capsys):
    cfg = write(tmp_path, "a2.cfg",
                'datum { type="A2", ambient=2, k={alpha1=1, alpha2=2} }\n')
    rc = main(["group", "--config", cfg, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.splitlines() == [
        "error: k must agree on conjugate simple roots 1 and 0"]


@pytest.mark.parametrize("text, message", [
    ('datum { type="A2", ambient=2, k={alpha1=1, alpha2=2} }',
     "k must agree on conjugate simple roots 1 and 0"),
    ('datum { type="A1xA1", ambient=2, k={alpha1=1, alpha2=2} }\n'
     'gamma { name="swap", matrix=[[0,1],[1,0]] }',
     "k must agree on conjugate simple roots 0 and 1"),
    ('datum { type="A1xA1", ambient=2, k=1 }\n'
     'gamma { name="sheer", matrix=[[1,1],[0,1]] }',
     "automorphism 'sheer' is not Gram-orthogonal"),
    ('datum { type="A1xA1", ambient=3, k=1 }\n'
     'gamma { name="g", matrix=[[0,1,0],[1,0,0],[0,0,1]] }\n'
     'gamma { name="g", matrix=[[1,0,0],[0,1,0],[0,0,-1]] }',
     "duplicate diagram-automorphism labels"),
    ('datum { type="A1", ambient=1, k={alpha3=1} }',
     "unknown parameter keys ['alpha3']; expected ['alpha1']"),
] + [
    # each was once accepted: as rank 0, as A1 labelled "A01", or with its
    # empty parts dropped
    (f'datum {{ type="{label}", ambient=2, k=1 }}',
     f"unknown root system label {label!r}: expected 'empty' or parts such "
     "as 'B2' joined by single 'x'")
    for label in ("A0", "A00", "A01", "A1x", "xA1", "A1xxA1", "")
] + [('datum { type="B1", ambient=2, k=1 }', "B_n needs n >= 2"),
       # --catalog is the one way to name a catalog: the key reads its text
       (A1_CFG + 'catalog = "x.cat"', "unknown top-level block 'catalog'")],
    ids=["a2-unequal-k", "swap-unequal-k", "gamma-not-orthogonal",
         "gamma-labels-repeat", "unknown-k-key", "label-A0", "label-A00",
         "label-A01", "label-A1x", "label-xA1", "label-A1xxA1",
         "label-empty-string", "label-B1", "catalog-entry"])
def test_cli_bad_config_is_the_same_error_line_for_every_build(
        tmp_path, capsys, text, message):
    # group and crossed-census build only W', verify-basis builds H' on it:
    # each runs the same checks in the same order
    cfg = write(tmp_path, "a.cfg", text + "\n")
    for command in ("group", "crossed-census", "verify-basis"):
        rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


A1XA1_CFG = 'datum { type="A1xA1", ambient=2, k=1 }\n'
CLASH = "clashes with the word syntax: it is empty, holds '*' or reads s<i>"


@pytest.mark.parametrize("gamma, message", [
    ('gamma { name=3, matrix=[[0,1],[1,0]] }', "gamma name must be a string"),
    ('gamma { name="e", matrix=[[0,1],[1,0]] }',
     "duplicate diagram-automorphism labels"),
    # the word syntax of reports: such a label made `group` list classes
    # "s1" and "s1*s1", or "" and "*s1"
    ('gamma { name="s1", matrix=[[0,1],[1,0]] }',
     f"automorphism label 's1' {CLASH}"),
    ('gamma { name="", matrix=[[0,1],[1,0]] }',
     f"automorphism label '' {CLASH}"),
    ('gamma { name="a*b", matrix=[[0,1],[1,0]] }',
     f"automorphism label 'a*b' {CLASH}"),
], ids=["name-not-string", "swap-named-e", "swap-named-s1",
        "swap-named-empty", "swap-named-product"])
@pytest.mark.parametrize("command", ["group", "verify-basis"])
def test_cli_bad_gamma_name_is_one_error_line(tmp_path, capsys, gamma,
                                              message, command):
    # "e" names the identity: a swap so named was once dropped, and
    # verify-basis exited 0 with the 4 classes of A1xA1 for the 5 of W'
    cfg = write(tmp_path, "a.cfg", A1XA1_CFG + gamma + "\n")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not (tmp_path / "o" / f"{command}.json").exists()


def test_load_config_requires_a_string_gamma_name():
    with pytest.raises(ConfigError, match="^gamma name must be a string$"):
        load_config(A1XA1_CFG + 'gamma { name=3, matrix=[[0,1],[1,0]] }')


def test_cli_identity_gamma_adds_nothing(tmp_path):
    # the identity is "e" whatever a gamma block calls it: once it was
    # relabelled "id" and verify-basis died with an IndexError
    reports = []
    for name, gamma in (("plain", ""), ("id", 'gamma { name="id", '
                                              'matrix=[[1,0],[0,1]] }\n')):
        cfg = write(tmp_path, f"{name}.cfg", A1XA1_CFG + gamma)
        out = tmp_path / name
        for command in ("group", "verify-basis"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        reports.append([(out / f).read_bytes() for f in (
            "group.json", "verify-basis.json", "verify-basis.csv")])
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, message", [
    (["hp", "--config", "a.cfg"], "argument command: invalid choice: 'hp'"),
    (["datum", "--config", "a.cfg", "--truncation", "x"],
     "argument --truncation: invalid int value: 'x'"),
    (["datum"], "the following arguments are required: --config"),
], ids=["unknown-command", "truncation-not-int", "no-config"])
def test_cli_usage_error_is_one_line_and_exit_1(capsys, argv, message):
    # exit 2 means a falsified theorem; a bad command line is an error
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {message}")


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: gradedhecke" in capsys.readouterr().out


def test_cli_commands_match_handlers_and_readme():
    import re

    import gradedhecke.cli as cli_mod
    import gradedhecke.reports as reports_mod
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    listed = re.search(r"^Commands: (.*?)\.$", readme, re.M | re.S).group(1)
    assert set(cli_mod.COMMANDS) == set(reports_mod._HANDLERS) == \
        set(re.findall(r"`([a-z0-9-]+)`", listed))


def test_report_sweep_plans_219_runs_and_digests_each_the_same_way():
    # the byte-identity sweep: 26 configs x 9 commands, less the three
    # H' commands on the five A4 and D4 configs; two cold runs in two out
    # directories give one manifest entry
    import report_sweep

    import gradedhecke
    runs = report_sweep.planned_runs()
    assert len(runs) == 219 and len(set(runs)) == 219
    assert not {(p.name, c) for p, c in runs} & {
        ("d4-triality.cfg", "irr0"), ("a4.cfg", "induce"),
        ("d4.cfg", "verify-basis")}
    src = Path(gradedhecke.__file__).resolve().parents[1]
    a1 = report_sweep.ROOT / "bench" / "configs" / "a1.cfg"
    first, second = (report_sweep.run_one(src, a1, "verify-basis")
                     for _ in range(2))
    assert first == second and first["exit"] == 0
    assert sorted(first["files"]) == ["verify-basis.csv", "verify-basis.json"]
