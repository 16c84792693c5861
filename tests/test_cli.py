"""End-to-end command surface: every subcommand, exit codes, config files,
manifests, and byte-level determinism of produced artifacts.

All invocations run in-process through main(argv) so coverage and speed stay
reasonable; SystemExit from argparse is asserted where flags are invalid.
"""

import ast
import dataclasses
import hashlib
import inspect
import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import reference
import skipgru
from conftest import (CHECKPOINT_FIELD_TYPES, CHECKPOINT_KEY_EDITS,
                      EXPANSION_FIELD_TYPES, EXPANSION_KEY_EDITS,
                      MISMATCHED_HEADERS, edit_header, make_model, retyped,
                      randomize_params, write_mismatched_checkpoint,
                      write_small_map)
from skipgru import (cli, corpus, errors, numerics, ranking, trainer,
                     vocab_expansion)
from skipgru.cli import (RESUMED_FLAGS, _encode_lines, _tokenize_distinct,
                         build_parser, main)
from skipgru.fileio import read_vectors, write_vectors
from skipgru.trainer import METRICS_HEADER, load_checkpoint
from skipgru.vocab_expansion import (ExpandedLookup, ExpansionMap,
                                     ExternalEmbeddings, encode_text,
                                     read_expansion)

DATA = pathlib.Path(__file__).parent / "data"
PACKAGE = pathlib.Path(skipgru.__file__).parent

CORPUS = """\
the cat sat on the mat .
the dog ran fast .
a bird flew home .
the cat ran away .

the small dog sat down .
a red bird came back .
the fast cat flew up .
the big dog went home .

the bird sat on the cat .
a dog came home fast .
the red cat went away .
"""


def _python(code: str, **env) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports this skipgru, with
    `env` added to the environment."""
    src = str(pathlib.Path(skipgru.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src, **env),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_cli_loads_no_optimizer_or_linalg(tmp_path):
    # The package imports no scipy: the probes fit with numerics.lbfgs, and
    # the output layer's dgemm runs on numpy's own OpenBLAS.
    proc = _python("import sys, skipgru.cli; "
                   "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') "
                   "if m in sys.modules))")
    assert proc.stdout.strip() == "[]"
    corpus, vocab = tmp_path / "corpus.txt", tmp_path / "vocab.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    assert main(["build-vocab", "--corpus", str(corpus), "--size", "24",
                 "--out", str(vocab)]) == 0
    argv = ["train", "--corpus", str(corpus), "--vocab", str(vocab),
            "--embed-dim", "6", "--hidden-dim", "8", "--batch", "3",
            "--steps", "2", "--out", str(tmp_path / "m.ckpt")]
    proc = _python("import sys; from skipgru.cli import main; "
                   f"assert main({argv!r}) == 0; "
                   "print(sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'scipy'))")
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert trainer.load_checkpoint(tmp_path / "m.ckpt")[1].step == 2


def test_numpy_on_another_blas_exits_2(tmp_path, monkeypatch, capsys):
    # Training runs its V-gradient dgemm on numpy's OpenBLAS, with no other
    # path: a numpy whose BLAS exports no scipy-openblas64 symbols stops
    # every command before it runs, naming that BLAS.
    class NoSymbols:
        def __getattr__(self, name):
            raise AttributeError(name)
    monkeypatch.setattr(numerics.ctypes, "CDLL", lambda path: NoSymbols())
    numerics._openblas.cache_clear()
    corpus, vocab = tmp_path / "corpus.txt", tmp_path / "vocab.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    try:
        assert main(["build-vocab", "--corpus", str(corpus), "--size", "24",
                     "--out", str(vocab)]) == 2
    finally:
        numerics._openblas.cache_clear()
    assert numerics.blas_name() in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [corpus]


def _without_wall_ms(path) -> list[str]:
    return [line.rsplit(",", 1)[0] for line in
            pathlib.Path(path).read_text().splitlines()]


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: OpenBLAS would run one thread anyway")
def test_train_bytes_do_not_depend_on_openblas_num_threads(tmp_path):
    # At V=2000, OpenBLAS on two threads gives the output layer's dS = G @ V
    # other bits, so the bytes of a run depended on the environment.  main
    # sets one thread, so a run under OPENBLAS_NUM_THREADS=2 writes the same
    # checkpoint and metrics (without wall_ms) as one under 1, and its
    # manifest records the one thread it ran on.
    rng = np.random.default_rng(0)
    words = np.tile(rng.permutation(2100), 3)
    lengths = rng.integers(6, 14, size=360)
    sentences = [" ".join(f"w{i}" for i in words[end - n:end]) + " ."
                 for n, end in zip(lengths, np.cumsum(lengths))]
    docs = ["\n".join(sentences[k:k + 6]) for k in range(0, 360, 6)]
    corpus, vocab = tmp_path / "corpus.txt", tmp_path / "vocab.txt"
    corpus.write_text("\n\n".join(docs) + "\n", encoding="utf-8")
    assert main(["build-vocab", "--corpus", str(corpus), "--size", "2000",
                 "--out", str(vocab)]) == 0
    assert len(vocab.read_text().splitlines()) == 2000
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.ckpt"
        argv = ["train", "--corpus", str(corpus), "--vocab", str(vocab),
                "--mode", "bi", "--embed-dim", "16", "--hidden-dim", "32",
                "--batch", "8", "--steps", "3", "--seed", "3",
                "--out", str(out)]
        _python(f"import sys; from skipgru.cli import main; "
                f"sys.exit(main({argv!r}))", OPENBLAS_NUM_THREADS=threads)
        manifest = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())
        runs[threads] = (out.read_bytes(),
                         _without_wall_ms(f"{out}.metrics.csv"),
                         manifest["env"])
    assert runs["1"][:2] == runs["2"][:2]
    assert len(runs["2"][1]) == 4
    env = runs["2"][2]
    assert env == runs["1"][2]
    assert env["blas_threads"] == 1
    assert env["numpy"] == np.__version__
    assert env["blas"].startswith("scipy-openblas")


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: OpenBLAS would run one thread anyway")
def test_eval_bytes_do_not_depend_on_openblas_num_threads(ws, tmp_path):
    # The probe fits and the ranker's training epochs run on numpy's
    # OpenBLAS, which main sets to one thread, so they write the same
    # metrics CSVs under OPENBLAS_NUM_THREADS 2 as under 1.
    rng = np.random.default_rng(4)
    sents = ["the cat sat .", "the dog ran .", "a bird flew .",
             "the cat ran away .", "the small dog sat down .",
             "a red bird came back ."]
    caps, img = tmp_path / "caps.txt", tmp_path / "img.bin"
    caps.write_text("".join(sents[i % len(sents)] + "\n" for i in range(24)))
    write_vectors(img, rng.normal(size=(24, 7)))
    model = ["--ckpt", str(ws["ckpt"]), "--seed", "2"]
    argvs = {
        "classify": ["eval-classify", *model, "--folds", "3",
                     *_write_eval_rows(tmp_path, "eval-classify", 30)],
        "sick": ["eval-sick", *model, "--folds", "3",
                 *_write_eval_rows(tmp_path, "eval-sick", 30)],
        "rank": ["eval-rank", *model, "--images", str(img), "--captions",
                 str(caps), "--group-size", "1", "--train-items", "12",
                 "--dev-items", "6", "--embed-dim", "5", "--k-contrastive",
                 "3", "--batch", "12", "--epochs", "3"]}
    for threads in ("1", "2"):
        runs = [argv + ["--out", str(tmp_path / f"{name}{threads}.csv")]
                for name, argv in argvs.items()]
        _python(f"import sys; from skipgru.cli import main; "
                f"sys.exit(max(main(argv) for argv in {runs!r}))",
                OPENBLAS_NUM_THREADS=threads)
    for name in argvs:
        one = (tmp_path / f"{name}1.csv").read_bytes()
        assert len(one.splitlines()) > 2
        assert one == (tmp_path / f"{name}2.csv").read_bytes(), name


def test_the_evals_load_no_scipy(ws, tmp_path):
    # A fresh process runs the three probe evals and eval-rank; none of them
    # loads a scipy module.
    rng = np.random.default_rng(4)
    caps, img = tmp_path / "caps.txt", tmp_path / "img.bin"
    caps.write_text("the cat sat .\nthe dog ran .\na bird flew .\n" * 8)
    write_vectors(img, rng.normal(size=(24, 7)))
    model = ["--ckpt", str(ws["ckpt"]), "--seed", "2"]
    runs = []
    for command in ("eval-classify", "eval-sick", "eval-paraphrase"):
        (tmp_path / command).mkdir()
        runs.append([command, *model, "--folds", "3",
                     *_write_eval_rows(tmp_path / command, command, 30),
                     "--out", str(tmp_path / command / "out.csv")])
    runs.append(["eval-rank", *model, "--images", str(img), "--captions",
                 str(caps), "--group-size", "1", "--train-items", "12",
                 "--dev-items", "6", "--embed-dim", "5", "--k-contrastive",
                 "3", "--batch", "12", "--epochs", "2",
                 "--out", str(tmp_path / "rank.csv")])
    proc = _python("import sys; from skipgru.cli import main; "
                   f"assert [main(argv) for argv in {runs!r}] == [0] * 4; "
                   "print(sorted(m for m in sys.modules "
                   "if m.split('.')[0] == 'scipy'))")
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    for command in ("eval-classify", "eval-sick", "eval-paraphrase"):
        assert len((tmp_path / command / "out.csv").read_text().splitlines()) > 2


def _default_core_unless_haswell_is_it() -> str:
    """The BLAS core a fresh process reports, after checking that
    OPENBLAS_CORETYPE=Haswell makes it report another (else skip)."""
    read = "from skipgru import numerics; print(numerics.blas_core())"
    default = _python(read).stdout.strip()
    if _python(read, OPENBLAS_CORETYPE="Haswell").stdout.strip() in (
            default, ""):
        pytest.skip("OPENBLAS_CORETYPE=Haswell does not change the core "
                    f"OpenBLAS reports on this host ({default})")
    return default


def test_manifest_names_the_blas_core_it_ran_on(tmp_path):
    # The bytes of a run depend on the kernel family OpenBLAS picked for the
    # CPU, so the manifest records it; OPENBLAS_CORETYPE forces another.
    default = _default_core_unless_haswell_is_it()
    corpus = tmp_path / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    cores = {}
    for forced in ({}, {"OPENBLAS_CORETYPE": "Haswell"}):
        out = tmp_path / f"vocab{len(cores)}.txt"
        argv = ["build-vocab", "--corpus", str(corpus), "--size", "24",
                "--out", str(out)]
        _python(f"import sys; from skipgru.cli import main; "
                f"sys.exit(main({argv!r}))", **forced)
        manifest = json.loads(pathlib.Path(f"{out}.manifest.json").read_text())
        cores[forced.get("OPENBLAS_CORETYPE")] = manifest["env"]["blas_core"]
    assert cores == {None: default, "Haswell": "Haswell"}


def test_resume_on_another_blas_core_warns_once(ws, tmp_path):
    # A run trained under a forced core and resumed on the host's own says
    # so in one stderr line naming both cores, and still exits 0; resumed on
    # the core that wrote it, it says nothing.
    default = _default_core_unless_haswell_is_it()
    ckpt = tmp_path / "core.ckpt"
    argv = ["train", "--corpus", str(ws["corpus"]), "--vocab",
            str(ws["vocab"]), "--embed-dim", "5", "--hidden-dim", "6",
            "--batch", "4", "--out", str(ckpt)]

    def train(steps, **forced):
        run = argv + ["--steps", str(steps)] + (["--resume"] if steps > 2
                                                else [])
        return _python(f"import sys; from skipgru.cli import main; "
                       f"sys.exit(main({run!r}))", **forced).stderr
    assert train(2, OPENBLAS_CORETYPE="Haswell") == ""
    [warning] = train(4).splitlines()
    assert "Haswell" in warning and default in warning
    assert train(6) == ""


# Names whose use would make a run depend on the environment or start threads.
ENV_AND_THREAD_NAMES = {"os.environ", "os.getenv", "concurrent.futures",
                        "ThreadPoolExecutor", "threading.Thread"}


def _dotted_names(tree: ast.AST):
    """Every bare name, one-level attribute (`os.environ`) and imported module
    or name (`from os import getenv` gives os and os.getenv) in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield f"{node.value.id}.{node.attr}"
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield alias.name
                yield f"{node.module}.{alias.name}"


def env_and_thread_uses(package: pathlib.Path) -> list[str]:
    """module: name for each ENV_AND_THREAD_NAMES name used in `package`."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}: {name}" for name in _dotted_names(tree)
                  if name in ENV_AND_THREAD_NAMES}
    return sorted(found)


def test_the_package_reads_no_environment_and_starts_no_thread(tmp_path):
    package = pathlib.Path(skipgru.__file__).resolve().parent
    assert env_and_thread_uses(package) == []
    # The scan does see each of these spellings.
    (tmp_path / "m.py").write_text(
        "import os\nfrom os import getenv\nimport concurrent.futures\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "n = os.environ.get('N')\n")
    assert env_and_thread_uses(tmp_path) == [
        "m: ThreadPoolExecutor", "m: concurrent.futures", "m: os.environ",
        "m: os.getenv"]


def scipy_imports(package: pathlib.Path) -> list[str]:
    """module or module.function: imported module, for each import of scipy
    in `package`; an import inside a function or class names it."""
    found = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            where = path.stem + (f".{top.name}" if hasattr(top, "name") else "")
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                found += [f"{where}: {name}" for name in names
                          if name.split(".")[0] == "scipy"]
    return found


def test_the_package_imports_no_scipy(tmp_path):
    # numpy is the package's only runtime dependency; scipy serves the tests
    # as an oracle.
    assert scipy_imports(PACKAGE) == []
    # The scan does see each of these spellings.
    (tmp_path / "m.py").write_text(
        "import scipy\nfrom scipy.optimize import minimize\n"
        "from . import scipy_like\n"
        "def f():\n    import scipy.stats as st, os\n")
    assert scipy_imports(tmp_path) == [
        "m: scipy", "m: scipy.optimize", "m.f: scipy.stats"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with corpus, vocabulary, and a small trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_text(CORPUS, encoding="utf-8")
    vocab = root / "vocab.txt"
    assert main(["build-vocab", "--corpus", str(corpus), "--size", "24",
                 "--out", str(vocab)]) == 0
    ckpt = root / "uni.ckpt"
    assert main(["train", "--corpus", str(corpus), "--vocab", str(vocab),
                 "--mode", "uni", "--embed-dim", "5", "--hidden-dim", "6",
                 "--batch", "4", "--steps", "30", "--seed", "3",
                 "--out", str(ckpt)]) == 0
    bi = root / "bi.ckpt"
    assert main(["train", "--corpus", str(corpus), "--vocab", str(vocab),
                 "--mode", "bi", "--embed-dim", "5", "--hidden-dim", "4",
                 "--batch", "4", "--steps", "20", "--seed", "4",
                 "--out", str(bi)]) == 0
    return {"root": root, "corpus": corpus, "vocab": vocab, "ckpt": ckpt,
            "bi": bi}


# ---------------------------------------------------------------------------
# build-vocab
# ---------------------------------------------------------------------------

def test_vocab_file_format(ws):
    lines = ws["vocab"].read_text().splitlines()
    assert lines[0] == "<eos>" and lines[1] == "<unk>"
    assert len(lines) == 24


def test_vocab_stats_json(ws, tmp_path, capsys):
    out = tmp_path / "v.txt"
    assert main(["build-vocab", "--corpus", str(ws["corpus"]),
                 "--size", "24", "--out", str(out)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["sentences"] == 11 and stats["documents"] == 3


def test_vocab_stats_hand_count(tmp_path, capsys):
    text = tmp_path / "c.txt"
    text.write_text("a b .\nc .\n")
    assert main(["build-vocab", "--corpus", str(text), "--size", "10",
                 "--out", str(tmp_path / "v.txt")]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "documents": 1, "sentences": 2, "words": 5, "unique_words": 4,
        "mean_words_per_sentence": 2.5, "vocab_size": 6}
    # An empty corpus has no stats to print: it is rejected before any output.
    text.write_text("\n\n")
    assert main(["build-vocab", "--corpus", str(text), "--size", "10",
                 "--out", str(tmp_path / "e.txt")]) == 2
    assert not (tmp_path / "e.txt").exists()


def _record_tokenized_lines(monkeypatch) -> list[str]:
    """Every line that goes through the block tokenizer, which tokenize and
    tokenize_lines both call, in call order."""
    calls = []
    real = corpus._tokenize_block

    def tokenize_block(lines):
        calls.extend(lines)
        return real(lines)
    monkeypatch.setattr(corpus, "_tokenize_block", tokenize_block)
    return calls


def test_vocab_tokenizes_each_sentence_once(ws, tmp_path, monkeypatch):
    calls = _record_tokenized_lines(monkeypatch)
    assert main(["build-vocab", "--corpus", str(ws["corpus"]), "--size", "24",
                 "--out", str(tmp_path / "v.txt")]) == 0
    assert sorted(calls) == sorted(line for line in CORPUS.splitlines() if line)
    assert len(calls) == 11


def test_vocab_rerun_byte_identical(ws, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["build-vocab", "--corpus", str(ws["corpus"]),
                     "--size", "10", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_vocab_minimum_size(ws, tmp_path):
    out = tmp_path / "tiny.txt"
    assert main(["build-vocab", "--corpus", str(ws["corpus"]), "--size", "3",
                 "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert main(["build-vocab", "--corpus", str(ws["corpus"]), "--size", "2",
                 "--out", str(out)]) == 2


def test_vocab_missing_corpus_exit_2(tmp_path):
    assert main(["build-vocab", "--corpus", str(tmp_path / "nope.txt"),
                 "--size", "5", "--out", str(tmp_path / "v.txt")]) == 2


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_zero_steps_writes_initial_checkpoint(ws, tmp_path):
    out = tmp_path / "zero.ckpt"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
                 "--steps", "0", "--seed", "1", "--out", str(out)]) == 0
    model, opt = load_checkpoint(out)
    assert opt.step == 0 and model.config.hidden_dim == 4


def test_train_metrics_rows(ws, tmp_path):
    out = tmp_path / "m.ckpt"
    metrics = tmp_path / "m.csv"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
                 "--batch", "4", "--steps", "12", "--seed", "1",
                 "--metrics", str(metrics), "--out", str(out)]) == 0
    lines = metrics.read_text().strip().splitlines()
    assert len(lines) == 13                  # header + 12 steps
    assert lines[0].startswith("step,loss,grad_norm,clipped")


def test_resume_into_new_or_empty_metrics_file_writes_header(ws, tmp_path):
    out = tmp_path / "r.ckpt"
    train = ["train", "--corpus", str(ws["corpus"]), "--vocab",
             str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
             "--batch", "4", "--seed", "1", "--out", str(out)]
    assert main(train + ["--steps", "3"]) == 0
    new, empty = tmp_path / "new.csv", tmp_path / "empty.csv"
    empty.write_text("")
    for metrics, steps, rows in ((new, "5", ["4", "5"]), (empty, "7", ["6", "7"])):
        assert main(train + ["--steps", steps, "--resume",
                             "--metrics", str(metrics)]) == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == METRICS_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == rows


def test_resume_with_another_vocabulary_exit_2(ws, tmp_path, capsys):
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    train = ["train", "--corpus", str(ws["corpus"]), "--embed-dim", "4",
             "--hidden-dim", "4", "--batch", "4", "--seed", "1",
             "--metrics", str(metrics), "--out", str(out)]
    assert main(train + ["--vocab", str(ws["vocab"]), "--steps", "2"]) == 0
    tokens = ws["vocab"].read_text().splitlines()
    tokens[2], tokens[3] = tokens[3], tokens[2]
    swapped = tmp_path / "swapped.txt"
    swapped.write_text("\n".join(tokens) + "\n")
    before = out.read_bytes(), metrics.read_bytes()
    capsys.readouterr()
    assert main(train + ["--vocab", str(swapped), "--steps", "4",
                         "--resume"]) == 2
    assert "is not the vocabulary of the checkpoint" in capsys.readouterr().err
    assert (out.read_bytes(), metrics.read_bytes()) == before


def test_resume_from_adam_values_at_odds_with_the_config_exit_4(ws, tmp_path,
                                                                 capsys):
    # The header's adam.alpha 0.5 over its config's alpha 0.001 used to
    # resume with exit 0 and train at rate 0.5, while the manifest and the
    # --lr check read 0.001.
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    out.write_bytes(ws["ckpt"].read_bytes())
    edit_header(out, MISMATCHED_HEADERS["adam"])
    metrics.write_bytes(pathlib.Path(str(ws["ckpt"]) + ".metrics.csv")
                        .read_bytes())
    before = out.read_bytes(), metrics.read_bytes()
    capsys.readouterr()
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", "33", "--resume", "--lr",
                 "0.001", "--metrics", str(metrics), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "malformed checkpoint header" in err and "adam.alpha 0.5" in err
    assert (out.read_bytes(), metrics.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.ckpt", "r.csv"]


def test_resume_from_adam_values_that_step_to_non_finite_weights_exit_4(
        ws, tmp_path, capsys):
    # A checkpoint whose config and adam blocks agree on beta1 1.0 used to
    # resume with exit 0: Adam's bias correction 1 - beta1**t is 0, and the
    # checkpoint it wrote held non-finite parameters.
    def beta1_one(header):
        header["config"]["beta1"] = header["adam"]["beta1"] = 1.0
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    out.write_bytes(ws["ckpt"].read_bytes())
    edit_header(out, beta1_one)
    metrics.write_bytes(pathlib.Path(str(ws["ckpt"]) + ".metrics.csv")
                        .read_bytes())
    before = out.read_bytes(), metrics.read_bytes()
    capsys.readouterr()
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", "33", "--resume", "--lr",
                 "0.001", "--metrics", str(metrics), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert "malformed checkpoint header" in err and "beta1" in err
    assert (out.read_bytes(), metrics.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.ckpt", "r.csv"]


@pytest.mark.parametrize("flag,value", [
    ("--seed", "9"), ("--mode", "bi"), ("--embed-dim", "7"),
    ("--hidden-dim", "7"), ("--batch", "5"), ("--clip", "2.5"),
    ("--lr", "0.01")])
def test_resume_with_a_conflicting_setting_exit_2(ws, tmp_path, capsys, flag,
                                                  value):
    # The uni checkpoint was trained with --seed 3, --embed-dim 5,
    # --hidden-dim 6, --batch 4 and the default --mode, --clip and --lr; a
    # resumed run keeps those, so a flag set to anything else is refused.
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    out.write_bytes(ws["ckpt"].read_bytes())
    metrics.write_bytes(pathlib.Path(str(ws["ckpt"]) + ".metrics.csv")
                        .read_bytes())
    before = out.read_bytes(), metrics.read_bytes()
    capsys.readouterr()
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", "40", "--resume", "--metrics",
                 str(metrics), "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert f"{flag} {value}" in err and "checkpoint" in err
    assert (out.read_bytes(), metrics.read_bytes()) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.ckpt", "r.csv"]


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--lr", "-0.5"), ("--clip", "nan"),
    ("--clip", "0")])
def test_train_refuses_a_setting_it_cannot_train_by_exit_2(ws, tmp_path, capsys,
                                                          flag, value):
    # A NaN learning rate would make every parameter of the step-1
    # checkpoint non-finite, a negative one trains uphill, and a NaN clip
    # threshold never clips.  Each is refused before any file is written.
    capsys.readouterr()
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
                 "--batch", "4", "--steps", "2", "--checkpoint-every", "1",
                 "--metrics", str(tmp_path / "m.csv"),
                 "--out", str(tmp_path / "m.ckpt"), flag, value]) == 2
    message = {"--lr": "alpha must be finite and >= 0",
               "--clip": "clip_threshold must be > 0"}[flag]
    assert f"{message}, got {float(value)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resumed"])
@pytest.mark.parametrize("counts", [("-3", "0"), ("4", "-1")],
                         ids=["steps", "checkpoint_every"])
def test_train_refuses_a_negative_count_by_exit_2(ws, tmp_path, capsys, counts,
                                                  resume):
    # --steps -3 used to train no step and still write a checkpoint, a
    # metrics file and a manifest; --checkpoint-every -1 silently meant no
    # periodic checkpoints.  Both are refused before any file is written,
    # and a resumed run checks the settings it takes from the flags too.
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    if resume:
        out.write_bytes(ws["ckpt"].read_bytes())
        metrics.write_bytes(pathlib.Path(str(ws["ckpt"]) + ".metrics.csv")
                            .read_bytes())
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    steps, every = counts
    capsys.readouterr()
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", steps, "--checkpoint-every",
                 every, "--metrics", str(metrics), "--out", str(out)]
                + (["--resume"] if resume else [])) == 2
    name, value = (("max_steps", steps) if steps.startswith("-")
                   else ("checkpoint_every", every))
    assert f"{name} must be >= 0, got {value}" in capsys.readouterr().err
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_resume_manifest_records_the_checkpoint_settings(ws, tmp_path):
    out = tmp_path / "r.ckpt"
    base = ["train", "--corpus", str(ws["corpus"]), "--vocab",
            str(ws["vocab"]), "--out", str(out)]
    assert main(base + ["--seed", "5", "--batch", "4", "--embed-dim", "8",
                        "--hidden-dim", "8", "--mode", "bi", "--clip", "7.5",
                        "--lr", "0.002", "--steps", "2"]) == 0
    manifest = pathlib.Path(str(out) + ".manifest.json")
    first = json.loads(manifest.read_text())
    assert main(base + ["--steps", "3", "--resume"]) == 0
    resumed = json.loads(manifest.read_text())
    assert resumed["seeds"] == first["seeds"] == {"seed": 5}
    used = {"seed": 5, "batch": 4, "embed_dim": 8, "hidden_dim": 8,
            "mode": "bi", "clip": 7.5, "lr": 0.002}
    for doc in (first, resumed):
        assert {k: doc["config"][k] for k in used} == used
    assert resumed["config"]["steps"] == 3 and resumed["config"]["resume"]


# Each train settings flag at its default, as a resumed run might be given it.
DEFAULT_SETTINGS = [("--seed", "0"), ("--mode", "uni"), ("--embed-dim", "64"),
                    ("--hidden-dim", "64"), ("--batch", "128"),
                    ("--clip", "10.0"), ("--lr", "0.001")]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag,value", DEFAULT_SETTINGS)
def test_resume_refuses_a_default_value_that_differs_from_the_checkpoint(
        ws, tmp_path, capsys, flag, value, source):
    # A flag given at its default value used to be taken as not given: a bi
    # run resumed with --mode uni kept training bi and exited 0.
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--seed", "2", "--mode", "bi",
                 "--embed-dim", "4", "--hidden-dim", "3", "--batch", "4",
                 "--clip", "7.5", "--lr", "0.01", "--steps", "2",
                 "--metrics", str(metrics), "--out", str(out)]) == 0
    setting = [flag, value]
    if source == "config":
        cfg = tmp_path / "train.cfg"
        cfg.write_text(f"{flag[2:]} = {value}\n")
        setting = ["--config", str(cfg)]
    before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
    capsys.readouterr()
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", "4", "--resume", "--metrics",
                 str(metrics), "--out", str(out), *setting]) == 2
    err = capsys.readouterr().err
    assert f"{flag} {value} differs from the checkpoint's" in err
    assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before


def test_fresh_train_without_settings_flags_uses_the_config_defaults(
        ws, tmp_path):
    out = tmp_path / "d.ckpt"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", "1", "--out", str(out)]) == 0
    model, opt = load_checkpoint(out)
    defaults = trainer.TrainConfig(vocab_size=model.vocab.size, max_steps=1)
    assert model.config == defaults and opt.step == 1
    config = json.loads(pathlib.Path(str(out) + ".manifest.json")
                        .read_text())["config"]
    assert {dest: config[dest] for dest in RESUMED_FLAGS} == {
        dest: getattr(defaults, field) for dest, field in RESUMED_FLAGS.items()}


def test_one_home_per_setting():
    # The train settings flags have no default of their own: TrainConfig's
    # fill a fresh run and the checkpoint's a resumed one.  eval-rank's
    # training flags read theirs from RankTrainConfig, and TrainConfig and
    # adam_step name the same numerics constants as Adam's defaults.
    _, registry = build_parser()
    train = {a.dest: a.default for a in registry["train"].parser._actions}
    assert {dest: train[dest] for dest in RESUMED_FLAGS} == dict.fromkeys(
        RESUMED_FLAGS)
    rank = {a.dest: a.default for a in registry["eval-rank"].parser._actions}
    homes = {"alpha": "alpha", "k_contrastive": "k_contrastive",
             "lr": "learning_rate", "batch": "batch_size"}
    trees = {stem: ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))
             for stem in ("cli", "trainer", "numerics")}
    calls = [node for node in ast.walk(trees["cli"]) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "add_argument"]
    flag_defaults = {}
    for call in calls:
        flag_defaults.setdefault(call.args[0].value, []).extend(
            ast.unparse(kw.value) for kw in call.keywords if kw.arg == "default")
    for dest, field in homes.items():
        assert rank[dest] == getattr(ranking.RankTrainConfig, field)
        flag = "--" + dest.replace("_", "-")
        assert flag_defaults[flag] == [f"ranking.RankTrainConfig.{field}"], flag
    config = {f.name: f.default for f in dataclasses.fields(trainer.TrainConfig)}
    step = inspect.signature(numerics.adam_step).parameters
    [body] = [node.body for node in ast.walk(trees["trainer"])
              if isinstance(node, ast.ClassDef) and node.name == "TrainConfig"]
    field_defaults = {node.target.id: ast.unparse(node.value) for node in body
                      if isinstance(node, ast.AnnAssign) and node.value}
    [args] = [node.args for node in ast.walk(trees["numerics"])
              if isinstance(node, ast.FunctionDef) and node.name == "adam_step"]
    step_defaults = {a.arg: ast.unparse(d) for a, d in
                     zip(args.args[-len(args.defaults):], args.defaults)}
    for name in ("alpha", "beta1", "beta2", "epsilon"):
        home = f"ADAM_{name.upper()}"
        assert config[name] == step[name].default == getattr(numerics, home)
        assert field_defaults[name] == step_defaults[name] == home, name


def test_train_rerun_identical_checkpoint(ws, tmp_path):
    outs = []
    for name in ("r1.ckpt", "r2.ckpt"):
        out = tmp_path / name
        assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                     str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim",
                     "4", "--batch", "4", "--steps", "10", "--seed", "5",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_train_resume_matches_straight_run(ws, tmp_path):
    base = ["train", "--corpus", str(ws["corpus"]), "--vocab",
            str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
            "--batch", "4", "--seed", "8"]
    straight = tmp_path / "s.ckpt"
    assert main(base + ["--steps", "16", "--out", str(straight)]) == 0
    resumed = tmp_path / "r.ckpt"
    assert main(base + ["--steps", "8", "--out", str(resumed)]) == 0
    assert main(base + ["--steps", "16", "--resume",
                        "--out", str(resumed)]) == 0
    assert straight.read_bytes() == resumed.read_bytes()


def test_interrupted_train_resumes_to_the_same_checkpoint(ws, tmp_path,
                                                          monkeypatch):
    # A KeyboardInterrupt in step 5 stops the run after the step-3
    # checkpoint; --resume from it finishes as an uninterrupted run does.
    base = ["train", "--corpus", str(ws["corpus"]), "--vocab",
            str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
            "--batch", "4", "--seed", "6", "--steps", "9",
            "--checkpoint-every", "3"]
    straight = tmp_path / "s.ckpt"
    assert main(base + ["--out", str(straight)]) == 0
    out, metrics = tmp_path / "r.ckpt", tmp_path / "r.csv"
    real_step = trainer.train_step

    def interrupt_step_5(model, batch, opt, config):
        if opt.step == 4:
            raise KeyboardInterrupt
        return real_step(model, batch, opt, config)

    monkeypatch.setattr(trainer, "train_step", interrupt_step_5)
    with pytest.raises(KeyboardInterrupt):
        main(base + ["--out", str(out), "--metrics", str(metrics)])
    monkeypatch.undo()
    assert load_checkpoint(out)[1].step == 3
    assert main(base + ["--out", str(out), "--metrics", str(metrics),
                        "--resume"]) == 0
    assert out.read_bytes() == straight.read_bytes()
    steps = [line.split(",")[0] for line in metrics.read_text().splitlines()]
    assert steps[1:] == [str(i) for i in range(1, 10)]
    assert list(tmp_path.glob("*.tmp")) == []


def test_train_summary_losses_are_the_rows_the_run_appended(ws, tmp_path,
                                                            capsys):
    # A fresh run, a resumed run, and a resume already at --steps, which
    # takes no step and prints no loss.
    metrics = tmp_path / "m.csv"
    base = ["train", "--corpus", str(ws["corpus"]), "--vocab",
            str(ws["vocab"]), "--embed-dim", "4", "--hidden-dim", "4",
            "--batch", "4", "--seed", "2", "--checkpoint-every", "2",
            "--metrics", str(metrics), "--out", str(tmp_path / "s.ckpt")]
    for steps, resume, appended in ((5, [], range(1, 6)),
                                    (9, ["--resume"], range(6, 10)),
                                    (9, ["--resume"], range(0))):
        capsys.readouterr()
        assert main(base + ["--steps", str(steps)] + resume) == 0
        summary = json.loads(capsys.readouterr().out)
        rows = [line.split(",") for line in metrics.read_text().splitlines()[1:]]
        assert [int(r[0]) for r in rows] == list(range(1, steps + 1))
        losses = [float(r[1]) for r in rows[len(rows) - len(appended):]]
        assert summary.pop("steps") == steps
        assert summary.pop("triples") == 5
        if losses:
            assert summary == {"first_loss": losses[0], "final_loss": losses[-1]}
        else:
            assert summary == {}


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_header_and_dims(ws, tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\nthe dog ran .\na bird flew .\n")
    out = tmp_path / "v.bin"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input", str(inp),
                 "--out", str(out)]) == 0
    n, dim = struct.unpack("<II", out.read_bytes()[:8])
    assert (n, dim) == (3, 6)
    arr = read_vectors(out)
    assert arr.shape == (3, 6)


def test_encode_combine_concatenates(ws, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\n")
    uni_out = tmp_path / "u.bin"
    bi_out = tmp_path / "b.bin"
    both = tmp_path / "c.bin"
    for args, out in [((), uni_out)]:
        assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input",
                     str(inp), "--out", str(out)]) == 0
    assert main(["encode", "--ckpt", str(ws["bi"]), "--input", str(inp),
                 "--out", str(bi_out)]) == 0
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2",
                 str(ws["bi"]), "--input", str(inp), "--out",
                 str(both)]) == 0
    u = read_vectors(uni_out)
    b = read_vectors(bi_out)
    c = read_vectors(both)
    assert c.shape[1] == u.shape[1] + b.shape[1]          # 6 + 8
    assert np.array_equal(c[:, :6], u)
    assert np.array_equal(c[:, 6:], b)


def test_encode_lines_concatenates_two_models(ws):
    uni, _ = load_checkpoint(ws["ckpt"])
    bi, _ = load_checkpoint(ws["bi"])
    lines = ["the cat sat .", "a bird flew ."]
    vecs = _encode_lines(lines, [ExpandedLookup(uni), ExpandedLookup(bi)])
    assert vecs.shape == (2, 14)                          # 6 + 2*4
    # Each model's half is exactly what that model alone gives the batch.
    # A batch's rows can differ from encode_text's in the last bits; the
    # oracle test below checks these two lines against it within 1e-12.
    assert np.array_equal(vecs[:, :6], _encode_lines(lines, [ExpandedLookup(uni)]))
    assert np.array_equal(vecs[:, 6:], _encode_lines(lines, [ExpandedLookup(bi)]))


# Lines over native words, mapped words ("puppy", "kitten", also capitalized)
# and unk words ("Mykonos" resolves to neither), including eos-only lines and
# the two lines of test_encode_lines_concatenates_two_models.
ENCODE_WORDS = ("the cat sat on mat . dog ran fast a bird flew home red "
                "puppy kitten Puppy KITTEN Mykonos zeppelin The Cat").split()


def _mixed_lines(n, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["the cat sat .", "a bird flew .", "", "   "]
    while len(lines) < n:
        if len(lines) % 7 == 6:
            lines.append(lines[int(rng.integers(len(lines)))])   # a duplicate
        else:
            k = int(rng.integers(1, 41))
            lines.append(" ".join(rng.choice(ENCODE_WORDS, size=k)))
    return lines[:n]


@pytest.fixture(scope="module")
def lookups(ws, expansion):
    """uni, bi and combine lookups, each without and with an expansion map
    (the map's shape fits both models' 5-dim embeddings)."""
    uni, _ = load_checkpoint(ws["ckpt"])
    bi, _ = load_checkpoint(ws["bi"])
    emap, ext = read_expansion(expansion)
    out = {}
    for mapped in (False, True):
        lk = [ExpandedLookup(m, ext, emap) if mapped else ExpandedLookup(m)
              for m in (uni, bi)]
        tag = "mapped" if mapped else "native"
        out.update({f"uni-{tag}": [lk[0]], f"bi-{tag}": [lk[1]],
                    f"combine-{tag}": lk})
    return out


LOOKUP_KEYS = [f"{v}-{t}" for v in ("uni", "bi", "combine")
               for t in ("native", "mapped")]


@pytest.mark.parametrize("n", [1, 31, 32, 33, 70])
@pytest.mark.parametrize("key", LOOKUP_KEYS)
def test_batched_encoding_matches_one_sentence_oracle(lookups, key, n):
    lines = _mixed_lines(n, seed=n)
    got = _encode_lines(lines, lookups[key])
    one_at_a_time = np.vstack([
        np.concatenate([encode_text(line, lk.model, lk) for lk in lookups[key]])
        for line in lines])
    for want in (reference.encode_lines(lines, lookups[key]), one_at_a_time):
        assert got.shape == want.shape
        # Relative to each row's size, so rows out of input order fail too.
        rel = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
        assert np.all(rel <= 1e-12)


def test_batched_encoding_sees_every_token_source(lookups):
    # The oracle test's lines resolve tokens natively, through the map and
    # to unk alike.
    [lk] = lookups["uni-mapped"]
    sources = {lk.resolve(t)[0] for line in _mixed_lines(70, seed=70)
               for t in corpus.tokenize(line)}
    assert sources == {"native", "mapped", "unk"}


@pytest.mark.parametrize("key", LOOKUP_KEYS)
def test_one_line_encoding_is_bit_equal_to_encode_text(lookups, key):
    for line in _mixed_lines(12, seed=5):
        got = _encode_lines([line], lookups[key])[0]
        want = np.concatenate([encode_text(line, lk.model, lk)
                               for lk in lookups[key]])
        assert np.array_equal(got, want)


# One word 40 times each: a native, a mapped and an unk word.
REPEATED_LINES = [" ".join([w] * 40) for w in ("cat", "puppy", "Mykonos")]


def _chunk_edge_lines(n):
    """REPEATED_LINES, then distinct mixed lines: n distinct lines in all, so
    n = 33 leaves a last chunk of one sentence."""
    mixed = [line for line in dict.fromkeys(_mixed_lines(4 * n, seed=n + 1))
             if line not in REPEATED_LINES]
    return REPEATED_LINES + mixed[:n - len(REPEATED_LINES)]


def _concatenated_encode_text(line, lks):
    return np.concatenate([encode_text(line, lk.model, lk) for lk in lks])


@pytest.mark.parametrize("n", [31, 32, 33])
@pytest.mark.parametrize("key", LOOKUP_KEYS)
def test_row_matrix_encoding_of_repeated_words_matches_oracle(lookups, key, n):
    # The row matrix's distinct rows stand for many steps; each vector still
    # agrees with the unrolled one-sentence oracle, and a line of one
    # repeated word, alone, keeps encode_text's bits.
    lines = _chunk_edge_lines(n)
    got = _encode_lines(lines, lookups[key])
    want = reference.encode_lines(lines, lookups[key])
    rel = np.max(np.abs(got - want), axis=1) / np.max(np.abs(want), axis=1)
    assert np.all(rel <= 1e-12)
    for line in REPEATED_LINES:
        assert np.array_equal(_encode_lines([line], lookups[key])[0],
                              _concatenated_encode_text(line, lookups[key]))


@pytest.mark.parametrize("mode", ["uni", "bi"])
def test_one_line_keeps_encode_text_bits_at_the_benchmark_width(mode):
    # At E=64, H=128 OpenBLAS can sum a product over 2 distinct rows with
    # another kernel than one over a line's 41 rows, so a line encoded alone
    # must multiply its own rows, as encode_text does.
    rng = np.random.default_rng(3)
    model = randomize_params(make_model(vocab_size=50, embed_dim=64,
                                        hidden_dim=128, mode=mode),
                             seed=3, scale=0.1)
    ext = ExternalEmbeddings(tokens=["puppy"], vectors=rng.normal(size=(1, 4)))
    emap = ExpansionMap(W=rng.normal(size=(64, 4)), shared_count=1,
                        residual_rms=0.0)
    lines = ["w7 " * 40, "w3 w4 " * 20, "w9 zeppelin " * 10 + "w9",
             "puppy " * 40, "w5 puppy " * 20]
    for lk in (ExpandedLookup(model), ExpandedLookup(model, ext, emap)):
        for line in lines:
            assert np.array_equal(_encode_lines([line], [lk])[0],
                                  encode_text(line, model, lk)), line


class _ProductRecorder(np.ndarray):
    """A weight matrix that records the row count of every matrix product
    whose right operand it (or its transpose) is."""

    def __array_finalize__(self, obj):
        self.seen = getattr(obj, "seen", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and inputs[-1] is self:
            self.seen.append(inputs[0].shape[0])
        plain = [x.view(np.ndarray) if isinstance(x, _ProductRecorder) else x
                 for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def _recording_input_products(model, seen):
    def rec(W):
        view = W.view(_ProductRecorder)
        view.seen = seen
        return view
    grus = {d: dataclasses.replace(p, W_r=rec(p.W_r), W_z=rec(p.W_z), W=rec(p.W))
            for d, p in (("forward", model.encoder.forward),
                         ("backward", model.encoder.backward)) if p is not None}
    return dataclasses.replace(
        model, encoder=dataclasses.replace(model.encoder, **grus))


@pytest.mark.parametrize("n", [31, 32, 33])
@pytest.mark.parametrize("key", ["uni-native", "uni-mapped", "bi-native",
                                 "bi-mapped"])
def test_input_products_run_over_each_chunks_distinct_rows(lookups, key, n):
    [lk] = lookups[key]
    seen = []
    recorded = ExpandedLookup(_recording_input_products(lk.model, seen),
                              lk.ext, lk.map)
    lines = _chunk_edge_lines(n)
    assert np.array_equal(_encode_lines(lines, [recorded]),
                          _encode_lines(lines, [lk]))
    distinct, _ = _tokenize_distinct(lines)
    assert len(distinct) == n
    order = sorted(distinct, key=len)
    chunks = [order[i:i + vocab_expansion.ENCODE_CHUNK]
              for i in range(0, len(order), vocab_expansion.ENCODE_CHUNK)]
    eos = lk.model.embedding[lk.model.vocab.eos_id]
    per_chunk = 3 * len(lk.model.encoder.directions)
    assert len(seen) == per_chunk * len(chunks)
    for c, chunk in enumerate(chunks):
        steps = sum(len(tokens) + 1 for tokens in chunk)
        vecs = np.vstack([lk.resolve(t)[1] for tokens in chunk for t in tokens]
                         + [eos])
        # A chunk of one sentence multiplies its own rows, as encode_text
        # does; any other chunk each of its distinct rows once.
        want = steps if len(chunk) == 1 else len(np.unique(vecs, axis=0))
        assert seen[c * per_chunk:(c + 1) * per_chunk] == [want] * per_chunk
        assert len(chunk) == 1 or want < steps


def test_encode_lines_of_no_lines_is_empty(lookups):
    assert _encode_lines([], lookups["combine-mapped"]).shape == (0, 14)


def test_batched_encoding_never_gathers_all_rows_at_once():
    import tracemalloc
    model = make_model(vocab_size=2000, embed_dim=64, hidden_dim=128)
    rng = np.random.default_rng(0)
    lines = [" ".join(f"w{i}" for i in rng.integers(2, 2000, size=k))
             for k in rng.integers(15, 31, size=4000)]
    all_rows = sum(len(line.split()) + 1 for line in lines) * 64 * 8
    tracemalloc.start()
    try:
        vecs = _encode_lines(lines, [ExpandedLookup(model)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (4000, 128)
    assert peak < all_rows / 2


# tracemalloc peak of encode_sentences on the input below when each chunk was
# padded row by row and multiplied over all its padded steps (11.9 MiB).  The
# row matrix reads 11.3 MiB, and 15.2 MiB when a chunk's trace outlives its
# pass until the next chunk's has been formed.
PADDED_ENCODE_PEAK = 12_488_232


def test_encode_sentences_peak_memory_stays_at_the_padded_passes():
    import tracemalloc
    model = make_model(vocab_size=2000, embed_dim=64, hidden_dim=128)
    rng = np.random.default_rng(0)
    sentences = [[f"w{i}" for i in rng.integers(2, 2000, size=k)]
                 for k in rng.integers(15, 31, size=4000)]
    tracemalloc.start()
    try:
        vecs = vocab_expansion.encode_sentences(sentences, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vecs.shape == (4000, 128)
    assert peak <= PADDED_ENCODE_PEAK


def test_distinct_lines_share_their_equal_tokens():
    lines = ["the zeppelin sat .", "a zeppelin flew .", "the zeppelin sat ."]
    distinct, where = _tokenize_distinct(lines)
    assert distinct == [corpus.tokenize(lines[0]), corpus.tokenize(lines[1])]
    assert where.tolist() == [0, 1, 0]
    assert distinct[0][1] == "zeppelin" and distinct[0][1] is distinct[1][1]


def test_encode_empty_input_writes_empty_vector_file(ws, tmp_path, capsys):
    inp = tmp_path / "empty.txt"
    inp.write_text("")
    out = tmp_path / "v.bin"
    text = tmp_path / "v.txt"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(ws["bi"]),
                 "--input", str(inp), "--out", str(out),
                 "--text-out", str(text)]) == 0
    assert read_vectors(out).shape == (0, 14)
    assert text.read_text() == ""
    assert json.loads(capsys.readouterr().out) == {"dim": 14, "sentences": 0}


def test_encode_tokenizes_each_distinct_line_once(ws, tmp_path, monkeypatch,
                                                  capsys):
    lines = ["the zeppelin sat .", "a bird flew .", "the zeppelin sat .",
             "the cat sat .", "a bird flew .", "the zeppelin sat ."]
    inp = tmp_path / "in.txt"
    inp.write_text("\n".join(lines) + "\n")
    calls = _record_tokenized_lines(monkeypatch)
    capsys.readouterr()
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(ws["bi"]),
                 "--input", str(inp), "--out", str(tmp_path / "v.bin")]) == 0
    assert sorted(calls) == sorted(set(lines))
    # The warning still counts the OOV token of every repeated line, once
    # per run: the two models share one vocabulary.
    warning = ("warning: 3 out-of-vocabulary token(s) fell back to unk "
               "(no expansion map given)")
    assert capsys.readouterr().err.splitlines() == [warning]


def test_encode_ckpt2_vocab_mismatch_exit_2(ws, tmp_path, capsys):
    vocab = tmp_path / "v10.txt"
    assert main(["build-vocab", "--corpus", str(ws["corpus"]), "--size", "10",
                 "--out", str(vocab)]) == 0
    other = tmp_path / "other.ckpt"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab", str(vocab),
                 "--embed-dim", "5", "--hidden-dim", "4", "--steps", "0",
                 "--out", str(other)]) == 0
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\n")
    capsys.readouterr()
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(other),
                 "--input", str(inp), "--out", str(tmp_path / "v.bin")]) == 2
    assert "different vocabularies" in capsys.readouterr().err
    assert not (tmp_path / "v.bin").exists()


def test_encode_expansion2_without_ckpt2_exit_2(ws, expansion, tmp_path,
                                               capsys):
    # A second map has no second model to expand; the run used to warn that
    # no map was given and still list the map among its manifest's inputs.
    inp = tmp_path / "in.txt"
    inp.write_text("the zeppelin sat .\n")
    capsys.readouterr()
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--expansion2",
                 str(expansion), "--input", str(inp),
                 "--out", str(tmp_path / "v.bin")]) == 2
    assert "--expansion2 needs --ckpt2" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt"]


def test_encode_rerun_byte_identical(ws, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\nthe dog ran .\n")
    blobs = []
    for name in ("1.bin", "2.bin"):
        out = tmp_path / name
        assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input",
                     str(inp), "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_encode_warns_on_oov(ws, tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("the zeppelin sat .\n")
    out = tmp_path / "v.bin"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input", str(inp),
                 "--out", str(out)]) == 0
    assert "out-of-vocabulary" in capsys.readouterr().err


@pytest.mark.parametrize("maps", [[], ["--expansion"], ["--expansion2"],
                                  ["--expansion", "--expansion2"]])
def test_combine_encode_warns_once_with_the_oov_count(ws, expansion, tmp_path,
                                                      capsys, maps):
    # zeppelin, puppy and kitten are not in the vocabulary: 1 + 3 + 1 tokens.
    inp = tmp_path / "in.txt"
    inp.write_text("the zeppelin sat .\nzeppelin puppy kitten\n"
                   "the zeppelin sat .\n")
    argv = ["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(ws["bi"]),
            "--input", str(inp), "--out", str(tmp_path / "v.bin")]
    capsys.readouterr()
    assert main(argv + [a for flag in maps for a in (flag, str(expansion))]) == 0
    warning = ("warning: 5 out-of-vocabulary token(s) fell back to unk "
               "(no expansion map given)")
    want = [] if len(maps) == 2 else [warning]
    assert capsys.readouterr().err.splitlines() == want


# ---------------------------------------------------------------------------
# expand / nn-word / nn-sent
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def expansion(ws):
    rng = np.random.default_rng(0)
    vocab_words = ws["vocab"].read_text().splitlines()[2:]
    extra = ["Mykonos", "puppy", "kitten"]
    words = vocab_words + extra
    emb = ws["root"] / "ext.vec"
    with open(emb, "w") as fh:
        fh.write(f"{len(words)} 4\n")
        for w in words:
            vals = " ".join(f"{v:.6f}" for v in rng.normal(size=4))
            fh.write(f"{w} {vals}\n")
    out = ws["root"] / "uni.map"
    assert main(["expand", "--ckpt", str(ws["ckpt"]), "--embeddings",
                 str(emb), "--out", str(out)]) == 0
    return out


def test_expand_summary(ws, expansion, capsys):
    out2 = ws["root"] / "again.map"
    assert main(["expand", "--ckpt", str(ws["ckpt"]), "--embeddings",
                 str(ws["root"] / "ext.vec"), "--out", str(out2)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["shared_count"] == 22
    assert info["expanded_vocab"] == 25           # 22 shared + 3 new words
    assert out2.read_bytes() == expansion.read_bytes()


@pytest.mark.parametrize("dim", ["0", "-1"])
def test_expand_refuses_a_dimension_below_one_by_exit_2(ws, tmp_path, capsys,
                                                       dim):
    # "2 -1" used to die of an uncaught reshape error (exit 1), and "2 0"
    # wrote a map whose W had no columns.
    emb = tmp_path / "ext.vec"
    emb.write_text(f"2 {dim}\nthe\ncat\n")
    capsys.readouterr()
    assert main(["expand", "--ckpt", str(ws["ckpt"]), "--embeddings",
                 str(emb), "--out", str(tmp_path / "x.map")]) == 2
    assert f"dim must be >= 1, got {dim}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [emb]


def test_nn_word_output_format(ws, expansion, capsys):
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--expansion",
                 str(expansion), "--query", "puppy", "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        tok, sim = line.split("\t")
        assert -1.0 - 1e-9 <= float(sim) <= 1.0 + 1e-9
        assert tok != "puppy"


def test_nn_word_without_expansion(ws, capsys):
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--query", "the",
                 "--k", "2"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_nn_word_leaves_out_the_token_the_query_resolved_to(ws, expansion,
                                                          capsys):
    # "The" resolves to the native "the", which is not its own neighbour.
    for extra in ([], ["--expansion", str(expansion)]):
        assert main(["nn-word", "--ckpt", str(ws["ckpt"]), *extra,
                     "--query", "The", "--k", "50"]) == 0
        toks = [line.split("\t")[0]
                for line in capsys.readouterr().out.splitlines()]
        assert len(toks) == 21 + 3 * bool(extra)       # every other word
        assert "the" not in toks and "The" not in toks


def test_nn_word_lists_a_capitalized_native_word_once(ws, tmp_path, capsys):
    # An external "The" locates to the native "the": it has no row of its
    # own, so it is no candidate.  It used to be ranked first, at similarity
    # 1, as the nearest neighbour of "the".
    rng = np.random.default_rng(1)
    words = ws["vocab"].read_text().splitlines()[2:] + ["The", "Cat", "Zeta"]
    vec = tmp_path / "ext.vec"
    vec.write_text(f"{len(words)} 4\n" + "".join(
        f"{w} {' '.join(f'{v:.6f}' for v in rng.normal(size=4))}\n"
        for w in words))
    xmap = tmp_path / "x.map"
    assert main(["expand", "--ckpt", str(ws["ckpt"]), "--embeddings",
                 str(vec), "--out", str(xmap)]) == 0
    capsys.readouterr()
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--expansion",
                 str(xmap), "--query", "the", "--k", "50"]) == 0
    toks = [line.split("\t")[0] for line in capsys.readouterr().out.splitlines()]
    native = words[:-3]
    assert "the" in native and "cat" in native
    assert sorted(toks) == sorted([w for w in native if w != "the"] + ["Zeta"])


def test_nn_word_with_no_other_word_prints_no_lines(tmp_path, capsys):
    # The vocabulary <eos> <unk> w2 has no word besides the query.  Ranking
    # an empty candidate list used to die of np.vstack([]) (exit 1).
    ckpt = tmp_path / "one.ckpt"
    m = make_model(vocab_size=3, embed_dim=3, hidden_dim=4)
    trainer.save_checkpoint(m, numerics.AdamState.initial(m.param_dict()), ckpt)
    capsys.readouterr()
    assert main(["nn-word", "--ckpt", str(ckpt), "--query", "w2"]) == 0
    assert capsys.readouterr().out == ""


def test_nn_word_unknown_query_exit_2(ws, capsys):
    # A query word found in neither vocabulary is a usage error, not an
    # unk fallback: neighbor lists for unk would be meaningless.
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]),
                 "--query", "zeppelin", "--k", "2"]) == 2
    assert "neither vocabulary" in capsys.readouterr().err


def test_nn_sent_query_ranked_first(ws, tmp_path, capsys):
    bank = tmp_path / "bank.txt"
    bank.write_text("the cat sat .\nthe dog ran .\na bird flew .\n")
    assert main(["nn-sent", "--ckpt", str(ws["ckpt"]), "--bank", str(bank),
                 "--query", "the dog ran .", "--k", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first_sim, first_sent = lines[0].split("\t", 1)
    assert first_sent == "the dog ran ."
    assert abs(float(first_sim) - 1.0) < 1e-6


@pytest.mark.parametrize("k", ["0", "-3"])
@pytest.mark.parametrize("command", ["nn-word", "nn-sent"])
def test_nn_k_below_one_exit_2(tmp_path, capsys, command, k):
    # Rejected before any file is read: the checkpoint is not one, and
    # loading it would exit with code 4.
    ckpt = tmp_path / "not-a.ckpt"
    ckpt.write_bytes(b"garbage")
    bank = tmp_path / "bank.txt"
    bank.write_text("the cat sat .\n")
    extra = ["--bank", str(bank)] if command == "nn-sent" else []
    assert main([command, "--ckpt", str(ckpt), *extra, "--query", "the",
                 "--k", k]) == 2
    captured = capsys.readouterr()
    assert f"--k must be >= 1, got {k}" in captured.err
    assert captured.out == ""


def test_nn_sent_two_models_query_ranked_first(ws, tmp_path, capsys):
    bank = tmp_path / "bank.txt"
    bank.write_text("the cat sat .\nthe dog ran .\na bird flew .\n")
    assert main(["nn-sent", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(ws["bi"]),
                 "--bank", str(bank), "--query", "a bird flew .",
                 "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    first_sim, first_sent = lines[0].split("\t", 1)
    assert first_sent == "a bird flew ."
    assert abs(float(first_sim) - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# eval commands
# ---------------------------------------------------------------------------

def test_eval_sick_degenerate_identical_pairs(ws, tmp_path, capsys):
    # Every pair is (s, s) with gold 5: the probe can only learn the
    # constant; the pearson row degrades to nan and the command still exits 0.
    rows = ["sentence_a\tsentence_b\tscore"]
    for s in ("the cat sat .", "the dog ran .", "a bird flew .",
              "the cat ran away .", "the small dog sat down .",
              "a red bird came back ."):
        rows.append(f"{s}\t{s}\t5.0")
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    train.write_text("\n".join(rows) + "\n")
    test.write_text("\n".join(rows) + "\n")
    out = tmp_path / "sick.csv"
    assert main(["eval-sick", "--ckpt", str(ws["ckpt"]), "--train",
                 str(train), "--test", str(test), "--folds", "3",
                 "--l2-grid", "0.01", "--out", str(out)]) == 0
    text = out.read_text()
    assert "pearson,nan" in text
    mse_row = [r for r in text.splitlines() if ",mse," in r][0]
    assert float(mse_row.rsplit(",", 1)[1]) < 0.5     # predicts near 5


def test_eval_sick_metric_rows(ws, tmp_path, capsys):
    rng = np.random.default_rng(4)
    sents = ["the cat sat .", "the dog ran .", "a bird flew .",
             "the cat ran away .", "a red bird came back .",
             "the big dog went home .", "the bird sat on the cat .",
             "a dog came home fast ."]
    rows = ["sentence_a\tsentence_b\tscore"]
    for _ in range(24):
        a, b = rng.choice(sents, size=2)
        gold = 5.0 if a == b else float(rng.uniform(1, 4))
        rows.append(f"{a}\t{b}\t{gold:.2f}")
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    train.write_text("\n".join(rows[:17]) + "\n")
    test.write_text("\n".join(rows[:1] + rows[17:]) + "\n")
    out = tmp_path / "sick.csv"
    assert main(["eval-sick", "--ckpt", str(ws["ckpt"]), "--train",
                 str(train), "--test", str(test), "--folds", "3",
                 "--l2-grid", "0.01,1.0", "--out", str(out)]) == 0
    text = out.read_text().splitlines()
    assert text[0] == "task,variant,metric,value"
    metrics = {r.split(",")[2] for r in text[1:]}
    assert metrics == {"best_l2", "pearson", "spearman", "mse"}


def test_eval_paraphrase_rows(ws, tmp_path):
    sents = ["the cat sat .", "the dog ran .", "a bird flew .",
             "the cat ran away ."]
    rng = np.random.default_rng(7)
    rows = ["sentence_a\tsentence_b\tlabel"]
    for _ in range(20):
        a = str(rng.choice(sents))
        same = bool(rng.uniform() < 0.5)
        b = a if same else str(rng.choice(sents))
        rows.append(f"{a}\t{b}\t{int(a == b)}")
    train = tmp_path / "train.tsv"
    test = tmp_path / "test.tsv"
    train.write_text("\n".join(rows[:15]) + "\n")
    test.write_text("\n".join(rows[:1] + rows[15:]) + "\n")
    out = tmp_path / "para.csv"
    assert main(["eval-paraphrase", "--ckpt", str(ws["ckpt"]), "--train",
                 str(train), "--test", str(test), "--folds", "3",
                 "--l2-grid", "0.01", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    metrics = {r.split(",")[2] for r in lines[1:]}
    assert metrics == {"best_l2", "accuracy", "f1"}


def _write_eval_rows(tmp_path, command, n) -> list[str]:
    """The data flags of an eval command over files of n data rows."""
    sents = ["the cat sat .", "the dog ran .", "a bird flew ."]
    if command == "eval-classify":
        data = tmp_path / "data.tsv"
        data.write_text("".join(f"c{i % 2}\t{sents[i % 3]}\n"
                                for i in range(n)))
        return ["--data", str(data)]
    gold = ("3.5", "1.5") if command == "eval-sick" else ("1", "0")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("a\tb\tgold\n" + "".join(
        f"{sents[i % 3]}\t{sents[(i + 1) % 3]}\t{gold[i % 2]}\n"
        for i in range(n)))
    return ["--train", str(pairs), "--test", str(pairs)]


def test_eval_classify_refuses_a_class_too_rare_for_nested_folds(ws, tmp_path,
                                                                  capsys):
    # Two samples of a class over 3 folds leave one in some outer training
    # split, which the inner search cannot stratify; the refusal names the
    # class's own count before any fit, and no output is written.
    data, out = tmp_path / "data.tsv", tmp_path / "out.csv"
    data.write_text("".join(f"{label}\tthe cat sat .\n"
                            for label in ["a"] * 10 + ["b"] * 10 + ["c"] * 2))
    assert main(["eval-classify", "--ckpt", str(ws["ckpt"]), "--data",
                 str(data), "--folds", "3", "--out", str(out)]) == 2
    assert "class 2 has 2 sample(s)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("command", ["eval-sick", "eval-paraphrase",
                                     "eval-classify"])
def test_eval_on_too_few_rows_exits_with_a_documented_code(ws, tmp_path,
                                                           capsys, command, n):
    # eval-sick on one training row used to die of an uncaught ValueError
    # (exit 1): the only fold's training set was empty.
    flags = _write_eval_rows(tmp_path, command, n)
    out = tmp_path / "out.csv"
    code = main([command, "--ckpt", str(ws["ckpt"]), *flags,
                 "--l2-grid", "0.01", "--out", str(out)])
    assert code in (0, 2, 3, 4)
    assert out.exists() == (code == 0)


def test_eval_sick_with_default_folds_on_a_small_training_file(ws, tmp_path):
    # 15 rows over the default 10 folds leave folds of one row, whose
    # correlation is undefined; they score 0 instead of exiting 2.
    flags = _write_eval_rows(tmp_path, "eval-sick", 15)
    out = tmp_path / "out.csv"
    assert main(["eval-sick", "--ckpt", str(ws["ckpt"]), *flags,
                 "--l2-grid", "0.01,1.0", "--out", str(out)]) == 0
    metrics = [r.split(",")[2] for r in out.read_text().splitlines()[1:]]
    assert metrics == ["best_l2", "pearson", "spearman", "mse"]


@pytest.mark.parametrize("label", ["0.5", "nan", "inf"])
def test_eval_paraphrase_refuses_a_label_that_is_not_an_integer(
        ws, tmp_path, capsys, label):
    # 0.5 used to be read as class 0 and nan as class -2**63.
    rows = ["a\tb\tlabel"] + [f"the cat sat .\tthe dog ran .\t{y}"
                               for y in ("0", "1") * 3 + (label,)]
    data = tmp_path / "pairs.tsv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "para.csv"
    capsys.readouterr()
    assert main(["eval-paraphrase", "--ckpt", str(ws["ckpt"]), "--train",
                 str(data), "--test", str(data), "--folds", "2",
                 "--out", str(out)]) == 2
    assert "paraphrase labels must be integers" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid", ["nan", "inf", "-1", "0.1,nan"])
@pytest.mark.parametrize("command", ["eval-sick", "eval-classify"])
def test_eval_refuses_an_l2_grid_value_it_cannot_fit_by_exit_2(
        ws, tmp_path, capsys, command, grid):
    # --l2-grid nan used to report chance accuracy with best_l2,nan.
    flags = _write_eval_rows(tmp_path, command, 3)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    assert main([command, "--ckpt", str(ws["ckpt"]), *flags, "--folds", "2",
                 "--l2-grid", grid, "--out", str(out)]) == 2
    assert "--l2-grid values must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_eval_classify_nested_cv(ws, tmp_path):
    rng = np.random.default_rng(9)
    rows = []
    for _ in range(24):
        lab = int(rng.integers(0, 2))
        lead = "cat" if lab else "dog"
        rows.append(f"c{lab}\tthe {lead} sat on the mat .")
    data = tmp_path / "cls.tsv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cls.csv"
    assert main(["eval-classify", "--ckpt", str(ws["ckpt"]), "--data",
                 str(data), "--folds", "4", "--l2-grid", "0.01,1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    metrics = [r.split(",")[2] for r in lines[1:]]
    assert "accuracy" in metrics and "best_l2" in metrics
    assert sum(m.startswith("fold") for m in metrics) == 4


def test_eval_classify_reports_only_the_non_empty_folds(ws, tmp_path):
    # 5 + 4 rows over 10 folds: fold ids 5..9 hold no row.
    rows = ["c1\tthe cat sat on the mat ."] * 5 + ["c0\tthe dog ran fast ."] * 4
    data = tmp_path / "cls.tsv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cls.csv"
    assert main(["eval-classify", "--ckpt", str(ws["ckpt"]), "--data",
                 str(data), "--folds", "10", "--l2-grid", "0.1,1.0",
                 "--out", str(out)]) == 0
    metrics = [r.split(",")[2] for r in out.read_text().splitlines()[1:]]
    assert metrics == ["accuracy", "best_l2"] + [f"fold{f}_accuracy"
                                                 for f in range(5)]


def test_eval_rank_identity_case(ws, tmp_path, capsys):
    caps = tmp_path / "caps.txt"
    caps.write_text("".join(f"the cat sat {w} .\n" for w in
                            ("on", "down", "fast", "away", "home", "back",
                             "up", "the", "a", "mat")))
    vec = tmp_path / "caps.bin"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input", str(caps),
                 "--out", str(vec)]) == 0
    out = tmp_path / "rank.csv"
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images",
                 str(vec), "--captions", str(caps), "--group-size", "1",
                 "--train-items", "4", "--dev-items", "3", "--embed-dim",
                 "6", "--k-contrastive", "2", "--epochs", "0", "--init",
                 "identity", "--out", str(out)]) == 0
    text = out.read_text()
    assert "annotation-test,R@1,100" in text
    assert "search-test,medr,1" in text


def test_eval_rank_trains_and_reports(ws, tmp_path, capsys):
    rng = np.random.default_rng(3)
    n = 24
    caps = tmp_path / "caps.txt"
    sents = ["the cat sat .", "the dog ran .", "a bird flew .",
             "the cat ran away .", "the small dog sat down .",
             "a red bird came back .", "the fast cat flew up .",
             "the big dog went home ."]
    caps.write_text("".join(sents[i % len(sents)] + "\n" for i in range(n)))
    img = tmp_path / "img.bin"
    from skipgru.fileio import write_vectors
    write_vectors(img, rng.normal(size=(n, 7)))
    out = tmp_path / "rank.csv"
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images",
                 str(img), "--captions", str(caps), "--group-size", "1",
                 "--train-items", "12", "--dev-items", "6", "--embed-dim",
                 "5", "--k-contrastive", "3", "--batch", "12", "--epochs",
                 "2", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    names = {tuple(r.split(",")[1:3]) for r in lines[1:]}
    for d in ("annotation-test", "search-test"):
        for metric in ("R@1", "R@5", "R@10", "medr"):
            assert (d, metric) in names


@pytest.mark.parametrize("flag", ["--train-items", "--dev-items", "--epochs"])
def test_eval_rank_negative_item_count_exit_2(ws, tmp_path, capsys, flag):
    # A negative item count would make the test split start from the end;
    # a negative epoch count would skip training and exit 0.
    caps = tmp_path / "caps.txt"
    caps.write_text("".join(f"the cat sat {w} .\n" for w in
                            ("on", "down", "fast", "away", "home", "back")))
    vec = tmp_path / "caps.bin"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input", str(caps),
                 "--out", str(vec)]) == 0
    capsys.readouterr()
    counts = {"--train-items": "0", "--dev-items": "0", "--epochs": "0",
              flag: "-4"}
    out = tmp_path / "rank.csv"
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images",
                 str(vec), "--captions", str(caps), "--group-size", "1",
                 *[x for kv in counts.items() for x in kv], "--embed-dim",
                 "6", "--init", "identity",
                 "--out", str(out)]) == 2
    assert f"{flag} must be >= 0, got -4" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "-1"), ("--lr", "inf"), ("--batch", "0")])
def test_eval_rank_refuses_a_setting_it_cannot_train_by_exit_2(
        ws, tmp_path, capsys, flag, value):
    # With the default --train-items 0 nothing trains, and these values used
    # to exit 0 with a metrics CSV and a manifest.  Each is refused by the
    # ranker's training config before any work.
    caps = tmp_path / "caps.txt"
    caps.write_text("".join(f"the cat sat {w} .\n" for w in
                            ("on", "down", "fast", "away")))
    img = tmp_path / "img.bin"
    write_vectors(img, np.ones((4, 3)))
    out = tmp_path / "rank.csv"
    capsys.readouterr()
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images", str(img),
                 "--captions", str(caps), "--group-size", "1",
                 "--embed-dim", "3", "--out", str(out), flag, value]) == 2
    message = {"--lr": "learning_rate must be finite and positive",
               "--batch": "batch_size 0 must exceed k_contrastive 50"}[flag]
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["caps.txt", "img.bin"]


@pytest.mark.parametrize("flags,message", [
    (["--batch", "20", "--k-contrastive", "20"],
     "batch_size 20 must exceed k_contrastive 20"),
    (["--alpha", "0"], "alpha must be finite and positive, got 0.0"),
    (["--k-contrastive", "0"], "k_contrastive must be >= 1, got 0"),
    (["--train-items", "50", "--dev-items", "20"],
     "train (50) + dev (20) items exceed the 60 available"),
    (["--train-items", "5", "--k-contrastive", "5", "--batch", "10"],
     "training needs more than k_contrastive 5 pairs, got 5"),
    (["--init", "identity"], "--init identity needs image, sentence, and "
                             "embedding dims to be equal")],
    ids=["batch-not-above-k", "alpha", "k", "items", "pairs", "identity"])
def test_eval_rank_checks_every_setting_before_it_encodes_a_caption(
        ws, tmp_path, capsys, monkeypatch, flags, message):
    # A batch or a training set of at most k pairs used to train no step,
    # print "mean loss 0.0000" for each epoch and exit 0; the other settings
    # exited 2 only after all 60 captions had been encoded.
    caps = tmp_path / "caps.txt"
    caps.write_text("".join(f"the cat sat {i} .\n" for i in range(60)))
    img = tmp_path / "img.bin"
    write_vectors(img, np.random.default_rng(0).normal(size=(60, 3)))
    calls = []
    monkeypatch.setattr(cli, "_encode_lines", lambda *a: calls.append(a))
    out = tmp_path / "rank.csv"
    capsys.readouterr()
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images", str(img),
                 "--captions", str(caps), "--group-size", "1",
                 "--train-items", "30", "--dev-items", "10", "--embed-dim",
                 "3", "--k-contrastive", "5", "--batch", "10", "--epochs",
                 "2", "--out", str(out), *flags]) == 2
    assert message in capsys.readouterr().err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["caps.txt", "img.bin"]


@pytest.mark.parametrize("damage", ["nan", "inf", "odd_length"])
def test_eval_rank_refuses_a_malformed_image_file_by_exit_2(ws, tmp_path,
                                                           capsys, damage):
    # A NaN feature used to give Recall@K from NaN scores with exit 0, and a
    # body that is not whole floats an uncaught ValueError (exit 1).
    caps = tmp_path / "caps.txt"
    caps.write_text("".join(f"the cat sat {w} .\n" for w in
                            ("on", "down", "fast", "away")))
    images = np.ones((4, 3))
    if damage != "odd_length":
        images[1, 2] = float(damage)
    img = tmp_path / "img.bin"
    write_vectors(img, images)
    if damage == "odd_length":
        img.write_bytes(img.read_bytes() + b"\x00\x00")
    out = tmp_path / "rank.csv"
    capsys.readouterr()
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images", str(img),
                 "--captions", str(caps), "--group-size", "1", "--epochs", "0",
                 "--embed-dim", "3", "--out", str(out)]) == 2
    assert str(img) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("header", [(4, 0), (0, 4)],
                         ids=["dim_zero", "no_images"])
def test_eval_rank_refuses_an_image_file_without_entries_by_exit_2(
        ws, tmp_path, capsys, header):
    # A dim of 0 used to exit 3 on a zero-norm image, and no images exited 0
    # with NaN metrics.
    img = tmp_path / "img.bin"
    img.write_bytes(struct.pack("<II", *header))
    caps = tmp_path / "caps.txt"
    caps.write_text("the cat sat .\n" * header[0])
    out = tmp_path / "rank.csv"
    capsys.readouterr()
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images", str(img),
                 "--captions", str(caps), "--group-size", "1", "--epochs", "0",
                 "--embed-dim", "3", "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_requested_count(ws, capsys):
    # Sampled sentences may be empty (eos drawn first), so count printed
    # lines rather than stripping blanks.
    assert main(["generate", "--ckpt", str(ws["ckpt"]), "--seed-sentence",
                 "the cat sat .", "--sentences", "1", "--seed", "2",
                 "--max-len", "8"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_generate_seeded_reproducible(ws, capsys):
    args = ["generate", "--ckpt", str(ws["ckpt"]), "--seed-sentence",
            "the dog ran .", "--sentences", "3", "--seed", "11",
            "--max-len", "10"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    assert len(first.splitlines()) == 3


def test_generate_greedy_mode(ws, capsys):
    assert main(["generate", "--ckpt", str(ws["ckpt"]), "--seed-sentence",
                 "the cat sat .", "--sentences", "2", "--temperature", "0",
                 "--seed", "0", "--max-len", "6"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_generate_at_a_vanishing_temperature_is_greedy(capsys):
    # 1e-320 is subnormal: logits over it overflow to inf, and the top one
    # minus itself would be nan.  The sampler shifts first, so every other
    # word gets probability 0 and the draw is the argmax.
    args = ["generate", "--ckpt", str(DATA / "tiny.ckpt"), "--seed-sentence",
            "hello", "--sentences", "2", "--max-len", "6", "--seed", "5"]
    assert main(args + ["--temperature", "0"]) == 0
    greedy = capsys.readouterr().out
    assert main(args + ["--temperature", "1e-320"]) == 0
    out = capsys.readouterr()
    assert out.out == greedy and len(greedy.splitlines()) == 2
    assert out.err == ""


def test_generate_at_a_nan_temperature_exit_2(tmp_path, capsys):
    manifest = tmp_path / "g.manifest.json"
    assert main(["generate", "--ckpt", str(DATA / "tiny.ckpt"),
                 "--seed-sentence", "hello", "--sentences", "2",
                 "--temperature", "nan", "--manifest", str(manifest)]) == 2
    out = capsys.readouterr()
    assert "temperature must be >= 0, got nan" in out.err
    assert out.out == ""
    assert list(tmp_path.iterdir()) == []


def test_path_like_arguments_are_taken_as_their_strings(ws, tmp_path,
                                                        capsys):
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("k = 2\n")
    args = ["nn-word", "--ckpt", ws["ckpt"], "--query", "the"]
    assert main([str(a) for a in args]) == 0
    want = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == want
    assert main(args + ["--config", cfg]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


# ---------------------------------------------------------------------------
# config files, manifests, exit codes
# ---------------------------------------------------------------------------

def test_config_file_supplies_required_args(ws, tmp_path, capsys):
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("query = the\nk = 2\n")
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--config",
                 str(cfg)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 2


def test_config_file_flags_override(ws, tmp_path, capsys):
    cfg = tmp_path / "nn.cfg"
    cfg.write_text("query = the\nk = 2\n")
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--config", str(cfg),
                 "--k", "4"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4


def test_config_file_unknown_key_exit_2(ws, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--config", str(cfg),
                 "--query", "the"]) == 2


def test_config_value_outside_choices_exit_2(ws, tmp_path, capsys):
    cfg = tmp_path / "rank.cfg"
    cfg.write_text("init = bogus\n")
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images", "x.bin",
                 "--captions", "x.txt", "--config", str(cfg)]) == 2
    assert "'init'" in capsys.readouterr().err


def test_config_boolean_must_be_a_known_spelling(ws, tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("resume = maybe\n")
    out = tmp_path / "m.ckpt"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--steps", "1", "--out", str(out),
                 "--config", str(cfg)]) == 2
    assert "'resume'" in capsys.readouterr().err
    assert not out.exists()


def test_config_given_twice_exit_2(ws, tmp_path, capsys):
    a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    a.write_text("query = the\n")
    b.write_text("query = cat\n")
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--config", str(a),
                 f"--config={b}"]) == 2
    assert "--config" in capsys.readouterr().err
    # An abbreviated --config would name a file that is never applied.
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--conf", str(a),
                 "--query", "the"]) == 2


def test_config_key_set_twice_exit_2(ws, tmp_path, capsys):
    # The last value used to win: this file ran nn-sent with k = 2.
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("k = 3\nquery = the cat\nk = 2\n")
    assert main(["nn-sent", "--ckpt", str(ws["ckpt"]), "--bank",
                 str(ws["corpus"]), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "'k'" in err and f"{cfg}:3" in err


def test_config_valid_choice_and_boolean_apply(ws, tmp_path):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("mode = bi\nresume = off\nembed-dim = 4\nhidden-dim = 3\n"
                   "batch = 4\nsteps = 1\n")
    out = tmp_path / "bi.ckpt"
    assert main(["train", "--corpus", str(ws["corpus"]), "--vocab",
                 str(ws["vocab"]), "--out", str(out), "--config",
                 str(cfg)]) == 0
    model, opt = load_checkpoint(out)
    assert model.config.mode == "bi" and opt.step == 1


def test_manifest_written(ws, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\n")
    out = tmp_path / "v.bin"
    manifest = tmp_path / "m.json"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input", str(inp),
                 "--out", str(out), "--manifest", str(manifest)]) == 0
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "encode"
    assert str(inp) in doc["inputs"] or inp.name in doc["inputs"]
    digests = list(doc["inputs"].values())
    assert all(len(d) == 64 for d in digests)
    assert doc["outputs"] == [str(out)]


def test_commands_without_output_write_no_file(ws, expansion, tmp_path,
                                               monkeypatch, capsys):
    bank = ws["root"] / "nn-bank.txt"
    bank.write_text("the cat sat .\nthe dog ran .\n")
    monkeypatch.chdir(tmp_path)
    ckpt = ["--ckpt", str(ws["ckpt"])]
    assert main(["nn-word", *ckpt, "--expansion", str(expansion),
                 "--query", "the", "--k", "2"]) == 0
    assert main(["nn-sent", *ckpt, "--bank", str(bank), "--query",
                 "the cat sat .", "--k", "1"]) == 0
    assert main(["generate", *ckpt, "--seed-sentence", "the cat sat .",
                 "--sentences", "1", "--seed", "0", "--max-len", "4"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert list(tmp_path.iterdir()) == []


def test_corrupt_checkpoint_exit_4(ws, tmp_path):
    bad = tmp_path / "bad.ckpt"
    blob = bytearray(ws["ckpt"].read_bytes())
    blob[-3] ^= 0xFF
    bad.write_bytes(bytes(blob))
    assert main(["nn-word", "--ckpt", str(bad), "--query", "the",
                 "--k", "2"]) == 4


@pytest.mark.parametrize("case", sorted(MISMATCHED_HEADERS))
def test_checkpoint_header_at_odds_with_its_config_exit_4(tmp_path, capsys,
                                                          case):
    # A header config of hidden_dim 5 over arrays of H = 4 used to load and
    # encode with exit 0, and an emb one column too wide, or a vocabulary list
    # one token short, exited 2.
    ckpt = tmp_path / "c.ckpt"
    write_mismatched_checkpoint(ckpt, MISMATCHED_HEADERS[case])
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\n")
    out = tmp_path / "v.bin"
    assert main(["encode", "--ckpt", str(ckpt), "--input", str(inp),
                 "--out", str(out)]) == 4
    assert "malformed checkpoint header" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "in.txt"]


def _assert_encode_refuses(tmp_path, capsys, kind, edit):
    """encode over a checkpoint and a map, one of them (`kind`) with its
    header changed by `edit`, exits 4 and writes no vectors and no manifest."""
    ckpt, xmap = tmp_path / "c.ckpt", tmp_path / "x.map"
    m = make_model(vocab_size=6, embed_dim=3, hidden_dim=4)
    trainer.save_checkpoint(m, numerics.AdamState.initial(m.param_dict()), ckpt)
    write_small_map(xmap)
    if kind == "checkpoint":
        write_mismatched_checkpoint(ckpt, edit)
    else:
        edit_header(xmap, edit)
    inp = tmp_path / "in.txt"
    inp.write_text("w2 x4 .\n")
    assert main(["encode", "--ckpt", str(ckpt), "--expansion", str(xmap),
                 "--input", str(inp), "--out", str(tmp_path / "v.bin"),
                 "--manifest", str(tmp_path / "m.json")]) == 4
    assert f"malformed {kind} header" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ckpt", "in.txt",
                                                          "x.map"]


@pytest.mark.parametrize(
    "kind,key", [("checkpoint", k) for k in sorted(CHECKPOINT_FIELD_TYPES)]
    + [("expansion-map", k) for k in sorted(EXPANSION_FIELD_TYPES)])
def test_header_field_of_another_type_exit_4(tmp_path, capsys, kind, key):
    # Each of these files used to load, and encode exited 0.
    types = (CHECKPOINT_FIELD_TYPES if kind == "checkpoint"
             else EXPANSION_FIELD_TYPES)
    _assert_encode_refuses(tmp_path, capsys, kind, retyped(key, types[key]))


@pytest.mark.parametrize(
    "kind,case", [("checkpoint", k) for k in sorted(CHECKPOINT_KEY_EDITS)]
    + [("expansion-map", k) for k in sorted(EXPANSION_KEY_EDITS)])
def test_header_key_set_other_than_the_format_exit_4(tmp_path, capsys, kind,
                                                     case):
    # A dropped config key with a default, or an unknown top-level, adam or
    # map key, used to load, and encode exited 0.
    edits = (CHECKPOINT_KEY_EDITS if kind == "checkpoint"
             else EXPANSION_KEY_EDITS)
    _assert_encode_refuses(tmp_path, capsys, kind, edits[case])


def test_negative_adam_step_exit_4(tmp_path, capsys):
    _assert_encode_refuses(tmp_path, capsys, "checkpoint",
                           retyped("adam.step", -3))


def _sha256(path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def test_manifest_digests_are_those_of_the_files(ws, expansion, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\n")
    manifest = tmp_path / "m.json"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--expansion",
                 str(expansion), "--input", str(inp), "--out",
                 str(tmp_path / "v.bin"), "--manifest", str(manifest)]) == 0
    inputs = json.loads(manifest.read_text())["inputs"]
    assert inputs == {str(p): _sha256(p) for p in (inp, ws["ckpt"], expansion)}


def test_manifest_digest_follows_a_rewritten_checkpoint(ws, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\n")
    ckpt = tmp_path / "m.ckpt"
    manifest = tmp_path / "m.json"
    seen = []
    for source in (ws["ckpt"], ws["bi"]):
        trainer.save_checkpoint(*load_checkpoint(source), ckpt)
        assert main(["encode", "--ckpt", str(ckpt), "--input", str(inp),
                     "--out", str(tmp_path / "v.bin"), "--manifest",
                     str(manifest)]) == 0
        seen.append(json.loads(manifest.read_text())["inputs"][str(ckpt)])
        assert seen[-1] == _sha256(ckpt)
    assert seen[0] != seen[1]


def test_encode_same_checkpoint_twice(ws, tmp_path):
    inp = tmp_path / "in.txt"
    inp.write_text("the cat sat .\na bird flew .\n")
    one, two = tmp_path / "one.bin", tmp_path / "two.bin"
    manifest = tmp_path / "m.json"
    ckpt = str(ws["ckpt"])
    assert main(["encode", "--ckpt", ckpt, "--input", str(inp),
                 "--out", str(one)]) == 0
    assert main(["encode", "--ckpt", ckpt, "--ckpt2", ckpt, "--input",
                 str(inp), "--out", str(two), "--manifest",
                 str(manifest)]) == 0
    assert np.array_equal(read_vectors(two), np.hstack([read_vectors(one)] * 2))
    inputs = json.loads(manifest.read_text())["inputs"]
    assert inputs[ckpt] == _sha256(ckpt)


def _damaged_moments(ckpt, tmp_path):
    """Copies of ckpt with one byte of the Adam moments flipped, and with the
    file cut inside them; the parameters are intact in both."""
    good = ckpt.read_bytes()
    flipped = bytearray(good)
    flipped[-40] ^= 0x01                 # second moments, last blob
    flipped_path, cut_path = tmp_path / "flip.ckpt", tmp_path / "cut.ckpt"
    flipped_path.write_bytes(bytes(flipped))
    cut_path.write_bytes(good[:-100])
    return flipped_path, cut_path


def test_damaged_moments_exit_4(ws, tmp_path, capsys):
    inp = tmp_path / "in.txt"
    inp.write_text("c0\tthe cat sat .\nc1\tthe dog ran .\n")
    for bad in _damaged_moments(ws["ckpt"], tmp_path):
        out = tmp_path / "out"
        assert main(["encode", "--ckpt", str(bad), "--input", str(inp),
                     "--out", str(out)]) == 4
        assert main(["eval-classify", "--ckpt", str(bad), "--data", str(inp),
                     "--folds", "2", "--out", str(out)]) == 4
        assert main(["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(bad),
                     "--input", str(inp), "--out", str(out)]) == 4
        assert not out.exists()
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 3
        assert all(e.startswith(f"i/o error: {bad}: checkpoint ")
                   for e in errors)


def test_only_resumed_training_loads_the_adam_moments():
    # Inference builds the parameters alone (trainer.load_model); the moments
    # are for train --resume.
    tree = ast.parse(pathlib.Path(skipgru.cli.__file__).read_text("utf-8"))
    callers = set()
    for func in ast.walk(tree):
        if isinstance(func, ast.FunctionDef):
            for node in ast.walk(func):
                if (isinstance(node, ast.Attribute)
                        and node.attr == "load_checkpoint"
                        or isinstance(node, ast.Name)
                        and node.id == "load_checkpoint"):
                    callers.add(func.name)
    assert callers == {"cmd_train"}
    assert not any(isinstance(node, ast.ImportFrom)
                   and any(a.name == "load_checkpoint" for a in node.names)
                   for node in ast.walk(tree))


def test_missing_required_flag_raises_usage_exit(ws):
    with pytest.raises(SystemExit) as exc:
        main(["nn-word", "--ckpt", str(ws["ckpt"])])
    assert exc.value.code == 2


# The exit code of each package error: 2 usage, 3 numeric, 4 file.
ERROR_EXIT_CODES = {"ShapeError": 2, "ParameterError": 2, "InputError": 2,
                    "RangeError": 2, "ConfigError": 2, "StateError": 2,
                    "NumericError": 3, "ConvergenceError": 3, "MetricError": 3,
                    "CheckpointError": 4}


@pytest.mark.parametrize("name", ERROR_EXIT_CODES)
def test_every_package_error_exits_with_its_code(ws, monkeypatch, capsys, name):
    assert sorted(cls.__name__ for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, errors.SkipGruError)
                  and cls is not errors.SkipGruError) == sorted(ERROR_EXIT_CODES)

    def fail(args):
        raise getattr(errors, name)("planted")
    monkeypatch.setattr(cli, "_load_models", fail)
    capsys.readouterr()
    assert main(["nn-word", "--ckpt", str(ws["ckpt"]), "--query", "the"]) == \
        ERROR_EXIT_CODES[name]
    assert capsys.readouterr().err.endswith("error: planted\n")
