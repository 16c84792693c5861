"""End-to-end command surface: every subcommand, exit codes, config files,
manifests, and byte-level determinism of produced artifacts.

All invocations run in-process through main(argv) so coverage and speed stay
reasonable; SystemExit from argparse is asserted where flags are invalid.
"""

import ast
import hashlib
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
from conftest import make_model
from skipgru import corpus, trainer, vocab_expansion
from skipgru.cli import _encode_lines, _tokenize_distinct, main
from skipgru.fileio import read_vectors
from skipgru.trainer import METRICS_HEADER, load_checkpoint
from skipgru.vocab_expansion import ExpandedLookup, encode_text, read_expansion

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


def test_importing_the_cli_loads_no_optimizer_or_linalg():
    # Only the probes need scipy.optimize and only training needs
    # scipy.linalg; both are imported on first use, not at start-up.
    src = str(pathlib.Path(skipgru.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, skipgru.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.linalg') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_vocab_tokenizes_each_sentence_once(ws, tmp_path, monkeypatch):
    calls = []
    real = corpus.tokenize

    def tokenize(text):
        calls.append(text)
        return real(text)
    monkeypatch.setattr(corpus, "tokenize", tokenize)
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
    calls = []

    def counting(binding):
        def tokenize(text):
            calls.append(text)
            return binding(text)
        return tokenize
    monkeypatch.setattr(corpus, "tokenize", counting(corpus.tokenize))
    monkeypatch.setattr(vocab_expansion, "tokenize",
                        counting(vocab_expansion.tokenize))
    capsys.readouterr()
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--ckpt2", str(ws["bi"]),
                 "--input", str(inp), "--out", str(tmp_path / "v.bin")]) == 0
    assert sorted(calls) == sorted(set(lines))
    # The warning still counts the OOV token of every repeated line, once
    # per model without a map.
    warning = ("warning: 3 out-of-vocabulary token(s) fell back to unk "
               "(no expansion map given)")
    assert capsys.readouterr().err.splitlines() == [warning, warning]


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


@pytest.mark.parametrize("flag", ["--train-items", "--dev-items"])
def test_eval_rank_negative_item_count_exit_2(ws, tmp_path, capsys, flag):
    # A negative count would make the test split start from the end.
    caps = tmp_path / "caps.txt"
    caps.write_text("".join(f"the cat sat {w} .\n" for w in
                            ("on", "down", "fast", "away", "home", "back")))
    vec = tmp_path / "caps.bin"
    assert main(["encode", "--ckpt", str(ws["ckpt"]), "--input", str(caps),
                 "--out", str(vec)]) == 0
    capsys.readouterr()
    counts = {"--train-items": "0", "--dev-items": "0", flag: "-4"}
    out = tmp_path / "rank.csv"
    assert main(["eval-rank", "--ckpt", str(ws["ckpt"]), "--images",
                 str(vec), "--captions", str(caps), "--group-size", "1",
                 *[x for kv in counts.items() for x in kv], "--embed-dim",
                 "6", "--epochs", "0", "--init", "identity",
                 "--out", str(out)]) == 2
    assert f"{flag} must be >= 0, got -4" in capsys.readouterr().err
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
