"""Output digests: the SHA-256 of every file that tiny runs and one stage-CLI
sequence write, against `tests/golden/digests.json`.

Any shift of a reported value, a checkpoint byte or a record fails here.
The bytes depend on the float kernels as well as on the code: OpenBLAS picks
its kernel by CPU at run time and numpy its exp, log and sqrt loops by SIMD
level. So the golden file holds one entry per platform key, and on a key
without an entry each case skips with the key and the digests it computed in
the reason; it never passes without comparing. A deliberate value shift
rewrites the current key's entry:

    PYTHONPATH=src python tests/test_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from natmu import cli
from natmu.runner import openblas_core

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"

RUN = """
[dataset]
kind = synth
k = 4
per_class = 20
test_per_class = 8
height = 4
width = 4
channels = 1
spread = 0.5

[pretrain]
epochs = 2
batch_size = 16
base_lr = 0.002
weight_decay = 0.0005

[unlearn]
epochs = 1
batch_size = 16
base_lr = 0.003

[forget]
mode = random
ratio = 0.1

[run]
seeds = 1,2
methods = retrain,amnesiac,badteacher,neggrad,natmu

[method.natmu]
n = 3

[method.neggrad]
ascent_coefficient = 0.2
"""

# case -> the RUN lines it replaces
RUNS = {
    "run-random": {},
    # sub-class forgetting under a superclass map, on SGD; 2 superclasses leave n = 1
    "run-class": {"spread = 0.5": "spread = 0.5\nsuperclass_map = 0,0,1,1",
                  "weight_decay = 0.0005": "weight_decay = 0.0005\noptimizer = sgd",
                  "base_lr = 0.003": "base_lr = 0.003\noptimizer = sgd",
                  "mode = random\nratio = 0.1": "mode = class\nclass_index = 1\nscope = sub",
                  "n = 3": "n = 1"},
    "run-difficult": {"k = 4": "k = 3", "mode = random": "mode = difficult",
                      "n = 3": "n = 2"},
}
METHODS = ("retrain", "amnesiac", "badteacher", "neggrad", "natmu")


def _run(work: Path, case: str) -> None:
    text = RUN
    for old, new in RUNS[case].items():
        assert old in text, (case, old)
        text = text.replace(old, new)
    (work / "exp.cfg").write_text(text)
    assert cli.main(["run", "--config", str(work / "exp.cfg"),
                     "--out-dir", str(work / "out")]) == 0


def _stages(work: Path) -> None:
    """Difficult-mode forgetting through every stage command over UDS files."""
    def natmu(*argv):
        assert cli.main(list(argv)) == 0, argv

    out = work / "out"
    out.mkdir()
    for split, per_class in (("train", "20"), ("test", "8")):
        natmu("dataset", "synth", "--out", str(out / f"{split}.uds"), "--k", "3",
              "--per-class", per_class, "--height", "4", "--width", "4",
              "--seed", "7", "--split", split)
    text = (f"[dataset]\nkind = uds\ntrain_path = {out / 'train.uds'}\n"
            f"test_path = {out / 'test.uds'}\n\n" + RUN[RUN.index("[pretrain]"):])
    (work / "exp.cfg").write_text(text.replace("mode = random", "mode = difficult")
                                  .replace("n = 3", "n = 2"))
    common = ("--config", str(work / "exp.cfg"), "--seed", "2")
    original = str(out / "original.nmu")
    natmu("pretrain", *common, "--out", original, "--trace", str(out / "trace.json"))
    natmu("build", *common, "--model", original, "--out", str(out / "finetune.uds"),
          "--provenance", str(out / "prov.jsonl"))
    for method in METHODS:
        natmu("unlearn", *common, "--method", method, "--model", original,
              "--out", str(out / f"{method}.nmu"))
    for method in METHODS:
        natmu("evaluate", *common, "--method", method, "--model", str(out / f"{method}.nmu"),
              "--retrain", str(out / "retrain.nmu"), "--out", str(out / f"report_{method}.csv"),
              "--hist-prefix", str(out / f"hist_{method}"), "--hist-bins", "5")


CASES = (*RUNS, "stages-difficult")


def digests(work: Path, case: str) -> dict:
    """SHA-256 of every file `case` writes under `work/out`, by relative path.
    A manifest is hashed without `wall_clock`, `jobs` and `environment`,
    which describe the host and not the result."""
    if case == "stages-difficult":
        _stages(work)
    else:
        _run(work, case)
    out = {}
    for path in sorted((work / "out").rglob("*")):
        if path.is_file():
            blob = path.read_bytes()
            if path.name == "manifest.json":
                manifest = json.loads(blob)
                del manifest["wall_clock"], manifest["jobs"], manifest["environment"]
                blob = json.dumps(manifest, sort_keys=True).encode()
            out[path.relative_to(work / "out").as_posix()] = hashlib.sha256(blob).hexdigest()
    return out


def platform_key() -> str:
    """What the bytes depend on besides the code: numpy's version, the
    OpenBLAS kernel and the SIMD extensions numpy found on this CPU."""
    try:
        simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy before 1.26 prints only
        simd = None
    return json.dumps({"numpy": np.__version__, "openblas_core": openblas_core(),
                       "simd": simd}, sort_keys=True)


@pytest.mark.parametrize("case", CASES)
def test_output_digests(tmp_path, case):
    key = platform_key()
    got = digests(tmp_path, case)
    golden = json.loads(GOLDEN.read_text()).get(key)
    if golden is None:
        pytest.skip(f"no digests for platform {key}; {case} wrote {json.dumps(got)}")
    assert got == golden[case]


def main() -> None:
    """Write the current platform's digests into the golden file."""
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    entry = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            entry[case] = digests(Path(tmp), case)
    table[platform_key()] = entry
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, entry.values()))} digests for {platform_key()} to {GOLDEN}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
