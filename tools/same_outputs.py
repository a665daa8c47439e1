#!/usr/bin/env python3
"""Check that the working tree's `src` writes the same bytes as a commit's.

    python tools/same_outputs.py <git-rev>

Unpacks `git archive <git-rev> src` into a temporary directory and runs one
protocol with each `src` on the PYTHONPATH, BLAS threads set to 1:

  - a 30-step BDF2 `fpsi run` of the pressure pulse on channel:16
    (K = 1e-5) with VTK output every 10 steps, the first step's matrix
    dump and a checkpoint of the final state; its LUs are factored at
    steps 1 and 2 and reused after that;
  - a 10-step BDF1 `fpsi run` of the same pulse at K = 5e-13 with no VTK
    output, whose stiff slip term makes the system refactor on every step,
    so the fresh-LU path is compared on every step;
  - a BDF1 `fpsi run` on channel:4 (K = 1e-5) under an inlet pulse of 1e8,
    whose first step inverts a cell: its exit code and stderr, the step
    failure's report, are written to `fail.status` and compared too;
  - `fpsi check-mesh` on channel:4 written as a native-format mesh file,
    whose stdout is saved as `check-mesh.txt`, and a 3-step BDF2 `fpsi run`
    with that file as its mesh source and VTK output every step, so the
    file readers are compared too; the file is written once, by the test
    suite's `write_native`, and both sides read it;
  - `fpsi mms stokes`, `fpsi mms biot` and `fpsi mms time` at their default
    levels;
  - `fpsi config-template`, whose stdout is saved as `config-template.ini`,
    so no default of the run can change unseen.

Every file either side writes is compared byte for byte.  Prints each file
that differs or that only one side wrote, and exits 1 if there is any.  For
a text file that differs only in its numbers, it also prints the largest
relative difference |a - b| / max(|a|, |b|) between the numeric tokens the
two sides wrote in the same place, and the largest |a - b| relative to the
largest |value| of the file, so a roundoff-level change can be told from a
real one, also where it falls on values near zero.  A legacy VTK file is
scaled block by block instead: each data block (the points, the cells, each
SCALARS or VECTORS field) that differs is named with its largest |a - b|
relative to its own largest |value|, so the point ids and the pressure do
not set the scale of a change in the velocity.  An `.npz` archive is
compared array by array in the same way.
"""

import io
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
RUN_CONFIGS = {
    "run": """[run]
scenario = pressure_wave_2d
order = 2
dt = 1e-4
t_end = 3e-3
output_dir = {out}
output_every = 10
checkpoint = final.npz
dump_matrix = {out}/A.mtx
[mesh]
source = channel:16
[material]
K = 1e-5
""",
    "stiff": """[run]
scenario = pressure_wave_2d
order = 1
dt = 1e-4
t_end = 1e-3
output_dir = {out}
output_every = 0
[mesh]
source = channel:16
[material]
K = 5e-13
""",
    "mesh_file": """[run]
scenario = pressure_wave_2d
order = 2
dt = 1e-4
t_end = 3e-4
output_dir = {out}
output_every = 1
[mesh]
source = {mesh}
[material]
K = 1e-5
""",
}
FAILING_CONFIG = """[run]
scenario = pressure_wave_2d
order = 1
dt = 1e-4
t_end = 5e-4
output_dir = {out}
output_every = 0
[mesh]
source = channel:4
[material]
K = 1e-5
[forcing]
p_ext = 1e8
"""
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NUMBER = re.compile(rb"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def fpsi(src: Path, *args: str, check: bool = True) -> subprocess.CompletedProcess:
    """`fpsi <args>` with the package in `src`; stdout is captured.  With
    check=False a failure does not raise, and stderr is captured too."""
    env = dict(os.environ, PYTHONPATH=str(src), **{var: "1" for var in THREAD_VARS})
    return subprocess.run([sys.executable, "-m", "fpsi.cli", *args], env=env, check=check,
                          stdout=subprocess.PIPE,
                          stderr=None if check else subprocess.PIPE, text=True)


def write_mesh_file(path: Path) -> None:
    """channel:4 as a native-format mesh file, written with the working
    tree's package by the writer of the mesh tests."""
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from fpsi.scenarios import channel_mesh
    from tests.test_mesh import write_native
    write_native(channel_mesh(4), str(path))


def outputs(src: Path, out: Path, mesh: Path) -> dict:
    """Run the protocol with the package in `src` and the mesh file `mesh`;
    every file written under `out`, by path relative to it, with its bytes."""
    out.mkdir()
    for name, text in RUN_CONFIGS.items():
        config = out.parent / ("%s_%s.ini" % (out.name, name))
        config.write_text(text.format(out=out / name, mesh=mesh))
        fpsi(src, "run", str(config), "--quiet")
    (out / "check-mesh.txt").write_text(fpsi(src, "check-mesh", str(mesh)).stdout)
    config = out.parent / ("%s_fail.ini" % out.name)
    config.write_text(FAILING_CONFIG.format(out=out / "fail"))
    failed = fpsi(src, "run", str(config), "--quiet", check=False)
    (out / "fail.status").write_text("exit %d\n%s" % (failed.returncode, failed.stderr))
    for case in ("stokes", "biot", "time"):
        fpsi(src, "mms", case, "--output", str(out / ("mms_" + case)))
    (out / "config-template.ini").write_text(fpsi(src, "config-template").stdout)
    return {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}


def paired_numbers(before: bytes, after: bytes):
    """The numeric tokens two versions of a file wrote in the same places,
    as two float arrays, or why they cannot be paired."""
    if b"\0" in before + after:
        return "binary"
    parts = [NUMBER.split(text) for text in (before, after)]
    if len(parts[0]) != len(parts[1]) or parts[0][0::2] != parts[1][0::2]:
        return "text differs beyond its numbers"
    return tuple(np.array([float(t) for t in p[1::2]]) for p in parts)


def relative_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| / max(|a|, |b|) over the pairs that differ."""
    differ = a != b
    if not differ.any():
        return 0.0
    a, b = a[differ], b[differ]
    return float((np.abs(a - b) / np.maximum(np.abs(a), np.abs(b))).max())


def scaled_difference(a: np.ndarray, b: np.ndarray) -> float:
    """Largest |a - b| relative to the largest |value| of a and b; a
    non-finite largest |a - b| is returned as it is."""
    diff = float(np.abs(a - b).max(initial=0.0))
    if not diff or not math.isfinite(diff):
        return diff
    return diff / max(float(np.abs(a).max()), float(np.abs(b).max()))


def number_difference(before: bytes, after: bytes) -> str:
    """How two versions of a file differ: the largest relative difference
    between their numeric tokens, when everything else in them agrees."""
    pair = paired_numbers(before, after)
    if isinstance(pair, str):
        return pair
    return ("largest relative difference %.1e, largest difference %.1e of the file's "
            "largest value" % (relative_difference(*pair), scaled_difference(*pair)))


def vtk_blocks(data: bytes) -> list:
    """The blocks of a legacy ASCII VTK file, in file order, as [name, the
    number of numeric tokens in it].  A header is a line that does not start
    with a number, and its own numbers (counts, a version) are a block of
    their own; a SCALARS or VECTORS data block is named by its field, any
    other by its keyword, and a LOOKUP_TABLE line belongs to the block above
    it."""
    blocks = [["", 0]]
    for line in data.splitlines():
        words = line.split()
        count = len(NUMBER.findall(line))
        if words and not NUMBER.fullmatch(words[0]) and words[0] != b"LOOKUP_TABLE":
            named = words[0] in (b"SCALARS", b"VECTORS") and len(words) > 1
            name = (words[1] if named else words[0]).decode(errors="replace")
            blocks += [[name + " header", count], [name, 0]]
        else:
            blocks[-1][1] += count
    return blocks


def vtk_difference(before: bytes, after: bytes) -> str:
    """How two versions of a legacy VTK file differ: `number_difference`
    with the file's scale replaced by each data block's own."""
    pair = paired_numbers(before, after)
    if isinstance(pair, str):
        return pair
    parts = []
    start = 0
    for name, count in vtk_blocks(before):
        a, b = (x[start:start + count] for x in pair)
        start += count
        if not np.array_equal(a, b):
            parts.append("%s %.1e" % (name, scaled_difference(a, b)))
    return ("largest relative difference %.1e, largest difference of each data block's "
            "largest value: %s" % (relative_difference(*pair), ", ".join(parts) or "none"))


def array_difference(before: bytes, after: bytes) -> str:
    """How two versions of an `.npz` archive differ, array by array: for
    each numeric array that differs, its largest |a - b| relative to its
    largest |value|."""
    arrays = []
    for data in (before, after):
        with np.load(io.BytesIO(data), allow_pickle=False) as npz:
            arrays.append(dict(npz))
    a, b = arrays
    if a.keys() != b.keys():
        return "array names differ"
    parts = []
    for name in sorted(a):
        x, y = a[name], b[name]
        if x.shape != y.shape or x.dtype != y.dtype:
            parts.append("%s: shape or type differs" % name)
        elif x.dtype.kind not in "fiu":
            if not np.array_equal(x, y):
                parts.append("%s: contents differ" % name)
        elif not np.array_equal(x, y, equal_nan=True):
            parts.append("%s %.1e" % (name, scaled_difference(x.astype(float), y)))
    if not parts:
        return "arrays equal, archives differ"
    return "arrays differ, largest difference of each array's largest value: " \
        + ", ".join(parts)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/same_outputs.py <git-rev>", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", argv[0], "src"],
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        mesh = tmp / "channel4.txt"
        write_mesh_file(mesh)
        before = outputs(tmp / "rev" / "src", tmp / "before", mesh)
        after = outputs(ROOT / "src", tmp / "after", mesh)
    differ = sorted(name for name in before.keys() | after.keys()
                    if before.get(name) != after.get(name))
    for name in differ:
        if name not in before or name not in after:
            how = "written by one side only"
        elif name.endswith(".npz"):
            how = array_difference(before[name], after[name])
        elif name.endswith(".vtk"):
            how = vtk_difference(before[name], after[name])
        else:
            how = number_difference(before[name], after[name])
        print("differs: %s (%s)" % (name, how))
    print("%d of %d files differ from %s" % (len(differ), len(before.keys() | after.keys()),
                                              argv[0]))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
